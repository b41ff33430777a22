"""Dyadic ultrametrics on view sequences and schedule words, balls, and
the product and disjoint-union combinations.

Distances are exact `Fraction`s.  View sequences are finite truncations
of a per-step view record; comparing two truncations that agree all the
way to their end is only conclusive when they are flagged complete,
otherwise the comparison raises `UndeterminedDistance` so the caller
can deepen.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .errors import UndeterminedDistance, Unsupported
from .models import ExecutionWord
from .simplicial import Frozen

DIFFERENT_PART_DISTANCE = Fraction(2)


class ViewSequence(Frozen):
    """Per-step views of one process; entry t is the view right after
    step t.  `complete` marks the truncation as the whole point, which
    makes equality of truncations mean distance zero."""

    __slots__ = ("color", "entries", "complete")

    def __init__(self, color: int, entries: tuple, complete: bool):
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "complete", complete)


def view_distance(a: ViewSequence, b: ViewSequence) -> Fraction:
    """2**-T for the first index T where the views differ; 0 for equal
    sequences; 2 across different colors (disjoint-union convention)."""
    if a.color != b.color:
        return DIFFERENT_PART_DISTANCE
    common = min(len(a.entries), len(b.entries))
    for t in range(common):
        if a.entries[t] != b.entries[t]:
            return Fraction(1, 2**t)
    if len(a.entries) == len(b.entries) and (a.complete and b.complete):
        return Fraction(0)
    raise UndeterminedDistance(common)


def _letters(w, i: int):
    if isinstance(w, ExecutionWord):
        return w.letter(i)
    return w[i]


def _compare_bound(w1, w2) -> int:
    def parts(w):
        if isinstance(w, ExecutionWord):
            return len(w.stem), len(w.cycle)
        return len(w), 1

    s1, c1 = parts(w1)
    s2, c2 = parts(w2)
    return s1 + s2 + lcm(c1, c2) + 1


def exec_distance(w1, w2) -> Fraction:
    """2**-K where K is the first round with a different schedule.

    Accepts finite words (tuples of schedules) and eventually periodic
    `ExecutionWord`s.  Equal arguments are at distance zero; a finite
    word that is a proper prefix of the other argument counts as
    diverging right after its last letter.
    """
    for k in range(_compare_bound(w1, w2)):
        in1 = isinstance(w1, ExecutionWord) or k < len(w1)
        in2 = isinstance(w2, ExecutionWord) or k < len(w2)
        if not in1 and not in2:
            return Fraction(0)
        if not in1 or not in2:
            return Fraction(1, 2**k)
        if _letters(w1, k) != _letters(w2, k):
            return Fraction(1, 2**k)
    # two eventually periodic words that agree beyond both stems plus a
    # full common period are equal
    return Fraction(0)


class Ball:
    """An open ball of dyadic radius 2**-T."""

    __slots__ = ("center", "radius")

    def __init__(self, center: object, radius: Fraction):
        r = Fraction(radius)
        if r <= 0 or r > 1 or r.numerator != 1 or (r.denominator & (r.denominator - 1)):
            raise Unsupported(f"radius must be 2**-T for some T >= 0, got {radius}")
        self.center, self.radius = center, radius


def ball_members(ball: Ball, universe: Sequence, distance: Callable) -> list:
    return [u for u in universe if distance(ball.center, u) < ball.radius]


def ball_trichotomy(b1: Ball, b2: Ball, universe: Sequence, distance: Callable) -> str:
    """Resolve the ultrametric ball alternative over a finite universe.

    Returns "disjoint", "b1<=b2", or "b2<=b1"; equal member sets report
    "b1<=b2".  Anything else means the distance is not an ultrametric
    on the universe.
    """
    m1 = set(ball_members(b1, universe, distance))
    m2 = set(ball_members(b2, universe, distance))
    if m1 <= m2:
        return "b1<=b2"
    if m2 <= m1:
        return "b2<=b1"
    if not (m1 & m2):
        return "disjoint"
    raise Unsupported("balls overlap without nesting; not an ultrametric universe")


class ProductDistance:
    __slots__ = ("value", "tail_bound")

    def __init__(self, value: Fraction, tail_bound: Fraction):
        self.value, self.tail_bound = value, tail_bound


def product_distance(
    xs: Sequence, ys: Sequence, component_metrics: Sequence[Callable]
) -> ProductDistance:
    """Truncated product metric sum_i 2**-i * d_i/(1+d_i) with an explicit
    bound for the dropped tail.  The tail bound 2**-len assumes each
    component distance is at most 1."""
    if len(xs) != len(ys) or len(xs) != len(component_metrics):
        raise Unsupported("product metric needs equal truncation lengths")
    total = Fraction(0)
    for i, (x, y, d) in enumerate(zip(xs, ys, component_metrics)):
        di = Fraction(d(x, y))
        total += Fraction(1, 2**i) * di / (1 + di)
    return ProductDistance(total, Fraction(1, 2 ** len(xs)))
