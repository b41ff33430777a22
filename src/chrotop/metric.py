"""Dyadic ultrametrics on view sequences and schedule words, balls, and
the product and disjoint-union combinations.

Distances are exact `Fraction`s.  View sequences are finite truncations
of a per-step view record; comparing two truncations that agree all the
way to their end is only conclusive when they are flagged complete,
otherwise the comparison raises `UndeterminedDistance` so the caller
can deepen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .errors import UndeterminedDistance, Unsupported
from .models import ExecutionWord

DIFFERENT_PART_DISTANCE = Fraction(2)


@dataclass(frozen=True)
class ViewSequence:
    """Per-step views of one process; entry t is the view right after
    step t.  `complete` marks the truncation as the whole point, which
    makes equality of truncations mean distance zero."""

    color: int
    entries: tuple
    complete: bool = False

    def __len__(self):
        return len(self.entries)

    def truncate(self, length: int) -> "ViewSequence":
        return ViewSequence(self.color, self.entries[:length], False)


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


def first_view_divergence(a: ViewSequence, b: ViewSequence):
    """The index of the first differing entry, or None if none within the
    common truncation."""
    common = min(len(a.entries), len(b.entries))
    for t in range(common):
        if a.entries[t] != b.entries[t]:
            return t
    return None


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


@dataclass(frozen=True)
class Ball:
    """An open ball of dyadic radius 2**-T."""

    center: object
    radius: Fraction

    def __post_init__(self):
        r = Fraction(self.radius)
        if r <= 0 or r > 1 or r.numerator != 1 or (r.denominator & (r.denominator - 1)):
            raise Unsupported(f"radius must be 2**-T for some T >= 0, got {self.radius}")


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


@dataclass(frozen=True)
class ProductDistance:
    value: Fraction
    tail_bound: Fraction


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
