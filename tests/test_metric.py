import random
from fractions import Fraction

import pytest

from chrotop.errors import UndeterminedDistance, Unsupported
from chrotop.metric import (
    Ball,
    ViewSequence,
    ball_trichotomy,
    exec_distance,
    product_distance,
    view_distance,
)
from chrotop.models import ExecutionWord, builtin_model, enumerate_prefixes, word
from chrotop.checker import build_time_T
from chrotop.protocol import Execution, execution_configurations, view_chain
from chrotop.tasks import inputless_consensus, set_agreement

IIS2 = builtin_model("iis2")
CONS2 = inputless_consensus(2)
FACE2 = CONS2.inputs.facets[0]


def view_seq(w, color, complete=True):
    cfgs = execution_configurations(Execution(FACE2, w))
    return ViewSequence(color, tuple(c.vertex_of_color(color) for c in cfgs), complete)


def test_view_distance_examples():
    w = word("<->", "<-")
    assert view_distance(view_seq(w, 0), view_seq(w, 0)) == 0
    # right process sees the difference between <-> and <- immediately
    assert view_distance(view_seq(word("<->"), 1), view_seq(word("<-"), 1)) == Fraction(1, 2)
    # initial views differ only with different inputs; same-color initial views agree
    a = ViewSequence(0, ("x",), True)
    b = ViewSequence(0, ("y",), True)
    assert view_distance(a, b) == 1


def test_view_distance_undetermined():
    a = view_seq(word("<->", "<->"), 0, complete=False)
    b = view_seq(word("<->", "<-"), 0, complete=False)
    # the left process receives the right's message in both rounds and
    # sees identical histories up to this truncation
    with pytest.raises(UndeterminedDistance) as err:
        view_distance(a, b)
    assert err.value.t_min == 3


def test_cross_color_distance_exceeds_within_part():
    ws = enumerate_prefixes(IIS2, 3)
    worst = max(
        view_distance(view_seq(w1, c), view_seq(w2, c))
        for c in (0, 1)
        for w1 in ws
        for w2 in ws
    )
    assert worst <= 1
    assert view_distance(view_seq(ws[0], 0), view_seq(ws[0], 1)) == 2 > worst


def test_exec_distance_examples():
    w1 = word("<->", "<-")
    assert exec_distance(w1, w1) == 0
    assert exec_distance(word("<->", "<-"), word("<-", "<-")) == 1
    e = ExecutionWord(word("<->"), word("<-"))
    for k in range(1, 5):
        shared = e.prefix(k) + word("->")
        assert exec_distance(e, shared) == Fraction(1, 2**k)
    assert exec_distance(e, e) == 0
    assert exec_distance(e, ExecutionWord(word("<->", "<-"), word("<-"))) == 0


def _ultrametric_suite(points, distance):
    n = len(points)
    d = [[distance(points[i], points[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert (d[i][j] == 0) == (points[i] == points[j])
            assert d[i][j] == d[j][i]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i][k] <= max(d[i][j], d[j][k])


def test_exec_ultrametric_depth3_exhaustive():
    _ultrametric_suite(enumerate_prefixes(IIS2, 3), exec_distance)


def test_view_ultrametric_depth3_exhaustive():
    for color in (0, 1):
        views = sorted(
            {view_seq(w, color) for w in enumerate_prefixes(IIS2, 3)},
            key=lambda s: tuple(repr(e) for e in s.entries),
        )
        _ultrametric_suite(views, view_distance)


def test_view_ultrametric_three_processes_sampled():
    iis3 = builtin_model("iis3")
    cons3 = inputless_consensus(3)
    face = cons3.inputs.facets[0]
    rng = random.Random(7)
    words = enumerate_prefixes(iis3, 2)
    sample = rng.sample(words, 40)

    def seq(w, color):
        cfgs = execution_configurations(Execution(face, w))
        return ViewSequence(color, tuple(c.vertex_of_color(color) for c in cfgs), True)

    for color in range(3):
        views = list({seq(w, color) for w in sample})
        _ultrametric_suite(views, view_distance)


def test_ball_equivalence_prefix_property():
    ws = enumerate_prefixes(IIS2, 3)
    views = [view_seq(w, 0) for w in ws]
    for T in range(3):
        radius = Fraction(1, 2**T)
        for a in views:
            for b in views:
                same_ball = view_distance(a, b) < radius
                assert same_ball == (a.entries[: T + 1] == b.entries[: T + 1])


@pytest.mark.parametrize("model, task, depth", [
    ("iis2", inputless_consensus(2), 5),
    ("iis3", set_agreement(3), 2),
], ids=["iis2", "iis3-set-agreement"])
def test_a_ball_of_radius_2_to_the_minus_t_is_a_depth_t_view(model, task, depth):
    # checker's claim: within P_T, the view chains of u and v are closer
    # than 2**-t exactly when u and v have the same depth-t view
    for T in range(depth + 1):
        by_color: dict = {}
        for v in build_time_T(builtin_model(model), task, T).complex.vertices():
            chain = tuple(view_chain(v))
            by_color.setdefault(v.color, []).append((chain, ViewSequence(v.color, chain, True)))
        for pairs in by_color.values():
            for chain_u, seq_u in pairs:
                for chain_v, seq_v in pairs:
                    d = view_distance(seq_u, seq_v)
                    for t in range(T + 1):
                        same_view = chain_u[t] == chain_v[t]
                        assert (d < Fraction(1, 2**t)) == same_view
                        assert same_view == (chain_u[t] is chain_v[t])


def test_ball_trichotomy_exhaustive_depths():
    for depth in (1, 2, 3):
        universe = enumerate_prefixes(IIS2, depth)
        radii = [Fraction(1, 2**t) for t in range(depth + 1)]
        for c1 in universe[:: max(1, depth)]:
            for c2 in universe[:: max(1, depth)]:
                for r1 in radii:
                    for r2 in radii:
                        outcome = ball_trichotomy(
                            Ball(c1, r1), Ball(c2, r2), universe, exec_distance
                        )
                        assert outcome in ("disjoint", "b1<=b2", "b2<=b1")


def test_ball_trichotomy_examples():
    universe = enumerate_prefixes(IIS2, 2)
    same = ball_trichotomy(
        Ball(universe[0], Fraction(1, 2)), Ball(universe[0], Fraction(1, 2)), universe, exec_distance
    )
    assert same == "b1<=b2"
    nested = ball_trichotomy(
        Ball(universe[0], Fraction(1, 4)), Ball(universe[0], Fraction(1, 2)), universe, exec_distance
    )
    assert nested == "b1<=b2"
    w_left = next(w for w in universe if w[0] == ((0,), (1,)))
    w_right = next(w for w in universe if w[0] == ((1,), (0,)))
    assert (
        ball_trichotomy(Ball(w_left, Fraction(1, 4)), Ball(w_right, Fraction(1, 4)), universe, exec_distance)
        == "disjoint"
    )


def test_ball_radius_validation():
    with pytest.raises(Unsupported):
        Ball("x", Fraction(1, 3))


def test_product_distance_examples():
    discrete = lambda a, b: 0 if a == b else 1
    metrics = [discrete] * 4
    same = product_distance([1, 2, 3, 4], [1, 2, 3, 4], metrics)
    assert same.value == 0
    assert same.tail_bound == Fraction(1, 16)
    single = product_distance([1, 2, 3, 4], [1, 2, 9, 4], metrics)
    assert single.value == Fraction(1, 4) * Fraction(1, 2)
    all_diff = product_distance([1, 2, 3, 4], [9, 9, 9, 9], metrics)
    assert all_diff.value == sum(Fraction(1, 2**i) * Fraction(1, 2) for i in range(4))
