import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from chrotop.errors import BadArity, BadIndices, Unsupported
from chrotop.models import (
    ExecutionWord,
    ModelSpec,
    builtin_model,
    enumerate_prefixes,
    load_model_json_obj,
    schedule_text,
    word,
)
from chrotop.simplicial import (
    CarrierMap,
    Complex,
    Simplex,
    SimplicialMap,
    Vertex,
    carried_by,
    check_simplicial_chromatic,
)
from chrotop.subdivision import (
    TerminatingSubdivision,
    chr_iterate,
    coordinates,
    edge_position,
    ordered_partitions,
    policy_all_at_zero,
    prefix_policy,
)
from chrotop.protocol import (
    all_executions,
    check_solves,
    execution_configurations,
    synthesize_from_stable_map,
    synthesize_from_time_map,
    view_chain,
)
from chrotop.tasks import Task, inputless_consensus, set_agreement
import chrotop.checker
import chrotop.subdivision
from chrotop.checker import (
    TerminationCertificateReport,
    Verdict,
    _disconnecting,
    _excluded_point_values,
    _search_constraints,
    _search_order,
    build_time_T,
    certify_consensus_impossible,
    connecting_map_fST,
    limit_position,
    search_decision_map,
    solve,
    sperner_evidence,
    verify_termination_certificate,
)
from oracles import (
    cell_of_word,
    diameter,
    geometric_containment,
    reference_consensus,
    reference_coordinates,
    reference_disconnecting,
    reference_distance,
    reference_limit_position,
    reference_points,
    reference_simplex_key,
    reference_sperner,
    reference_vertex_key,
)

M1 = builtin_model("m1")
M2 = builtin_model("m2")
IIS2 = builtin_model("iis2")
IIS3 = builtin_model("iis3")
# allows not even the empty word: no execution of both processes
NO_FULL_RUN = ModelSpec(n=2, name="solo", kind="custom", predicate=lambda participants, w: False)
CONS = inputless_consensus(2)

R, L, B = ((0,), (1,)), ((1,), (0,)), ((0, 1),)
M1_POLICY = prefix_policy({1: [(R,)], 2: [(L, s) for s in (R, B, L)]})


def m2_naive_policy(max_depth):
    words = {1: [(R,), (L,)]}
    for j in range(2, max_depth + 1):
        words[j] = [(B,) + (L,) * (j - 2) + (s,) for s in (R, B)]
    return prefix_policy(words)


def split_delta(stable, base):
    return SimplicialMap(
        {
            v: Vertex(v.color, 0 if edge_position(v.label, base) <= Fraction(1, 3) else 1)
            for v in stable.vertices()
        }
    )


# -- time-T complexes ---------------------------------------------------------


def test_time_complex_iis_round_one():
    P1 = build_time_T(IIS2, CONS, 1)
    assert len(P1.complex.vertices()) == 4
    assert len(P1.complex.facets) == 3
    # views are subdivision vertices, so the complexes coincide exactly
    assert P1.complex.facets == chr_iterate(CONS.inputs, 1).facets


def test_time_complex_m1_round_one_misses_central_edge():
    P1 = build_time_T(M1, CONS, 1)
    assert len(P1.complex.vertices()) == 4
    assert len(P1.complex.facets) == 2


def test_time_zero_is_input_complex():
    P0 = build_time_T(M1, CONS, 0)
    assert set(P0.complex.vertices()) == set(CONS.inputs.vertices())
    assert P0.complex.facets == CONS.inputs.facets


def test_xi_respects_participation():
    P1 = build_time_T(IIS2, CONS, 1)
    left = Simplex([Vertex(0, 0)])
    image = P1.xi(left)
    assert len(image.vertices()) == 1
    (v,) = image.vertices()
    assert v.color == 0


def test_ball_partition_invariant():
    for T in (1, 2, 3):
        PT = build_time_T(IIS2, CONS, T)
        balls = set(PT.complex.vertices())
        for execution in all_executions(IIS2, CONS.inputs, T):
            final = execution_configurations(execution)[-1]
            for color in execution.face.colors():
                assert final.vertex_of_color(color) in balls


# -- search --------------------------------------------------------------------


def test_m1_map_found_at_time_one_not_zero():
    assert search_decision_map(build_time_T(M1, CONS, 0), CONS) is None
    delta = search_decision_map(build_time_T(M1, CONS, 1), CONS)
    assert delta is not None
    P1 = build_time_T(M1, CONS, 1)
    assert check_simplicial_chromatic(delta, P1.complex, CONS.outputs).ok
    assert carried_by(delta, P1.xi, CONS.delta, CONS.inputs).carried


@pytest.mark.parametrize("T", [0, 1, 2, 3])
def test_iis_has_no_map(T):
    assert search_decision_map(build_time_T(IIS2, CONS, T), CONS) is None


def test_trivial_task_constant_map_at_time_zero():
    outputs = Complex([Simplex([Vertex(0, 0), Vertex(1, 0)])])
    anything = Task(
        "anything",
        CONS.inputs,
        outputs,
        CarrierMap({s: outputs for s in CONS.inputs.simplexes()}),
    )
    delta = search_decision_map(build_time_T(IIS2, anything, 0), anything)
    assert delta is not None


def enumerate_all_decision_maps(PT, task):
    """Oracle: every chromatic map from P_T to the outputs that is carried
    by delta, tried one by one over all color-preserving assignments."""
    vertices = list(PT.complex.vertices())
    out_by_color = {}
    for o in task.outputs.vertices():
        out_by_color.setdefault(o.color, []).append(o)
    pools = [out_by_color.get(v.color, []) for v in vertices]
    found = []
    for combo in product(*pools):
        delta = SimplicialMap(dict(zip(vertices, combo)))
        if (check_simplicial_chromatic(delta, PT.complex, task.outputs).ok
                and carried_by(delta, PT.xi, task.delta, task.inputs).carried):
            found.append(delta)
    return found


def test_search_matches_brute_force_enumeration():
    for model in (M1, IIS2):
        PT = build_time_T(model, CONS, 1)
        brute = enumerate_all_decision_maps(PT, CONS)
        found = search_decision_map(PT, CONS)
        assert (found is not None) == bool(brute)
        if found is not None:
            assert any(found == m for m in brute)


def test_search_deterministic():
    a = search_decision_map(build_time_T(M1, CONS, 1), CONS)
    b = search_decision_map(build_time_T(M1, CONS, 1), CONS)
    assert a == b


def test_search_depth_exceeds_recursion_limit():
    # P_7 has more views than the default recursion limit; the search
    # backtracks without recursing and finds no map
    PT = build_time_T(IIS2, CONS, 7)
    assert len(PT.complex.vertices()) > sys.getrecursionlimit()
    assert search_decision_map(PT, CONS) is None


def quadratic_search_order(vertices, candidates, constraints, by_vertex):
    """Reference: rescan the unplaced frontier for its least-ranked vertex
    at every step."""
    memo: dict = {}

    def rank(v):
        return (len(candidates[v]), reference_vertex_key(v, memo))

    order = []
    frontier = set()
    remaining = set(vertices)
    while remaining:
        pool = frontier & remaining
        pick = min(pool, key=rank) if pool else min(remaining, key=rank)
        order.append(pick)
        remaining.discard(pick)
        for idx in by_vertex[pick]:
            frontier.update(constraints[idx][0])
    return order


@pytest.mark.parametrize("model, task, T", [
    (IIS2, CONS, 6),
    (M1, CONS, 5),
    (M2, CONS, 5),
    (IIS3, set_agreement(3), 2),
    (IIS3, inputless_consensus(3), 2),
], ids=["iis2-T6", "m1-T5", "m2-T5", "iis3-set-agreement-T2", "iis3-consensus-T2"])
def test_search_order_matches_quadratic_reference(model, task, T):
    PT = build_time_T(model, task, T)
    vertices = PT.complex.vertices()
    candidates, constraints, by_vertex = _search_constraints(PT, task)
    order = _search_order(vertices, candidates, constraints, by_vertex)
    assert order == quadratic_search_order(vertices, candidates, constraints, by_vertex)
    # the same candidates and order as with every facet of P_T also
    # constrained into the outputs
    assert candidates == reference_vertex_candidates(PT, task)
    assert order == _search_order(vertices, candidates, *reference_search_constraints(PT, task))


def reference_vertex_candidates(PT, task):
    """Reference: each vertex's outputs of its color, narrowed by a
    `Simplex`-in-`Complex` test for each delta(sigma) whose xi(sigma)
    holds it."""
    out_by_color = {}
    for o in task.outputs.vertices():
        out_by_color.setdefault(o.color, []).append(o)
    candidates = {v: list(out_by_color.get(v.color, [])) for v in PT.complex.vertices()}
    for sigma in task.inputs.simplexes():
        allowed = task.delta(sigma)
        for v in PT.xi(sigma).vertices():
            candidates[v] = [o for o in candidates[v] if Simplex([o]) in allowed]
    return candidates


def reference_search_constraints(PT, task):
    """Reference: (facet vertices, allowed complex) for every facet of P_T
    into the outputs and every facet of xi(sigma) into delta(sigma), and
    per vertex the indices of the constraints on it."""
    constraints = [(f.vertices, task.outputs) for f in PT.complex.facets]
    for sigma in task.inputs.simplexes():
        allowed = task.delta(sigma)
        constraints.extend((g.vertices, allowed) for g in PT.xi(sigma).facets)
    by_vertex = {v: [] for v in PT.complex.vertices()}
    for idx, (verts, _) in enumerate(constraints):
        for v in verts:
            by_vertex[v].append(idx)
    return constraints, by_vertex


def reference_search(PT, task):
    """Reference: the search as it tested each partial image, by building
    a `Simplex` and scanning the allowed `Complex` for it, with every facet
    of P_T also checked against the outputs."""
    candidates = reference_vertex_candidates(PT, task)
    if any(not c for c in candidates.values()):
        return None
    constraints, by_vertex = reference_search_constraints(PT, task)
    order = _search_order(PT.complex.vertices(), candidates, constraints, by_vertex)
    assignment = {}

    def consistent(v):
        for idx in by_vertex[v]:
            verts, allowed = constraints[idx]
            assigned = [assignment[u] for u in verts if u in assignment]
            if assigned and Simplex(assigned) not in allowed:
                return False
        return True

    stack = [iter(candidates[order[0]])]
    while stack:
        v = order[len(stack) - 1]
        for o in stack[-1]:
            assignment[v] = o
            if consistent(v):
                if len(stack) == len(order):
                    return SimplicialMap(assignment)
                stack.append(iter(candidates[order[len(stack)]]))
                break
        else:
            del assignment[v]
            stack.pop()
    return None


def approximate_agreement(top):
    """Two processes decide values in 0..top: solo, process 0 decides 0 and
    process 1 decides `top`; together they decide values at most 1 apart.
    So delta of the input edge is a proper subcomplex of the outputs."""
    edge = CONS.inputs.facets[0]
    pairs = [(x, y) for x in range(top + 1) for y in range(top + 1)]
    outputs = Complex([Simplex([Vertex(0, x), Vertex(1, y)]) for x, y in pairs])
    close = Complex([Simplex([Vertex(0, x), Vertex(1, y)]) for x, y in pairs if abs(x - y) <= 1])
    images = {
        Simplex([edge.vertex_of_color(0)]): Complex([Simplex([Vertex(0, 0)])]),
        Simplex([edge.vertex_of_color(1)]): Complex([Simplex([Vertex(1, top)])]),
        edge: close,
    }
    return Task(f"approximate-agreement:{top}", CONS.inputs, outputs, CarrierMap(images))


APPROX = approximate_agreement(4)


@pytest.mark.parametrize("model, task, depth", [
    (IIS2, CONS, 6),
    (M1, CONS, 5),
    (M2, CONS, 5),
    (IIS3, set_agreement(3), 2),
    (IIS3, inputless_consensus(3), 2),
    (IIS2, APPROX, 4),
    (M1, APPROX, 4),
    (M2, APPROX, 4),
], ids=["iis2-T6", "m1-T5", "m2-T5", "iis3-set-agreement-T2", "iis3-consensus-T2",
        "iis2-approx-T4", "m1-approx-T4", "m2-approx-T4"])
def test_search_matches_simplex_membership_reference(model, task, depth):
    found = []
    for T in range(depth + 1):
        PT = build_time_T(model, task, T)
        delta = search_decision_map(PT, task)
        reference = reference_search(PT, task)
        assert (delta is None) == (reference is None)
        if delta is not None:
            assert delta.mapping == reference.mapping
            assert check_simplicial_chromatic(delta, PT.complex, task.outputs).ok
            assert carried_by(delta, PT.xi, task.delta, task.inputs).carried
        found.append(delta is not None)
    if task is APPROX and model is IIS2:
        # values 0 and 4 are four steps apart: P_0 and P_1 have too few edges
        assert found == [False, False, True, True, True]


def test_approximate_agreement_delta_differs_from_the_outputs():
    edge = APPROX.inputs.facets[0]
    assert APPROX.delta(edge) != APPROX.outputs
    assert APPROX.delta(edge).is_subcomplex_of(APPROX.outputs)
    # a map into the outputs that ignores delta(edge) exists where none is carried
    PT = build_time_T(IIS2, APPROX, 1)
    loose = Task("loose", APPROX.inputs, APPROX.outputs,
                 CarrierMap({**APPROX.delta.images, edge: APPROX.outputs}))
    assert search_decision_map(PT, APPROX) is None
    assert search_decision_map(PT, loose) is not None


def maximal_facets(facets):
    """Reference: the facets no other facet strictly contains, compared
    pairwise."""
    distinct = set(facets)
    maximal = [f for f in distinct if not any(set(f) < set(g) for g in distinct)]
    memo: dict = {}
    return tuple(sorted(maximal, key=lambda s: reference_simplex_key(s, memo)))


@pytest.mark.parametrize("model, task, depth", [
    (IIS3, set_agreement(3), 2),
    (M1, CONS, 3),
], ids=["iis3-set-agreement", "m1-consensus"])
def test_time_T_complexes_keep_exactly_the_maximal_facets(monkeypatch, model, task, depth):
    built = []

    def recording(facets):
        facets = list(facets)
        built.append(facets)
        return Complex(facets)

    monkeypatch.setattr(chrotop.checker, "Complex", recording)
    for T in range(depth + 1):
        build_time_T(model, task, T)
    # P_T and one xi image per input simplex but the facet, whose image is
    # P_T itself, at every T
    assert len(built) == (depth + 1) * len(task.inputs.simplexes())
    assert any(len(maximal_facets(f)) < len(set(f)) for f in built)  # some builds drop facets
    for facets in built:
        assert Complex(facets).facets == maximal_facets(facets)


def test_mixed_dimension_complexes_keep_exactly_the_maximal_facets():
    a, b, c, d = (Vertex(i, x) for i, x in enumerate("abcd"))
    for facets in (
        [Simplex([a, b, c]), Simplex([a, b])],
        [Simplex([a, b, c]), Simplex([c, d])],
        [Simplex([a, b, c]), Simplex([c, d]), Simplex([d])],
        [Simplex([c, d]), Simplex([d, c]), Simplex([a])],
    ):
        assert Complex(facets).facets == maximal_facets(facets)


def test_time_T_maximality_filter_is_linear_on_the_ladder(monkeypatch):
    # comparing each smaller facet only with the larger facets that hold
    # its first vertex, in P_T and in the xi images of the proper faces;
    # comparing it with every facet, with xi(facet) a second copy of P_T,
    # made 144, 4545 and 163759 calls, quadratic in the 13, 169 and 2197 facets.
    # The facets are scanned in input order, so the counts follow the
    # execution walk, not hash values
    calls = 0
    issubset = Simplex.issubset

    def counting(self, other):
        nonlocal calls
        calls += 1
        return issubset(self, other)

    monkeypatch.setattr(Simplex, "issubset", counting)
    per_facet = []
    for T, expected in ((1, 25), (2, 78), (3, 279)):
        calls = 0
        PT = build_time_T(IIS3, set_agreement(3), T)
        assert calls == expected
        per_facet.append(calls / len(PT.complex.facets))
    assert per_facet == sorted(per_facet, reverse=True)


@pytest.mark.parametrize("model, task, depth", [
    (IIS2, CONS, 6),
    (IIS3, set_agreement(3), 3),
    (M1, CONS, 4),
    (M2, CONS, 4),
], ids=["iis2", "iis3-set-agreement", "m1", "m2"])
def test_xi_of_the_input_facet_is_P_T(model, task, depth):
    (facet,) = task.inputs.facets
    for T in range(depth + 1):
        PT = build_time_T(model, task, T)
        # every execution is compatible with the facet; each replayed alone
        executions = all_executions(model, task.inputs, T)
        rebuilt = Complex(execution_configurations(e)[-1] for e in executions)
        assert PT.xi(facet) == rebuilt
        assert PT.xi(facet) is PT.complex


@pytest.mark.parametrize("model, task, depth", [
    (IIS2, CONS, 6),
    (IIS3, set_agreement(3), 3),
], ids=["iis2", "iis3-set-agreement"])
def test_iis_time_T_complex_is_the_chromatic_subdivision(model, task, depth):
    for T in range(depth + 1):
        assert build_time_T(model, task, T).complex == chr_iterate(task.inputs, T)


# -- connecting maps -------------------------------------------------------------


def test_connecting_map_identity_and_truncation():
    P2 = build_time_T(IIS2, CONS, 2)
    P0 = build_time_T(IIS2, CONS, 0)
    f22 = connecting_map_fST(P2, P2)
    assert all(f22(b) == b for b in P2.complex.vertices())
    f02 = connecting_map_fST(P2, P0)
    assert set(f02.mapping.values()) <= set(CONS.inputs.vertices())


def test_connecting_map_functoriality_depth_three():
    for model in (IIS2, M2):
        Ps = {T: build_time_T(model, CONS, T) for T in range(4)}
        for r in range(4):
            for s in range(r, 4):
                for t in range(s, 4):
                    f_rt = connecting_map_fST(Ps[t], Ps[r])
                    f_rs = connecting_map_fST(Ps[s], Ps[r])
                    f_st = connecting_map_fST(Ps[t], Ps[s])
                    for ball in Ps[t].complex.vertices():
                        assert f_rt(ball) == f_rs(f_st(ball))


def test_projection_consistency():
    Ps = {T: build_time_T(IIS2, CONS, T) for T in range(4)}
    for execution in all_executions(IIS2, CONS.inputs, 3):
        configs = execution_configurations(execution)
        for color in execution.face.colors():
            for s in range(4):
                for t in range(s, 4):
                    f_st = connecting_map_fST(Ps[t], Ps[s])
                    assert f_st(configs[t].vertex_of_color(color)) == configs[s].vertex_of_color(color)


@pytest.mark.parametrize("model, calls", [(IIS2, 373), (M1, 252)])
def test_time_T_build_applies_each_schedule_prefix_once(monkeypatch, model, calls):
    # iis2 at T=5: 3+9+27+81+243 full-participation prefixes plus 5 per
    # solo face; m1 keeps two first rounds: 2+6+18+54+162 plus 2x5.
    # Replaying every iis2 execution from round 0 makes 5 x 245 = 1225.
    # Each schedule the subdivision kernel applies is counted.
    applied = 0
    children = chrotop.subdivision._children

    def counting(cell, schedules, table):
        nonlocal applied
        applied += len(schedules)
        return children(cell, schedules, table)

    monkeypatch.setattr(chrotop.subdivision, "_children", counting)
    build_time_T(model, CONS, 5)
    assert applied == calls


TRIANGLE = Complex([Simplex(Vertex(i, i) for i in range(3))])


@pytest.mark.parametrize("build, depth", [
    (lambda: build_time_T(IIS2, CONS, 5).complex, 5),
    (lambda: build_time_T(IIS3, set_agreement(3), 3).complex, 3),
    (lambda: chr_iterate(TRIANGLE, 3), 3),
    (lambda: chr_iterate(CONS.inputs, 7), 7),
], ids=["iis2", "iis3-set-agreement", "triangle-k3", "edge-k7"])
def test_time_T_build_makes_equal_views_one_object(build, depth):
    first: dict = {}  # each view and carrier value -> the first object met
    walked = set()
    stack = [v for f in build().facets for v in f]
    while stack:
        v = stack.pop()
        if id(v) in walked:
            continue
        walked.add(id(v))
        assert first.setdefault(v, v) is v
        if isinstance(v.label, Simplex):
            assert first.setdefault(v.label, v.label) is v.label
            stack.extend(v.label)
    depths = {len(view_chain(v)) for v in first if isinstance(v, Vertex)}
    assert depths == set(range(1, depth + 2))


def test_chr_iterate_builds_one_complex(monkeypatch):
    built = []

    class Counted(Complex):
        def __init__(self, facets):
            built.append(self)
            super().__init__(facets)

    monkeypatch.setattr(chrotop.subdivision, "Complex", Counted)
    K = chr_iterate(TRIANGLE, 3)
    assert built == [K] and len(K.facets) == 13**3


@pytest.mark.parametrize("build", [
    lambda: build_time_T(IIS2, CONS, 6).complex,
    lambda: build_time_T(IIS3, set_agreement(3), 3).complex,
    lambda: build_time_T(M1, CONS, 4).complex,
    lambda: build_time_T(M2, CONS, 4).complex,
    lambda: chr_iterate(TRIANGLE, 2),
], ids=["iis2", "iis3-set-agreement", "m1", "m2", "triangle-k2"])
def test_rank_order_matches_reference_vertex_key(build):
    # the JSON, SVG and DOT orders are the orders of vertices() and facets
    K = build()
    memo: dict = {}

    def same_objects(got, want):
        return len(got) == len(want) and all(a is b for a, b in zip(got, want))

    vertices = K.vertices()
    assert same_objects(vertices, sorted(vertices, key=lambda v: reference_vertex_key(v, memo)))
    assert same_objects(K.facets, sorted(K.facets, key=lambda f: reference_simplex_key(f, memo)))


def test_connecting_map_bad_indices():
    with pytest.raises(BadIndices):
        connecting_map_fST(build_time_T(IIS2, CONS, 1), build_time_T(IIS2, CONS, 2))


def test_connecting_map_functoriality_three_processes():
    from chrotop.models import builtin_model as bm
    from chrotop.tasks import inputless_consensus as ic

    iis3 = bm("iis3")
    cons3 = ic(3)
    Ps = {t: build_time_T(iis3, cons3, t) for t in range(3)}
    f02 = connecting_map_fST(Ps[2], Ps[0])
    f01 = connecting_map_fST(Ps[1], Ps[0])
    f12 = connecting_map_fST(Ps[2], Ps[1])
    for ball in Ps[2].complex.vertices():
        assert f02(ball) == f01(f12(ball))


# -- terminating-subdivision certificates ------------------------------------------


def test_termination_certificate_m1_all_conditions_pass():
    ts = TerminatingSubdivision(CONS.inputs, M1_POLICY)
    delta = split_delta(ts.stable_complex(2), CONS.inputs)
    report = verify_termination_certificate(ts, delta, M1, CONS, 2)
    assert report.admissible
    assert report.carried
    assert report.continuous
    assert report.ok


def test_a_negative_depth_is_refused_by_the_certificate_and_the_ball_rule():
    ts = TerminatingSubdivision(CONS.inputs, M1_POLICY)
    delta = split_delta(ts.stable_complex(2), CONS.inputs)
    with pytest.raises(Unsupported):
        verify_termination_certificate(ts, delta, M1, CONS, -1)
    with pytest.raises(Unsupported):
        synthesize_from_stable_map(delta, ts, -1)


def test_model_words_name_the_cells_of_a_terminating_subdivision():
    """`cell` takes a model's words as they are: the cell of each m1 word
    is the one `cell_of_word` builds, and it is the level's own facet."""
    levels = []

    def nothing(k, level, ts):
        levels.append(level)
        return []

    ts = TerminatingSubdivision(CONS.inputs, nothing)
    ts.materialize(3)
    words = enumerate_prefixes(M1, 3)
    assert len(words) == 18
    facets = {id(f) for f in levels[3].facets}
    for w in words:
        assert ts.cell(w) == cell_of_word(CONS.inputs.facets[0], w)
        assert id(ts.cell(w)) in facets
    assert id(ts.cell(word("<-", "->"))) in {id(f) for f in levels[2].facets}


def test_prefix_policy_takes_model_words():
    """The m1 policy spelled with `word` terminates the same cells, and
    gets the same certificate report, as its R/L/B spelling."""
    by_words = prefix_policy({1: [word("->")], 2: [word("<-", s) for s in ("->", "<->", "<-")]})
    from_words = TerminatingSubdivision(CONS.inputs, by_words)
    from_tuples = TerminatingSubdivision(CONS.inputs, M1_POLICY)
    assert from_words.stable_cells(5) == from_tuples.stable_cells(5)
    delta = split_delta(from_tuples.stable_complex(5), CONS.inputs)
    report = verify_termination_certificate(from_words, delta, M1, CONS, 5)
    assert report.ok
    assert report == verify_termination_certificate(from_tuples, delta, M1, CONS, 5)


def test_termination_certificate_m2_naive_candidate_discontinuous_at_excluded():
    ts = TerminatingSubdivision(CONS.inputs, m2_naive_policy(4))
    delta = split_delta(ts.stable_complex(4), CONS.inputs)
    report = verify_termination_certificate(ts, delta, M2, CONS, 4)
    assert report.carried
    assert not report.continuous
    assert report.closure_witness is not None
    assert report.closure_witness["excluded"] == "(<->)(<-)^w"
    assert sorted(report.closure_witness["values"]) == ["0", "1"]
    # the only uncovered prefixes lie on the excluded execution
    assert not report.admissible and report.uncovered_only_excluded


def test_termination_certificate_non_simplicial_map_fails_carrier():
    ts = TerminatingSubdivision(CONS.inputs, policy_all_at_zero)
    stable = ts.stable_complex(0)
    # both endpoints decide their own values: the image is not an output simplex
    delta = SimplicialMap({v: Vertex(v.color, v.color) for v in stable.vertices()})
    report = verify_termination_certificate(ts, delta, IIS2, CONS, 0)
    assert not report.carried
    assert report.carrier_witness is not None


def reference_termination_report(ts, delta, model, task, depth):
    """The certificate checked word by word: every prefix cell of every
    word rebuilt and tested afresh, D_k from the k-th subdivision."""
    base = ts.base
    base_facet = base.facets[0]
    stable_cells = ts.stable_cells(depth)
    uncovered = []
    points: dict = {}
    for w in enumerate_prefixes(model, depth):
        cells = [cell_of_word(base_facet, w[:k]) for k in range(depth + 1)]
        if not any(
            sc.depth <= k and geometric_containment(reference_points(cell, base, points), sc.points)
            for k, cell in enumerate(cells) for sc in stable_cells
        ):
            uncovered.append(w)
    only_excluded = bool(uncovered) and all(
        any(w == e.prefix(len(w)) for e in model.excluded) for w in uncovered
    )
    carrier_witness = None
    for sc in stable_cells:
        support = {v for pt in sc.points for v in pt.weights}
        sigma_min = Simplex(v for v in base_facet if v in support)
        image = delta.image(sc.geom_simplex())
        if image not in task.delta(sigma_min):
            carrier_witness = (sigma_min, sc.simplex, image)
            break
    stable_depth = {}
    for sc in stable_cells:
        for v in sc.geom_simplex():
            stable_depth[v] = max(stable_depth.get(v, 0), sc.depth)
    memo: dict = {}
    verts = sorted(stable_depth, key=lambda v: reference_vertex_key(v, memo))
    radius = {k: diameter(chr_iterate(base, k), base) for k in set(stable_depth.values())}
    continuity_witness = next((
        (v, w, delta(v).label, delta(w).label)
        for v in verts for w in verts
        if w.color == v.color and w != v
        and reference_distance(v.label, w.label) <= radius[stable_depth[v]]
        and delta(v).label != delta(w).label
    ), None)
    closure_witness = None
    if model.excluded and model.n == 2:
        for e in model.excluded:
            verdict = _excluded_point_values(ts, delta, e, depth)
            if verdict is not None and len(verdict["values"]) > 1:
                closure_witness = verdict
                break
    return TerminationCertificateReport(
        admissible=not uncovered,
        uncovered=uncovered,
        uncovered_only_excluded=only_excluded,
        carried=carrier_witness is None,
        carrier_witness=carrier_witness,
        continuous=continuity_witness is None and closure_witness is None,
        continuity_witness=continuity_witness,
        closure_witness=closure_witness,
    )


CONS3 = inputless_consensus(3)
TRIANGLE_SCHEDULES = list(ordered_partitions(range(3)))


def corner_delta(ts, depth):
    """Decide 0 on stable vertices whose color-0 corner weight is at least
    2/3, else 1: on the edge this is `split_delta`.  Without stable cells
    the map is empty."""
    stable = ts.stable_complex(depth)
    if stable is None:
        return SimplicialMap({})
    corner = ts.base.facets[0].vertex_of_color(0)
    return SimplicialMap({
        v: Vertex(v.color, 0 if v.label.weight(corner) >= Fraction(2, 3) else 1)
        for v in stable.vertices()
    })


def terminating_base_vertex(policy, color):
    """`policy`, and the base vertex of `color` terminated at depth 0."""

    def wrapped(k, level, ts):
        vertex = [Simplex([ts.base.facets[0].vertex_of_color(color)])] if k == 0 else []
        return list(policy(k, level, ts)) + vertex

    return wrapped


def random_prefix_policy(rng, n, depth):
    """Each live cell terminated at its depth with probability 1/4, and
    now and then a base vertex at depth 0.  On the triangle cells end only
    at the last level: a live cell next to a terminated one would keep a
    terminated edge, which no level below can coarsen."""
    schedules = list(ordered_partitions(range(n)))
    words, live = {}, [()]
    for k in range(depth + 1):
        if n == 2 or k == depth:
            words[k] = [w for w in live if rng.random() < 0.25]
            live = [w for w in live if w not in words[k]]
        live = [w + (s,) for w in live for s in schedules]
    policy = prefix_policy(words)
    if rng.random() < 0.3:
        policy = terminating_base_vertex(policy, rng.randrange(n))
    return policy


def random_certificate_case(seed):
    rng = random.Random(seed)
    model = rng.choice([IIS2, M1, M2, IIS3])
    task, depth = (CONS3, rng.randint(0, 2)) if model is IIS3 else (CONS, rng.randint(0, 4))
    return model, task, random_prefix_policy(rng, model.n, depth), depth


@pytest.mark.parametrize("model, task, policy, depth", [
    (M1, CONS, M1_POLICY, 5),
    (M2, CONS, m2_naive_policy(5), 5),
    (IIS2, CONS, M1_POLICY, 4),  # words through the first-round <-> cell stay uncovered
    (IIS2, CONS, m2_naive_policy(3), 3),
    (IIS3, CONS3, prefix_policy({2: [(TRIANGLE_SCHEDULES[0], s) for s in TRIANGLE_SCHEDULES]
                                 + [(s, s) for s in TRIANGLE_SCHEDULES[1:]]}), 2),
    (IIS2, CONS, terminating_base_vertex(M1_POLICY, 0), 3),
    (IIS2, CONS, terminating_base_vertex(lambda k, level, ts: [], 1), 2),
    (IIS2, CONS, lambda k, level, ts: [], 3),
    (M1, CONS, policy_all_at_zero, 2),
    (IIS3, CONS3, policy_all_at_zero, 1),
    (NO_FULL_RUN, CONS, lambda k, level, ts: [], 0),
] + [random_certificate_case(seed) for seed in range(30)],
    ids=["m1-prefix-d5", "m2-naive-d5", "iis2-m1-prefix-d4", "iis2-m2-naive-d3",
         "iis3-prefix-d2", "iis2-m1-prefix-and-vertex-d3", "iis2-vertex-only-d2",
         "iis2-nothing-d3", "m1-all-at-zero-d2", "iis3-all-at-zero-d1", "no-full-run-d0"]
        + [f"random-{seed}" for seed in range(30)])
def test_termination_certificate_matches_per_word_reference(model, task, policy, depth):
    ts = TerminatingSubdivision(task.inputs, policy)
    delta = corner_delta(ts, depth)
    report = verify_termination_certificate(ts, delta, model, task, depth)
    assert report == reference_termination_report(ts, delta, model, task, depth)


def test_admissibility_extends_only_the_live_prefixes(monkeypatch):
    """The tsub-m2-naive-d7 certificate: each of the seven levels extends
    its one live word by three schedules.  No subdivision step runs
    outside the certificate's cell walk: the closure condition reads the
    excluded limit's position off its word."""
    ts = TerminatingSubdivision(CONS.inputs, m2_naive_policy(7))
    delta = split_delta(ts.stable_complex(7), CONS.inputs)
    walk = chrotop.checker.walk_cells
    children = chrotop.subdivision._children
    calls, outside = [], []
    walking = False

    def counted(cell, schedules, table):
        (calls if walking else outside).extend(schedules)
        return children(cell, schedules, table)

    def walked(*args):
        nonlocal walking
        walking = True
        try:
            return walk(*args)
        finally:
            walking = False

    monkeypatch.setattr(chrotop.subdivision, "_children", counted)
    monkeypatch.setattr(chrotop.checker, "walk_cells", walked)
    report = verify_termination_certificate(ts, delta, M2, CONS, 7)
    assert len(calls) == 21 and outside == []
    assert report.uncovered == [(B,) + (L,) * 6]
    assert report.uncovered_only_excluded and report.carried and not report.continuous


@pytest.mark.parametrize("model, policy, depth", [(M1, M1_POLICY, 5), (M2, m2_naive_policy(7), 7)],
                         ids=["m1", "m2-naive"])
def test_stable_cells_are_the_cells_the_admissibility_walk_meets(monkeypatch, model, policy, depth):
    """The certificate walks with the subdivision's intern table, so the
    cell of each word is the level's facet and each stable cell is met as
    itself, the same object."""
    ts = TerminatingSubdivision(CONS.inputs, policy)
    delta = split_delta(ts.stable_complex(depth), CONS.inputs)
    walk = chrotop.checker.walk_cells
    met = {}  # each word the walk reaches -> its cell

    def walked(roots, depth, letters, table=None):
        def noted(word, cell):
            met[word] = cell
            return letters(word, cell)

        level = walk(roots, depth, noted, table)
        met.update((w, cell) for _, w, cell in level)
        return level

    monkeypatch.setattr(chrotop.checker, "walk_cells", walked)
    verify_termination_certificate(ts, delta, model, CONS, depth)
    for word, cell in met.items():
        assert ts.cell(word) is cell
        assert any(cell is f for f in ts._levels[len(word)].complex.facets)
    for sc in ts.stable_cells(depth):
        word = next(w for w, cell in met.items() if cell is sc.simplex)
        assert len(word) == sc.depth


def test_termination_certificate_refuses_a_model_that_does_not_match_the_base():
    edge = TerminatingSubdivision(CONS.inputs, policy_all_at_zero)
    with pytest.raises(BadArity, match="task has 2 processes but model iis3 has 3"):
        verify_termination_certificate(edge, corner_delta(edge, 1), IIS3, CONS, 1)
    triangle = TerminatingSubdivision(CONS3.inputs, policy_all_at_zero)
    with pytest.raises(BadArity, match="task has 3 processes but model iis2 has 2"):
        verify_termination_certificate(triangle, corner_delta(triangle, 1), IIS2, CONS3, 1)
    # the task matches the model, the base does not
    with pytest.raises(Unsupported, match=r"base colors \[0, 1, 2\] are not processes 0..1 of model iis2"):
        verify_termination_certificate(triangle, corner_delta(triangle, 1), IIS2, CONS, 1)
    gap = TerminatingSubdivision(Complex([Simplex([Vertex(0, 0), Vertex(2, 1)])]), policy_all_at_zero)
    with pytest.raises(Unsupported, match=r"base colors \[0, 2\] are not processes 0..1 of model iis2"):
        verify_termination_certificate(gap, corner_delta(gap, 1), IIS2, CONS, 1)


def test_limit_position_of_words():
    assert limit_position(ExecutionWord(word("<->"), word("<-"))) == Fraction(1, 3)
    assert limit_position(ExecutionWord((), word("->"))) == 0
    assert limit_position(ExecutionWord((), word("<->"))) == Fraction(1, 2)
    assert limit_position(ExecutionWord((), word("<-"))) == 1
    # the cycle -> then <- maps [0, 1] onto [2/9, 1/3], fixing 1/4; the
    # reversed product would fix 3/4
    assert limit_position(ExecutionWord((), word("->", "<-"))) == Fraction(1, 4)
    # the stem -> leaves [0, 1/3], whose midpoint <-> fixes
    assert limit_position(ExecutionWord(word("->"), word("<->"))) == Fraction(1, 6)


def test_limit_position_matches_the_nested_interval_reference():
    """500 seeded words, stems of 0 to 6 rounds and cycles of 1 to 6: the
    composed affine maps give the position the nested cells converge to."""
    rng = random.Random(20261020)
    for _ in range(500):
        e = ExecutionWord(tuple(rng.choice((R, L, B)) for _ in range(rng.randint(0, 6))),
                          tuple(rng.choice((R, L, B)) for _ in range(rng.randint(1, 6))))
        assert limit_position(e) == reference_limit_position(e), e


# -- consensus certificates ----------------------------------------------------------


def test_certificate_iis():
    cert = certify_consensus_impossible(IIS2, 5)
    assert cert is not None
    assert cert.component == (Fraction(0), Fraction(1))
    assert cert.excluded_inside == []


def test_certificate_m2_reconnects_through_excluded_point():
    cert = certify_consensus_impossible(M2, 5)
    assert cert is not None
    assert cert.component == (Fraction(0), Fraction(1))
    assert cert.excluded_inside == ["(<->)(<-)^w"]


def test_certificate_m1_absent():
    # depth 0 clamps to 1, where the first-round restriction disconnects
    # the structure; a certificate would be unsound there
    for depth in (0, 1, 2, 3):
        assert certify_consensus_impossible(M1, depth) is None


def test_solve_m1_at_depth_zero_is_not_certified():
    verdict = solve(M1, CONS, 0)
    assert verdict.kind == "unsolvable_at_all_depths"


def reference_certificate(model, depth):
    """The interval certificate with no shortcut: the cells of every
    allowed depth-d word, as edge intervals, merged into components."""
    words = enumerate_prefixes(model, depth)
    solo = [(blocks,) * depth for blocks in (R, L)]
    if any(w not in words for w in solo):
        return None
    base = CONS.inputs
    intervals = []
    for w in words:
        cell = cell_of_word(base.facets[0], w)
        positions = [edge_position(coordinates(v, base), base) for v in cell]
        intervals.append((min(positions), max(positions)))
    components = []
    for lo, hi in sorted(intervals):
        if components and lo <= components[-1][1]:
            components[-1][1] = max(components[-1][1], hi)
        else:
            components.append([lo, hi])
    components = [tuple(c) for c in components]
    bridging = [c for c in components if c[0] <= 0 and 1 <= c[1]]
    if not bridging:
        return None
    inside = [
        str(e) for e in model.excluded
        if bridging[0][0] <= reference_limit_position(e) <= bridging[0][1]
    ]
    return bridging[0], components, inside


def assert_matches_reference(cert, model, depth):
    """A fired certificate is the reference's: one component, the whole edge."""
    assert cert.components == [cert.component] == [(Fraction(0), Fraction(1))]
    assert (cert.component, cert.components, cert.excluded_inside) == reference_certificate(model, max(1, depth))


# round 2 may not be "<->" after a first "<->": the depth-1 cells bridge
# the edge but the depth-2 cells leave a gap, so depth 1 cannot stand in
ROUND_TWO = ModelSpec(
    n=2, name="round-two", kind="custom",
    predicate=lambda participants, w: not (len(w) >= 2 and w[0] == B and w[1] == B),
)


# at most one full exchange: every level-1 cell is allowed, and level 2
# loses the cell of "<->", "<->"
ONE_EXCHANGE = ModelSpec(
    n=2, name="one-exchange", kind="custom",
    predicate=lambda participants, w: sum(s == B for s in w) <= 1,
)
ALLOW_ALL = ModelSpec(n=2, name="allow-all", kind="custom", predicate=lambda participants, w: True)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("model", [IIS2, M1, M2, ROUND_TWO, ONE_EXCHANGE, ALLOW_ALL], ids=lambda m: m.name)
def test_certificate_matches_full_depth_reference(model, depth):
    cert = certify_consensus_impossible(model, depth)
    if cert is None:
        assert reference_certificate(model, depth) is None
    else:
        assert cert.depth == depth
        assert_matches_reference(cert, model, depth)


# the two-process model minus the one execution (<->)^w, at position 1/2,
# and the one minus both executions that reach position 1/3
CUT_AT_HALF = load_model_json_obj({"n": 2, "kind": "custom", "excluded": [{"stem": [], "cycle": ["<->"]}]})
CUT_AT_THIRD = load_model_json_obj({"n": 2, "kind": "custom", "excluded": [
    {"stem": ["<->"], "cycle": ["<-"]}, {"stem": ["->"], "cycle": ["<-"]}]})


def cut_at_half_policy(max_depth):
    """Terminate, at each depth j >= 2, the words (<->)^(j-2) X Y with X a
    solo round: the live cells close in on position 1/2 and no stable
    cell touches a live one."""
    return prefix_policy({j: [(B,) * (j - 2) + (x, y) for x in (R, L) for y in (R, L, B)]
                          for j in range(2, max_depth + 1)})


@pytest.mark.parametrize("model", [CUT_AT_HALF, CUT_AT_THIRD], ids=["half", "third"])
def test_a_disconnecting_excluded_point_stops_the_certificate(model):
    """Every execution through the point is excluded, so the edge falls
    apart there and deciding 0 on one side and 1 on the other is
    continuous: the bridge is no certificate, and the search is left to
    answer unknown."""
    assert _disconnecting(model) == set(model.excluded) == reference_disconnecting(model.excluded)
    for depth in range(6):
        assert certify_consensus_impossible(model, depth) is None
    assert solve(model, CONS, 4).kind == "unknown"


def test_m2_keeps_its_certificate_through_the_other_execution_at_one_third():
    assert reference_limit_position(M2.excluded[0]) == Fraction(1, 3)
    assert _disconnecting(M2) == set() == reference_disconnecting(M2.excluded)
    assert certify_consensus_impossible(M2, 5).excluded_inside == ["(<->)(<-)^w"]


def test_closure_condition_skips_a_disconnecting_excluded_point():
    """Deciding by side of 1/2 with the execution (<->)^w removed: no
    execution reaches 1/2, so the two values there are no discontinuity."""
    ts = TerminatingSubdivision(CONS.inputs, cut_at_half_policy(6))
    delta = side_of_half_delta(ts, 6)
    report = verify_termination_certificate(ts, delta, CUT_AT_HALF, CONS, 6)
    assert report.carried and report.continuous
    assert report.continuity_witness is None and report.closure_witness is None
    # the sides of 1/2 hold both values, so the point is met and skipped
    values = _excluded_point_values(ts, delta, CUT_AT_HALF.excluded[0], 6)["values"]
    assert values == ["0", "1"]


def side_of_half_delta(ts, depth):
    """Each stable vertex decides by its side of 1/2."""
    return SimplicialMap({v: Vertex(v.color, int(edge_position(v.label, CONS.inputs) > Fraction(1, 2)))
                          for v in ts.stable_complex(depth).vertices()})


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
@pytest.mark.parametrize("D", [5, 6, 7])
def test_ball_rule_decides_no_wrong_value_at_its_horizon(D):
    """The ball rule of the side-of-1/2 map over the cut-at-half policy,
    simulated on the non-compact model without (<->)^w: every execution
    of T = D - 1 rounds may stay undecided, but none may disagree.  Today
    (<->)^(D-1) decides both values, each view's ball being unanimous on
    its own side of 1/2."""
    ts = TerminatingSubdivision(CONS.inputs, cut_at_half_policy(D))
    protocol = synthesize_from_stable_map(side_of_half_delta(ts, D), ts, D)
    report = check_solves(protocol, CONS, CUT_AT_HALF, D - 1)
    assert report.failures == [], [execution.describe() for execution, _ in report.failures]


def eventually_periodic_words():
    """Every two-process word with a stem of up to two rounds and a cycle
    of one or two."""
    letters = [R, L, B]
    stems = [s for k in range(3) for s in product(letters, repeat=k)]
    cycles = [c for k in (1, 2) for c in product(letters, repeat=k)]
    return [ExecutionWord(stem, cycle) for stem in stems for cycle in cycles]


EP_WORDS = eventually_periodic_words()
# pairs of distinct executions that converge to one inner point of the edge
TWINS = [(e, f) for e, f in combinations(EP_WORDS, 2)
         if 0 < reference_limit_position(e) == reference_limit_position(f) < 1
         and reference_disconnecting((e, f)) == {e, f}]


def random_excluding_model(rng, index):
    """A model that excludes one random word, two random words, or two
    executions at one inner point, in equal shares."""
    kind = index % 3
    if kind == 0:
        excluded = (rng.choice(EP_WORDS),)
    elif kind == 1:
        excluded = tuple(rng.sample(EP_WORDS, 2))
    else:
        excluded = rng.choice(TWINS)
    return ModelSpec(n=2, name=f"excluding-{index}", kind="custom", excluded=excluded)


_excluding_rng = random.Random(20261019)
EXCLUDING_MODELS = [random_excluding_model(_excluding_rng, i) for i in range(60)]


@pytest.mark.parametrize("model", EXCLUDING_MODELS, ids=lambda m: m.name)
def test_disconnecting_points_match_the_nested_interval_reference(model):
    """The certificate fires on these unrestricted models exactly when no
    solo execution is excluded and no excluded point disconnects the edge,
    as counted by nested exact intervals; the closure condition never
    names a disconnecting point."""
    cuts = reference_disconnecting(model.excluded)
    assert _disconnecting(model) == cuts
    # only the solo executions reach the ends of the edge
    solo = any(reference_limit_position(e) in (0, 1) for e in model.excluded)
    for depth in (1, 3):
        cert = certify_consensus_impossible(model, depth)
        assert (cert is None) == (solo or bool(cuts))
        if cert is not None:
            assert_matches_reference(cert, model, depth)
    ts = TerminatingSubdivision(CONS.inputs, m2_naive_policy(3))
    witness = verify_termination_certificate(ts, split_delta(ts.stable_complex(3), CONS.inputs),
                                             model, CONS, 3).closure_witness
    assert witness is None or witness["excluded"] not in {str(e) for e in cuts}


def test_the_excluding_sweep_meets_cuts_and_bridges():
    kinds = Counter((bool(reference_disconnecting(m.excluded)), len(m.excluded)) for m in EXCLUDING_MODELS)
    assert all(kinds[cut, size] for cut in (False, True) for size in (1, 2))
    assert TWINS


def refused(name):
    """A stand-in for `name` that fails the test when it is called."""
    return lambda *args, **kwargs: pytest.fail(f"called {name}")


def test_the_interval_certificate_builds_no_cell_weight_or_task(monkeypatch):
    """The certificate reads limit points off their words: with the
    subdivision step, integer weights and the consensus task refused, it
    returns what it returns with them."""
    models = [IIS2, M2, builtin_model("ll"), CUT_AT_HALF, *EXCLUDING_MODELS]
    cases = [(model, depth) for model in models for depth in (1, 6)]
    expected = [certify_consensus_impossible(model, depth) for model, depth in cases]
    assert any(cert is None for cert in expected) and any(cert is not None for cert in expected)
    monkeypatch.setattr(chrotop.subdivision, "_children", refused("_children"))
    monkeypatch.setattr(chrotop.checker, "integer_weights", refused("integer_weights"))
    monkeypatch.setattr(chrotop.checker, "inputless_consensus", refused("inputless_consensus"))
    assert [certify_consensus_impossible(model, depth) for model, depth in cases] == expected


def test_certificate_requires_two_processes():
    with pytest.raises(Unsupported):
        certify_consensus_impossible(builtin_model("iis3"), 2)


def test_certificate_stops_at_the_first_level_with_a_gap():
    # the empty word, the 3 first rounds and the second-round words up to
    # the first refused one are asked about; the 11263 allowed prefixes of
    # length <= 10 are never listed
    asked = 0

    def counting(participants, w):
        nonlocal asked
        asked += 1
        return ONE_EXCHANGE.predicate(participants, w)

    counted = ModelSpec(n=2, name="one-exchange", kind="custom", predicate=counting)
    assert certify_consensus_impossible(counted, 10) is None
    assert 3 < asked <= 13
    verdict = solve(ONE_EXCHANGE, CONS, 10)
    assert (verdict.kind, verdict.T) == ("solvable_bounded", 2)


# -- parity evidence ------------------------------------------------------------------


def test_sperner_edge_depth_one():
    report = sperner_evidence(2, 1)
    assert report.mode == "exhaustive"
    assert report.colorings == 4
    assert report.all_odd
    assert report.min_rainbow >= 1


def test_sperner_edge_depth_zero():
    report = sperner_evidence(2, 0)
    assert report.colorings == 1
    assert report.all_odd
    assert report.min_rainbow == 1


def test_sperner_triangle_depth_one_exhaustive():
    report = sperner_evidence(3, 1)
    assert report.mode == "exhaustive"
    assert report.colorings == 1728
    assert report.all_odd
    assert report.min_rainbow >= 1


def test_sperner_triangle_depth_two_sampled():
    report = sperner_evidence(3, 2, seed=3, sample_size=60)
    assert report.mode == "sampled"
    assert report.all_odd


@pytest.mark.parametrize("n, k, seed, sample_size", [
    *(pytest.param(n, k, seed, 2000, id=f"{n}-{k}-{seed}") for n, k, seed in [
        (2, 0, 0), (2, 1, 0), (2, 2, 0), (3, 1, 0), *((3, 2, seed) for seed in (*range(12), 4242, 20261018)),
    ]),
    *(pytest.param(3, 2, 0, size, id=f"3-2-0-sample{size}") for size in (0, 1, 5000)),
])
def test_sperner_matches_set_per_facet_reference(n, k, seed, sample_size):
    report = sperner_evidence(n, k, seed=seed, sample_size=sample_size)
    assert report.mode == ("sampled" if (n, k) == (3, 2) else "exhaustive")
    assert report == reference_sperner(n, k, seed=seed, sample_size=sample_size)


def random_choices(seed, most):
    """1 to 99 seeded lists of 1 to `most` values, each a sorted sample of range(`most`)."""
    shapes = random.Random(1000 + seed)
    return [sorted(shapes.sample(range(most), shapes.randint(1, most))) for _ in range(shapes.randint(1, 99))]


@pytest.mark.parametrize("seed, choices", [
    *(pytest.param(seed, random_choices(seed, 3), id=str(seed)) for seed in range(50)),
    # thresholds 128, 160, 192 and 224
    *(pytest.param(seed, random_choices(seed, 8), id=f"up-to-8-values-{seed}") for seed in range(50, 70)),
    # one threshold for every list: the whole row is one group
    pytest.param(1, [[v] for v in range(3)] * 33, id="all-singletons"),
    pytest.param(2, [[0, 1], [1, 2], [0, 2]] * 33, id="all-pairs"),
    pytest.param(3, [[0, 1, 2]] * 40, id="all-triples"),
    pytest.param(4, [[0], [0, 1], list(range(255)), [1, 2], [2], [0, 1, 2]], id="255-values"),
])
def test_sampled_rows_are_the_seeded_choices(seed, choices):
    """The bulk draws are `Random(seed).choice` per list per row, on this
    interpreter, for lists of 1 to 8 values, for shapes whose lists share
    one threshold, for a list of 255 values, and for row counts on both
    sides of a refill."""
    for count in (1, 127, 128, 129, 2000):
        rng = random.Random(seed)
        expected = [[rng.choice(c) for c in choices] for _ in range(count)]
        assert [list(row) for row in chrotop.checker._sampled_rows(choices, seed, count)] == expected


def scripted_rows(j, vertices, drawn):
    """Stands in for `_sampled_rows`: its seeded rows for colorings
    1..j-1, then colorings that break the boundary rule.  Coloring j gives
    each vertex its own process color, but corner 0 the value 1: of the 169
    facets of Chr^2 of the triangle the 9 at corner 0 lose their rainbow,
    which leaves an even 160.  Every later coloring is all 0s and counts 0.
    Each row it gives is also appended to `drawn`."""
    seeded_rows = chrotop.checker._sampled_rows

    def rows(choices, seed, count):
        seeded = seeded_rows(choices, seed, count)
        for coloring in range(1, count + 1):
            if coloring < j:
                row = next(seeded)
            elif coloring == j:
                row = bytes(1 if values == [0] else v.color for values, v in zip(choices, vertices))
            else:
                row = bytes(len(choices))
            drawn.append(row)
            yield row

    return rows


@pytest.mark.parametrize("j", [1, 2, 400, 512, 513, 1100])
def test_sperner_stops_at_the_first_even_coloring(monkeypatch, j):
    base = Complex([Simplex(Vertex(i, i) for i in range(3))])
    vertices = list(chr_iterate(base, 2).vertices())
    earlier = reference_sperner(3, 2, seed=5, sample_size=j - 1)
    assert (earlier.colorings, earlier.all_odd) == (j - 1, True)
    drawn = []
    monkeypatch.setattr(chrotop.checker, "_sampled_rows", scripted_rows(j, vertices, drawn))
    report = sperner_evidence(3, 2, seed=5, sample_size=1500)
    assignment = [v.color for v in vertices]
    corner = next(
        i for i, v in enumerate(vertices) if set(reference_coordinates(v, base).weights) == {Vertex(0, 0)}
    )
    assignment[corner] = 1
    assert (report.mode, report.colorings, report.all_odd) == ("sampled", j, False)
    assert report.counterexample == {"assignment": assignment, "count": 160}
    # the minimum is over colorings 1..j only: the all-0 colorings after j count 0
    assert report.min_rainbow == (min(earlier.min_rainbow, 160) if j > 1 else 160)
    # the oracle counts the same colorings: its `choice` replays the drawn values in order
    values = iter(b"".join(drawn))
    monkeypatch.setattr(random, "Random", lambda seed: SimpleNamespace(choice=lambda c: next(values)))
    assert report == reference_sperner(3, 2, seed=5, sample_size=1500)


def test_sperner_out_of_range():
    with pytest.raises(Unsupported):
        sperner_evidence(4, 1)
    with pytest.raises(Unsupported):
        sperner_evidence(3, 3)


# -- solve ------------------------------------------------------------------------------


def test_solve_m1_bounded():
    verdict = solve(M1, CONS, 3)
    assert verdict.kind == "solvable_bounded"
    assert verdict.T <= 2
    assert verdict.solve_report.ok
    PT = build_time_T(M1, CONS, verdict.T)
    assert check_simplicial_chromatic(verdict.delta, PT.complex, CONS.outputs).ok
    assert carried_by(verdict.delta, PT.xi, CONS.delta, CONS.inputs).carried


def test_solve_iis_certified():
    verdict = solve(IIS2, CONS, 3)
    assert verdict.kind == "unsolvable_certified"
    assert verdict.certificate is not None


def test_solve_m2_certified():
    verdict = solve(M2, CONS, 3)
    assert verdict.kind == "unsolvable_certified"
    assert verdict.certificate.excluded_inside == ["(<->)(<-)^w"]


def test_solve_certifies_two_process_consensus_before_building_any_P_T(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a time-T complex was built")

    monkeypatch.setattr(chrotop.checker, "build_time_T", refuse)
    for model in (IIS2, M2):
        verdict = solve(model, CONS, 9)
        assert verdict.kind == "unsolvable_certified"
        assert (verdict.depth, verdict.certificate.depth) == (9, 9)


LETTERS = [R, B, L]
SWEEP_DEPTH = 5


def first_round_models():
    """Every restriction of the first round to a subset of the three schedules."""
    return [
        ModelSpec(n=2, name="first-" + ("".join(map(schedule_text, subset)) or "none"),
                  kind="firstRoundRestricted", allowed_first_rounds=subset)
        for r in range(4) for subset in combinations(LETTERS, r)
    ]


def random_prefix_closed_model(rng, index):
    """A predicate whose allowed words up to length SWEEP_DEPTH form a
    random tree: every word up to a random length is allowed, and deeper
    each child is kept with one random probability, at least one child
    per word so the words stay extendable.  A longer word is allowed when
    its prefix of that length is.  A quarter of the models also exclude
    m2's limit execution, and a quarter a solo execution."""
    full, keep = rng.randrange(SWEEP_DEPTH + 1), rng.random()
    level, allowed = [()], {()}
    for k in range(SWEEP_DEPTH):
        children = []
        for w in level:
            kept = [w + (s,) for s in LETTERS if k < full or rng.random() < keep]
            children += kept or [w + (rng.choice(LETTERS),)]
        allowed.update(children)
        level = children
    excluded = rng.choice([(), (), M2.excluded, (ExecutionWord((), (LETTERS[2],)),)])
    return ModelSpec(n=2, name=f"random-{index}", kind="custom", excluded=excluded,
                     predicate=lambda participants, w: w[:SWEEP_DEPTH] in allowed)


_sweep_rng = random.Random(20261018)
SWEEP_MODELS = first_round_models() + [NO_FULL_RUN, ONE_EXCHANGE] + [
    random_prefix_closed_model(_sweep_rng, i) for i in range(100)
]


def search_first(model, max_depth, found, certificate):
    """`solve` in its old search-first order, with no evidence: the first
    time 0..max_depth whose search found a map, and the certificate only
    when every search failed.  `found[T]` is None, or the map of time T,
    its synthesized protocol and that protocol's simulation report."""
    for T, hit in enumerate(found[:max_depth + 1]):
        if hit is None:
            continue
        delta, protocol, report = hit
        if not report.ok:
            return Verdict("unknown", max_depth, T=T, delta=delta,
                           note="search found a map whose synthesized protocol failed validation")
        return Verdict("solvable_bounded", max_depth, T=T, delta=delta, protocol=protocol, solve_report=report)
    if certificate is not None:
        return Verdict("unsolvable_certified", max_depth, certificate=certificate)
    if model.is_compact():
        return Verdict("unsolvable_at_all_depths", max_depth)
    return Verdict("unknown", max_depth, note="model is not limit-closed; bounded search is inconclusive")


@pytest.mark.parametrize("model", SWEEP_MODELS, ids=lambda m: m.name)
def test_certificate_first_matches_search_first(model):
    """The search is the oracle: wherever the certificate fires at depth d,
    no P_T with T <= d has a decision map, and `solve` writes the JSON of
    the search-first order."""
    found = []
    for T in range(SWEEP_DEPTH + 1):
        PT = build_time_T(model, CONS, T)
        delta = search_decision_map(PT, CONS)
        if delta is None:
            found.append(None)
        else:
            protocol = synthesize_from_time_map(delta, PT)
            found.append((delta, protocol, check_solves(protocol, CONS, model, T)))
    for d in range(SWEEP_DEPTH + 1):
        cert = certify_consensus_impossible(model, d)
        if cert is not None:
            assert found[:d + 1] == [None] * (d + 1)
            assert_matches_reference(cert, model, d)
        got = json.dumps(solve(model, CONS, d).to_json_obj())
        assert got == json.dumps(search_first(model, d, found, cert).to_json_obj())


# set agreement on models that restrict no prefix, written as JSON: one
# that excludes the limit execution of the full exchange, and four processes
IIS3_EXCLUDED = load_model_json_obj(
    {"n": 3, "kind": "custom", "name": "iis3-excluded", "excluded": [{"stem": [], "cycle": ["0,1,2"]}]}
)
IIS4 = load_model_json_obj({"n": 4, "kind": "iis", "name": "iis4"})
# set agreement on models that restrict a prefix
FIRST3 = load_model_json_obj({"n": 3, "kind": "firstRoundRestricted", "name": "first3",
                              "allowedFirstRounds": ["0|1|2", "0,1|2", "2|0,1"]})


@pytest.mark.parametrize("model, max_depth", [(IIS2, 6), (IIS3, 3), (IIS3_EXCLUDED, 3), (IIS4, 2)],
                         ids=lambda x: getattr(x, "name", x))
def test_sperner_first_matches_the_search_at_every_time(model, max_depth):
    """The search is the oracle: no P_T with T <= max_depth has a decision
    map, and at every depth `solve` writes the JSON and exit code of that
    exhaustion, with parity evidence for n <= 3."""
    task = set_agreement(model.n)
    found = [search_decision_map(build_time_T(model, task, T), task) for T in range(max_depth + 1)]
    assert found == [None] * (max_depth + 1)
    for d in range(max_depth + 1):
        expected = search_first(model, d, found, None)
        if model.n <= 3:
            expected.evidence = sperner_evidence(model.n, min(2, d), seed=7)
        verdict = solve(model, task, d, seed=7)
        assert json.dumps(verdict.to_json_obj()) == json.dumps(expected.to_json_obj())
        assert verdict.exit_code() == expected.exit_code() == (11 if model.is_compact() else 12)
        assert (verdict.evidence is not None) == (model.n <= 3)


@pytest.mark.parametrize("model, task, times", [
    (IIS2, set_agreement(2), []),
    (IIS3, set_agreement(3), []),
    (IIS3_EXCLUDED, set_agreement(3), []),
    (IIS4, set_agreement(4), []),
    (M1, set_agreement(2), [0, 1, 2]),
    (FIRST3, set_agreement(3), [0, 1, 2]),
    (ROUND_TWO, set_agreement(2), [0, 1, 2]),
    (IIS3, inputless_consensus(3), []),
], ids=lambda x: ("per-time" if x else "none") if isinstance(x, list) else x.name)
def test_sperner_first_builds_no_time_complex(monkeypatch, model, task, times):
    """Set agreement on a model that restricts no prefix builds no P_T,
    and neither does consensus on three processes on any model; set
    agreement on a restricted model still builds one P_T per time.  Set
    agreement gets parity evidence for n <= 3 either way."""
    built = []
    build = chrotop.checker.build_time_T
    monkeypatch.setattr(chrotop.checker, "build_time_T", lambda m, t, T: built.append(T) or build(m, t, T))
    verdict = solve(model, task, 2)
    assert verdict.kind in ("unsolvable_at_all_depths", "unknown")
    assert built == times
    assert (verdict.evidence is not None) == (task.name == "set-agreement" and model.n <= 3)


def random_first3(seed):
    """A model on three processes that allows a seeded random set of first rounds."""
    rng = random.Random(seed)
    allowed = rng.sample(list(ordered_partitions(range(3))), rng.randint(1, 13))
    return load_model_json_obj({"n": 3, "kind": "firstRoundRestricted", "name": f"first3-random{seed}",
                                "allowedFirstRounds": [schedule_text(s) for s in allowed]})


RANDOM_FIRST3 = [random_first3(seed) for seed in range(6)]


@pytest.mark.parametrize("model", [IIS3, IIS3_EXCLUDED, FIRST3, *RANDOM_FIRST3], ids=lambda m: m.name)
def test_consensus_on_three_processes_is_decided_on_one_edge(monkeypatch, model):
    """The search is the oracle: consensus on three processes has no
    decision map on P_T for T <= 2, and `solve`, which builds no P_T for
    it, writes the JSON and exit code of that exhaustion at every depth."""
    task = inputless_consensus(3)
    found = [search_decision_map(build_time_T(model, task, T), task) for T in range(3)]
    assert found == [None] * 3
    monkeypatch.setattr(chrotop.checker, "build_time_T", None)
    for d in range(3):
        expected = search_first(model, d, found, None)
        verdict = solve(model, task, d)
        assert json.dumps(verdict.to_json_obj()) == json.dumps(expected.to_json_obj())
        assert verdict.exit_code() == (11 if model.is_compact() else 12)


def test_solve_set_agreement_compact_reports_depth_exhaustion():
    verdict = solve(IIS2, set_agreement(2), 2)
    assert verdict.kind == "unsolvable_at_all_depths"
    assert verdict.evidence is not None and verdict.evidence.all_odd


def test_solve_non_compact_non_consensus_unknown():
    verdict = solve(M2, set_agreement(2), 2)
    assert verdict.kind == "unknown"


def test_solve_trivial_task_never_unknown_when_map_exists():
    outputs = Complex([Simplex([Vertex(0, 0), Vertex(1, 0)])])
    anything = Task(
        "anything",
        CONS.inputs,
        outputs,
        CarrierMap({s: outputs for s in CONS.inputs.simplexes()}),
    )
    verdict = solve(IIS2, anything, 2)
    assert verdict.kind == "solvable_bounded"
    assert verdict.T == 0


def test_verdict_json_deterministic():
    import json

    a = json.dumps(solve(M1, CONS, 2).to_json_obj())
    b = json.dumps(solve(M1, CONS, 2).to_json_obj())
    assert a == b
