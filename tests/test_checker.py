import sys
from fractions import Fraction

import pytest

from chrotop.errors import BadIndices, Unsupported
from chrotop.models import ExecutionWord, ModelSpec, RoundSchedule, builtin_model, enumerate_prefixes, word
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
    cell_of_word,
    coordinates,
    edge_position,
    policy_all_at_zero,
    prefix_policy,
)
from chrotop.protocol import (
    all_executions,
    execution_configurations,
)
from chrotop.tasks import Task, inputless_consensus, set_agreement
from chrotop.checker import (
    build_time_T,
    certify_consensus_impossible,
    connecting_map_fST,
    enumerate_all_decision_maps,
    excluded_limit_point,
    search_decision_map,
    solve,
    sperner_evidence,
    verify_termination_certificate,
)

M1 = builtin_model("m1")
M2 = builtin_model("m2")
IIS2 = builtin_model("iis2")
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
    from chrotop.subdivision import chr_subdivision

    P1 = build_time_T(IIS2, CONS, 1)
    assert len(P1.complex.vertices()) == 4
    assert len(P1.complex.facets) == 3
    # views are subdivision vertices, so the complexes coincide exactly
    assert P1.complex.facets == chr_subdivision(CONS.inputs).facets


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
            for color in execution.participants:
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
        for color in execution.participants:
            for s in range(4):
                for t in range(s, 4):
                    f_st = connecting_map_fST(Ps[t], Ps[s])
                    assert f_st(configs[t].vertex_of_color(color)) == configs[s].vertex_of_color(color)


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


def test_excluded_limit_point_position():
    x = excluded_limit_point(CONS.inputs, ExecutionWord(word("<->"), word("<-")))
    assert edge_position(x, CONS.inputs) == Fraction(1, 3)
    solo = excluded_limit_point(CONS.inputs, ExecutionWord((), word("->")))
    assert edge_position(solo, CONS.inputs) == 0
    mid = excluded_limit_point(CONS.inputs, ExecutionWord((), word("<->")))
    assert edge_position(mid, CONS.inputs) == Fraction(1, 2)
    other_solo = excluded_limit_point(CONS.inputs, ExecutionWord((), word("<-")))
    assert edge_position(other_solo, CONS.inputs) == 1
    # the cycle -> then <- maps [0, 1] onto [2/9, 1/3], fixing 1/4; the
    # reversed product would fix 3/4
    two = excluded_limit_point(CONS.inputs, ExecutionWord((), word("->", "<-")))
    assert edge_position(two, CONS.inputs) == Fraction(1, 4)
    # the stem -> leaves [0, 1/3], whose midpoint <-> fixes
    stemmed = excluded_limit_point(CONS.inputs, ExecutionWord(word("->"), word("<->")))
    assert edge_position(stemmed, CONS.inputs) == Fraction(1, 6)


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
    solo = [tuple(RoundSchedule(blocks) for _ in range(depth)) for blocks in (R, L)]
    if any(w not in words for w in solo):
        return None
    base = CONS.inputs
    intervals = []
    for w in words:
        cell = cell_of_word(base.facets[0], tuple(s.blocks for s in w))
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
        if bridging[0][0] <= edge_position(excluded_limit_point(base, e), base) <= bridging[0][1]
    ]
    return bridging[0], components, inside


# round 2 may not be "<->" after a first "<->": the depth-1 cells bridge
# the edge but the depth-2 cells leave a gap, so depth 1 cannot stand in
ROUND_TWO = ModelSpec(
    n=2, name="round-two", kind="custom",
    predicate=lambda participants, w: not (len(w) >= 2 and w[0].blocks == B and w[1].blocks == B),
)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("model", [IIS2, M1, M2, ROUND_TWO], ids=lambda m: m.name)
def test_certificate_matches_full_depth_reference(model, depth):
    cert = certify_consensus_impossible(model, depth)
    want = reference_certificate(model, depth)
    if want is None:
        assert cert is None
    else:
        assert cert.depth == depth
        assert (cert.component, cert.components, cert.excluded_inside) == want


def test_certificate_requires_two_processes():
    with pytest.raises(Unsupported):
        certify_consensus_impossible(builtin_model("iis3"), 2)


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
