"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
from fractions import Fraction
from math import comb

from chrotop import cli
from chrotop.metric import Ball, ViewSequence, ball_trichotomy, exec_distance, view_distance
from chrotop.models import builtin_model, enumerate_prefixes
from chrotop.simplicial import Complex, Simplex, SimplicialMap, Vertex
from chrotop.subdivision import (
    TerminatingSubdivision,
    chr_iterate,
    diameter_Dk,
    edge_position,
    ordered_partitions,
    prefix_policy,
    volume_by_base_facet,
)
from chrotop.protocol import (
    all_executions,
    check_solves,
    execution_configurations,
    extract_map,
    synthesize_from_time_map,
)
from chrotop.tasks import inputless_consensus
from chrotop.checker import (
    build_time_T,
    certify_consensus_impossible,
    connecting_map_fST,
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


def standard_simplex(n):
    return Complex([Simplex(Vertex(i, i) for i in range(n))])


def ordered_partition_count(n):
    # independent oracle: recurrence over the size of the first block
    if n == 0:
        return 1
    return sum(comb(n, k) * ordered_partition_count(n - k) for k in range(1, n + 1))


def test_c01_subdivision_counts():
    edge, tri = standard_simplex(2), standard_simplex(3)
    assert len(chr_iterate(edge, 1).facets) == 3 == ordered_partition_count(2)
    assert len(chr_iterate(tri, 1).facets) == 13 == ordered_partition_count(3)
    assert len(chr_iterate(edge, 2).facets) == 9 == ordered_partition_count(2) ** 2
    assert len(chr_iterate(tri, 2).facets) == 169 == ordered_partition_count(3) ** 2
    assert len(list(ordered_partitions(range(3)))) == 13
    print("ACCEPT-01 PASS subdivision facet counts match the ordered-partition oracle")


def test_c02_geometry_volumes_and_diameters():
    for n in (2, 3):
        base = standard_simplex(n)
        for k in range(4):
            totals = volume_by_base_facet(chr_iterate(base, k), base)
            assert all(total == 1 for total in totals.values()), (n, k)
    edge = standard_simplex(2)
    for k in range(5):
        assert diameter_Dk(edge, k) == Fraction(1, 3**k)
    print("ACCEPT-02 PASS exact volume sums (k<=3, n<=3) and D_k = 3^-k on the edge (k<=4)")


def test_c03_ultrametric_suite():
    words = enumerate_prefixes(IIS2, 4)
    assert len(words) == 81 and len(words) ** 2 == 6561
    idx = {w: i for i, w in enumerate(words)}
    INF = 99

    def first_diff(w1, w2):
        for t, (a, b) in enumerate(zip(w1, w2)):
            if a != b:
                return t
        return INF

    n = len(words)
    T = [[first_diff(words[i], words[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            d = exec_distance(words[i], words[j])
            assert d == (Fraction(0) if T[i][j] == INF else Fraction(1, 2 ** T[i][j]))
            assert (d == 0) == (i == j)
            assert T[i][j] == T[j][i]
    for i in range(n):
        Ti = T[i]
        for j in range(n):
            Tj = T[j]
            tij = Ti[j]
            for k in range(n):
                # 2^-T ultrametric inequality in index form
                assert Ti[k] >= (tij if tij < Tj[k] else Tj[k])

    face = CONS.inputs.facets[0]
    from chrotop.protocol import Execution

    for color in (0, 1):
        seqs = {}
        for w in words:
            cfgs = execution_configurations(Execution(face, w))
            s = ViewSequence(color, tuple(c.vertex_of_color(color) for c in cfgs), True)
            seqs[s.entries] = s
        pts = list(seqs.values())
        m = len(pts)
        D = [[view_distance(pts[i], pts[j]) for j in range(m)] for i in range(m)]
        for i in range(m):
            for j in range(m):
                assert (D[i][j] == 0) == (i == j)
                assert D[i][j] == D[j][i]
                for k in range(m):
                    assert D[i][k] <= max(D[i][j], D[j][k])

    for depth in (1, 2, 3):
        universe = enumerate_prefixes(IIS2, depth)
        radii = [Fraction(1, 2**t) for t in range(depth + 1)]
        for c1 in universe:
            for c2 in universe:
                for r1 in radii:
                    for r2 in radii:
                        outcome = ball_trichotomy(Ball(c1, r1), Ball(c2, r2), universe, exec_distance)
                        assert outcome in ("disjoint", "b1<=b2", "b2<=b1")
    print("ACCEPT-03 PASS ultrametric axioms on 6561 word pairs, view spaces, and ball trichotomy to depth 3")


def test_c04_functoriality_and_projection_consistency():
    for model in (IIS2, M2):
        Ps = {t: build_time_T(model, CONS, t) for t in range(5)}
        maps = {}
        for s in range(5):
            for t in range(s, 5):
                maps[(s, t)] = connecting_map_fST(Ps[t], Ps[s])
        for r in range(5):
            for s in range(r, 5):
                for t in range(s, 5):
                    for ball in Ps[t].complex.vertices():
                        assert maps[(r, t)](ball) == maps[(r, s)](maps[(s, t)](ball))
        for execution in all_executions(model, CONS.inputs, 4):
            configs = execution_configurations(execution)
            for color in execution.face.colors():
                for s in range(5):
                    assert maps[(s, 4)](configs[4].vertex_of_color(color)) == configs[s].vertex_of_color(color)
    print("ACCEPT-04 PASS functoriality f_RT = f_RS o f_ST for 0<=R<=S<=T<=4 and depth-4 projection consistency")


def test_c05_m1_solvable_with_synthesized_protocol():
    verdict = solve(M1, CONS, 3)
    assert verdict.kind == "solvable_bounded"
    assert verdict.T <= 2
    full_prefixes = enumerate_prefixes(M1, 3)
    assert len(full_prefixes) == 18
    report = check_solves(verdict.protocol, CONS, M1, 3)
    assert report.ok
    assert extract_map(verdict.protocol, M1, CONS, verdict.T) == verdict.delta
    print(f"ACCEPT-05 PASS m1 consensus solvable at T={verdict.T} <= 2; protocol valid on all 18 depth-3 prefixes; extract(synthesize(d)) = d")


def test_c06_iis_consensus_impossible():
    for T in range(6):
        assert search_decision_map(build_time_T(IIS2, CONS, T), CONS) is None
    cert = certify_consensus_impossible(IIS2, 5)
    assert cert is not None
    assert cert.component == (Fraction(0), Fraction(1))
    print("ACCEPT-06 PASS iis2 consensus: exhaustive search empty for T=0..5 and connectivity certificate emitted")


def test_c07_m2_impossibility_with_closure_certificate():
    for T in range(6):
        assert search_decision_map(build_time_T(M2, CONS, T), CONS) is None
    cert = certify_consensus_impossible(M2, 5)
    assert cert is not None
    assert cert.excluded_inside == ["(<->)(<-)^w"]

    def naive_policy(max_depth):
        words = {1: [(R,), (L,)]}
        for j in range(2, max_depth + 1):
            words[j] = [(B,) + (L,) * (j - 2) + (s,) for s in (R, B)]
        return prefix_policy(words)

    ts = TerminatingSubdivision(CONS.inputs, naive_policy(4))
    stable = ts.stable_complex(4)
    delta = SimplicialMap(
        {v: Vertex(v.color, 0 if edge_position(v.label, CONS.inputs) <= Fraction(1, 3) else 1)
         for v in stable.vertices()}
    )
    report = verify_termination_certificate(ts, delta, M2, CONS, 4)
    assert report.carried
    assert not report.continuous
    assert report.closure_witness is not None
    assert report.closure_witness["excluded"] == "(<->)(<-)^w"
    print("ACCEPT-07 PASS m2: search empty T=0..5, closure certificate fires, naive split map rejected with a discontinuity witness at the excluded execution")


def test_c08_set_agreement_parity_evidence():
    report = sperner_evidence(3, 1)
    assert report.mode == "exhaustive"
    assert report.colorings == 1728
    assert report.all_odd
    assert report.min_rainbow >= 1
    print("ACCEPT-08 PASS all 1728 admissible colorings of the subdivided triangle have an odd rainbow-facet count")


def test_c09_random_decision_tables_round_trip_and_locality():
    rng = random.Random(20240)
    P3 = build_time_T(IIS2, CONS, 3)
    balls = P3.complex.vertices()
    executions = all_executions(IIS2, CONS.inputs, 3)
    for trial in range(50):
        table = SimplicialMap({b: Vertex(b.color, rng.choice([0, 1])) for b in balls})
        proto = synthesize_from_time_map(table, P3)
        assert extract_map(proto, IIS2, CONS, 3) == table
        seen = {}
        for execution in executions:
            for t, config in enumerate(execution_configurations(execution)):
                for color in execution.face.colors():
                    v = config.vertex_of_color(color)
                    answer = proto(color, v)
                    if v in seen:
                        assert seen[v] == answer
                    seen[v] = answer
    print("ACCEPT-09 PASS 50 random tables at T=3: extract o synthesize is the identity and decisions depend only on views")


def test_c10_cli_determinism(tmp_path):
    pairs = []
    for tag in ("x", "y"):
        d = tmp_path / tag
        d.mkdir()
        assert cli.main(["--seed", "0", "subdivide", "--simplex", "2", "--k", "1", "--out", str(d)]) == 0
        assert cli.main(["--seed", "0", "check", "--model", "m2", "--task", "consensus",
                         "--max-depth", "4", "--out", str(d / "verdict.json")]) == 10
        assert cli.main(["--seed", "0", "run", "--model", "m1", "--protocol", "winner",
                         "--task", "consensus", "--depth", "2", "--out", str(d / "run.txt")]) == 0
        pairs.append(d)
    a, b = pairs
    for name in ("chr1_simplex2.json", "chr1_simplex2.svg", "chr1_simplex2.dot", "verdict.json", "run.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    print("ACCEPT-10 PASS byte-identical CLI outputs across repeated seeded runs")
