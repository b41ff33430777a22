import pytest

from chrotop.errors import IncompleteMap, InvalidVertex, NotASimplex
from chrotop.simplicial import (
    CarrierMap,
    Complex,
    Simplex,
    SimplicialMap,
    Vertex,
    carried_by,
    check_carrier_map,
    check_simplicial_chromatic,
)
from chrotop.tasks import inputless_consensus

A = Vertex(0, "a")
B = Vertex(1, "b")
C = Vertex(2, "c")


def test_close_faces_triangle_counts():
    K = Complex([Simplex([A, B, C])])
    assert len(K.facets) == 1
    assert len(K.simplexes()) == 7
    assert len(K.vertices()) == 3


def test_close_faces_two_edges():
    K = Complex([Simplex([A, B]), Simplex([B, C])])
    assert len(K.facets) == 2
    assert set(K.vertices()) == {A, B, C}
    assert len(K.simplexes()) == 5


def test_close_faces_singleton():
    K = Complex([Simplex([A])])
    assert len(K.facets) == 1
    assert K.facets[0].dim == 0


def test_close_faces_drops_dominated_facets():
    K = Complex([Simplex([A, B, C]), Simplex([A, B])])
    assert K.facets == (Simplex([A, B, C]),)
    # mixed dimensions: an edge that is no face of the triangle stays
    D = Vertex(3, "d")
    K = Complex([Simplex([A, B, C]), Simplex([C, D])])
    assert K.facets == (Simplex([A, B, C]), Simplex([C, D]))
    # a vertex dominated only by an edge is dropped
    K = Complex([Simplex([A, B, C]), Simplex([C, D]), Simplex([D])])
    assert K.facets == (Simplex([A, B, C]), Simplex([C, D]))
    # duplicate facets collapse to one
    K = Complex([Simplex([C, D]), Simplex([D, C]), Simplex([A])])
    assert K.facets == (Simplex([A]), Simplex([C, D]))


def test_face_closure_invariant():
    K = Complex([Simplex([A, B, C]), Simplex([B, C])])
    for s in K.simplexes():
        for f in s.faces():
            assert f in K


def test_duplicate_identity_rejected():
    # two distinct labels rendering to the same printable identity
    with pytest.raises(InvalidVertex):
        Simplex([Vertex(0, 1), Vertex(0, "1")])
    # the collision may sit inside nested view labels
    with pytest.raises(InvalidVertex):
        Simplex([Vertex(0, Simplex([Vertex(0, 1)])), Vertex(0, Simplex([Vertex(0, "1")]))])
    # vertices of different colors never collide, whatever their labels render to
    assert len(Simplex([Vertex(0, 1), Vertex(1, "1")])) == 2


def test_star_examples():
    tri = Complex([Simplex([A, B, C])])
    st = tri.star(Simplex([A]))
    assert st.facets == (Simplex([A, B, C]),)

    edges = Complex([Simplex([A, B]), Simplex([B, C])])
    assert set(edges.star(Simplex([B])).facets) == {Simplex([A, B]), Simplex([B, C])}
    assert edges.star(Simplex([A, B])).facets == (Simplex([A, B]),)


def test_star_contains_defining_simplex():
    edges = Complex([Simplex([A, B]), Simplex([B, C])])
    s = Simplex([B])
    assert s in edges.star(s)


def test_star_rejects_non_member():
    edges = Complex([Simplex([A, B])])
    with pytest.raises(NotASimplex):
        edges.star(Simplex([C]))


def test_identity_map_is_simplicial_chromatic():
    K = Complex([Simplex([A, B, C])])
    report = check_simplicial_chromatic(SimplicialMap.identity(K), K, K)
    assert report.ok


def test_edge_collapse_not_simplicial():
    p0, q1 = Vertex(0, 0), Vertex(1, 1)
    q0 = Vertex(1, 0)
    K = Complex([Simplex([p0, q1])])
    # codomain has the two vertices but not the edge between the images
    L = Complex([Simplex([p0]), Simplex([q0])])
    h = SimplicialMap({p0: p0, q1: q0})
    report = check_simplicial_chromatic(h, K, L)
    assert not report.simplicial
    assert report.witness_simplex == Simplex([p0, q1])
    assert report.chromatic


def test_color_change_not_chromatic():
    p, q = Vertex(0, "x"), Vertex(1, "x")
    K = Complex([Simplex([p])])
    L = Complex([Simplex([q])])
    report = check_simplicial_chromatic(SimplicialMap({p: q}), K, L)
    assert not report.chromatic
    assert report.witness_vertex == p


def test_consensus_delta_is_monotone_chromatic():
    task = inputless_consensus(2)
    report = check_carrier_map(task.delta, task.inputs, task.outputs)
    assert report.ok
    assert report.chromatic


def test_monotonicity_witness_reported():
    K = Complex([Simplex([A, B])])
    big = Complex([Simplex([A, B])])
    small = Complex([Simplex([A])])
    phi = CarrierMap({Simplex([A]): big, Simplex([B]): small, Simplex([A, B]): small})
    report = check_carrier_map(phi, K, K)
    assert not report.monotone
    assert report.witness is not None
    tau, tau2 = report.witness
    assert tau.issubset(tau2)


def test_constant_carrier_map_is_monotone():
    K = Complex([Simplex([A, B])])
    assert check_carrier_map(CarrierMap.constant(K, K), K, K).monotone


def test_image_outside_codomain_raises():
    from chrotop.errors import InvalidCarrier

    K = Complex([Simplex([A, B])])
    L = Complex([Simplex([A])])
    phi = CarrierMap({s: K for s in K.simplexes()})
    with pytest.raises(InvalidCarrier):
        check_carrier_map(phi, K, L)


def _m1_round_one():
    """Time-1 structure of the restricted two-process model plus the
    winner-style split map: decide the first-round loser's value."""
    from chrotop.checker import build_time_T
    from chrotop.models import builtin_model

    task = inputless_consensus(2)
    P1 = build_time_T(builtin_model("m1"), task, 1)
    mapping = {}
    for v in P1.complex.vertices():
        solo = v.label.colors() == {v.color}
        value = v.color if solo else 1 - v.color
        mapping[v] = Vertex(v.color, value)
    return task, P1, SimplicialMap(mapping)


def test_carried_by_split_map():
    task, P1, delta = _m1_round_one()
    assert carried_by(delta, P1.xi, task.delta, task.inputs).carried

    # enlarging every image never turns a pass into a fail
    bigger = CarrierMap({s: task.outputs for s in task.inputs.simplexes()})
    assert carried_by(delta, P1.xi, bigger, task.inputs).carried


def test_carried_by_solo_violation():
    task, P1, delta = _m1_round_one()
    # flip the solo vertices: now each solo execution decides the other value
    flipped = SimplicialMap(
        {v: (Vertex(v.color, 1 - o.label) if v.label.colors() == {v.color} else o)
         for v, o in delta.mapping.items()}
    )
    report = carried_by(flipped, P1.xi, task.delta, task.inputs)
    assert not report.carried
    assert report.witness[0].dim == 0


def test_carried_by_single_vertex_slice():
    p = Vertex(0, "in")
    o = Vertex(0, "out")
    I = Complex([Simplex([p])])
    O = Complex([Simplex([o])])
    xi = CarrierMap({Simplex([p]): I})
    delta_map = CarrierMap({Simplex([p]): O})
    assert carried_by(SimplicialMap({p: o}), xi, delta_map, I).carried


def test_carried_by_undefined_vertex_raises():
    task, P1, delta = _m1_round_one()
    first = P1.complex.vertices()[0]
    partial = SimplicialMap({v: o for v, o in delta.mapping.items() if v != first})
    with pytest.raises(IncompleteMap):
        carried_by(partial, P1.xi, task.delta, task.inputs)


def test_json_round_trip_and_determinism():
    K = Complex([Simplex([A, B]), Simplex([B, C])])
    text = K.to_json()
    assert text == K.to_json()
    K2 = Complex.from_json(text)
    assert K2.facets == K.facets
    obj = K.to_json_obj()
    assert obj["n"] == 3


def test_facet_maximality():
    K = Complex([Simplex([A, B, C]), Simplex([A, B]), Simplex([A])])
    for f in K.facets:
        for g in K.facets:
            assert f == g or not f.issubset(g)
