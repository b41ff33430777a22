import contextlib
import json
import random
from fractions import Fraction

import pytest

from chrotop.checker import build_time_T
from chrotop.errors import ChrotopError, IncompleteMap, InvalidVertex
from chrotop.models import builtin_model
from chrotop.simplicial import (
    CarrierMap,
    Complex,
    Simplex,
    SimplicialMap,
    Vertex,
    carried_by,
    check_carrier_map,
    check_simplicial_chromatic,
    label_key,
    vertex_key,
)
from chrotop.subdivision import (
    BarycentricPoint,
    TerminatingSubdivision,
    chr_iterate,
    ordered_partitions,
    prefix_policy,
)
from chrotop.tasks import inputless_consensus, set_agreement
from oracles import (
    cell_of_word,
    reference_carried_by,
    reference_check_simplicial_chromatic,
    reference_simplex_key,
    reference_vertex_key,
)

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


def test_identity_map_is_simplicial_chromatic():
    K = Complex([Simplex([A, B, C])])
    report = check_simplicial_chromatic(SimplicialMap({v: v for v in K.vertices()}), K, K)
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
    assert check_carrier_map(CarrierMap({s: K for s in K.simplexes()}), K, K).monotone


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


def _altered_maps():
    """The winner map of m1 at T = 3, and that map altered: at one vertex
    in the middle of the complex's vertex order, at two vertices far apart
    in it, or at a vertex whose image collides with a neighbor's.  Colors
    come first in the vertex order, so the edge of that collision comes
    before the vertex's own singleton when the vertex has color 1, and
    after it when the vertex has color 0."""
    from chrotop.protocol import extract_map, winner_protocol

    task, m1 = inputless_consensus(2), builtin_model("m1")
    P3 = build_time_T(m1, task, 3)
    delta = extract_map(winner_protocol(), m1, task, 3)
    vertices = P3.complex.vertices()
    v = vertices[len(vertices) // 2]
    out = delta(v)

    def altered(*pairs):
        return SimplicialMap({**delta.mapping, **dict(pairs)})

    def flipped(w):
        return w, Vertex(delta(w).color, 1 - delta(w).label)

    def colliding(w):
        # two images of one color whose labels write the same text
        other = next(u for u in vertices
                     if u.color != w.color and any(u in f and w in f for f in P3.complex.facets))
        return w, Vertex(delta(other).color, str(delta(other).label))

    maps = {
        "correct": delta,
        "flipped": altered(flipped(v)),
        "two-flipped": altered(flipped(vertices[1]), flipped(vertices[-2])),
        "not-chromatic": altered((v, Vertex(1 - out.color, out.label))),
        "colliding": altered(colliding(v)),
        "colliding-edge-first": altered(colliding(vertices[-1])),
        "colliding-edge-after": altered(colliding(vertices[0])),
        "missing": SimplicialMap({w: o for w, o in delta.mapping.items() if w != v}),
    }
    return task, P3, maps


ALTERED = ["correct", "flipped", "two-flipped", "not-chromatic", "colliding",
           "colliding-edge-first", "colliding-edge-after", "missing"]


def _same_outcome(check, reference, args):
    """`check(*args)` returns what `reference(*args)` returns, or raises
    an error of the same type and text."""
    try:
        expected = reference(*args)
    except ChrotopError as error:
        with pytest.raises(type(error)) as raised:
            check(*args)
        assert str(raised.value) == str(error)
    else:
        assert check(*args) == expected


@pytest.mark.parametrize("case", ALTERED)
def test_map_checks_match_the_reference_scans(case):
    task, P3, maps = _altered_maps()
    h = maps[case]
    _same_outcome(check_simplicial_chromatic, reference_check_simplicial_chromatic, (h, P3.complex, task.outputs))
    _same_outcome(carried_by, reference_carried_by, (h, P3.xi, task.delta, task.inputs))
    if case == "correct":
        assert check_simplicial_chromatic(h, P3.complex, task.outputs).ok
        assert carried_by(h, P3.xi, task.delta, task.inputs).carried
    elif case == "colliding-edge-first":
        with pytest.raises(InvalidVertex):
            check_simplicial_chromatic(h, P3.complex, task.outputs)
    elif case == "colliding-edge-after":
        report = check_simplicial_chromatic(h, P3.complex, task.outputs)
        assert report.witness_simplex == Simplex([P3.complex.vertices()[0]])
    elif case == "two-flipped":
        vertices = P3.complex.vertices()
        failing = [f for f in P3.complex.facets if h.image(f) not in task.outputs]
        assert any(vertices[1] in f for f in failing) and any(vertices[-2] in f for f in failing)


@pytest.mark.parametrize("T", [2, 3, 4])
def test_map_checks_match_the_reference_scans_on_random_maps(T):
    """The m1 winner map altered at 1 to 3 random vertices, each flipped,
    recolored, sent outside the outputs or made to collide, 100 maps at
    each T: both checks give the reference's report, or its error."""
    from chrotop.protocol import extract_map, winner_protocol

    task, m1 = inputless_consensus(2), builtin_model("m1")
    PT = build_time_T(m1, task, T)
    delta = extract_map(winner_protocol(), m1, task, T)
    vertices = PT.complex.vertices()
    images = sorted({delta(v) for v in vertices}, key=vertex_key)
    rng = random.Random(T)
    for _ in range(100):
        mapping = dict(delta.mapping)
        for v in rng.sample(vertices, rng.randint(1, 3)):
            out, other = delta(v), rng.choice(images)
            mapping[v] = rng.choice([
                Vertex(out.color, 1 - out.label),
                Vertex(1 - out.color, out.label),
                Vertex(out.color, 2),
                Vertex(other.color, str(other.label)),
            ])
        h = SimplicialMap(mapping)
        _same_outcome(check_simplicial_chromatic, reference_check_simplicial_chromatic,
                      (h, PT.complex, task.outputs))
        _same_outcome(carried_by, reference_carried_by, (h, PT.xi, task.delta, task.inputs))


def test_map_checks_look_up_each_vertex_once():
    """Passing, failing or colliding, `check_simplicial_chromatic` looks h
    up once per vertex of K, in rank order, and `carried_by` once per
    vertex of each xi(sigma) it reaches, up to the first that fails."""
    task, P3, maps = _altered_maps()
    blocks = [P3.xi(s).vertices() for s in task.inputs.simplexes()]
    reached = [[id(v) for block in blocks[:j] for v in block] for j in range(1, len(blocks) + 1)]
    looked_up = []
    lookup = SimplicialMap.__call__

    class Counted(SimplicialMap):
        def __call__(self, v):
            looked_up.append(v)
            return lookup(self, v)

    for case in ALTERED:
        if case == "missing":
            continue
        counted = Counted(maps[case].mapping)
        collides = case.startswith("colliding")
        looked_up.clear()
        with contextlib.suppress(InvalidVertex) if collides else contextlib.nullcontext():
            mapped = check_simplicial_chromatic(counted, P3.complex, task.outputs).ok
        assert list(map(id, looked_up)) == list(map(id, P3.complex.vertices())), case
        looked_up.clear()
        with contextlib.suppress(InvalidVertex) if collides else contextlib.nullcontext():
            carried = carried_by(counted, P3.xi, task.delta, task.inputs).carried
        assert list(map(id, looked_up)) in reached, case
        if case == "correct":
            assert mapped and carried and list(map(id, looked_up)) == reached[-1]


def test_an_incomplete_map_names_its_first_unmapped_vertex():
    """A map that changes a color and also lacks later vertices raises
    `IncompleteMap` at its first unmapped vertex in rank order, in both
    checks, though a scan would meet a failing simplex first."""
    task, P3, maps = _altered_maps()
    delta = maps["correct"]
    vertices = P3.complex.vertices()
    out = delta(vertices[1])
    missing = vertices[-3:-1]
    h = SimplicialMap({**{w: o for w, o in delta.mapping.items() if w not in missing},
                       vertices[1]: Vertex(1 - out.color, 1 - out.label)})
    with pytest.raises(IncompleteMap) as raised:
        check_simplicial_chromatic(h, P3.complex, task.outputs)
    assert str(raised.value) == f"map undefined on {missing[0]!r}"
    first = next(w for s in task.inputs.simplexes() for w in P3.xi(s).vertices() if w in missing)
    with pytest.raises(IncompleteMap) as raised:
        carried_by(h, P3.xi, task.delta, task.inputs)
    assert str(raised.value) == f"map undefined on {first!r}"


def test_json_round_trip_and_determinism():
    K = Complex([Simplex([A, B]), Simplex([B, C])])
    text = json.dumps(K.to_json_obj())
    assert text == json.dumps(K.to_json_obj())
    K2 = Complex.from_json_obj(json.loads(text))
    assert K2.facets == K.facets
    obj = K.to_json_obj()
    assert obj["n"] == 3


def test_facet_maximality():
    K = Complex([Simplex([A, B, C]), Simplex([A, B]), Simplex([A])])
    for f in K.facets:
        for g in K.facets:
            assert f == g or not f.issubset(g)


def test_vertex_hash_is_cached_and_unchanged():
    edge = Complex([Simplex([Vertex(0, 0), Vertex(1, 1)])])
    point = BarycentricPoint({Vertex(0, 0): Fraction(1, 3), Vertex(1, 1): Fraction(2, 3)}, edge)
    nested = Simplex([Vertex(0, 0), Vertex(1, Simplex([Vertex(0, 0), Vertex(1, 1)]))])
    # the hash the frozen dataclass generated, so set and dict orders stay
    for color, label in ((0, 5), (1, "b"), (1, nested), (0, point)):
        v = Vertex(color, label)
        assert hash(v) == hash((color, label))
        assert not hasattr(v, "__dict__")
        # a plain label has a key of its own; a nested one orders by its ranks
        if isinstance(label, Simplex):
            with pytest.raises(TypeError):
                label_key(label)
        else:
            assert vertex_key(v) == (color, label_key(label)) == reference_vertex_key(v)
    v = Vertex(0, 5)
    with pytest.raises(AttributeError):
        v.color = 1
    # equality ignores the cached hash
    object.__setattr__(v, "_hash", 0)
    assert v == Vertex(0, 5) and Vertex(0, 5) == v
    assert v != Vertex(0, 6) and v != Vertex(1, 5)
    assert repr(Vertex(0, 5)) == "v(0:5)"
    assert repr(Vertex(1, "b")) == "v(1:b)"
    assert repr(Vertex(1, nested)) == "v(1:{0:0,1:{0:0,1:1}})"


# -- rank order ------------------------------------------------------------

# two-process round schedules: process 0 first, process 1 first, together
RIGHT, LEFT, BOTH = ((0,), (1,)), ((1,), (0,)), ((0, 1),)


def _standard_simplex(n: int) -> Complex:
    return Complex([Simplex(Vertex(i, i) for i in range(n))])


def _assert_sorted_like_keys(K: Complex):
    """Reference: sort the vertices by their nested `reference_vertex_key`s
    and the facets and faces by their nested `reference_simplex_key`s."""
    vertices = {v for f in K.facets for v in f}
    faces = {face for f in K.facets for face in f.faces()}
    memo: dict = {}
    assert K.vertices() == tuple(sorted(vertices, key=lambda v: reference_vertex_key(v, memo)))
    assert K.facets == tuple(sorted(set(K.facets), key=lambda s: reference_simplex_key(s, memo)))
    assert K.simplexes() == sorted(faces, key=lambda s: reference_simplex_key(s, memo))


@pytest.mark.parametrize("n, k", [(2, j) for j in range(7)] + [(3, j) for j in range(4)]
                         + [(4, j) for j in range(3)])
def test_chr_iterate_orders_by_keys(n, k):
    _assert_sorted_like_keys(chr_iterate(_standard_simplex(n), k))


@pytest.mark.parametrize("model, task, T", [
    ("iis3", set_agreement(3), 2),
    ("m1", inputless_consensus(2), 4),
    ("m2", inputless_consensus(2), 4),
], ids=["iis3-set-agreement", "m1", "m2"])
def test_time_T_complexes_order_by_keys(model, task, T):
    PT = build_time_T(builtin_model(model), task, T)
    for sigma in task.inputs.simplexes():
        _assert_sorted_like_keys(PT.xi(sigma))


def test_stable_complexes_with_point_labels_order_by_keys():
    edge = inputless_consensus(2).inputs
    m1_policy = prefix_policy({1: [(RIGHT,)], 2: [(LEFT, s) for s in (RIGHT, BOTH, LEFT)]})
    m1 = TerminatingSubdivision(edge, m1_policy)
    triangle = _standard_simplex(3)
    first_round = prefix_policy({1: [(s,) for s in ordered_partitions((0, 1, 2))]})
    for stable in (m1.stable_complex(2), TerminatingSubdivision(triangle, first_round).stable_complex(1)):
        assert all(isinstance(v.label, BarycentricPoint) for v in stable.vertices())
        _assert_sorted_like_keys(stable)


def test_flat_labels_order_by_keys():
    ints_and_strings = [Vertex(c, label) for c in range(3) for label in (-1, 0, 7, "", "a", "b")]
    rng = random.Random(3)
    for _ in range(20):
        facets = [Simplex(rng.sample(ints_and_strings, rng.randint(1, 4))) for _ in range(6)]
        _assert_sorted_like_keys(Complex(facets))


def _random_history_complex(rng: random.Random) -> Complex:
    """Vertices of depths 0-3 on two colors, each carrier drawn from all
    shallower depths, some rebuilt as equal distinct objects; facets of
    one to four of them, of any depths."""
    by_depth = [[Vertex(c, label) for c in (0, 1) for label in (0, 1, "a")]]
    for _ in range(3):
        shallower = [v for level in by_depth for v in level]
        level = []
        for _ in range(6):
            carrier = Simplex([rng.choice(by_depth[-1])] + rng.sample(shallower, rng.randint(0, 2)))
            v = Vertex(rng.choice((0, 1)), carrier)
            level.append(v)
            if rng.random() < 0.3:
                level.append(Vertex(v.color, Simplex(list(carrier))))
        by_depth.append(level)
    everything = [v for level in by_depth for v in level]
    return Complex(Simplex(rng.sample(everything, rng.randint(1, 4))) for _ in range(8))


@pytest.mark.parametrize("seed", range(100))
def test_mixed_depth_histories_order_by_keys(seed):
    _assert_sorted_like_keys(_random_history_complex(random.Random(seed)))


def test_a_complex_of_depth_400_cells_builds_and_orders():
    # the two cells differ only in their first round, so every key
    # comparison between them runs down to it; hashing the nested key took
    # time exponential in the depth, and comparing it overflowed the stack
    (edge,) = inputless_consensus(2).inputs.facets
    for depth in (5, 400):
        right, left = (cell_of_word(edge, (first,) + (BOTH,) * depth) for first in (RIGHT, LEFT))
        K = Complex([left, right])
        # the solo first view of process 0 sorts first, at every depth
        assert len(K.facets) == 2 and K.facets[0] is right and K.facets[1] is left
        want = [cell.vertex_of_color(c) for c in (0, 1) for cell in (right, left)]
        assert len(K.vertices()) == 4 and all(a is b for a, b in zip(K.vertices(), want))
        assert len(K.simplexes()) == 6
        if depth == 5:
            _assert_sorted_like_keys(K)


@pytest.mark.parametrize("depth", [5, 400, 1200])
def test_a_map_over_deep_views_lists_in_key_order(depth):
    # sorting by the nested keys recursed once per level of the key tuple
    # and overflowed the stack near 400 rounds
    (edge,) = inputless_consensus(2).inputs.facets
    right, left = (cell_of_word(edge, (first,) + (BOTH,) * depth) for first in (RIGHT, LEFT))
    views = [v for cell in (left, right) for v in reversed(cell.vertices)]
    h = SimplicialMap({v: Vertex(v.color, i) for i, v in enumerate(views)})
    want = [cell.vertex_of_color(c) for c in (0, 1) for cell in (right, left)]
    listed = h.items()
    assert len(listed) == 4 and all(v is w and o is h(w) for (v, o), w in zip(listed, want))
    if depth == 5:
        assert listed == sorted(h.mapping.items(), key=lambda kv: reference_vertex_key(kv[0]))


@pytest.mark.parametrize("depth", [5, 1200])
def test_a_carrier_map_over_deep_cells_lists_its_domain_in_key_order(depth):
    # sorting the domain by the nested simplex keys overflowed the stack
    # between 300 and 1200 rounds
    (edge,) = inputless_consensus(2).inputs.facets
    right, left = (cell_of_word(edge, (first,) + (BOTH,) * depth) for first in (RIGHT, LEFT))
    phi = CarrierMap({left: Complex([left]), right: Complex([right])})
    domain = phi.domain()
    assert len(domain) == 2 and domain[0] is right and domain[1] is left
    if depth == 5:
        assert domain == sorted([left, right], key=reference_simplex_key)


def test_same_color_vertices_order_like_the_reference_key():
    # a repeated color is the one case where a simplex ranks its vertices
    edge = _standard_simplex(2)
    views = [v for k in range(3) for v in chr_iterate(edge, k).vertices()]
    memo: dict = {}

    def reference(vertices):
        return sorted(vertices, key=lambda v: reference_vertex_key(v, memo))

    for color in (0, 1):
        same = [v for v in views if v.color == color]
        for a in same:
            for b in same:
                if a != b:
                    assert list(Simplex([a, b])) == reference([a, b])
    rng = random.Random(7)
    for _ in range(200):
        picked = rng.sample(views, rng.randint(2, 5))
        assert list(Simplex(picked)) == reference(picked)


def test_deep_equal_cells_built_apart_compare_equal():
    # the recursive comparison took time exponential in the depth (3.9 s
    # at 22 rounds of BOTH) and overflowed the stack at about 165 rounds;
    # each result is asserted as a bool, since a failure message would
    # write the cells, whose text is exponential in the depth
    (edge,) = inputless_consensus(2).inputs.facets
    for word in ((BOTH,) * 1200, (BOTH,) + (LEFT,) * 1200):
        a, b = cell_of_word(edge, word), cell_of_word(edge, word)
        equal = [a is not b, a == b, b == a] + [v is not w and v == w for v, w in zip(a, b)]
        assert all(equal)
    right, left = (cell_of_word(edge, (first,) + (BOTH,) * 1200) for first in (RIGHT, LEFT))
    assert [right != left, left != right] == [True, True]
    # inputs -1 and -2 hash alike, so these cells agree in every hash and
    # differ only in their input vertices, 1200 rounds down
    a, b = (cell_of_word(Simplex([Vertex(0, x), Vertex(1, 0)]), (BOTH,) * 1200) for x in (-1, -2))
    assert [hash(a) == hash(b), a != b, b != a] == [True, True, True]


def test_point_labelled_simplexes_hash_like_they_compare():
    # a point's order key ignores its base, its equality does not
    a, b = Vertex(0, 0), Vertex(1, 1)
    edge = Complex([Simplex([a, b])])
    path = Complex([Simplex([a, b]), Simplex([b, Vertex(2, 2)])])
    half = {a: Fraction(1, 2), b: Fraction(1, 2)}
    on_edge = Simplex([Vertex(0, BarycentricPoint(half, edge))])
    on_path = Simplex([Vertex(0, BarycentricPoint(half, path))])
    assert reference_simplex_key(on_edge) == reference_simplex_key(on_path)
    assert on_edge != on_path and len({on_edge, on_path}) == 2
    again = Simplex([Vertex(0, BarycentricPoint(dict(half), edge))])
    assert again == on_edge and hash(again) == hash(on_edge) and again is not on_edge
