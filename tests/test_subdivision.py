from fractions import Fraction
from itertools import product
from math import lcm

import pytest

import chrotop.subdivision
from chrotop.errors import (
    BaseMismatch,
    InvalidTermination,
    NotChromatic,
    UnknownVertex,
    Unsupported,
    UnsupportedCoarsening,
)
from chrotop.protocol import view_depth
from chrotop.simplicial import Complex, Simplex, Vertex
from chrotop.subdivision import (
    BarycentricPoint,
    TerminatingSubdivision,
    apply_schedule,
    chr_iterate,
    coordinates,
    diameter_Dk,
    edge_position,
    facet_volume_fraction,
    geometric_simplex,
    integer_weights,
    ordered_partitions,
    partial_chr_step,
    policy_all_at_zero,
    prefix_policy,
    volume_by_base_facet,
    weight_scale,
    wrap_simplex,
)
from oracles import (
    cell_of_word,
    diameter,
    geometric_containment,
    reference_coordinates,
    reference_diameters_Dk,
    reference_simplex_key,
)

R, L, B = ((0,), (1,)), ((1,), (0,)), ((0, 1),)


def policy_never(k, level, tsub):
    return []


def standard_simplex(n):
    return Complex([Simplex(Vertex(i, i) for i in range(n))])


EDGE = standard_simplex(2)
TRIANGLE = standard_simplex(3)
TETRAHEDRON = standard_simplex(4)
TWO_TRIANGLES = Complex([Simplex([Vertex(0, 0), Vertex(1, 1), Vertex(2, 2)]),
                         Simplex([Vertex(0, 0), Vertex(1, 1), Vertex(2, 3)])])
TWO_EDGES = Complex([Simplex([Vertex(0, 0), Vertex(1, 1)]), Simplex([Vertex(0, 0), Vertex(1, 2)])])
TWO_COLOR_SETS = Complex([Simplex([Vertex(0, 0), Vertex(1, 1)]), Simplex([Vertex(1, 2), Vertex(2, 3)])])
LABELED_TRIANGLE = Complex([Simplex([Vertex(0, "c"), Vertex(1, "a"), Vertex(2, "b")])])


# independent oracle: ordered set partitions both counted by recurrence and
# enumerated brute-force over block assignments
def fubini(n):
    from math import comb

    if n == 0:
        return 1
    return sum(comb(n, k) * fubini(n - k) for k in range(1, n + 1))


def brute_force_ordered_partitions(items):
    items = list(items)
    if not items:
        return [()]
    out = []
    from itertools import combinations

    def rec(remaining):
        if not remaining:
            return [()]
        result = []
        rem = sorted(remaining)
        for r in range(1, len(rem) + 1):
            for block in combinations(rem, r):
                for tail in rec([x for x in rem if x not in block]):
                    result.append((block,) + tail)
        return result

    return rec(items)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 13), (4, 75)])
def test_ordered_partition_counts(n, count):
    listed = list(ordered_partitions(range(n)))
    assert len(listed) == count == fubini(n)
    assert set(listed) == set(brute_force_ordered_partitions(range(n)))
    assert len(set(listed)) == len(listed)


def test_chr_edge():
    K = chr_iterate(EDGE, 1)
    assert len(K.facets) == 3
    assert len(K.vertices()) == 4


def test_chr_triangle():
    K = chr_iterate(TRIANGLE, 1)
    assert len(K.facets) == 13
    assert len(K.vertices()) == 12


def test_chr_single_vertex():
    point = standard_simplex(1)
    K = chr_iterate(point, 1)
    assert len(K.facets) == 1
    (v,) = K.vertices()
    assert v.color == 0 and isinstance(v.label, Simplex)


def test_chr_iterate_counts():
    assert len(chr_iterate(EDGE, 2).facets) == 9
    assert len(chr_iterate(EDGE, 2).vertices()) == 10
    assert len(chr_iterate(TRIANGLE, 2).facets) == 169
    assert chr_iterate(EDGE, 0) is EDGE or chr_iterate(EDGE, 0).facets == EDGE.facets


@pytest.mark.parametrize("base, top", [
    (EDGE, 4), (TRIANGLE, 2), (TWO_EDGES, 3), (TWO_TRIANGLES, 1),
], ids=["edge", "triangle", "two-edges", "two-triangles"])
def test_chr_iterate_is_the_per_word_replay(base, top):
    for k in range(top + 1):
        replayed = Complex(
            cell_of_word(facet, word)
            for facet in base.facets
            for word in product(ordered_partitions(facet.colors()), repeat=k)
        )
        K = chr_iterate(base, k)
        assert K == replayed and K.vertices() == replayed.vertices(), k


def test_chr_requires_chromatic():
    bad = Complex([Simplex([Vertex(0, "x"), Vertex(0, "y")])])
    with pytest.raises(NotChromatic):
        chr_iterate(bad, 1)


def test_chromaticity_preserved():
    K = chr_iterate(TRIANGLE, 2)
    assert K.is_chromatic()
    assert K.is_pure()
    for f in K.facets:
        assert f.colors() == {0, 1, 2}


def test_coordinates_examples():
    K = chr_iterate(EDGE, 1)
    pts = {v: coordinates(v, EDGE) for v in K.vertices()}
    corner0, corner1 = EDGE.vertices()
    for v, pt in pts.items():
        assert sum(pt.weights.values()) == 1
    solo = next(v for v in K.vertices() if v.label.colors() == {0})
    assert coordinates(solo, EDGE).weight(corner0) == 1
    both0 = next(v for v in K.vertices() if v.color == 0 and len(v.label) == 2)
    assert coordinates(both0, EDGE).weight(corner0) == Fraction(1, 3)
    assert coordinates(both0, EDGE).weight(corner1) == Fraction(2, 3)


def test_depth2_coordinates_compose():
    K2 = chr_iterate(EDGE, 2)
    for v in K2.vertices():
        pt = coordinates(v, EDGE)
        assert sum(pt.weights.values()) == 1
        # agreement with direct evaluation through one explicit level
        carrier = v.label
        m = len(carrier)
        own, other = Fraction(1, 2 * m - 1), Fraction(2, 2 * m - 1)
        acc = {}
        for u in carrier:
            w = own if u.color == v.color else other
            for b, q in coordinates(u, EDGE).weights.items():
                acc[b] = acc.get(b, Fraction(0)) + w * q
        assert acc == pt.weights


def test_unknown_vertex_raises():
    other_base = Complex([Simplex([Vertex(0, "u"), Vertex(1, "w")])])
    v = chr_iterate(EDGE, 1).vertices()[0]
    with pytest.raises(UnknownVertex):
        coordinates(v, other_base)
    # a stable-complex vertex is labeled by its point, not by a carrier
    geometric = Vertex(v.color, coordinates(v, EDGE))
    with pytest.raises(UnknownVertex):
        coordinates(geometric, EDGE)


def test_equal_vertices_get_equal_read_only_points():
    v = chr_iterate(EDGE, 2).vertices()[3]
    pt = coordinates(v, EDGE)
    # an equal vertex rebuilt from scratch gets an equal point, hashed alike
    again = coordinates(chr_iterate(EDGE, 2).vertices()[3], EDGE)
    assert again == pt and hash(again) == hash(pt) and str(again) == str(pt)
    with pytest.raises(TypeError):
        pt.weights[EDGE.vertices()[0]] = Fraction(1)
    with pytest.raises(AttributeError):
        pt.weights = {}


@pytest.mark.parametrize("base, depth", [
    (EDGE, 6), (TRIANGLE, 3), (TETRAHEDRON, 2), (TWO_TRIANGLES, 2), (LABELED_TRIANGLE, 2),
], ids=["edge", "triangle", "tetrahedron", "two-triangles", "labeled-triangle"])
def test_integer_weights_match_the_fraction_recursion(base, depth):
    corners = base.vertices()
    scale = weight_scale(base)
    assert scale == lcm(*(2 * m - 1 for m in range(1, max(len(f) for f in base.facets) + 1)))
    reference: dict = {}
    for k in range(depth + 1):
        vertices = chr_iterate(base, k).vertices()
        weights = integer_weights(vertices, base)
        assert set(vertices) <= weights.keys()
        for v, (d, ints) in weights.items():
            assert d == view_depth(v) and len(ints) == len(corners)
            assert all(type(a) is int and a >= 0 for a in ints)
            point = {c: Fraction(a, scale**d) for c, a in zip(corners, ints) if a}
            assert point == reference_coordinates(v, base, reference).weights, v
        assert all(coordinates(v, base) == reference[v] for v in vertices[:50])


def test_integer_weights_lift_a_shallower_carrier_vertex():
    corner0, corner1 = EDGE.vertices()
    deep = chr_iterate(EDGE, 3).vertices()
    # carriers mixing depths 0, 1 and 3, over the edge and over the triangle
    mixed = [
        Vertex(0, Simplex([deep[0], corner1])),
        Vertex(1, Simplex([deep[5], Vertex(1, Simplex([corner0, corner1]))])),
        Vertex(1, Simplex([Vertex(0, Simplex([deep[2], corner1])), corner1])),
    ]
    triangle = chr_iterate(TRIANGLE, 2).vertices()
    corners = TRIANGLE.vertices()
    color1 = next(v for v in triangle if v.color == 1)
    mixed_triangle = [Vertex(2, Simplex([triangle[0], corners[2], color1]))]
    for base, vertices in ((EDGE, mixed), (TRIANGLE, mixed_triangle)):
        scale = weight_scale(base)
        weights = integer_weights(vertices, base)
        for v in vertices:
            d, ints = weights[v]
            assert d == 1 + max(weights[u][0] for u in v.label)
            point = {c: Fraction(a, scale**d) for c, a in zip(base.vertices(), ints) if a}
            assert point == reference_coordinates(v, base).weights, v


def test_integer_weights_raise_what_the_recursion_raises():
    other_base = Complex([Simplex([Vertex(0, "u"), Vertex(1, "w")])])
    v = chr_iterate(EDGE, 2).vertices()[4]
    corner0, corner1 = EDGE.vertices()
    colorless = Vertex(0, Simplex([corner1]))
    for vertex, base, error in [
        # a foreign base, and a geometric vertex labeled by its point
        (v, other_base, UnknownVertex),
        (Vertex(v.color, coordinates(v, EDGE)), EDGE, UnknownVertex),
        # a carrier without a vertex of the vertex's own color, at the top
        # or deeper in the history, and one with two
        (colorless, EDGE, ValueError),
        (Vertex(1, Simplex([colorless, corner1])), EDGE, ValueError),
        (Vertex(2, Simplex([Vertex(2, 2), Vertex(2, 3)])), TWO_TRIANGLES, ValueError),
        # weights summing to one on corners of two facets but of no simplex
        (Vertex(0, Simplex([Vertex(0, 0), Vertex(2, 2), Vertex(2, 3)])), TWO_TRIANGLES, UnknownVertex),
    ]:
        with pytest.raises(error):
            reference_coordinates(vertex, base)
        with pytest.raises(error):
            integer_weights([vertex], base)
        with pytest.raises(error):
            coordinates(vertex, base)


def test_integer_weights_refuse_a_carrier_larger_than_any_base_facet():
    # three vertices over the edge, two of one color: 1/5 is no multiple of 1/3
    corner0, corner1 = EDGE.vertices()
    vertex = Vertex(0, Simplex([corner0, corner1, Vertex(1, Simplex([corner1]))]))
    assert reference_coordinates(vertex, EDGE).weight(corner0) == Fraction(1, 5)
    with pytest.raises(Unsupported):
        integer_weights([vertex], EDGE)


@pytest.mark.parametrize("k", [0, 1, 5, 1200])
def test_integer_weights_of_a_deep_view(k):
    # process 1 goes first and alone after one joint round, so its view
    # nests one level per round; by the 1/(2m-1), 2/(2m-1) rule it stays
    # at 1/3, and process 0, which sees it, closes in from 2/3
    (edge,) = EDGE.facets
    cell = cell_of_word(edge, (B,) + (L,) * k)
    weights = integer_weights(cell, EDGE)
    for v in cell:
        assert weights[v][0] == k + 1
    position = {v.color: edge_position(coordinates(v, EDGE), EDGE) for v in cell}
    assert position == {0: Fraction(1, 3) + Fraction(1, 3 ** (k + 1)), 1: Fraction(1, 3)}


# level 40 of the edge has 3**40 cells
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 40])
def test_diameter_law_on_edge(k):
    assert diameter_Dk(EDGE, k) == Fraction(1, 3**k)


def test_diameters_strictly_decrease():
    values = [diameter_Dk(EDGE, k) for k in range(5)]
    assert all(a > b for a, b in zip(values, values[1:]))
    tri = [diameter_Dk(TRIANGLE, k) for k in range(3)]
    assert all(a > b for a, b in zip(tri, tri[1:]))


@pytest.mark.parametrize("base, depth", [
    (EDGE, 5), (TRIANGLE, 2), (EDGE, 7), (TRIANGLE, 3), (TETRAHEDRON, 2), (TWO_TRIANGLES, 2),
    (LABELED_TRIANGLE, 2),
])
def test_diameter_table_matches_each_level_subdivided_afresh(base, depth):
    assert [diameter_Dk(base, k) for k in range(depth + 1)] == [
        diameter(chr_iterate(base, k), base) for k in range(depth + 1)]
    with pytest.raises(Unsupported):
        diameter_Dk(base, -1)


@pytest.mark.parametrize("base, depth", [
    (EDGE, 8), (TRIANGLE, 3), (TETRAHEDRON, 2), (TWO_TRIANGLES, 2), (TWO_COLOR_SETS, 3), (LABELED_TRIANGLE, 2),
    (standard_simplex(1), 3), (standard_simplex(5), 1),
], ids=["edge", "triangle", "tetrahedron", "two-triangles", "two-color-sets", "labeled-triangle",
        "vertex", "4-simplex"])
def test_diameter_table_matches_the_walk_over_every_cell(base, depth):
    # the upper bound: no cell of any level, walked one by one, is wider than D_k
    assert [diameter_Dk(base, k) for k in range(depth + 1)] == reference_diameters_Dk(base, depth)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_diameter_is_met_by_the_cell_of_a_process_that_sees_only_itself(n):
    # the lower bound: under ({c}, rest)**k, c stays at its corner and the
    # others close in on it by the factor D_1 each round
    base = standard_simplex(n)
    (facet,) = base.facets
    for c in (0, n - 1):
        schedule = ((c,), tuple(d for d in range(n) if d != c))
        for k in range(4):
            assert diameter(Complex([cell_of_word(facet, (schedule,) * k)]), base) == diameter_Dk(base, k)


@pytest.mark.parametrize("base, error", [
    (Complex([Simplex([Vertex(0, 0), Vertex(0, 1)])]), NotChromatic),
    # the lone vertex comes first, so level 0 needs the second facet
    (Complex([Simplex([Vertex(0, 0)]), Simplex([Vertex(0, 1), Vertex(1, 2)])]), Unsupported),
    (Complex([Simplex([Vertex(0, 0), Vertex(0, 1), Vertex(2, 2)]), Simplex([Vertex(0, 3), Vertex(1, 4)])]),
     NotChromatic),
], ids=["not-chromatic", "not-pure", "neither"])
def test_diameter_table_refuses_the_bases_the_subdivision_refuses(base, error):
    # level 0 is the base itself, which needs no subdividing
    assert diameter_Dk(base, 0) == diameter(base, base)
    for depth in (1, 2):
        with pytest.raises(error):
            chr_iterate(base, depth)
        with pytest.raises(error):
            diameter_Dk(base, depth)


def test_mesh_of_cells_of_different_depths():
    # a level-1 cell beside a level-3 one: each vertex keeps the depth it was made at
    (edge,) = EDGE.facets
    K = Complex([cell_of_word(edge, (R,)), cell_of_word(edge, (L, B, B))])
    weights = integer_weights(K.vertices(), EDGE)
    assert {weights[v][0] for v in K.vertices()} == {1, 3}


def test_diameter_table_builds_no_exact_point(monkeypatch):
    built = []
    init = BarycentricPoint.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BarycentricPoint, "__init__", counted)
    assert diameter_Dk(EDGE, 5) == Fraction(1, 3**5)
    assert diameter_Dk(TRIANGLE, 2) == Fraction(9, 25)
    assert built == []
    coordinates(EDGE.vertices()[0], EDGE)
    assert len(built) == 1


@pytest.mark.parametrize("base,k", [(EDGE, 1), (EDGE, 2), (EDGE, 3), (TRIANGLE, 1), (TRIANGLE, 2)])
def test_volume_soundness(base, k):
    totals = volume_by_base_facet(chr_iterate(base, k), base)
    assert all(total == 1 for total in totals.values())


def test_volume_of_a_cell_across_base_facets_is_a_base_mismatch():
    a, b, c, d = Vertex(0, "a"), Vertex(1, "b"), Vertex(0, "c"), Vertex(1, "d")
    base = Complex([Simplex([a, b]), Simplex([c, d])])
    assert volume_by_base_facet(base, base) == {f: 1 for f in base.facets}
    cell = Simplex([a, d])
    with pytest.raises(BaseMismatch):
        facet_volume_fraction(cell, base)
    with pytest.raises(BaseMismatch):
        volume_by_base_facet(Complex([cell]), base)


def test_partial_step_everything_terminated():
    K = chr_iterate(EDGE, 1)
    out = partial_chr_step(K, K)
    assert out.facets == tuple(sorted((wrap_simplex(f) for f in K.facets), key=reference_simplex_key))


def test_partial_step_nothing_terminated_matches_chr():
    out = partial_chr_step(EDGE, None)
    assert out.facets == chr_iterate(EDGE, 1).facets
    assert len(out.facets) == 3


def test_partial_step_left_terminated():
    K = chr_iterate(EDGE, 1)
    left = min(
        K.facets,
        key=lambda f: min(edge_position(p, EDGE) for p in geometric_simplex(f, EDGE)),
    )
    out = partial_chr_step(K, Complex([left]))
    assert len(out.facets) == 7


def test_partial_step_rejects_terminated_interior_edge():
    K = chr_iterate(TRIANGLE, 1)
    # terminate one edge of a live facet
    facet = K.facets[0]
    edge = Simplex(list(facet.vertices)[:2])
    with pytest.raises(UnsupportedCoarsening):
        partial_chr_step(K, Complex([edge]))


def test_geometric_containment_examples():
    K1 = chr_iterate(EDGE, 1)
    K2 = chr_iterate(EDGE, 2)

    def leftmost(K):
        return min(
            K.facets,
            key=lambda f: min(edge_position(p, EDGE) for p in geometric_simplex(f, EDGE)),
        )

    left1, left2 = leftmost(K1), leftmost(K2)
    central2 = sorted(
        K2.facets,
        key=lambda f: min(edge_position(p, EDGE) for p in geometric_simplex(f, EDGE)),
    )[4]
    left1, left2, central2 = (geometric_simplex(f, EDGE) for f in (left1, left2, central2))
    assert geometric_containment(left1, left1)
    assert geometric_containment(left2, left1)
    assert not geometric_containment(central2, left1)


def test_geometric_containment_triangle():
    K = chr_iterate(TRIANGLE, 1)
    base_facet = TRIANGLE.facets[0]
    for f in K.facets:
        assert geometric_containment(geometric_simplex(f, TRIANGLE), geometric_simplex(base_facet, TRIANGLE))


def test_stable_complex_policies():
    ts_all = TerminatingSubdivision(EDGE, policy_all_at_zero)
    stable = ts_all.stable_complex(0)
    pts = sorted(edge_position(v.label, EDGE) for v in stable.vertices())
    assert pts == [0, 1]

    ts_never = TerminatingSubdivision(EDGE, policy_never)
    ts_never.materialize(3)
    assert ts_never.stable_complex(3) is None


def test_m1_policy_stable_cells():
    policy = prefix_policy({1: [(R,)], 2: [(L, s) for s in (R, B, L)]})
    ts = TerminatingSubdivision(EDGE, policy)
    stable = ts.stable_complex(2)
    assert len(stable.facets) == 4
    intervals = sorted(
        tuple(sorted(edge_position(v.label, EDGE) for v in f)) for f in stable.facets
    )
    assert intervals == [
        (Fraction(0), Fraction(1, 3)),
        (Fraction(2, 3), Fraction(7, 9)),
        (Fraction(7, 9), Fraction(8, 9)),
        (Fraction(8, 9), Fraction(1)),
    ]


def test_stable_inclusion_across_depths():
    policy = prefix_policy({1: [(R,)], 2: [(L, s) for s in (R, B, L)]})
    ts = TerminatingSubdivision(EDGE, policy)
    ts.materialize(3)
    s1 = {f for f in ts.stable_complex(1).facets}
    s3 = {f for f in ts.stable_complex(3).facets}
    assert s1 <= s3


def test_cell_of_word_matches_prefix_navigation():
    base_facet = EDGE.facets[0]
    cell = cell_of_word(base_facet, (R, L))
    positions = sorted(edge_position(p, EDGE) for p in geometric_simplex(cell, EDGE))
    assert positions == [Fraction(2, 9), Fraction(1, 3)]


def test_schedule_children_count():
    children = chr_iterate(TRIANGLE, 1).facets
    assert len(children) == 13
    for child in children:
        assert child.colors() == {0, 1, 2}


def test_base_mismatch_between_realizations():
    from chrotop.errors import BaseMismatch
    from chrotop.subdivision import geometric_distance

    other = Complex([Simplex([Vertex(0, "u"), Vertex(1, "w")])])
    p = coordinates(chr_iterate(EDGE, 1).vertices()[0], EDGE)
    q = coordinates(other.vertices()[0], other)
    with pytest.raises(BaseMismatch):
        geometric_distance(p, q)


def test_policy_output_validated():
    from chrotop.errors import InvalidTermination

    stray = Simplex([Vertex(0, "nope")])
    with pytest.raises(InvalidTermination):
        TerminatingSubdivision(EDGE, lambda k, level, ts: [stray])


def test_prefix_policy_names_why_a_word_has_no_cell():
    from chrotop.errors import InvalidTermination

    not_a_partition = TerminatingSubdivision(EDGE, prefix_policy({1: [(((0,),),)]}))
    with pytest.raises(InvalidTermination, match="has a schedule that is not an ordered partition"):
        not_a_partition.materialize(1)
    below_a_terminated_cell = TerminatingSubdivision(EDGE, prefix_policy({1: [(R,)], 2: [(R, B)]}))
    with pytest.raises(InvalidTermination, match=r"word .* runs through a terminated cell"):
        below_a_terminated_cell.materialize(2)


def test_prefix_policy_needs_a_single_facet_base():
    two_edges = TerminatingSubdivision(TWO_EDGES, prefix_policy({1: [(R,)]}))
    with pytest.raises(InvalidTermination, match="prefix policies need a single-facet base"):
        two_edges.materialize(1)


def _m2_naive_policy(max_depth):
    words = {1: [(R,), (L,)]}
    for j in range(2, max_depth + 1):
        words[j] = [(B,) + (L,) * (j - 2) + (s,) for s in (R, B)]
    return prefix_policy(words)


def _stored_cells(ts, depth):
    """Reference: the word -> cell store built level by level, extending
    every live depth-k cell by all of its children."""
    cells = {(): ts.base.facets[0]} if len(ts.base.facets) == 1 else {}
    for k in range(depth):
        level = ts._levels[k]
        sigma = Complex(level.terminated_facets) if level.terminated_facets else None
        terminated = set(sigma._face_set()) if sigma is not None else set()
        for word, facet in list(cells.items()):
            if len(word) == k and facet not in terminated:
                for schedule in ordered_partitions(facet.colors()):
                    cells[word + (schedule,)] = apply_schedule(facet, schedule)
    return cells


@pytest.mark.parametrize("base, policy, depth", [
    (EDGE, policy_never, 4),
    (EDGE, prefix_policy({1: [(R,)], 2: [(L, s) for s in (R, B, L)]}), 4),
    (EDGE, _m2_naive_policy(7), 4),
    (TRIANGLE, policy_never, 2),
    (TWO_EDGES, policy_never, 2),
], ids=["never", "m1-prefix", "m2-naive", "triangle-never", "two-facet-base"])
def test_cell_walk_matches_stored_cells(base, policy, depth):
    ts = TerminatingSubdivision(base, policy)
    ts.materialize(depth)
    stored = _stored_cells(ts, depth)
    schedules = list(ordered_partitions(range(base.dim + 1)))
    words = [word for k in range(depth + 1) for word in product(schedules, repeat=k)]
    # blocks out of order, a color missing, a color repeated
    words += [(R, ((1, 0),)), (L, ((0,),)), (((0,), (0, 1)),)]
    for word in words:
        assert ts.cell(word) == stored.get(word), word
    assert sum(ts.cell(word) is not None for word in words) == len(stored)


# -- what the walk builds -------------------------------------------------


def counted_constructions(monkeypatch, build):
    """(Simplex, Vertex) constructions made by `build()`; a simplex is
    made by `Simplex.__init__` or by the chromatic `Simplex._chromatic`,
    a vertex by `Vertex.__init__`."""
    made = {"simplexes": 0, "vertices": 0}
    simplex_init, chromatic_simplex = Simplex.__init__, Simplex._chromatic
    vertex_init = Vertex.__init__

    def simplex(self, vertices):
        made["simplexes"] += 1
        simplex_init(self, vertices)

    def chromatic(cls, verts):
        made["simplexes"] += 1
        return chromatic_simplex(verts)

    def vertex(self, color, label):
        made["vertices"] += 1
        vertex_init(self, color, label)

    monkeypatch.setattr(Simplex, "__init__", simplex)
    monkeypatch.setattr(Simplex, "_chromatic", classmethod(chromatic))
    monkeypatch.setattr(Vertex, "__init__", vertex)
    build()
    monkeypatch.undo()
    return made["simplexes"], made["vertices"]


@pytest.mark.parametrize("base, k, simplexes, vertices", [
    (TRIANGLE, 3, 3477, 1251),
    (EDGE, 7, 5465, 3286),
    (TETRAHEDRON, 2, 6764, 1156),
], ids=["triangle-k3", "edge-k7", "tetrahedron-k2"])
def test_chr_iterate_builds_each_face_and_view_once(monkeypatch, base, k, simplexes, vertices):
    n = base.dim + 1
    # a level-j cell has fubini(n) children and 2^n - 2 proper faces, each
    # built once as a carrier; its full face is the cell itself, and the
    # cells of levels 1..k are built once each
    faces = sum(fubini(n) ** j for j in range(k)) * (2**n - 2)
    assert simplexes == faces + sum(fubini(n) ** j for j in range(1, k + 1))
    # the views of level j are (c, sigma) for each face sigma of level j - 1
    # and color c of sigma, each built once
    assert vertices == sum(len(s) for j in range(k) for s in chr_iterate(base, j).simplexes())
    if n == 2:
        assert vertices == sum(3**j + 1 for j in range(1, k + 1))
    if n == 3:
        assert vertices == sum(1 + (13**j + 3 * 3**j) // 2 for j in range(1, k + 1))
    assert counted_constructions(monkeypatch, lambda: chr_iterate(base, k)) == (simplexes, vertices)


def counted_partitions(monkeypatch, build):
    """The color sets `ordered_partitions` is called on while `build()` runs."""
    calls = []

    def counted(items):
        calls.append(frozenset(items))
        return ordered_partitions(items)

    monkeypatch.setattr(chrotop.subdivision, "ordered_partitions", counted)
    build()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("base, k", [(EDGE, 7), (TRIANGLE, 3), (TWO_TRIANGLES, 2), (TWO_COLOR_SETS, 3)],
                         ids=["edge-k7", "triangle-k3", "two-triangles-k2", "two-color-sets-k3"])
def test_each_color_set_lists_its_schedules_once(monkeypatch, base, k):
    color_sets = {f.colors() for f in base.facets}
    calls = counted_partitions(monkeypatch, lambda: chr_iterate(base, k))
    assert sorted(calls, key=sorted) == sorted(color_sets, key=sorted)
    level = chr_iterate(base, k - 1)
    calls = counted_partitions(monkeypatch, lambda: partial_chr_step(level, None))
    assert sorted(calls, key=sorted) == sorted(color_sets, key=sorted)


def test_cell_navigation_lists_the_base_schedules_once(monkeypatch):
    words = {1: [(R,)], 2: [(L, s) for s in (R, B, L)], 3: [(B, B, s) for s in (R, B, L)]}
    ts = TerminatingSubdivision(EDGE, prefix_policy(words))
    ts.materialize(3)
    walked = [(B, L, R), (L, L), (B, B, L), (R, B)]
    calls = counted_partitions(monkeypatch, lambda: [ts.cell(word) for word in walked])
    assert calls == []
    # a fresh subdivision lists the base's schedules once, then once per deepened level
    calls = counted_partitions(monkeypatch, lambda: TerminatingSubdivision(EDGE, prefix_policy(words)).materialize(3))
    assert len(calls) == 1 + 3
