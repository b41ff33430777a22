import hashlib
import io

import pytest

from chrotop.render import DEPTH_FILLS, render_dot, render_svg, render_terminating_svg
from chrotop.simplicial import Complex, Simplex, Vertex, label_strings
from chrotop.subdivision import (TerminatingSubdivision, chr_iterate, integer_weights, policy_all_at_zero,
                                 prefix_policy)
from oracles import reference_coordinates, reference_simplex_key, reference_svg

R, L, B = ((0,), (1,)), ((1,), (0,)), ((0, 1),)


def standard_simplex(n):
    return Complex([Simplex(Vertex(i, i) for i in range(n))])


def written(writer, *args):
    """The text `writer(*args, out)` writes to a text file."""
    out = io.StringIO()
    writer(*args, out)
    return out.getvalue()


def svg_text(K, base):
    """`render_svg` of K, from its vertices' `integer_weights`."""
    return written(render_svg, K, base, integer_weights(K.vertices(), base))


def dot_text(K):
    """`render_dot` of K, from its vertices' `label_strings`."""
    return written(render_dot, K, label_strings(v.label for v in K.vertices()))


def test_svg_edge_subdivision():
    base = standard_simplex(2)
    svg = svg_text(chr_iterate(base, 2), base)
    assert svg.startswith("<svg")
    assert svg.count("<line") == 9
    assert svg.count("<circle") == 10
    assert svg == svg_text(chr_iterate(base, 2), base)


def test_svg_triangle_subdivision():
    base = standard_simplex(3)
    svg = svg_text(chr_iterate(base, 1), base)
    assert svg.count("<polygon") == 13
    assert svg.count("<circle") == 12


def test_terminating_svg_shades_by_depth():
    base = standard_simplex(2)
    policy = prefix_policy({1: [(R,)], 2: [(L, s) for s in (R, B, L)]})
    ts = TerminatingSubdivision(base, policy)
    ts.materialize(2)
    svg = written(render_terminating_svg, ts, 2)
    assert svg.count("<line") == 4
    # two distinct termination depths give two distinct shades
    assert "#deebf7" in svg and "#c6dbef" in svg


def test_dot_face_poset():
    base = standard_simplex(2)
    dot = dot_text(chr_iterate(base, 1))
    assert dot.startswith("digraph faceposet")
    # 7 simplexes, and each edge covers its 2 endpoints
    assert dot.count("->") == 6
    assert dot == dot_text(chr_iterate(base, 1))


@pytest.mark.parametrize("n,k", [(2, k) for k in range(6)] + [(3, k) for k in range(4)])
def test_svg_matches_the_element_tree_drawing(n, k):
    base = standard_simplex(n)
    K = chr_iterate(base, k)
    memo = {}
    points = {v: reference_coordinates(v, base, memo) for facet in K.facets for v in facet}
    cells = [(facet, DEPTH_FILLS[0], "#333333", "4") for facet in K.facets]
    assert svg_text(K, base) == reference_svg(base, cells, points)


# three terminating subdivisions: the m1 prefix policy at depth 2, the
# triangle terminated at once, and the triangle's `0|1|2` cell at depth 1
TERMINATING = {
    "m1-prefix-d2": (2, lambda: prefix_policy({1: [(R,)], 2: [(L, s) for s in (R, B, L)]}), 2),
    "triangle-all-at-zero": (3, lambda: policy_all_at_zero, 0),
    "triangle-0|1|2-d1": (3, lambda: prefix_policy({1: [(((0,), (1,), (2,)),)]}), 1),
}

# sha256 of `render_terminating_svg`'s text as ElementTree wrote it
GOLDEN_TERMINATING_SHA256 = {
    "m1-prefix-d2": "556e81305c8db42e8ef47fbe3b0bbbb1bba3579b604738be882f6e2557c682af",
    "triangle-all-at-zero": "5d5c53cded424f637d022452fd1ab710e88579983fb281f66c3cdee3538b436a",
    "triangle-0|1|2-d1": "663041dd4975b006641d381a39bdaf56a899d36dcbf6323a035aecd2a06fc167",
}


@pytest.mark.parametrize("case", list(TERMINATING))
def test_terminating_svg_matches_the_element_tree_drawing_and_its_golden_hash(case):
    n, policy, depth = TERMINATING[case]
    ts = TerminatingSubdivision(standard_simplex(n), policy())
    ts.materialize(depth)
    svg = written(render_terminating_svg, ts, depth)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == GOLDEN_TERMINATING_SHA256[case]
    depth_by_facet = {c.geom_simplex(): c.depth for c in ts.stable_cells(depth)}
    stable = ts.stable_complex(depth)
    fills = [DEPTH_FILLS[depth_by_facet[f] % len(DEPTH_FILLS)] for f in stable.facets]
    cells = [(facet, fill, fill, "6") for facet, fill in zip(stable.facets, fills)]
    assert svg == reference_svg(ts.base, cells, {v: v.label for v in stable.vertices()})


@pytest.mark.parametrize("case", [*TERMINATING, "m1-prefix-d2-reversed"])
def test_stable_cells_come_by_depth_then_reference_key(case):
    # the m1 words listed backwards, so the policy names its cells against the rank order
    reversed_m1 = (2, lambda: prefix_policy({1: [(R,)], 2: [(L, s) for s in (L, B, R)]}), 2)
    n, policy, depth = TERMINATING.get(case, reversed_m1)
    ts = TerminatingSubdivision(standard_simplex(n), policy())
    memo: dict = {}
    for d in range(depth + 1):
        cells = ts.stable_cells(d)
        want = sorted(cells, key=lambda c: (c.depth, reference_simplex_key(c.simplex, memo)))
        assert [c.simplex for c in cells] == [c.simplex for c in want]
        assert {c.depth for c in cells} <= set(range(d + 1))


def test_svg_of_cells_without_an_edge_writes_an_empty_group():
    base = standard_simplex(2)
    dots = Complex([Simplex([v]) for v in base.vertices()])
    svg = svg_text(dots, base)
    points = {v: reference_coordinates(v, base) for v in dots.vertices()}
    assert svg == reference_svg(base, [(f, DEPTH_FILLS[0], "#333333", "4") for f in dots.facets], points)
    assert '<g stroke="#333333" stroke-width="1" />' in svg
