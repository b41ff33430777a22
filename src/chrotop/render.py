"""SVG rendering of one- and two-dimensional realizations and DOT export
of face posets.  A subdivision vertex's weights stay exact integers
(`integer_weights`) until one correctly rounded division turns each into
a float, the same float as `float` of the exact `Fraction` weight; output
is deterministic for a given input."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from itertools import combinations

from .errors import Unsupported
from .simplicial import Complex, vertex_strings
from .subdivision import integer_weights, weight_scale

PROCESS_COLORS = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b"]
DEPTH_FILLS = ["#f7fbff", "#deebf7", "#c6dbef", "#9ecae1", "#6baed6", "#4292c6"]

_SQRT3_OVER_2 = 0.8660254037844386

# width and height of every drawing, in pixels
SIZE = 480


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _plane_coords(point_weights, corners_2d):
    x = 0.0
    y = 0.0
    for v, w in point_weights:
        cx, cy = corners_2d[v]
        x += w * cx
        y += w * cy
    return x, y


def _draw(base: Complex, place, cells, dots) -> str:
    """The SVG of `cells`, (facet, fill, line stroke, line width) tuples
    drawn as polygons or lines, under a dot per vertex of `dots`, which
    holds every vertex of the cells.  `place(dots)` yields each dot with
    its nonzero barycentric weights as floats, in base vertex order.  An
    edge base lies flat across the middle, a triangle stands on its base."""
    dim = base.dim
    if dim not in (1, 2):
        raise Unsupported(f"SVG rendering supports dimensions 1 and 2, not {dim}")
    margin = 30.0
    span = SIZE - 2 * margin
    base_vertices = base.vertices()
    corners_2d = {}
    if dim == 1:
        for i, v in enumerate(base_vertices):
            corners_2d[v] = (margin + span * i / max(1, len(base_vertices) - 1), SIZE / 2)
    else:
        template = [(margin, SIZE - margin), (SIZE - margin, SIZE - margin), (SIZE / 2, SIZE - margin - span * _SQRT3_OVER_2)]
        for i, v in enumerate(base_vertices):
            corners_2d[v] = template[i % 3]
    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=f"{SIZE}px",
        height=f"{SIZE}px",
        viewBox=f"0 0 {SIZE} {SIZE}",
    )
    plane = {v: _plane_coords(weights, corners_2d) for v, weights in place(dots)}
    group = ET.SubElement(svg, "g", attrib={"stroke": "#333333", "stroke-width": "1"})
    for facet, fill, stroke, width in cells:
        pts = [plane[v] for v in facet]
        if len(pts) >= 3:
            ET.SubElement(group, "polygon",
                          points=" ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts), fill=fill)
        elif len(pts) == 2:
            (x1, y1), (x2, y2) = pts
            # ElementTree writes `attrib` before the keyword attributes
            ET.SubElement(group, "line", x1=_fmt(x1), y1=_fmt(y1), x2=_fmt(x2), y2=_fmt(y2),
                          attrib={"stroke": stroke, "stroke-width": width})
    group = ET.SubElement(svg, "g")
    for v, (x, y) in plane.items():
        ET.SubElement(group, "circle", cx=_fmt(x), cy=_fmt(y), r="4",
                      fill=PROCESS_COLORS[v.color % len(PROCESS_COLORS)])
    return ET.tostring(svg, encoding="unicode")


def render_svg(K: Complex, base: Complex) -> str:
    """Draw a subdivision of a 1- or 2-dimensional base."""

    def place(dots):
        weights = integer_weights(dots, base)
        scale = weight_scale(base)
        corners = base.vertices()
        for v in dots:
            depth, ints = weights[v]
            denominator = scale**depth
            yield v, [(c, a / denominator) for c, a in zip(corners, ints) if a]

    return _draw(
        base,
        place,
        ((facet, DEPTH_FILLS[0], "#333333", "4") for facet in K.facets),
        dict.fromkeys(v for facet in K.facets for v in facet),
    )


def render_terminating_svg(tsub, depth: int) -> str:
    """Stable complex of a terminating subdivision with cells shaded by
    the round they were terminated at.  Its vertex labels are already
    exact points of the base realization."""
    cells = tsub.stable_cells(depth)
    if not cells:
        raise Unsupported("no stable cells materialized yet")
    depth_by_facet = {c.geom_simplex(): c.depth for c in cells}
    stable = tsub.stable_complex(depth)
    fills = [DEPTH_FILLS[depth_by_facet.get(f, 0) % len(DEPTH_FILLS)] for f in stable.facets]
    return _draw(
        tsub.base,
        lambda dots: ((v, [(c, float(w)) for c, w in v.label.items]) for v in dots),
        ((facet, fill, fill, "6") for facet, fill in zip(stable.facets, fills)),
        stable.vertices(),
    )


def render_dot(K: Complex) -> str:
    """Face poset of a complex as a DOT digraph: a node per face in
    canonical order, an edge per covering containment, lowest-dimensional
    faces at the bottom.

    A face is the ascending tuple of its vertices' positions in
    `K.vertices()`, which is the complex's rank order, so sorting these
    int tuples gives the order of `K.simplexes()`, as its ranks do."""
    vertices = K.vertices()
    position = {v: i for i, v in enumerate(vertices)}
    # a label is quoted, so `\` and `"` inside it are escaped
    names = [text.replace("\\", "\\\\").replace('"', '\\"') for text in vertex_strings(vertices)]
    faces = set()
    for facet in K.facets:
        at = tuple(position[v] for v in facet)
        for r in range(1, len(at) + 1):
            faces.update(combinations(at, r))
    ordered = sorted(faces)
    ids = {s: f"s{i}" for i, s in enumerate(ordered)}
    lines = ["digraph faceposet {", "  rankdir=BT;"]
    for s in ordered:
        label = "|".join(names[i] for i in s)
        lines.append(f'  {ids[s]} [label="{label}"];')
    for s in ordered:
        if len(s) > 1:
            # the covering faces, in the order `Simplex.faces()` yields them
            lines.extend(f"  {ids[face]} -> {ids[s]};" for face in combinations(s, len(s) - 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
