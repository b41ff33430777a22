"""Writers of a complex: JSON, SVG drawings of one- and two-dimensional
realizations, and DOT face posets.  Each writes its text piece by piece
into an open text file, a facet, an element or a line at a time, so no
writer holds a whole file as one string.  The SVG is formatted directly,
in the attribute order and with the ` />` endings that ElementTree
writes.

The writers compute neither label texts nor weights: the JSON and DOT
writers read the label text of each of `K.vertices()` from one
`label_strings` list, so a caller that writes both, as `subdivide` does,
computes the texts once, and `render_svg` reads each vertex's exact
integer weights from an `integer_weights` dict, which `subdivide`
computes only when it draws.  A weight stays an
integer until one correctly rounded division turns it into a float, the
same float as `float` of the exact `Fraction` weight; output is
deterministic for a given input."""

from __future__ import annotations

import json
from itertools import combinations

from .errors import Unsupported
from .simplicial import Complex
from .subdivision import weight_scale

PROCESS_COLORS = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b"]
DEPTH_FILLS = ["#f7fbff", "#deebf7", "#c6dbef", "#9ecae1", "#6baed6", "#4292c6"]

_SQRT3_OVER_2 = 0.8660254037844386

# width and height of every drawing, in pixels
SIZE = 480


def render_json(K: Complex, header: dict, texts: list[str], out) -> None:
    """Write `json.dumps({**header, **K.to_json_obj()}, indent=2)` and a
    newline to `out`, a facet at a time.  `texts` holds the label text of
    each of `K.vertices()`, in order (`label_strings`).  Each distinct
    vertex's `{"color", "label"}` block is encoded once, and every facet
    is joined from those blocks.  `header` holds neither `n` nor
    `facets`."""
    head = json.dumps({**header, "n": max(K.colors()) + 1}, indent=2)
    colors = {c: f'      {{\n        "color": {json.dumps(c)},\n        "label": ' for c in K.colors()}
    blocks = {v: f"{colors[v.color]}{json.dumps(text)}\n      }}"
              for v, text in zip(K.vertices(), texts)}
    # the header without its closing brace, then the facets as the list it closed
    out.write(head[:-2] + ',\n  "facets": [')
    separator = "\n"
    for facet in K.facets:
        out.write(separator + "    [\n" + ",\n".join([blocks[v] for v in facet]) + "\n    ]")
        separator = ",\n"
    out.write("\n  ]\n}\n")


def _plane_coords(point_weights, corners_2d):
    x = 0.0
    y = 0.0
    for v, w in point_weights:
        cx, cy = corners_2d[v]
        x += w * cx
        y += w * cy
    return x, y


def _write_group(out, attributes: str, elements) -> None:
    """Write a `<g>` around the strings `elements` yields, or `<g ... />`
    when it yields none, as ElementTree writes an empty element."""
    first = next(elements, None)
    if first is None:
        out.write(f"<g{attributes} />")
        return
    out.write(f"<g{attributes}>{first}")
    out.writelines(elements)
    out.write("</g>")


def _cell_elements(plane, cells):
    for facet, fill, stroke, width in cells:
        pts = [plane[v] for v in facet]
        if len(pts) >= 3:
            points = " ".join(f"{x},{y}" for x, y in pts)
            yield f'<polygon points="{points}" fill="{fill}" />'
        elif len(pts) == 2:
            (x1, y1), (x2, y2) = pts
            yield (f'<line stroke="{stroke}" stroke-width="{width}"'
                   f' x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" />')


def _draw(out, base: Complex, place, cells, dots) -> None:
    """Write the SVG of `cells`, (facet, fill, line stroke, line width)
    tuples drawn as polygons or lines, under a dot per vertex of `dots`,
    which holds every vertex of the cells.  `place(dots)` yields each dot
    with its nonzero barycentric weights as floats, in base vertex order.
    An edge base lies flat across the middle, a triangle stands on its
    base."""
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
    # each dot's coordinates, formatted once
    plane = {}
    for v, weights in place(dots):
        x, y = _plane_coords(weights, corners_2d)
        plane[v] = (f"{x:.4f}", f"{y:.4f}")
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}px" height="{SIZE}px"'
              f' viewBox="0 0 {SIZE} {SIZE}">')
    _write_group(out, ' stroke="#333333" stroke-width="1"', _cell_elements(plane, cells))
    _write_group(out, "", (f'<circle cx="{x}" cy="{y}" r="4" fill="{PROCESS_COLORS[v.color % len(PROCESS_COLORS)]}" />'
                           for v, (x, y) in plane.items()))
    out.write("</svg>")


def render_svg(K: Complex, base: Complex, weights: dict, out) -> None:
    """Draw a subdivision of a 1- or 2-dimensional base into `out`;
    `weights` holds the `integer_weights` of its vertices over `base`."""

    def place(dots):
        scale = weight_scale(base)
        corners = base.vertices()
        for v in dots:
            depth, ints = weights[v]
            denominator = scale**depth
            yield v, [(c, a / denominator) for c, a in zip(corners, ints) if a]

    _draw(
        out,
        base,
        place,
        ((facet, DEPTH_FILLS[0], "#333333", "4") for facet in K.facets),
        dict.fromkeys(v for facet in K.facets for v in facet),
    )


def render_terminating_svg(tsub, depth: int, out) -> None:
    """Draw into `out` the stable complex of a terminating subdivision,
    with cells shaded by the round they were terminated at.  Its vertex
    labels are already exact points of the base realization."""
    cells = tsub.stable_cells(depth)
    if not cells:
        raise Unsupported("no stable cells materialized yet")
    depth_by_facet = {c.geom_simplex(): c.depth for c in cells}
    stable = tsub.stable_complex(depth)
    fills = [DEPTH_FILLS[depth_by_facet.get(f, 0) % len(DEPTH_FILLS)] for f in stable.facets]
    _draw(
        out,
        tsub.base,
        lambda dots: ((v, [(c, float(w)) for c, w in v.label.items]) for v in dots),
        ((facet, fill, fill, "6") for facet, fill in zip(stable.facets, fills)),
        stable.vertices(),
    )


def render_dot(K: Complex, texts: list[str], out) -> None:
    """Write the face poset of a complex to `out` as a DOT digraph: a
    node per face in canonical order, an edge per covering containment,
    lowest-dimensional faces at the bottom.  `texts` holds the label text
    of each of `K.vertices()`, in order (`label_strings`).

    A face is the ascending tuple of its vertices' positions in
    `K.vertices()`, which is the complex's rank order, so sorting these
    int tuples gives the order of `K.simplexes()`, as its ranks do."""
    vertices = K.vertices()
    position = {v: i for i, v in enumerate(vertices)}
    # a label is quoted, so `\` and `"` inside it are escaped; a text with
    # neither stays the caller's object, and the color is prefixed line by
    # line, so no second copy of the texts is held
    names = [text.replace("\\", "\\\\").replace('"', '\\"') for text in texts]
    colors = [v.color for v in vertices]
    faces = set()
    for facet in K.facets:
        at = tuple(position[v] for v in facet)
        for r in range(1, len(at) + 1):
            faces.update(combinations(at, r))
    ordered = sorted(faces)
    del faces
    ids = {s: f"s{i}" for i, s in enumerate(ordered)}
    out.write("digraph faceposet {\n  rankdir=BT;\n")
    out.writelines(f'  {ids[s]} [label="{"|".join([f"{colors[i]}:{names[i]}" for i in s])}"];\n'
                   for s in ordered)
    # the covering faces, in the order `Simplex.faces()` yields them
    out.writelines(f"  {ids[face]} -> {ids[s]};\n"
                   for s in ordered if len(s) > 1 for face in combinations(s, len(s) - 1))
    out.write("}\n")
