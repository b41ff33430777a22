"""Reference implementations that the tests compare the library against.

They share no fast path with the code under test: each computes its answer
the plain way, from exact points.  A point comes from the recursion over
`Fraction` weights that `coordinates` used before the integer weight
kernel replaced it; a convex solve is a fraction-free elimination over
integer vectors.  A simulation replays every execution on its own and
asks the protocol at every round of it.  A drawing is an ElementTree
tree, serialized whole.  `cell_of_word` is the one helper that is not a
reference: it walks a word through the library's own step, for tests that
need a word's cell as the library builds it.
"""

import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import product
from math import lcm, sqrt
from typing import Sequence

from chrotop.checker import SpernerReport
from chrotop.errors import BaseMismatch, InvalidOutput, IrrevocabilityViolation
from chrotop.protocol import (
    DecisionRecord,
    ExecutionOutcome,
    RunResult,
    SolveReport,
    all_executions,
    execution_configurations,
)
from chrotop.render import PROCESS_COLORS, SIZE
from chrotop.simplicial import CarriedReport, Complex, MapReport, Simplex, Vertex, vertex_key
from chrotop.subdivision import (
    BarycentricPoint,
    apply_schedule,
    chr_iterate,
    ordered_partitions,
    weight_scale,
)


def reference_vertex_key(v: Vertex, memo: dict | None = None):
    """A vertex's order key, built afresh from its label as nested tuples:
    `(color, (0, int))`, `(color, (1, str))`, `(color, (2, carrier key))`
    for a nested label and `(color, (3, weights))` for a point, where a
    carrier's key is `reference_simplex_key` and a point's weights are
    `(base vertex key, numerator, denominator)` triples in key order.
    `memo` keeps the keys of one caller's vertices.  It recurses once per
    level, so it serves histories of a few hundred levels at most."""
    memo = {} if memo is None else memo
    if v not in memo:
        label = v.label
        if isinstance(label, Simplex):
            key = (2, reference_simplex_key(label, memo))
        elif isinstance(label, int):
            key = (0, label)
        elif isinstance(label, str):
            key = (1, label)
        else:
            key = (3, tuple(sorted(
                (reference_vertex_key(u, memo), w.numerator, w.denominator) for u, w in label.weights.items()
            )))
        memo[v] = (v.color, key)
    return memo[v]


def reference_simplex_key(s: Simplex, memo: dict | None = None) -> tuple:
    """A simplex's order key: its vertices' `reference_vertex_key`s, sorted."""
    memo = {} if memo is None else memo
    return tuple(sorted(reference_vertex_key(v, memo) for v in s))


def reference_coordinates(v: Vertex, base: Complex, memo: dict | None = None) -> BarycentricPoint:
    """Exact barycentric coordinates of a subdivision vertex, by recursion
    over its history: a vertex (p, sigma) puts weight 1/(2m-1) on its own
    color's corner of sigma and 2/(2m-1) on each other corner, m = |sigma|.
    `memo` keeps the points of one caller's vertices."""
    if memo is not None and v in memo:
        return memo[v]
    if not isinstance(v.label, Simplex):
        point = BarycentricPoint({v: Fraction(1)}, base)
    else:
        carrier = v.label
        m = len(carrier)
        own = Fraction(1, 2 * m - 1)
        other = Fraction(2, 2 * m - 1)
        out: dict[Vertex, Fraction] = {}
        for u in carrier:
            w = own if u.color == v.color else other
            for b, q in reference_coordinates(u, base, memo).weights.items():
                out[b] = out.get(b, Fraction(0)) + w * q
        point = BarycentricPoint(out, base)
    if memo is not None:
        memo[v] = point
    return point


def reference_points(simplex: Simplex, base: Complex, memo: dict | None = None) -> tuple[BarycentricPoint, ...]:
    return tuple(reference_coordinates(v, base, memo) for v in simplex)


def reference_distance(x: BarycentricPoint, y: BarycentricPoint) -> Fraction:
    """Half the 1-norm of the weight difference, summed over every base
    vertex that either point weighs."""
    total = Fraction(0)
    for v in set(x.weights) | set(y.weights):
        total += abs(x.weights.get(v, Fraction(0)) - y.weights.get(v, Fraction(0)))
    return total / 2


def diameter(K: Complex, base: Complex) -> Fraction:
    """Largest pairwise vertex distance within any facet of K."""
    best = Fraction(0)
    memo: dict = {}
    for f in K.facets:
        pts = reference_points(f, base, memo)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = reference_distance(pts[i], pts[j])
                if d > best:
                    best = d
    return best


def reference_diameters_Dk(base: Complex, depth: int) -> list[Fraction]:
    """D_0..D_depth by a depth-first walk over every cell of levels
    0..depth of each base facet, one cell per schedule word: a cell is
    its vertices' integer weights over the facet's corners times
    scale**k, and a child puts (scale // (2m - 1)) * (2 S - p_c) on the
    vertex of color c, S summing the m vectors seen up to its block.  It
    checks no base; a level has fubini(n)**k cells."""
    scale = weight_scale(base)
    best = [0] * (depth + 1)
    for facet in base.facets:
        size = len(facet)
        position = {v.color: i for i, v in enumerate(facet.vertices)}
        schedules = []
        for schedule in ordered_partitions(position) if depth else ():
            m, blocks = 0, []
            for block in schedule:
                m += len(block)
                blocks.append((tuple(position[c] for c in block), scale // (2 * m - 1)))
            schedules.append(blocks)
        corners = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
        stack = [(0, corners)]
        while stack:
            k, cell = stack.pop()
            for i in range(size):
                for j in range(i + 1, size):
                    best[k] = max(best[k], sum(abs(a - b) for a, b in zip(cell[i], cell[j])))
            if k == depth:
                continue
            for blocks in schedules:
                child = list(cell)
                seen = [0] * size
                for positions, factor in blocks:
                    for i in positions:
                        seen = [s + a for s, a in zip(seen, cell[i])]
                    for i in positions:
                        child[i] = tuple(factor * (2 * s - a) for s, a in zip(seen, cell[i]))
                stack.append((k + 1, tuple(child)))
    return [Fraction(b, 2 * scale**k) for k, b in enumerate(best)]


def reference_check_simplicial_chromatic(h, K: Complex, L: Complex) -> MapReport:
    """Whether h keeps colors and carries simplexes of K into L, by a scan:
    the first vertex of K whose color h changes, then the first simplex
    of K, in canonical order, whose image is not in L."""
    witness_vertex = next((v for v in K.vertices() if h(v).color != v.color), None)
    witness_simplex = next((s for s in K.simplexes() if h.image(s) not in L), None)
    return MapReport(witness_simplex is None, witness_vertex is None, witness_simplex, witness_vertex)


def reference_carried_by(delta, xi, delta_map, I: Complex) -> CarriedReport:
    """Whether delta[tau] lies in delta_map(sigma) for every sigma of I and
    tau of xi(sigma), by a scan in canonical order; the first failing
    pair is the witness."""
    for sigma in I.simplexes():
        allowed = delta_map(sigma)
        for tau in xi(sigma).simplexes():
            if delta.image(tau) not in allowed:
                return CarriedReport(False, (sigma, tau))
    return CarriedReport(True)


def _integer_system(columns: Sequence[BarycentricPoint], x: BarycentricPoint) -> list[list[int]]:
    """The rows of  sum_j lam_j * col_j == x,  sum lam = 1  over integers:
    one row per base vertex in any support, then the row of ones; the
    points share one denominator, which the weight rows drop."""
    points = [*columns, x]
    keys = sorted({v for p in points for v in p.weights}, key=vertex_key)
    scale = lcm(*(w.denominator for p in points for w in p.weights.values()))
    rows = []
    for k in keys:
        weights = [p.weights.get(k) for p in points]
        rows.append([0 if w is None else w.numerator * (scale // w.denominator) for w in weights])
    rows.append([1] * len(points))
    return rows


def _solve_integer(rows: list[list[int]]) -> tuple[list[int], int] | None:
    """(N, D) with lam_j = N_j / D solving the system `rows` (right-hand
    sides in the last column), or None if it is inconsistent.  Bareiss
    elimination: every entry stays an integer, a minor of the system, and
    each division by the previous pivot is exact.  Free variables
    (dependent columns) are pinned to zero, so D is the last pivot, the
    minor of the pivot rows and columns, and N is integral by Cramer's
    rule.  The candidate is verified against the original rows."""
    ncols = len(rows[0]) - 1
    mat = [row[:] for row in rows]
    pivots = []
    previous = 1
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        p, top = mat[r][col], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][col]
            mat[i] = [(p * a - f * b) // previous for a, b in zip(mat[i], top)]
        previous = p
        pivots.append(col)
    if any(row[ncols] for row in mat[len(pivots):]) or not pivots:
        return None
    D = previous
    N = [0] * ncols
    for i in reversed(range(len(pivots))):
        row, col = mat[i], pivots[i]
        rest = sum(row[j] * N[j] for j in pivots[i + 1:])
        N[col] = (D * row[ncols] - rest) // row[col]
    for row in rows:
        if sum(n * a for n, a in zip(N, row)) != D * row[ncols]:
            return None
    return N, D


def _solve_convex(columns: Sequence[BarycentricPoint], x: BarycentricPoint):
    """Exact solve of  sum_j lam_j * col_j == x,  sum lam = 1.

    Returns the lambda vector, or None if the system is inconsistent.
    Free variables (affinely dependent columns) are pinned to zero and
    the candidate is verified against the original system.
    """
    solved = _solve_integer(_integer_system(columns, x))
    if solved is None:
        return None
    N, D = solved
    return [Fraction(n, D) for n in N]


def point_in_hull(x: BarycentricPoint, hull: Sequence[BarycentricPoint]) -> bool:
    """Exact closed convex hull membership."""
    if any(h.base.facets != x.base.facets for h in hull):
        raise BaseMismatch("hull and point live over different bases")
    solved = _solve_integer(_integer_system(hull, x))
    # lam_j = N_j / D is nonnegative when N_j has D's sign or is zero
    return solved is not None and all(n * solved[1] >= 0 for n in solved[0])


def geometric_containment(
    sigma: Sequence[BarycentricPoint], tau: Sequence[BarycentricPoint]
) -> bool:
    """True iff every point of sigma lies in the closed hull of tau."""
    return all(point_in_hull(p, tau) for p in sigma)


def reference_svg(base: Complex, cells, points: dict) -> str:
    """The SVG of `cells`, (facet, fill, line stroke, line width) tuples
    drawn as polygons or lines, under a dot per vertex of `points`, which
    maps each vertex, in drawing order, to its exact point over `base`.
    Built as an ElementTree tree, as the library drew before it wrote
    its elements as text."""
    margin = 30.0
    span = SIZE - 2 * margin
    corners = base.vertices()
    if base.dim == 1:
        corner_xy = {v: (margin + span * i / max(1, len(corners) - 1), SIZE / 2) for i, v in enumerate(corners)}
    else:
        template = [(margin, SIZE - margin), (SIZE - margin, SIZE - margin),
                    (SIZE / 2, SIZE - margin - span * (sqrt(3) / 2))]
        corner_xy = {v: template[i % 3] for i, v in enumerate(corners)}
    plane = {}
    for v, point in points.items():
        x = y = 0.0
        for c, w in point.items:
            x += float(w) * corner_xy[c][0]
            y += float(w) * corner_xy[c][1]
        plane[v] = (f"{x:.4f}", f"{y:.4f}")
    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg", width=f"{SIZE}px",
                     height=f"{SIZE}px", viewBox=f"0 0 {SIZE} {SIZE}")
    group = ET.SubElement(svg, "g", attrib={"stroke": "#333333", "stroke-width": "1"})
    for facet, fill, stroke, width in cells:
        pts = [plane[v] for v in facet]
        if len(pts) >= 3:
            ET.SubElement(group, "polygon", points=" ".join(f"{x},{y}" for x, y in pts), fill=fill)
        elif len(pts) == 2:
            (x1, y1), (x2, y2) = pts
            # ElementTree writes `attrib` before the keyword attributes
            ET.SubElement(group, "line", x1=x1, y1=y1, x2=x2, y2=y2,
                          attrib={"stroke": stroke, "stroke-width": width})
    group = ET.SubElement(svg, "g")
    for v, (x, y) in plane.items():
        ET.SubElement(group, "circle", cx=x, cy=y, r="4",
                      fill=PROCESS_COLORS[v.color % len(PROCESS_COLORS)])
    return ET.tostring(svg, encoding="unicode")


def reference_sperner(n, k, seed=0, sample_size=2000):
    """Rainbow counts that build one value set per facet per coloring,
    drawing the same seeded samples, and stop at the first even count."""
    base = Complex([Simplex(Vertex(i, i) for i in range(n))])
    K = chr_iterate(base, k)
    vertices = list(K.vertices())
    choices = [sorted(c.color for c in reference_coordinates(v, base).weights) for v in vertices]
    total = 1
    for c in choices:
        total *= len(c)
    facet_indices = [[vertices.index(u) for u in f.vertices] for f in K.facets]

    def rainbow_count(assignment):
        return sum({assignment[i] for i in idx} == set(range(n)) for idx in facet_indices)

    if total <= 20000:
        mode, combos = "exhaustive", product(*choices)
    else:
        rng = random.Random(seed)
        mode = "sampled"
        combos = ([rng.choice(c) for c in choices] for _ in range(sample_size))
    colorings, min_rainbow, counterexample = 0, None, None
    for combo in combos:
        colorings += 1
        c = rainbow_count(combo)
        min_rainbow = c if min_rainbow is None else min(min_rainbow, c)
        if c % 2 == 0:
            counterexample = {"assignment": list(combo), "count": c}
            break
    return SpernerReport(n, k, mode, colorings, counterexample is None, min_rainbow or 0, counterexample)


def reference_cell(facet: Simplex, word) -> Simplex:
    """The cell of a schedule word replayed on its own, round by round from
    the definition: each color of block i sees the face of the previous
    cell spanned by blocks 1..i.  Nothing is kept between rounds or words,
    and every simplex goes through the checks of `Simplex`."""
    cell = facet
    for schedule in word:
        seen, views = [], []
        for block in schedule:
            seen += block
            carrier = Simplex(cell.vertex_of_color(c) for c in seen)
            views += [Vertex(c, carrier) for c in block]
        cell = Simplex(views)
    return cell


def cell_of_word(base_facet: Simplex, word) -> Simplex:
    """The depth-len(word) cell reached from `base_facet` by a schedule
    word through the library's own step, `apply_schedule`, its steps
    sharing one intern table of the call's own."""
    table: dict = {}
    cell = base_facet
    for schedule in word:
        cell = apply_schedule(cell, schedule, table)
    return cell


def reference_run(protocol, model, inputs, depth) -> RunResult:
    """Every execution replayed on its own (`all_executions`,
    `execution_configurations`), with one protocol call per execution,
    color and round, and irrevocability checked at each call."""
    outcomes = []
    for execution in all_executions(model, inputs, depth):
        configs = execution_configurations(execution)
        decisions = {}
        for color in sorted(execution.face.colors()):
            record = None
            for t, config in enumerate(configs):
                answer = protocol(color, config.vertex_of_color(color))
                if record is None:
                    if answer is not None:
                        record = DecisionRecord(answer, t)
                elif answer != record.value:
                    raise IrrevocabilityViolation((execution.describe(), color, t, record.value, answer))
            decisions[color] = record
        outcomes.append(ExecutionOutcome(execution, decisions))
    return RunResult(outcomes)


def reference_check_solves(protocol, task, model, depth) -> SolveReport:
    """`reference_run`, then each fully decided execution judged on its
    own: its labels, then its decision simplex against delta of its face."""
    result = reference_run(protocol, model, task.inputs, depth)
    failures = []
    for outcome in result.outcomes:
        if not outcome.all_decided():
            continue
        for rec in outcome.decisions.values():
            if rec.value not in task.output_labels():
                raise InvalidOutput(f"{protocol.name} decided {rec.value!r}, not an output label")
        decision_simplex = Simplex(Vertex(color, rec.value) for color, rec in outcome.decisions.items())
        if decision_simplex not in task.delta(outcome.execution.face):
            failures.append((outcome.execution, decision_simplex))
    undecided = any(rec is None for oc in result.outcomes for rec in oc.decisions.values())
    status = "FAIL" if failures else "UNDECIDED" if undecided else "PASS"
    return SolveReport(status, failures, result)


def _edge_cell(word, ends=(Fraction(0), Fraction(1))) -> tuple[Fraction, Fraction]:
    """The edge positions of the color-0 and color-1 vertices of the cell
    that a two-process schedule word reaches from the cell `ends`: each
    round, a process that sees only itself stays, and one that sees the
    other moves to a third of the way from the other's position to its own."""
    ends = list(ends)
    for schedule in word:
        seen, moved = set(), list(ends)
        for block in schedule:
            seen.update(block)
            for c in block:
                if len(seen) == 2:
                    moved[c] = (ends[c] + 2 * ends[1 - c]) / 3
        ends = moved
    return ends[0], ends[1]


def reference_limit_position(e) -> Fraction:
    """The edge position that the execution stem . cycle^w converges to,
    from nested exact intervals: the stem's cell, then the point that keeps
    the same place in the cycle's cell of a cell as in the cell itself."""
    a, b = _edge_cell(e.stem)
    c0, c1 = _edge_cell(e.cycle)
    # t = c0 + t * (c1 - c0), and c1 - c0 is +-3**-len(cycle)
    t = c0 / (1 - c1 + c0)
    return a + t * (b - a)


def reference_executions_reaching(x: Fraction) -> int:
    """How many two-process executions converge to position x: the closed
    cells of Chr^j of the edge that hold x, nested level by level, at a
    level j past the power of 3 in x's denominator.  From there on each
    cell holds x inside or as the one corner that a child keeps."""
    depth, d = 1, x.denominator
    while d % 3 == 0:
        depth, d = depth + 1, d // 3
    letters = [((0,), (1,)), ((1,), (0,)), ((0, 1),)]
    cells = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        cells = [child for ends in cells for child in (_edge_cell([s], ends) for s in letters)
                 if min(child) <= x <= max(child)]
    return len(cells)


def reference_disconnecting(excluded) -> set:
    """The words of `excluded` whose limit point is inside the edge and is
    reached by no execution but excluded ones.  Two words are one
    execution when they agree on a prefix past both stems and a common
    multiple of the cycles."""

    def same(e, f):
        length = max(len(e.stem), len(f.stem)) + len(e.cycle) * len(f.cycle)
        return e.prefix(length) == f.prefix(length)

    cuts = set()
    for e in excluded:
        x = reference_limit_position(e)
        executions = []
        for f in excluded:
            if reference_limit_position(f) == x and not any(same(f, g) for g in executions):
                executions.append(f)
        if 0 < x < 1 and len(executions) == reference_executions_reaching(x):
            cuts.add(e)
    return cuts


def reference_consensus(n: int) -> tuple[Complex, Complex, dict]:
    """Inputless consensus from its definition, by brute force over value
    tuples: process i has input i, and a face's image holds every simplex
    on its colors whose processes all decide one value among its inputs.
    Returns the inputs, the outputs (the input facet's image) and the
    images of the faces."""
    facet = Simplex(Vertex(i, i) for i in range(n))
    images = {}
    for face in facet.faces():
        colors = sorted(face.colors())
        simplexes = [Simplex(Vertex(c, value) for c, value in zip(colors, values))
                     for values in product(range(n), repeat=len(colors))
                     if len(set(values)) == 1 and values[0] in colors]
        images[face] = Complex(simplexes)
    return Complex([facet]), images[facet], images
