"""Time-bounded protocol complexes, decision-map search, admissibility
and continuity checking, and impossibility certificates.

The time-T complex quotients view sequences by their first T+1 entries.
Because the view metric is an ultrametric, a ball of radius 2**-T is
exactly a depth-T view vertex, so balls are represented by the view
vertices themselves.  `build_time_T` and `run` take their executions
from one walk, `protocol.execution_cells`, which interns its views: within
one P_T or one simulation a ball, and every view below it, is one object
and equal balls compare by identity.  Views of two walks are equal by
value, and compare in time linear in their depth.
"""

from __future__ import annotations

import heapq
import random
import re
from fractions import Fraction
from itertools import groupby, islice, product
from typing import Iterator, Optional, Sequence

from .errors import BadIndices, ChrotopError, Unsupported
from .models import (
    ARROW_SCHEDULES,
    MAX_PROCESSES,
    ExecutionWord,
    ModelSpec,
    Word,
)
from .protocol import (
    DecisionProtocol,
    check_solves,
    execution_cells,
    synthesize_from_time_map,
    view_chain,
)
from .simplicial import (
    CarrierMap,
    Complex,
    Record,
    Simplex,
    SimplicialMap,
    Vertex,
    check_simplicial_chromatic,
    vertex_json,
    vertex_key,
    vertex_strings,
)
from .subdivision import (
    BarycentricPoint,
    Schedule,
    TerminatingSubdivision,
    chr_iterate,
    diameter_Dk,
    edge_position,
    integer_weights,
    stable_ball,
    walk_cells,
)
from .tasks import Task, check_arity, inputless_consensus, set_agreement


# -- time-T complexes --------------------------------------------------------


class TimeTComplex:
    __slots__ = ("T", "complex", "xi")

    def __init__(self, T: int, complex: Complex, xi: CarrierMap):
        self.T, self.complex, self.xi = T, complex, xi


def build_time_T(model: ModelSpec, task: Task, T: int) -> TimeTComplex:
    """Vertices are depth-T views over all allowed executions; a set of
    views is a simplex when one execution produces all of them.  The
    execution map sends each input simplex to the views of executions
    whose participation and inputs are compatible with it.  When every
    execution is compatible, as with the input facet of a one-facet input
    complex, that image is P_T itself, the same `Complex` object, so its
    facets and vertices are sorted once.

    The executions are `execution_cells` over the input faces, so equal
    views of different executions are one object."""
    if T < 0:
        raise Unsupported("time must be nonnegative")
    faces = task.inputs.simplexes()
    executions = execution_cells(model, faces, T)
    complex_ = Complex([cell for _, _, cell in executions])
    images: dict[Simplex, Complex] = {}
    for sigma in faces:
        compatible_faces = set(sigma.faces())
        facets = [cell for face, _, cell in executions if face in compatible_faces]
        images[sigma] = complex_ if len(facets) == len(executions) else Complex(facets)
    return TimeTComplex(T, complex_, CarrierMap(images))


def connecting_map_fST(PT: TimeTComplex, PS: TimeTComplex) -> SimplicialMap:
    """Ball coarsening from time T to time S <= T: truncate the view."""
    if PS.T > PT.T:
        raise BadIndices(f"need S <= T, got S={PS.T}, T={PT.T}")
    ps_vertices = set(PS.complex.vertices())
    mapping = {}
    for ball in PT.complex.vertices():
        target = view_chain(ball)[PS.T]
        if target not in ps_vertices:
            raise ChrotopError(f"truncated ball {target!r} missing at time {PS.T}")
        mapping[ball] = target
    f = SimplicialMap(mapping)
    report = check_simplicial_chromatic(f, PT.complex, PS.complex)
    if not report.ok:
        raise ChrotopError("connecting map failed verification")
    return f


# -- decision-map search -------------------------------------------------------


def _search_constraints(PT: TimeTComplex, task: Task) -> tuple[
    dict[Vertex, list[Vertex]], list[tuple[tuple[Vertex, ...], frozenset]], dict[Vertex, list[int]]
]:
    """The search's inputs, from one pass over the input simplexes: the
    candidate outputs of each vertex, the constraints as (facet vertices,
    face set), and per vertex the indices of the constraints on it.  Each
    distinct delta(sigma) becomes the set of its faces, as frozensets of
    output vertices, once.  A vertex of xi(sigma) keeps the candidates that
    are vertices of delta(sigma), and each facet of xi(sigma) must map into
    delta(sigma).  No constraint maps a facet of P_T into the outputs:
    every facet of P_T is a facet of xi(e.face) for its own execution e,
    and delta(e.face) lies in the outputs of a valid task."""
    out_by_color: dict[int, list[Vertex]] = {}
    for o in task.outputs.vertices():
        out_by_color.setdefault(o.color, []).append(o)
    vertices = PT.complex.vertices()
    candidates = {v: out_by_color.get(v.color, []) for v in vertices}
    constraints = []
    by_vertex: dict[Vertex, list[int]] = {v: [] for v in vertices}
    face_sets: dict[Complex, frozenset[frozenset[Vertex]]] = {}
    for sigma in task.inputs.simplexes():
        allowed = task.delta(sigma)
        faces = face_sets.get(allowed)
        if faces is None:
            faces = face_sets[allowed] = frozenset(frozenset(s) for s in allowed.simplexes())
        image = PT.xi(sigma)
        for v in image.vertices():
            candidates[v] = [o for o in candidates[v] if frozenset((o,)) in faces]
        for g in image.facets:
            for v in g.vertices:
                by_vertex[v].append(len(constraints))
            constraints.append((g.vertices, faces))
    return candidates, constraints, by_vertex


def _search_order(
    vertices: Sequence[Vertex],
    candidates: dict[Vertex, list[Vertex]],
    constraints: list[tuple[tuple[Vertex, ...], frozenset]],
    by_vertex: dict[Vertex, list[int]],
) -> list[Vertex]:
    """Most-constrained-first order that walks the constraint adjacency.

    `vertices` come in rank order (`_rank_vertices`), as
    `Complex.vertices()` gives them, and a stable sort by number of
    candidates makes the priority order: (number of candidates, place in
    `vertices`), unique per vertex.  The next vertex is the first unplaced
    vertex in that order that shares a constraint with a placed one, or
    else the first unplaced vertex.  Each vertex gets its position in the
    priority order once; the frontier is a heap of positions, each pushed
    at most once, and the fallback is a cursor into the priority order.
    """
    ranked = sorted(vertices, key=lambda v: len(candidates[v]))
    position = {v: i for i, v in enumerate(ranked)}
    seen = [False] * len(ranked)  # placed, or waiting in the frontier heap
    frontier: list[int] = []
    cursor = 0
    order: list[Vertex] = []
    while len(order) < len(ranked):
        if frontier:
            i = heapq.heappop(frontier)
        else:
            while seen[cursor]:
                cursor += 1
            i = cursor
            seen[i] = True
        v = ranked[i]
        order.append(v)
        for idx in by_vertex[v]:
            for u in constraints[idx][0]:
                j = position[u]
                if not seen[j]:
                    seen[j] = True
                    heapq.heappush(frontier, j)
    return order


def search_decision_map(PT: TimeTComplex, task: Task) -> Optional[SimplicialMap]:
    """Deterministic backtracking search for a chromatic simplicial map
    from the time-T complex to the outputs that is carried by delta.
    The task must pass `validate_task`: the search checks only that the
    map is carried by delta, which implies that it lands in the outputs.

    Vertices are assigned in a most-constrained-first order that walks
    the facet adjacency (`_search_order`, computed in
    O(V log V + sum of constraint sizes)); every partial image of a
    constrained simplex must already be a simplex of the allowed
    complex, which prunes as soon as an edge is complete.  The vertices
    of a facet have distinct colors and candidates keep colors, so a
    partial image is a set of distinct output vertices and lies in the
    constraint's face set exactly when it is a simplex of the allowed
    complex; a check is one set lookup.
    """
    candidates, constraints, by_vertex = _search_constraints(PT, task)
    if any(not c for c in candidates.values()):
        return None
    order = _search_order(PT.complex.vertices(), candidates, constraints, by_vertex)
    assignment: dict[Vertex, Vertex] = {}

    def consistent(v: Vertex) -> bool:
        for idx in by_vertex[v]:
            verts, faces = constraints[idx]
            if frozenset(assignment[u] for u in verts if u in assignment) not in faces:
                return False
        return True

    # depth-first over `order` with one candidate iterator per vertex, no recursion
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


# -- terminating-subdivision certificate verification ----------------------------


class TerminationCertificateReport(Record):
    __slots__ = ("admissible", "uncovered", "uncovered_only_excluded", "carried", "carrier_witness",
                 "continuous", "continuity_witness", "closure_witness")

    def __init__(self, admissible: bool, uncovered: list[Word], uncovered_only_excluded: bool, carried: bool,
                 carrier_witness: Optional[tuple], continuous: bool, continuity_witness: Optional[tuple],
                 closure_witness: Optional[dict]):
        self.admissible, self.uncovered, self.uncovered_only_excluded = admissible, uncovered, uncovered_only_excluded
        self.carried, self.carrier_witness = carried, carrier_witness
        self.continuous, self.continuity_witness, self.closure_witness = continuous, continuity_witness, closure_witness

    @property
    def ok(self) -> bool:
        return self.admissible and self.carried and self.continuous


def verify_termination_certificate(
    tsub: TerminatingSubdivision,
    delta: SimplicialMap,
    model: ModelSpec,
    task: Task,
    depth: int,
) -> TerminationCertificateReport:
    """Check the three fixed-point conditions of a terminating-subdivision
    certificate at a finite depth.

    (a) every allowed depth-long schedule word falls, at some round
        k <= depth, inside a terminated simplex; the cells of one level
        tile the base, so that simplex is the cell of the word's length-k
        prefix; (b) the map value of every stable simplex lies in
        delta of the minimal input simplex carrying it; (c) the map is
        constant on same-color stable vertices within the shrinking
        radius of each vertex's stabilization round, and its values
        agree around every excluded limit point that an allowed
        execution reaches (`_disconnecting`).
    """
    check_arity(task, model)
    tsub.materialize(depth)
    base = tsub.base
    if len(base.facets) != 1:
        raise Unsupported("certificate verification needs a single-facet input complex")
    base_facet = base.facets[0]
    if base_facet.colors() != frozenset(range(model.n)):
        raise Unsupported(f"base colors {sorted(base_facet.colors())} are not processes 0..{model.n - 1} of model {model.name}")
    stable_cells = tsub.stable_cells(depth)

    # (a) admissibility at depth: one walk over the model's words cuts each
    # word whose cell is a stable cell of its depth; it walks with the
    # subdivision's intern table, so each of its cells is the level's facet
    stable = {(sc.depth, sc.simplex) for sc in stable_cells}
    processes = base_facet.colors()
    alphabet = model.schedules(processes)

    def letters(word: Word, cell: Simplex) -> list[Schedule]:
        if (len(word), cell) in stable:
            return []
        return [s for s in alphabet if model.allowed_prefix(processes, word + (s,))]

    roots = [base_facet] if model.allowed_prefix(processes, ()) else []
    uncovered = [w for _, w, cell in walk_cells(roots, depth, letters, tsub.table)
                 if (depth, cell) not in stable]
    only_excluded = bool(uncovered) and all(
        any(w == e.prefix(len(w)) for e in model.excluded) for w in uncovered
    )

    # (b) carrier condition on stable simplexes
    carried_ok = True
    carrier_witness = None
    base_vertices = set(base_facet.vertices)
    for sc in stable_cells:
        geom = sc.geom_simplex()
        support = set()
        for pt in sc.points:
            support.update(pt.weights)
        sigma_min = Simplex(v for v in base_vertices if v in support)
        image = delta.image(geom)
        if image not in task.delta(sigma_min):
            carried_ok = False
            carrier_witness = (sigma_min, sc.simplex, image)
            break

    # (c1) local constancy at the stabilization radius: each stable vertex
    # against the first vertex of its ball whose value differs
    stable_vertices: dict[Vertex, int] = {}
    for sc in stable_cells:
        for v in sc.geom_simplex():
            stable_vertices[v] = max(stable_vertices.get(v, 0), sc.depth)
    ball = stable_ball(tsub, depth)
    continuity_witness = next((
        (v, w, delta(v).label, delta(w).label)
        for v in sorted(stable_vertices, key=vertex_key)
        for w in ball(v.color, v.label, diameter_Dk(base, stable_vertices[v]))
        if w != v and delta(v).label != delta(w).label
    ), None)
    continuous = continuity_witness is None

    # (c2) closure analysis around excluded limit executions
    closure_witness = None
    if model.excluded and model.n == 2:
        cuts = _disconnecting(model)
        for excluded in model.excluded:
            if excluded in cuts:
                continue  # no allowed execution reaches the point, so none need agree there
            verdict = _excluded_point_values(tsub, delta, excluded, depth)
            if verdict is not None and len(verdict["values"]) > 1:
                continuous = False
                closure_witness = verdict
                break

    return TerminationCertificateReport(
        admissible=not uncovered,
        uncovered=uncovered,
        uncovered_only_excluded=only_excluded,
        carried=carried_ok,
        carrier_witness=carrier_witness,
        continuous=continuous,
        continuity_witness=continuity_witness,
        closure_witness=closure_witness,
    )


# A two-process schedule maps a position (the weight of the color-1 end)
# in its child cell to p -> shift + scale * p in the parent: "->" onto the
# first third, "<-" onto the last and "<->" onto the middle one, reversed.
_THIRDS = {
    ARROW_SCHEDULES["->"]: (Fraction(0), Fraction(1, 3)),
    ARROW_SCHEDULES["<->"]: (Fraction(2, 3), Fraction(-1, 3)),
    ARROW_SCHEDULES["<-"]: (Fraction(2, 3), Fraction(1, 3)),
}


def limit_position(e: ExecutionWord) -> Fraction:
    """The edge position that the two-process execution stem . cycle^w
    converges to.  The steps of each word compose to one map p -> a + b * p;
    the cycle's fixes a / (1 - b), and the stem's carries that to the edge."""
    maps = []
    for w in (e.stem, e.cycle):
        a, b = Fraction(0), Fraction(1)
        for schedule in w:
            shift, scale = _THIRDS[schedule]
            a, b = a + b * shift, b * scale
        maps.append((a, b))
    (a, b), (c, d) = maps
    return a + b * c / (1 - d)


def _disconnecting(model: ModelSpec) -> set[ExecutionWord]:
    """The excluded words of a two-process model whose limit points cut
    the edge in two: every execution that converges to the point is
    excluded.  Positions are read off the words (`limit_position`).  One
    execution reaches a position that is not a triadic rational; two, one
    from each side, reach an inner vertex of some Chr^k, and one an end of
    the edge, which cuts nothing.  So a word cuts when it has no triadic
    position, or when two distinct `normalized()` excluded words share its
    inner position."""
    position = {e: limit_position(e) for e in model.excluded}
    words_at: dict[Fraction, set[ExecutionWord]] = {}
    for e, p in position.items():
        words_at.setdefault(p, set()).add(e.normalized())
    cuts = set()
    for e, p in position.items():
        denominator = p.denominator
        while denominator % 3 == 0:
            denominator //= 3
        if denominator != 1 or (0 < p < 1 and len(words_at[p]) > 1):
            cuts.add(e)
    return cuts


def _excluded_point_values(
    tsub: TerminatingSubdivision,
    delta: SimplicialMap,
    excluded: ExecutionWord,
    depth: int,
) -> Optional[dict]:
    """Values of the decision map on stable cells accumulating at the
    excluded execution's limit point, gathered per side.  The point's
    position is read off the word (`limit_position`), and a stable vertex
    is at the point when its position is that one.  Returns None when no
    stable structure approaches the point."""
    base = tsub.base
    pos_x = limit_position(excluded)
    sides: dict[str, list[tuple[Fraction, int, frozenset]]] = {"left": [], "right": []}
    for sc in tsub.stable_cells(depth):
        position = {v: edge_position(v.label, base) for v in sc.geom_simplex()}
        lo, hi = min(position.values()), max(position.values())
        at_x = frozenset(delta(v).label for v, p in position.items() if p == pos_x)
        values = at_x or frozenset(delta(v).label for v in position)
        if hi <= pos_x:
            sides["left"].append((pos_x - hi, sc.depth, values))
        if lo >= pos_x:
            sides["right"].append((lo - pos_x, sc.depth, values))
        if lo < pos_x < hi:
            # the cell straddles the limit point; its values bound both sides
            sides["left"].append((Fraction(0), sc.depth, values))
            sides["right"].append((Fraction(0), sc.depth, values))
    accumulated: dict[str, frozenset] = {}
    for side, entries in sides.items():
        if not entries:
            continue
        entries.sort(key=lambda e: (e[0], e[1]))
        best_distance = entries[0][0]
        if best_distance == 0:
            accumulated[side] = frozenset().union(
                *(vals for d, _, vals in entries if d == 0)
            )
            continue
        # accumulation without contact: nearest cells must get strictly
        # nearer at the deepest materialized rounds
        by_depth = {}
        for d, k, vals in entries:
            if k not in by_depth or d < by_depth[k][0]:
                by_depth[k] = (d, vals)
        depths = sorted(by_depth)
        if len(depths) >= 2 and by_depth[depths[-1]][0] < by_depth[depths[-2]][0]:
            accumulated[side] = by_depth[depths[-1]][1]
    if len(accumulated) < 2:
        return None
    all_values = frozenset().union(*accumulated.values())
    return {
        "excluded": str(excluded),
        "point": str(BarycentricPoint({c: pos_x if c.color else 1 - pos_x for c in base.facets[0]}, base)),
        "position": str(pos_x),
        "sides": {s: sorted(map(str, vals)) for s, vals in accumulated.items()},
        "values": sorted(map(str, all_values)),
    }


# -- consensus impossibility certificate ------------------------------------------


class ConsensusCertificate(Record):
    __slots__ = ("depth", "component", "components", "excluded_inside", "forced")

    def __init__(self, depth: int, component: tuple[Fraction, Fraction], components: list[tuple[Fraction, Fraction]],
                 excluded_inside: list[str], forced: list[dict]):
        self.depth, self.component, self.components = depth, component, components
        self.excluded_inside, self.forced = excluded_inside, forced

    def to_json_obj(self) -> dict:
        return {
            "kind": "connected-interval",
            "depth": self.depth,
            "component": [str(self.component[0]), str(self.component[1])],
            "components": [[str(a), str(b)] for a, b in self.components],
            "excludedLimitPointsInside": self.excluded_inside,
            "forcedConstraints": self.forced,
            "argument": (
                "every decision rule realizes a continuous map on the closure of "
                "the reachable cells; a single component whose closure carries "
                "both forced boundary outputs admits no two-valued continuous map"
            ),
        }


def certify_consensus_impossible(model: ModelSpec, depth: int) -> Optional[ConsensusCertificate]:
    """Connectivity certificate for two-process consensus.

    Fires when the allowed executions cover the input edge in one piece
    that joins its two forced ends: no excluded limit point sits at an
    end of the edge, every schedule word up to the horizon is allowed, and
    no excluded point disconnects the edge.  The component is then the
    whole edge [0, 1].  Limit points are read off their words
    (`limit_position`), so no cell, weight or task is built; only the solo
    executions (->)^w and (<-)^w reach an end.

    Why the words decide it: a cell's children tile it, and the cells of
    one level meet only at their ends.  So a refused word leaves an open
    gap in the edge at every deeper level, and no later word can close
    it; with no refused word, the horizon's cells cover [0, 1].  The
    words are asked level by level from the empty word, and the first
    level that holds a refused word stops the certificate.  Excluded
    limit executions never remove a finite cell, and their limit points,
    all inside the edge, are reported.  A point that disconnects the edge
    (`_disconnecting`) stops the certificate: the executions on either
    side of it may decide differently, so it returns None.

    The depth is clamped to at least 1 so first-round restrictions enter
    the structure; that depth is reported.  A model without a custom
    predicate (every JSON model) restricts only the first
    round, so its horizon is 1; a predicate is asked at full depth.
    """
    if model.n != 2:
        raise Unsupported("the interval certificate is specific to two processes")
    depth = max(1, depth)
    horizon = depth if model.predicate is not None else 1
    if any(limit_position(e) in (0, 1) for e in model.excluded):
        return None
    processes = frozenset((0, 1))
    alphabet = model.schedules(processes)
    for k in range(horizon + 1):
        if not all(model.allowed_prefix(processes, w) for w in product(alphabet, repeat=k)):
            return None
    if _disconnecting(model):
        return None
    edge = (Fraction(0), Fraction(1))
    excluded_inside = [str(e) for e in model.excluded]
    forced = [
        {"endpoint": "0", "color": 0, "value": "0", "reason": "solo execution of process 0"},
        {"endpoint": "1", "color": 1, "value": "1", "reason": "solo execution of process 1"},
    ]
    return ConsensusCertificate(depth, edge, [edge], excluded_inside, forced)


# -- Sperner parity evidence ---------------------------------------------------


class SpernerReport(Record):
    __slots__ = ("n", "k", "mode", "colorings", "all_odd", "min_rainbow", "counterexample")

    def __init__(self, n: int, k: int, mode: str, colorings: int, all_odd: bool, min_rainbow: int,
                 counterexample: Optional[dict]):
        # mode is "exhaustive" or "sampled"
        self.n, self.k, self.mode, self.colorings = n, k, mode, colorings
        self.all_odd, self.min_rainbow, self.counterexample = all_odd, min_rainbow, counterexample


def _sampled_rows(choices: list[list[int]], seed: int, count: int) -> Iterator[bytearray]:
    """The rows `bytes(rng.choice(c) for c in choices)` of
    `rng = random.Random(seed)`, `count` of them, drawn in bulk.

    For a list c of 1 to 255 values, `choice` draws 32-bit words w until
    w >> (32 - k) < len(c), with k = len(c).bit_length(), and takes that
    index; `getrandbits(32 * m)` is the next m words, little-endian.  So
    only a word's top byte b matters: the list takes it when
    b < len(c) << (8 - k), as the value c[b >> (8 - k)].  Every list
    rejects the bytes from the largest such threshold `top` up, so each
    refill deletes them, and a list whose threshold is `top` then takes
    the next byte whatever it is.  One match is one row of taken bytes:
    a group `(.{r})` per run of r such lists, and for every other list
    one group after the bytes it rejects.  A table per distinct list turns
    a column into values.
    """
    rng = random.Random(seed)
    width = len(choices)
    thresholds = [len(c) << (8 - len(c).bit_length()) for c in choices]
    top = max(thresholds)
    rejected = bytes(range(top, 256))
    groups = []
    for taken, run in groupby(thresholds):
        repeat = len(list(run))
        if taken == top:
            groups.append(b"(.{%d})" % repeat)
        else:
            groups += [b"[%c-%c]*([\0-%c])" % (taken, top - 1, taken - 1)] * repeat
    match = re.compile(b"".join(groups), re.DOTALL).match
    tables = {}
    for c in set(map(tuple, choices)):
        shift = 8 - len(c).bit_length()
        tables[c] = bytes(c[b >> shift] for b in range(len(c) << shift)).ljust(256, b"\0")
    columns = [tables[tuple(c)] for c in choices]
    buf, pos = b"", 0
    while count > 0:
        block = bytearray()
        for _ in range(min(count, 128)):
            while (m := match(buf, pos)) is None:
                words = rng.getrandbits(8192 * width).to_bytes(1024 * width, "little")
                buf, pos = buf[pos:] + words[3::4].translate(None, rejected), 0
            block += b"".join(m.groups())
            pos = m.end()
        for i, table in enumerate(columns):
            block[i::width] = block[i::width].translate(table)
        for start in range(0, len(block), width):
            yield block[start : start + width]
        count -= 128


def sperner_evidence(n: int, k: int, seed: int = 0, sample_size: int = 2000) -> SpernerReport:
    """Rainbow-facet parity over boundary-respecting value assignments.

    Each vertex of the k-th chromatic subdivision of the standard
    simplex may take any value among the corners spanning the base face
    it lies in; corners are forced to their own value.  For every such
    assignment, up to the first even count, the number of facets showing
    all n values is counted.  Exhaustive when the assignment space is
    small, seeded sampling otherwise: the draws of
    `random.Random(seed).choice` per vertex per assignment, made in bulk
    by `_sampled_rows`.

    Counts are taken 512 assignments at a time, one byte lane each: a
    vertex's column holds value c as the byte 1 << c, and a facet is
    rainbow where its n columns sum to 2**n - 1, which n powers of two
    reach only when distinct.  For n <= 3 and k <= 2 a sum is at most 12
    and a count at most 169, the facets of Chr^2 of the triangle, so no
    lane carries into the next.
    """
    if not 2 <= n <= 3 or not 0 <= k <= 2:
        raise Unsupported("parity evidence is computed for n <= 3, k <= 2")
    base_facet = Simplex(Vertex(i, i) for i in range(n))
    base = Complex([base_facet])
    K = chr_iterate(base, k)
    vertices = list(K.vertices())
    weights = integer_weights(vertices, base)
    # the colors of the base face a vertex lies in, from its nonzero weights
    choices = [
        sorted(c.color for c, a in zip(base.vertices(), weights[v][1]) if a) for v in vertices
    ]
    total = 1
    for c in choices:
        total *= len(c)

    if total <= 20000:
        mode = "exhaustive"
        rows = product(*choices)
    else:
        mode = "sampled"
        rows = _sampled_rows(choices, seed, sample_size)
    width = len(vertices)
    one_hot = bytes(1 << c for c in range(n)).ljust(256, b"\0")
    is_rainbow = bytes(c == 2**n - 1 for c in range(256))
    counts = bytearray()
    counterexample = None
    # a block's table, at most 512 * 99 bytes, reuses freed heap memory;
    # one table of 2000 assignments raised the peak RSS of `check`
    while counterexample is None:
        table = bytearray()
        for row in islice(rows, 512):
            table.extend(row)
        if not table:
            break
        lanes = len(table) // width
        columns = {
            v: int.from_bytes(table[i::width].translate(one_hot), "little")
            for i, v in enumerate(vertices)
        }
        counter = 0
        for f in K.facets:
            sums = sum(columns[u] for u in f.vertices).to_bytes(lanes, "little")
            counter += int.from_bytes(sums.translate(is_rainbow), "little")
        block = counter.to_bytes(lanes, "little")
        # Sperner's lemma makes every count odd
        even = next((j for j, c in enumerate(block) if c % 2 == 0), None)
        if even is not None:
            block = block[: even + 1]
            row = table[even * width : (even + 1) * width]
            counterexample = {"assignment": list(row), "count": block[even]}
        counts += block
    return SpernerReport(
        n, k, mode, len(counts), counterexample is None, min(counts, default=0), counterexample
    )


# -- top-level verdicts ----------------------------------------------------------


class Verdict:
    __slots__ = ("kind", "depth", "T", "delta", "protocol", "solve_report", "certificate", "evidence", "note")

    def __init__(self, kind: str, depth: int, T: Optional[int] = None, delta: Optional[SimplicialMap] = None,
                 protocol: Optional[DecisionProtocol] = None, solve_report: object = None,
                 certificate: Optional[ConsensusCertificate] = None, evidence: Optional[SpernerReport] = None,
                 note: str = ""):
        # kind is solvable_bounded, unsolvable_certified, unsolvable_at_all_depths or unknown
        self.kind, self.depth, self.T, self.delta, self.protocol = kind, depth, T, delta, protocol
        self.solve_report, self.certificate, self.evidence, self.note = solve_report, certificate, evidence, note

    def exit_code(self) -> int:
        return {
            "solvable_bounded": 0,
            "unsolvable_certified": 10,
            "unsolvable_at_all_depths": 11,
            "unknown": 12,
        }[self.kind]

    def to_json_obj(self) -> dict:
        obj = {"schema": 1, "kind": self.kind, "maxDepth": self.depth}
        if self.T is not None:
            obj["T"] = self.T
        if self.delta is not None:
            items = self.delta.items()
            names = vertex_strings(v for v, _ in items)
            obj["decisionMap"] = {name: vertex_json(o) for name, (_, o) in zip(names, items)}
        if self.protocol is not None:
            obj["protocol"] = self.protocol.name
        if self.certificate is not None:
            obj["certificate"] = self.certificate.to_json_obj()
        if self.evidence is not None:
            obj["evidence"] = {
                "kind": "rainbow-parity",
                "n": self.evidence.n,
                "k": self.evidence.k,
                "mode": self.evidence.mode,
                "colorings": self.evidence.colorings,
                "allOdd": self.evidence.all_odd,
                "minRainbow": self.evidence.min_rainbow,
            }
        if self.note:
            obj["note"] = self.note
        return obj


def solve(model: ModelSpec, task: Task, max_depth: int, seed: int = 0) -> Verdict:
    """Bounded-depth decision procedure for a task that passes
    `validate_task`.

    The task's shape, never its name, is read once as consensus or as
    set agreement, and it selects the rules, tried in this order.
    Certificate: two-process consensus tries the interval certificate
    before any P_T is built.  It fires when no solo execution is excluded,
    no word up to its horizon is refused and no excluded point disconnects
    the edge; the allowed cells of every time T <= max_depth then cover
    the input edge, touching cells share a view and the solo views are
    forced to 0 and 1, so no time searched below could have a map.
    Sperner-first: set agreement on a model that restricts no prefix (no
    predicate, no allowed first rounds; excluded limit executions remove
    no finite prefix) builds no P_T.  Each P_T is Chr^T of the input
    simplex, a map carried by delta is a Sperner coloring of it, and some
    facet then shows all n values, which no output simplex holds.
    One-edge rule: consensus on n >= 3 processes builds no P_T either.
    Models restrict only full-participation words, so xi of the edge
    {0, 1} is Chr^T of it, connected with solo ends forced to 0 and 1.
    Search: otherwise a decision map is searched for at times
    0..max_depth; a witness is validated end to end by simulating its
    synthesized protocol.  Exhaustion: when no time has a map, set
    agreement on n <= 3 processes gets parity evidence.  Bounded failure
    alone never claims unsolvability.
    """
    if max_depth < 0:
        raise Unsupported("max depth must be nonnegative")
    check_arity(task, model)

    def shaped_like(other: Task) -> bool:  # structure, never the name
        return (task.inputs, task.outputs, task.delta.images) == (other.inputs, other.outputs, other.delta.images)

    consensus = model.n >= 2 and shaped_like(inputless_consensus(model.n))
    agreement = not consensus and 2 <= model.n <= MAX_PROCESSES and shaped_like(set_agreement(model.n))
    if consensus and model.n == 2:
        certificate = certify_consensus_impossible(model, max_depth)
        if certificate is not None:
            return Verdict("unsolvable_certified", max_depth, certificate=certificate)
    unrestricted = model.predicate is None and model.allowed_first_rounds is None
    # Sperner-first and the one-edge rule decide without building any P_T
    settled = (agreement and unrestricted) or (consensus and model.n >= 3)
    for T in () if settled else range(max_depth + 1):
        PT = build_time_T(model, task, T)
        delta = search_decision_map(PT, task)
        if delta is None:
            continue
        protocol = synthesize_from_time_map(delta, PT)
        report = check_solves(protocol, task, model, T)
        if not report.ok:
            return Verdict(
                "unknown", max_depth, T=T, delta=delta,
                note="search found a map whose synthesized protocol failed validation",
            )
        return Verdict("solvable_bounded", max_depth, T=T, delta=delta,
                       protocol=protocol, solve_report=report)

    evidence = None
    if agreement and model.n <= 3:
        evidence = sperner_evidence(model.n, min(2, max_depth), seed=seed)
    if model.is_compact():
        return Verdict("unsolvable_at_all_depths", max_depth, evidence=evidence)
    return Verdict(
        "unknown", max_depth, evidence=evidence,
        note="model is not limit-closed; bounded search is inconclusive",
    )
