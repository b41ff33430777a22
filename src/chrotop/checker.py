"""Time-bounded protocol complexes, decision-map search, admissibility
and continuity checking, and impossibility certificates.

The time-T complex quotients view sequences by their first T+1 entries.
Because the view metric is an ultrametric, a ball of radius 2**-T is
exactly a depth-T view vertex, so balls are represented by the view
vertices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BadArity, BadIndices, ChrotopError, Unsupported
from .models import (
    ExecutionWord,
    ModelSpec,
    RoundSchedule,
    Word,
    enumerate_prefixes,
    is_excluded_limit,
)
from .protocol import (
    DecisionProtocol,
    Execution,
    all_executions,
    check_solves,
    execution_configurations,
    synthesize_from_time_map,
    view_ancestor,
    ball_id,
)
from .simplicial import (
    CarrierMap,
    Complex,
    Simplex,
    SimplicialMap,
    Vertex,
    carried_by,
    check_simplicial_chromatic,
    label_string,
    vertex_key,
)
from .subdivision import (
    BarycentricPoint,
    TerminatingSubdivision,
    cell_of_word,
    chr_iterate,
    coordinates,
    diameter_Dk,
    edge_position,
    geometric_containment,
    geometric_distance,
    geometric_simplex,
)
from .tasks import Task, inputless_consensus, set_agreement


# -- time-T complexes --------------------------------------------------------


@dataclass
class TimeTComplex:
    T: int
    complex: Complex
    xi: CarrierMap
    model: ModelSpec
    task: Task
    executions: list[Execution]

    def balls(self) -> tuple[Vertex, ...]:
        return self.complex.vertices()


def build_time_T(model: ModelSpec, task: Task, T: int) -> TimeTComplex:
    """Vertices are depth-T views over all allowed executions; a set of
    views is a simplex when one execution produces all of them.  The
    execution map sends each input simplex to the views of executions
    whose participation and inputs are compatible with it."""
    if T < 0:
        raise Unsupported("time must be nonnegative")
    executions = all_executions(model, task.inputs, T)
    simplexes_by_execution: list[tuple[Execution, Simplex]] = []
    for execution in executions:
        final = execution_configurations(execution)[-1]
        simplexes_by_execution.append((execution, final))
    complex_ = Complex([s for _, s in simplexes_by_execution])
    images: dict[Simplex, Complex] = {}
    for sigma in task.inputs.simplexes():
        compatible_faces = set(sigma.faces())
        facets = [s for e, s in simplexes_by_execution if e.face in compatible_faces]
        images[sigma] = Complex(facets)
    return TimeTComplex(T, complex_, CarrierMap(images), model, task, executions)


def connecting_map_fST(PT: TimeTComplex, PS: TimeTComplex) -> SimplicialMap:
    """Ball coarsening from time T to time S <= T: truncate the view."""
    if PS.T > PT.T:
        raise BadIndices(f"need S <= T, got S={PS.T}, T={PT.T}")
    ps_vertices = set(PS.complex.vertices())
    mapping = {}
    for ball in PT.complex.vertices():
        target = view_ancestor(ball, PS.T)
        if target not in ps_vertices:
            raise ChrotopError(f"truncated ball {target!r} missing at time {PS.T}")
        mapping[ball] = target
    f = SimplicialMap(mapping)
    report = check_simplicial_chromatic(f, PT.complex, PS.complex)
    if not report.ok:
        raise ChrotopError("connecting map failed verification")
    return f


# -- decision-map search -------------------------------------------------------


def _vertex_candidates(PT: TimeTComplex, task: Task) -> dict[Vertex, list[Vertex]]:
    out_by_color: dict[int, list[Vertex]] = {}
    for o in task.outputs.vertices():
        out_by_color.setdefault(o.color, []).append(o)
    candidates = {
        v: list(out_by_color.get(v.color, [])) for v in PT.complex.vertices()
    }
    for sigma in task.inputs.simplexes():
        allowed = task.delta(sigma)
        for v in PT.xi(sigma).vertices():
            candidates[v] = [o for o in candidates[v] if Simplex([o]) in allowed]
    return candidates


def search_decision_map(PT: TimeTComplex, task: Task) -> Optional[SimplicialMap]:
    """Deterministic backtracking search for a chromatic simplicial map
    from the time-T complex to the outputs that is carried by delta.

    Vertices are assigned in a most-constrained-first order that walks
    the facet adjacency; every partial image of a constrained simplex
    must already be a simplex of the allowed complex, which prunes as
    soon as an edge is complete.
    """
    vertices = list(PT.complex.vertices())
    candidates = _vertex_candidates(PT, task)
    if any(not c for c in candidates.values()):
        return None

    constraints: list[tuple[tuple[Vertex, ...], Complex]] = []
    for f in PT.complex.facets:
        constraints.append((f.vertices, task.outputs))
    for sigma in task.inputs.simplexes():
        allowed = task.delta(sigma)
        for g in PT.xi(sigma).facets:
            constraints.append((g.vertices, allowed))

    by_vertex: dict[Vertex, list[int]] = {v: [] for v in vertices}
    for idx, (verts, _) in enumerate(constraints):
        for v in verts:
            by_vertex[v].append(idx)

    def rank(v):
        return (len(candidates[v]), vertex_key(v))

    order: list[Vertex] = []
    frontier: set[Vertex] = set()
    remaining = set(vertices)
    while remaining:
        pool = frontier & remaining
        pick = min(pool, key=rank) if pool else min(remaining, key=rank)
        order.append(pick)
        remaining.discard(pick)
        for idx in by_vertex[pick]:
            frontier.update(constraints[idx][0])

    assignment: dict[Vertex, Vertex] = {}

    def consistent(v: Vertex) -> bool:
        for idx in by_vertex[v]:
            verts, allowed = constraints[idx]
            assigned = [assignment[u] for u in verts if u in assignment]
            if assigned and Simplex(assigned) not in allowed:
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


def enumerate_all_decision_maps(PT: TimeTComplex, task: Task) -> list[SimplicialMap]:
    """Brute-force enumeration of every valid map; for cross-checking the
    backtracking search on tiny instances."""
    from itertools import product

    vertices = list(PT.complex.vertices())
    out_by_color: dict[int, list[Vertex]] = {}
    for o in task.outputs.vertices():
        out_by_color.setdefault(o.color, []).append(o)
    pools = [out_by_color.get(v.color, []) for v in vertices]
    found = []
    for combo in product(*pools):
        delta = SimplicialMap(dict(zip(vertices, combo)))
        if not check_simplicial_chromatic(delta, PT.complex, task.outputs).ok:
            continue
        if not carried_by(delta, PT.xi, task.delta, task.inputs).carried:
            continue
        found.append(delta)
    return found


# -- terminating-subdivision certificate verification ----------------------------


@dataclass
class TerminationCertificateReport:
    admissible: bool
    uncovered: list[Word]
    uncovered_only_excluded: bool
    carried: bool
    carrier_witness: Optional[tuple]
    continuous: bool
    continuity_witness: Optional[tuple]
    closure_witness: Optional[dict]

    @property
    def ok(self) -> bool:
        return self.admissible and self.carried and self.continuous


def _word_is_excluded_prefix(word: Word, model: ModelSpec) -> bool:
    return any(word == e.prefix(len(word)) for e in model.excluded)


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
        k <= depth, inside a terminated simplex (exact geometric
        containment); (b) the map value of every stable simplex lies in
        delta of the minimal input simplex carrying it; (c) the map is
        constant on same-color stable vertices within the shrinking
        radius of each vertex's stabilization round, and its values
        agree around every excluded limit execution.
    """
    tsub.materialize(depth)
    base = tsub.base
    if len(base.facets) != 1:
        raise Unsupported("certificate verification needs a single-facet input complex")
    base_facet = base.facets[0]
    stable_cells = tsub.stable_cells(depth)

    # (a) admissibility at depth
    uncovered = []
    for word in enumerate_prefixes(model, depth):
        covered = False
        for k in range(depth + 1):
            cell_pts = geometric_simplex(
                cell_of_word(base_facet, tuple(s.blocks for s in word[:k])), base
            )
            for sc in stable_cells:
                if sc.depth <= k and geometric_containment(cell_pts, sc.points):
                    covered = True
                    break
            if covered:
                break
        if not covered:
            uncovered.append(word)
    only_excluded = bool(uncovered) and all(
        _word_is_excluded_prefix(w, model) for w in uncovered
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

    # (c1) local constancy at the stabilization radius
    stable_vertices: dict[Vertex, int] = {}
    for sc in stable_cells:
        for v in sc.geom_simplex():
            stable_vertices[v] = max(stable_vertices.get(v, 0), sc.depth)
    continuous = True
    continuity_witness = None
    diameters = {k: diameter_Dk(base, k) for k in range(depth + 1)}
    verts = sorted(stable_vertices, key=vertex_key)
    for v in verts:
        radius = diameters[stable_vertices[v]]
        for w in verts:
            if w.color != v.color or w == v:
                continue
            if geometric_distance(v.label, w.label) <= radius:
                if delta(v).label != delta(w).label:
                    continuous = False
                    continuity_witness = (v, w, delta(v).label, delta(w).label)
                    break
        if not continuous:
            break

    # (c2) closure analysis around excluded limit executions
    closure_witness = None
    if model.excluded and model.n == 2:
        for excluded in model.excluded:
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


def excluded_limit_point(base: Complex, excluded: ExecutionWord) -> BarycentricPoint:
    """Exact limit point of an eventually periodic two-process execution:
    evolve the cell corners through the stem, then take the stationary
    combination of the cycle's corner map.  The corner map is read off the
    cycle's own cell over the base edge: row c holds the weights of its
    color-c vertex over the base corners."""
    base_facet = base.facets[0]
    cell = cell_of_word(base_facet, tuple(s.blocks for s in excluded.stem))
    a0, a1 = (coordinates(cell.vertex_of_color(c), base) for c in (0, 1))
    cycle = cell_of_word(base_facet, tuple(s.blocks for s in excluded.cycle))
    m0, m1 = (coordinates(cycle.vertex_of_color(c), base) for c in (0, 1))
    alpha = m0.weight(base_facet.vertex_of_color(1))
    beta = m1.weight(base_facet.vertex_of_color(0))
    pi0 = beta / (alpha + beta)
    pi1 = alpha / (alpha + beta)
    weights: dict[Vertex, Fraction] = {}
    for v, w in a0.items:
        weights[v] = weights.get(v, Fraction(0)) + pi0 * w
    for v, w in a1.items:
        weights[v] = weights.get(v, Fraction(0)) + pi1 * w
    return BarycentricPoint(weights, base)


def _excluded_point_values(
    tsub: TerminatingSubdivision,
    delta: SimplicialMap,
    excluded: ExecutionWord,
    depth: int,
) -> Optional[dict]:
    """Values of the decision map on stable cells accumulating at the
    excluded execution's limit point, gathered per side.  Returns None
    when no stable structure approaches the point."""
    base = tsub.base
    x = excluded_limit_point(base, excluded)
    pos_x = edge_position(x, base)
    sides: dict[str, list[tuple[Fraction, int, frozenset]]] = {"left": [], "right": []}
    for sc in tsub.stable_cells(depth):
        geom = sc.geom_simplex()
        positions = sorted(edge_position(p, base) for p in sc.points)
        lo, hi = positions[0], positions[-1]
        at_x = frozenset(delta(v).label for v in geom if v.label == x)
        values = at_x or frozenset(delta(v).label for v in geom)
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
        "point": str(x),
        "position": str(pos_x),
        "sides": {s: sorted(map(str, vals)) for s, vals in accumulated.items()},
        "values": sorted(map(str, all_values)),
    }


# -- consensus impossibility certificate ------------------------------------------


@dataclass
class ConsensusCertificate:
    depth: int
    component: tuple[Fraction, Fraction]
    components: list[tuple[Fraction, Fraction]]
    excluded_inside: list[str]
    forced: list[dict]

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

    Computes the union of the cells of all allowed depth-long schedule
    words (closed exact intervals in the realization of the input edge),
    merges them into connected components, and fires when the component
    that contains the forced-0 endpoint also contains the forced-1
    endpoint.  Excluded limit executions never remove a finite cell, and
    their limit points are reported when they sit inside the bridging
    component.

    The depth is clamped to at least 1 so first-round restrictions enter
    the structure; that depth is reported.  A model without a custom
    predicate (every JSON-representable kind) restricts only the first
    round, so its depth-d cells tile its depth-1 cells and the union is
    read off the depth-1 words; a predicate is analysed at full depth.
    """
    if model.n != 2:
        raise Unsupported("the interval certificate is specific to two processes")
    depth = max(1, depth)
    horizon = depth if model.predicate is not None else 1
    base = inputless_consensus(2).inputs
    base_facet = base.facets[0]

    solo_left = (RoundSchedule(((0,), (1,))),) * horizon
    solo_right = (RoundSchedule(((1,), (0,))),) * horizon
    words = enumerate_prefixes(model, horizon)
    if solo_left not in words or solo_right not in words:
        return None
    if is_excluded_limit(model, ExecutionWord((), (solo_left[0],))) or is_excluded_limit(
        model, ExecutionWord((), (solo_right[0],))
    ):
        return None

    intervals = []
    for word in words:
        cell = cell_of_word(base_facet, tuple(s.blocks for s in word))
        positions = sorted(edge_position(p, base) for p in geometric_simplex(cell, base))
        intervals.append((positions[0], positions[-1]))
    intervals.sort()
    components: list[tuple[Fraction, Fraction]] = []
    for lo, hi in intervals:
        if components and lo <= components[-1][1]:
            last_lo, last_hi = components[-1]
            components[-1] = (last_lo, max(last_hi, hi))
        else:
            components.append((lo, hi))

    zero = Fraction(0)
    one = Fraction(1)
    bridging = next((c for c in components if c[0] <= zero <= c[1] and c[0] <= one <= c[1]), None)
    if bridging is None:
        return None
    excluded_inside = []
    for e in model.excluded:
        x = excluded_limit_point(base, e)
        pos = edge_position(x, base)
        if bridging[0] <= pos <= bridging[1]:
            excluded_inside.append(str(e))
    forced = [
        {"endpoint": "0", "color": 0, "value": "0", "reason": "solo execution of process 0"},
        {"endpoint": "1", "color": 1, "value": "1", "reason": "solo execution of process 1"},
    ]
    return ConsensusCertificate(depth, bridging, components, excluded_inside, forced)


# -- Sperner parity evidence ---------------------------------------------------


@dataclass
class SpernerReport:
    n: int
    k: int
    mode: str  # "exhaustive" | "sampled"
    colorings: int
    all_odd: bool
    min_rainbow: int
    counterexample: Optional[dict] = None


def sperner_evidence(n: int, k: int, seed: int = 0, sample_size: int = 2000) -> SpernerReport:
    """Rainbow-facet parity over boundary-respecting value assignments.

    Each vertex of the k-th chromatic subdivision of the standard
    simplex may take any value among the corners spanning the base face
    it lies in; corners are forced to their own value.  For every such
    assignment the number of facets showing all n values is counted and
    its parity recorded.  Exhaustive when the assignment space is small,
    seeded sampling otherwise.
    """
    if not 2 <= n <= 3 or not 0 <= k <= 2:
        raise Unsupported("parity evidence is computed for n <= 3, k <= 2")
    base_facet = Simplex(Vertex(i, i) for i in range(n))
    base = Complex([base_facet])
    K = chr_iterate(base, k)
    vertices = list(K.vertices())
    choices = []
    for v in vertices:
        support = coordinates(v, base).support()
        choices.append(sorted(support.colors()))
    total = 1
    for c in choices:
        total *= len(c)
    facet_indices = [
        [vertices.index(u) for u in f.vertices] for f in K.facets
    ]
    all_values = set(range(n))

    def rainbow_count(assignment: Sequence[int]) -> int:
        count = 0
        for idx in facet_indices:
            if {assignment[i] for i in idx} == all_values:
                count += 1
        return count

    import random
    from itertools import product

    min_rainbow = None
    all_odd = True
    counterexample = None
    if total <= 20000:
        mode = "exhaustive"
        colorings = 0
        for combo in product(*choices):
            colorings += 1
            c = rainbow_count(combo)
            min_rainbow = c if min_rainbow is None else min(min_rainbow, c)
            if c % 2 == 0:
                all_odd = False
                counterexample = {"assignment": list(combo), "count": c}
                break
    else:
        mode = "sampled"
        rng = random.Random(seed)
        colorings = sample_size
        for _ in range(sample_size):
            combo = [rng.choice(c) for c in choices]
            c = rainbow_count(combo)
            min_rainbow = c if min_rainbow is None else min(min_rainbow, c)
            if c % 2 == 0:
                all_odd = False
                counterexample = {"assignment": combo, "count": c}
                break
    return SpernerReport(n, k, mode, colorings, all_odd, min_rainbow or 0, counterexample)


# -- top-level verdicts ----------------------------------------------------------


@dataclass
class Verdict:
    kind: str  # solvable_bounded | unsolvable_certified | unsolvable_at_all_depths | unknown
    depth: int
    T: Optional[int] = None
    delta: Optional[SimplicialMap] = None
    protocol: Optional[DecisionProtocol] = None
    solve_report: object = None
    certificate: Optional[ConsensusCertificate] = None
    evidence: Optional[SpernerReport] = None
    note: str = ""

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
            obj["decisionMap"] = {
                ball_id(v): {"color": o.color, "label": label_string(o.label)}
                for v, o in self.delta.items()
            }
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
    """Bounded-depth decision procedure.

    Searches for a decision map at times 0..max_depth; a witness is
    validated end to end by simulating its synthesized protocol.  On
    exhaustion, the consensus interval certificate is attempted for two
    processes; set agreement gets parity evidence.  Bounded failure
    alone never claims unsolvability.
    """
    if max_depth < 0:
        raise Unsupported("max depth must be nonnegative")
    if task.n != model.n:
        raise BadArity(f"task has {task.n} processes but model {model.name} has {model.n}")
    for T in range(max_depth + 1):
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

    def shaped_like(other: Task) -> bool:  # structure, never the name
        return (task.inputs, task.outputs, task.delta.images) == (other.inputs, other.outputs, other.delta.images)

    if model.n == 2 and shaped_like(inputless_consensus(2)):
        certificate = certify_consensus_impossible(model, max_depth)
        if certificate is not None:
            return Verdict("unsolvable_certified", max_depth, certificate=certificate)
    evidence = None
    if 2 <= model.n <= 3 and shaped_like(set_agreement(model.n)):
        evidence = sperner_evidence(model.n, min(2, max_depth), seed=seed)
    if model.is_compact():
        return Verdict("unsolvable_at_all_depths", max_depth, evidence=evidence)
    return Verdict(
        "unknown", max_depth, evidence=evidence,
        note="model is not limit-closed; bounded search is inconclusive",
    )
