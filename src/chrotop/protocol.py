"""Full-information views, the executions and time-T protocol complexes
built from them, decision protocols, bounded simulation, and the
translations between protocols and decision maps.

A view after k rounds is a subdivision vertex: its label is the simplex
of round-(k-1) views the process saw in round k, recursively down to
the input vertex.  Two executions are indistinguishable to a process
exactly when they produce the same view vertex, so view vertices double
as canonical ball representatives of the view ultrametric: a ball of
radius 2**-T is exactly a depth-T view vertex.

The time-T complex P_T, built here by `build_time_T`, quotients view
sequences by their first T+1 entries.  `build_time_T` and `run` take
their executions from one walk, `execution_cells`, which interns its
views: within one P_T or one simulation a ball, and every view below it,
is one object and equal balls compare by identity.  Views of two walks
are equal by value, and compare in time linear in their depth.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .errors import (
    BadIndices,
    ChrotopError,
    IncompleteMap,
    InvalidOutput,
    IrrevocabilityViolation,
    NotBoundedBy,
    Unsupported,
)
from .models import ModelSpec, Word, enumerate_prefixes, schedule_text
from .simplicial import CarrierMap, Complex, Frozen, Record, Simplex, SimplicialMap, Vertex, label_string, parse_label
from .simplicial import check_simplicial_chromatic, vertex_string, vertex_strings
from .subdivision import Schedule, apply_schedule, coordinates, diameter_Dk, stable_ball, walk_cells
from .tasks import Task, check_arity

ball_id = vertex_string  # a view's ball id is its vertex text

# -- views ------------------------------------------------------------------


def view_chain(v: Vertex) -> list[Vertex]:
    """The one walk down a view: entry t is the same process's view after
    t rounds, from its input vertex (entry 0) to v itself."""
    chain = [v]
    while isinstance(v.label, Simplex):
        v = v.label.vertex_of_color(v.color)
        chain.append(v)
    chain.reverse()
    return chain


def view_depth(v: Vertex) -> int:
    """The rounds a view has seen: the length of its walk down to its
    input vertex, counted without building `view_chain`."""
    depth = 0
    while isinstance(v.label, Simplex):
        v = v.label.vertex_of_color(v.color)
        depth += 1
    return depth


def _first_views(v: Vertex) -> tuple[Vertex, Vertex | None]:
    """Entries 0 and 1 of `view_chain(v)`, the process's input vertex and
    its view after one round (None for an input vertex), walked down to
    without building the chain."""
    above = None
    while isinstance(v.label, Simplex):
        above, v = v, v.label.vertex_of_color(v.color)
    return v, above


class Execution(Frozen):
    """A finite execution shadow: an input face and a schedule word over
    its participants."""

    __slots__ = ("face", "word")

    def __init__(self, face: Simplex, word: Word):
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "word", word)

    def describe(self) -> str:
        inputs = ",".join(f"{v.color}={label_string(v.label)}" for v in self.face)
        sched = ",".join(map(schedule_text, self.word))
        return f"[{inputs}]({sched})"


def execution_configurations(execution: Execution) -> list[Simplex]:
    """The reference replay of one execution, by `apply_schedule` alone:
    entry t is the simplex of all participants' views after t rounds.
    `execution_cells` builds the same views, interned."""
    configs = [execution.face]
    for schedule in execution.word:
        configs.append(apply_schedule(configs[-1], schedule))
    return configs


def all_executions(model: ModelSpec, inputs: Complex, depth: int) -> list[Execution]:
    """The reference enumeration of the execution shadows of the given
    depth, by `enumerate_prefixes` alone: one per input simplex
    (participation and inputs) and allowed schedule word over it.
    `execution_cells` walks the same executions in the same order."""
    return [Execution(face, word) for face in inputs.simplexes()
            for word in enumerate_prefixes(model, depth, face.colors())]


def execution_cells(model: ModelSpec, faces: Sequence[Simplex], depth: int) -> list[tuple]:
    """(face, word, cell) for each execution of the given depth over the
    faces, in `all_executions` order: one `walk_cells` call over the faces
    whose empty word the model allows, with each participant set's
    schedules listed once.  Equal views of different executions are one
    object, and the view of color c after t rounds is
    `view_chain(cell.vertex_of_color(c))[t]`."""
    if depth < 0:
        raise Unsupported("depth must be nonnegative")
    alphabets = {p: model.schedules(p) for p in dict.fromkeys(f.colors() for f in faces)}

    def letters(word: Word, cell: Simplex) -> list[Schedule]:
        participants = cell.colors()
        return [s for s in alphabets[participants] if model.allowed_prefix(participants, word + (s,))]

    return walk_cells([f for f in faces if model.allowed_prefix(f.colors(), ())], depth, letters)


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


# -- protocols ---------------------------------------------------------------


class DecisionProtocol:
    """A pure decision function from (color, view vertex) to an output
    label or None.  Determinism and irrevocability are checked by run()."""

    __slots__ = ("name", "decide")

    def __init__(self, name: str, decide: Callable[[int, Vertex], object]):
        self.name, self.decide = name, decide

    def __call__(self, color: int, view: Vertex):
        return self.decide(color, view)


def constant_protocol(value) -> DecisionProtocol:
    return DecisionProtocol(f"constant:{value}", lambda color, view: value)


def own_input_protocol() -> DecisionProtocol:
    return DecisionProtocol("own-input", lambda color, view: _first_views(view)[0].label)


def never_protocol() -> DecisionProtocol:
    return DecisionProtocol("never", lambda color, view: None)


def winner_protocol() -> DecisionProtocol:
    """Two-process rule: whoever hears nothing in round one wins and
    decides its own input; a process that heard the other in round one
    decides the other's input.  Sound in models where the full exchange
    cannot happen in the first round."""

    def decide(color: int, view: Vertex):
        own_input, first = _first_views(view)
        if first is None:
            return None
        carrier = first.label  # the input views heard in round one
        if carrier.colors() == {color}:
            return own_input.label
        others = sorted(carrier.colors() - {color})
        if len(carrier.colors()) != 2 or len(others) != 1:
            raise Unsupported("winner protocol is a two-process rule")
        return carrier.vertex_of_color(others[0]).label

    return DecisionProtocol("winner", decide)


# -- simulation ---------------------------------------------------------------


class DecisionRecord(Record):
    __slots__ = ("value", "round")

    def __init__(self, value: object, round: int):
        self.value, self.round = value, round


class ExecutionOutcome(Record):
    __slots__ = ("execution", "decisions")

    def __init__(self, execution: Execution, decisions: dict[int, Optional[DecisionRecord]]):
        self.execution, self.decisions = execution, decisions

    def all_decided(self) -> bool:
        return all(d is not None for d in self.decisions.values())


class RunResult(Record):
    __slots__ = ("outcomes",)

    def __init__(self, outcomes: list[ExecutionOutcome]):
        self.outcomes = outcomes


def run(protocol: DecisionProtocol, model: ModelSpec, inputs: Complex, depth: int) -> RunResult:
    """Evaluate the protocol along every execution shadow of the given
    depth.  The executions are `execution_cells` over the input
    simplexes, so a view met by several executions is one object, and
    the protocol is asked once per distinct view: the record of a view
    (its first decision along its chain, or None) is kept, and a chain
    is walked down only to the nearest view already asked.  A leaf
    cell's vertices are its participants' views, one per color in color
    order, so they are read off the cell as they stand.  Irrevocability
    is checked where a view is first met, which is where a step-by-step
    walk of every execution would first fail."""
    outcomes = []
    records: dict[Vertex, Optional[DecisionRecord]] = {}
    for face, word, cell in execution_cells(model, inputs.simplexes(), depth):
        execution = Execution(face, word)
        decisions: dict[int, Optional[DecisionRecord]] = {}
        for view in cell.vertices:
            color, unasked = view.color, []
            while view not in records:
                unasked.append(view)
                if not isinstance(view.label, Simplex):
                    break
                view = view.label.vertex_of_color(color)
            record = records.get(view)
            for t, view in enumerate(reversed(unasked), len(word) + 1 - len(unasked)):
                answer = protocol(color, view)
                if record is None:
                    if answer is not None:
                        record = DecisionRecord(answer, t)
                elif answer != record.value:
                    raise IrrevocabilityViolation(
                        (execution.describe(), color, t, record.value, answer)
                    )
                records[view] = record
            decisions[color] = record
        outcomes.append(ExecutionOutcome(execution, decisions))
    return RunResult(outcomes)


class SolveReport(Record):
    __slots__ = ("status", "failures", "run_result")

    def __init__(self, status: str, failures: list[tuple[Execution, Simplex]], run_result: RunResult):
        # status is "PASS", "FAIL" or "UNDECIDED"
        self.status, self.failures, self.run_result = status, failures, run_result

    @property
    def ok(self) -> bool:
        return self.status == "PASS"


def check_solves(protocol: DecisionProtocol, task: Task, model: ModelSpec, depth: int) -> SolveReport:
    """PASS when every execution shadow is fully decided with a decision
    simplex inside delta of its input face.  Undecided executions are
    inconclusive, not failures: termination is a liveness property.
    Each distinct (input face, decisions) pattern is judged once, and
    every execution that shows a failing pattern is one failure."""
    check_arity(task, model)
    result = run(protocol, model, task.inputs, depth)
    valid_labels = task.output_labels()
    # (face, decisions) -> None if the decision simplex lies in delta(face), else the simplex
    verdicts: dict[tuple, Optional[Simplex]] = {}
    failures = []
    undecided = False
    for outcome in result.outcomes:
        if not outcome.all_decided():
            undecided = True
            continue
        face = outcome.execution.face
        decided = tuple((color, rec.value) for color, rec in outcome.decisions.items())
        key = (face, decided)
        if key not in verdicts:
            for _, value in decided:
                if value not in valid_labels:
                    raise InvalidOutput(f"{protocol.name} decided {value!r}, not an output label")
            decision_simplex = Simplex(Vertex(color, value) for color, value in decided)
            verdicts[key] = None if decision_simplex in task.delta(face) else decision_simplex
        if verdicts[key] is not None:
            failures.append((outcome.execution, verdicts[key]))
    status = "FAIL" if failures else "UNDECIDED" if undecided else "PASS"
    return SolveReport(status, failures, result)


# -- protocol from a decision map ---------------------------------------------


def _unanimous(labels: set):
    """The one label of a set that holds exactly one, else None: the
    decision both the ball rule and the prefix rule take."""
    return next(iter(labels)) if len(labels) == 1 else None


# Bounds the ball-rule answers one protocol keeps, one per (color, view):
# every view of the two-process models up to depth 7 fits.
_BALL_ATTEMPTS_MAXSIZE = 1 << 15


def synthesize_from_stable_map(delta: SimplicialMap, tsub, max_depth: int) -> DecisionProtocol:
    """Ball rule over a terminating subdivision: at round k, gather the
    same-color stable vertices within geometric distance D_k of the
    current view and decide their common image label, if unanimous.

    Vertices exactly at distance D_k are included.  `delta` maps the
    geometric stable vertices (color plus exact coordinates) to output
    vertices and must cover every stable vertex it is asked about.

    A ball is `stable_ball`'s, around the view's exact point
    (`coordinates`).  The protocol keeps one memo of answers for every
    view it is asked about or walks through on the way down to an
    answered one, cleared when it outgrows `_BALL_ATTEMPTS_MAXSIZE`, so
    a view's point is built once per answer.
    """
    base = tsub.base
    ball_of = stable_ball(tsub, max_depth)
    # (color, view) -> the value decided at or before that view, or None,
    # for each view asked about or walked through; a view's decision is
    # asked for again by every later round and execution
    decided: dict = {}

    def attempt(color: int, view: Vertex):
        ball = ball_of(color, coordinates(view, base), diameter_Dk(base, min(view_depth(view), max_depth)))
        return _unanimous({delta(w).label for w in ball})

    def decide(color: int, view: Vertex):
        # decisions are irrevocable: the first round whose ball is
        # unanimous fixes the value for every later view, so the walk
        # down the view stops at the nearest view already answered, no
        # view after a decided one is tried, and every view walked keeps
        # its answer
        if len(decided) > _BALL_ATTEMPTS_MAXSIZE:
            decided.clear()
        unanswered = []
        v = view
        while (color, v) not in decided:
            unanswered.append(v)
            if not isinstance(v.label, Simplex):
                break
            v = v.label.vertex_of_color(v.color)
        answer = decided.get((color, v))
        for v in reversed(unanswered):
            if answer is None:
                answer = attempt(color, v)
            decided[color, v] = answer
        return answer

    return DecisionProtocol("ball-rule", decide)


def synthesize_from_time_map(delta_T: SimplicialMap, time_complex) -> DecisionProtocol:
    """Prefix rule over a time-T complex: at step t, decide o if every
    ball extending the current t-round view maps to o.

    Each ball's label is read once, here, into the label sets of the
    prefixes on its `view_chain`; a map that lacks a ball is refused
    here, with `IncompleteMap`, before any view is asked about."""
    T = time_complex.T
    # a view's depth is part of its identity, so views key the prefixes
    labels: dict[Vertex, set] = {}
    for ball in time_complex.complex.vertices():
        label = delta_T(ball).label
        for prefix in view_chain(ball):
            labels.setdefault(prefix, set()).add(label)

    def decide(color: int, view: Vertex):
        # entry min(T, depth) of the view's chain, walked down to
        prefix = view
        for _ in range(view_depth(view) - T):
            prefix = prefix.label.vertex_of_color(prefix.color)
        group = labels.get(prefix)
        if not group:
            raise IncompleteMap(f"view {view!r} is outside the time complex")
        return _unanimous(group)

    return DecisionProtocol(f"table@{T}", decide)


# -- decision map from a protocol ----------------------------------------------


def extract_map(protocol: DecisionProtocol, model: ModelSpec, task: Task, T: int) -> SimplicialMap:
    """Read the protocol's decisions off every depth-T ball.

    Every ball must be decided by round T, else NotBoundedBy(T).  The
    resulting vertex map is chromatic by construction; simpliciality is
    for the caller to check against the output complex.
    """
    time_complex = build_time_T(model, task, T)
    outputs = set(task.outputs.vertices())
    mapping = {}
    for ball in time_complex.complex.vertices():
        value = None
        for v in view_chain(ball):
            answer = protocol(ball.color, v)
            if answer is not None:
                value = answer
                break
        if value is None:
            raise NotBoundedBy(T, ball)
        out_vertex = Vertex(ball.color, value)
        if out_vertex not in outputs:
            raise InvalidOutput(f"decided label {value!r} has no output vertex for color {ball.color}")
        mapping[ball] = out_vertex
    return SimplicialMap(mapping)


# -- protocol loading -----------------------------------------------------------


def table_protocol(table: dict[str, object], model: ModelSpec, task: Task, T: int) -> DecisionProtocol:
    """Decision-table protocol: ball id -> output label, applied via the
    time-T prefix rule."""
    time_complex = build_time_T(model, task, T)
    balls = time_complex.complex.vertices()
    mapping = {}
    for ball, name in zip(balls, vertex_strings(balls)):
        if name not in table:
            raise IncompleteMap(f"decision table missing ball {name}")
        mapping[ball] = Vertex(ball.color, table[name])
    return synthesize_from_time_map(SimplicialMap(mapping), time_complex)


def load_table_protocol_json_obj(obj: dict, model: ModelSpec, task: Task) -> DecisionProtocol:
    """A table protocol from its JSON object, `{"T": int, "table": {ball
    id: label}}`, each label read by `parse_label`; malformed input raises
    `Unsupported`."""
    if not isinstance(obj, dict):
        raise Unsupported("a protocol must be a JSON object")
    T, table = obj.get("T"), obj.get("table")
    if type(T) is not int:  # a bool is an int to Python, not to JSON
        raise Unsupported(f"protocol T must be an integer, not {T!r}")
    if not isinstance(table, dict):
        raise Unsupported(f"protocol table must be an object, not {table!r}")
    return table_protocol({ball: parse_label(label) for ball, label in table.items()}, model, task, T)


def builtin_protocol(name: str) -> DecisionProtocol:
    if name == "winner":
        return winner_protocol()
    if name == "own-input":
        return own_input_protocol()
    if name == "never":
        return never_protocol()
    if name.startswith("constant:"):
        return constant_protocol(parse_label(name.split(":", 1)[1]))
    raise Unsupported(f"unknown protocol {name!r}")
