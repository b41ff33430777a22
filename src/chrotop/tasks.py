"""Decision tasks: input complex, output complex, and the output
specification carrier map, with the two built-in benchmark tasks."""

from __future__ import annotations

from .errors import BadArity, Unsupported
from .simplicial import (
    CarrierMap,
    CarrierReport,
    Complex,
    Frozen,
    Simplex,
    Vertex,
    check_carrier_map,
)


class Task(Frozen):
    __slots__ = ("name", "inputs", "outputs", "delta")

    def __init__(self, name: str, inputs: Complex, outputs: Complex, delta: CarrierMap):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "delta", delta)

    @property
    def n(self) -> int:
        return len(self.inputs.colors())

    def output_labels(self) -> frozenset:
        return frozenset(v.label for v in self.outputs.vertices())

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "name": self.name,
            "n": self.n,
            "inputs": self.inputs.to_json_obj()["facets"],
            "outputs": self.outputs.to_json_obj()["facets"],
            "delta": self.delta.to_json_obj(),
        }


def check_arity(task: Task, model) -> None:
    """`BadArity` unless `task` has as many processes as `model`."""
    if task.n != model.n:
        raise BadArity(f"task has {task.n} processes but model {model.name} has {model.n}")


def inputless_consensus(n: int) -> Task:
    """Consensus where process i has fixed input i.

    Outputs are one monochromatic-value facet per value: all processes
    decide that value.  The specification maps each input face to the
    output simplexes on the same colors whose common value is one of
    the face's inputs.
    """
    if n < 2:
        raise BadArity("consensus needs at least two processes")
    input_facet = Simplex(Vertex(i, i) for i in range(n))
    inputs = Complex([input_facet])
    out_facets = [Simplex(Vertex(i, v) for i in range(n)) for v in range(n)]
    outputs = Complex(out_facets)
    images = {}
    for face in input_facet.faces():
        colors = face.colors()
        values = sorted(v.label for v in face)
        images[face] = Complex(
            [Simplex(Vertex(c, val) for c in sorted(colors)) for val in values]
        )
    return Task("consensus", inputs, outputs, CarrierMap(images))


def set_agreement(n: int) -> Task:
    """Inputless (n-1)-set agreement.

    The output complex is the boundary of the input simplex: vertex j
    (color j, label j) for each value, and every proper subset of the
    values is a simplex.  Proper input faces must stay inside their own
    values; the full input simplex maps to the whole boundary.
    """
    if n < 2:
        raise BadArity("set agreement needs at least two processes")
    input_facet = Simplex(Vertex(i, i) for i in range(n))
    inputs = Complex([input_facet])
    out_vertices = [Vertex(i, i) for i in range(n)]
    boundary_facets = [
        Simplex(out_vertices[:i] + out_vertices[i + 1:]) for i in range(n)
    ]
    outputs = Complex(boundary_facets)
    images = {}
    for face in input_facet.faces():
        if len(face) == n:
            images[face] = outputs
        else:
            images[face] = Complex([Simplex(out_vertices[v.color] for v in face)])
    return Task("set-agreement", inputs, outputs, CarrierMap(images))


class TaskReport:
    __slots__ = ("carrier", "valid", "problems")

    def __init__(self, carrier: CarrierReport | None, valid: bool, problems: list[str]):
        # carrier is None when an image leaves the outputs
        self.carrier, self.valid, self.problems = carrier, valid, problems


def validate_task(task: Task) -> TaskReport:
    """Check that delta is a monotone carrier map into the outputs whose
    images only use the colors of their input simplex.  Chromaticity is
    reported but not required; output specifications at the top simplex
    are often not chromatic.  An image that leaves the outputs is reported
    alone, since the carrier map check refuses such a map outright."""
    problems = [
        f"delta image of {s!r} is not a subcomplex of the outputs"
        for s in task.inputs.simplexes()
        if s in task.delta.images and not task.delta(s).is_subcomplex_of(task.outputs)
    ]
    if problems:
        return TaskReport(None, False, problems)
    report = check_carrier_map(task.delta, task.inputs, task.outputs)
    if not report.total:
        problems.append("delta is not defined on every input simplex")
    if not report.monotone:
        problems.append(f"delta is not monotone, witness {report.witness}")
    if not report.color_inclusion:
        problems.append("some delta image uses colors outside its input simplex")
    return TaskReport(report, not problems, problems)


def load_task_json_obj(obj: dict) -> Task:
    if not isinstance(obj, dict):
        raise Unsupported("a task must be a JSON object")
    try:
        inputs = Complex.from_json_obj({"facets": obj["inputs"]})
        outputs = Complex.from_json_obj({"facets": obj["outputs"]})
        images = {}
        for entry in obj["delta"]:
            simplex = Complex.from_json_obj({"facets": [entry["simplex"]]}).facets[0]
            images[simplex] = Complex.from_json_obj({"facets": entry["image"]})
    except (TypeError, KeyError, ValueError) as exc:  # a missing, empty or malformed nested value
        raise Unsupported(f"malformed task: {exc}") from None
    name = obj.get("name", "custom")
    if not isinstance(name, str):
        raise Unsupported(f"task name must be a string, not {name!r}")
    return Task(name, inputs, outputs, CarrierMap(images))
