"""Decision tasks: input complex, output complex, and the output
specification carrier map.  The two built-in tasks are input-less, with
process i's input i, and each is one rule giving the image of a face of
the input facet; the outputs are the image of the input facet."""

from __future__ import annotations

from typing import Callable

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


def _inputless(name: str, n: int, allowed: Callable[[Simplex], list[Simplex]]) -> Task:
    """The task `name` on n processes where process i has fixed input i.

    `allowed(face)` lists the output simplexes that a face of the input
    facet may decide; each face's image is the complex they span, and the
    outputs are the image of the input facet."""
    if n < 2:
        raise BadArity(f"{name} needs at least two processes")
    facet = Simplex(Vertex(i, i) for i in range(n))
    images = {face: Complex(allowed(face)) for face in facet.faces()}
    return Task(name, Complex([facet]), images[facet], CarrierMap(images))


def inputless_consensus(n: int) -> Task:
    """Consensus with inputs the process ids: a face decides one of its
    inputs, the same on all its colors."""
    return _inputless("consensus", n, lambda face: [
        Simplex(Vertex(c, v.label) for c in face.colors()) for v in face
    ])


def set_agreement(n: int) -> Task:
    """Inputless (n-1)-set agreement on the boundary of the input simplex:
    a proper face decides itself, and the facet decides any proper face
    of itself."""
    return _inputless("set-agreement", n, lambda face: [face] if len(face) < n else [
        f for f in face.faces() if len(f) == n - 1
    ])


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
