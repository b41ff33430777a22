import json

import pytest

from chrotop.errors import BadArity, Unsupported
from chrotop.simplicial import CarrierMap, Complex, Simplex, Vertex
from chrotop.tasks import (
    Task,
    inputless_consensus,
    load_task_json_obj,
    set_agreement,
    validate_task,
)
from oracles import reference_consensus


def test_consensus_two_processes():
    task = inputless_consensus(2)
    assert len(task.inputs.facets) == 1
    assert len(task.outputs.facets) == 2
    left = Simplex([Vertex(0, 0)])
    image = task.delta(left)
    assert image.facets == (Simplex([Vertex(0, 0)]),)
    full = task.inputs.facets[0]
    assert task.delta(full).facets == task.outputs.facets


def test_consensus_three_processes_pair_face():
    task = inputless_consensus(3)
    pair = Simplex([Vertex(0, 0), Vertex(1, 1)])
    image = task.delta(pair)
    expected = {
        Simplex([Vertex(0, v), Vertex(1, v)]) for v in (0, 1)
    }
    assert set(image.facets) == expected


def test_consensus_agreement_and_validity_invariant():
    task = inputless_consensus(3)
    for face in task.inputs.simplexes():
        inputs = {v.label for v in face}
        for facet in task.delta(face).facets:
            values = {v.label for v in facet}
            assert len(values) == 1
            assert values <= inputs


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_consensus_matches_its_definition(n):
    task = inputless_consensus(n)
    inputs, outputs, images = reference_consensus(n)
    assert (task.inputs, task.outputs, task.delta.images) == (inputs, outputs, images)


def test_set_agreement_two_matches_boundary():
    task = set_agreement(2)
    assert {f.dim for f in task.outputs.facets} == {0}
    assert len(task.outputs.facets) == 2


def test_set_agreement_three_structure():
    task = set_agreement(3)
    facets = task.outputs.facets
    assert len(facets) == 3
    assert all(f.dim == 1 for f in facets)
    assert len(task.outputs.simplexes()) == 6
    solo = Simplex([Vertex(0, 0)])
    assert task.delta(solo).facets == (Simplex([Vertex(0, 0)]),)
    full = task.inputs.facets[0]
    assert task.delta(full).facets == facets


def test_set_agreement_never_all_values():
    task = set_agreement(3)
    for s in task.outputs.simplexes():
        assert len({v.label for v in s}) < 3


def test_constructors_validate():
    # the CLI validates every task it loads, the built-in ones included
    for n in range(2, 6):
        assert validate_task(inputless_consensus(n)).valid, n
        assert validate_task(set_agreement(n)).valid, n


def test_bad_arity():
    with pytest.raises(BadArity):
        inputless_consensus(1)
    with pytest.raises(BadArity):
        set_agreement(0)


def test_broken_delta_monotonicity_witnessed():
    base = inputless_consensus(2)
    images = dict(base.delta.images)
    full = base.inputs.facets[0]
    # shrink the image of the full simplex below a vertex image
    images[full] = Complex([Simplex([Vertex(0, 0)])])
    images[Simplex([Vertex(1, 1)])] = base.outputs
    broken = Task("broken", base.inputs, base.outputs, CarrierMap(images))
    report = validate_task(broken)
    assert not report.valid
    assert report.carrier.witness is not None
    tau, tau2 = report.carrier.witness
    assert tau.issubset(tau2)


def test_images_outside_the_outputs_are_problems():
    base = inputless_consensus(2)
    full = base.inputs.facets[0]
    stray = Simplex([Vertex(0, 7), Vertex(1, 7)])
    left = Simplex([Vertex(0, 0)])
    images = dict(base.delta.images)
    images[full] = Complex(list(base.outputs.facets) + [stray])
    images[left] = Complex([Simplex([Vertex(0, 7)])])
    report = validate_task(Task("stray", base.inputs, base.outputs, CarrierMap(images)))
    assert not report.valid and report.carrier is None
    assert report.problems == [f"delta image of {s!r} is not a subcomplex of the outputs"
                               for s in base.inputs.simplexes() if s in (full, left)]


def test_json_round_trip():
    task = inputless_consensus(2)
    text = json.dumps(task.to_json_obj())
    loaded = load_task_json_obj(json.loads(text))
    assert loaded.inputs.facets == task.inputs.facets
    assert loaded.outputs.facets == task.outputs.facets
    for s in task.inputs.simplexes():
        assert loaded.delta(s).facets == task.delta(s).facets
    assert validate_task(loaded).valid


@pytest.mark.parametrize("field, value", [
    ("delta", [1]),
    ("delta", [{"simplex": 1, "image": []}]),
    ("inputs", 5),
    ("inputs", [[5]]),
    ("outputs", [[{"color": [0], "label": "0"}]]),
    ("inputs", [[{"color": 0.9, "label": "0"}]]),
    ("inputs", [[{"color": True, "label": "1"}]]),
    ("inputs", [[{"color": -1, "label": "0"}]]),
    ("outputs", [[{"color": 0, "label": [1]}]]),
    ("outputs", [[{"color": 0, "label": True}]]),
    ("outputs", [[{"color": 0, "label": 0.5}]]),
    ("outputs", [[{"color": 0, "label": None}]]),
    ("name", 5),
    ("name", None),
], ids=["delta-int", "delta-simplex-int", "inputs-int", "vertex-int", "color-list",
        "color-float", "color-bool", "color-negative", "label-list", "label-bool",
        "label-float", "label-null", "name-int", "name-null"])
def test_load_rejects_nested_wrong_types(field, value):
    obj = dict(inputless_consensus(2).to_json_obj(), **{field: value})
    with pytest.raises(Unsupported):
        load_task_json_obj(obj)


@pytest.mark.parametrize("edit", [
    lambda obj: obj.pop("delta"),
    lambda obj: obj.update(inputs=[[]]),
    lambda obj: obj.update(outputs=[]),
    lambda obj: obj.update(outputs=[[{"color": 0}]]),
], ids=["delta-missing", "facet-empty", "outputs-empty", "label-missing"])
def test_load_rejects_missing_and_empty_parts(edit):
    obj = inputless_consensus(2).to_json_obj()
    edit(obj)
    with pytest.raises(Unsupported):
        load_task_json_obj(obj)


def test_load_accepts_int_and_string_labels():
    obj = inputless_consensus(2).to_json_obj()
    obj["outputs"] = [[{"color": 0, "label": 0}, {"color": 1, "label": "0"}],
                      [{"color": 0, "label": "x"}, {"color": 1, "label": "-1"}]]
    loaded = load_task_json_obj(obj)
    assert loaded.outputs.facets == Complex([
        Simplex([Vertex(0, 0), Vertex(1, 0)]), Simplex([Vertex(0, "x"), Vertex(1, -1)]),
    ]).facets
