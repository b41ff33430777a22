from collections import Counter
from fractions import Fraction

import pytest

import chrotop.protocol
from chrotop.errors import (
    BadArity,
    ChrotopError,
    IncompleteMap,
    InvalidOutput,
    IrrevocabilityViolation,
    NotBoundedBy,
    Unsupported,
)
from chrotop.models import builtin_model
from chrotop.simplicial import (
    CarrierMap,
    Complex,
    Simplex,
    SimplicialMap,
    Vertex,
    carried_by,
    check_simplicial_chromatic,
    vertex_string,
)
from chrotop.subdivision import (
    TerminatingSubdivision,
    chr_iterate,
    edge_position,
    policy_all_at_zero,
    prefix_policy,
)
from chrotop.protocol import (
    DecisionProtocol,
    Execution,
    all_executions,
    builtin_protocol,
    check_solves,
    constant_protocol,
    execution_cells,
    execution_configurations,
    extract_map,
    load_table_protocol_json_obj,
    never_protocol,
    own_input_protocol,
    run,
    synthesize_from_stable_map,
    synthesize_from_time_map,
    table_protocol,
    view_chain,
    view_depth,
    winner_protocol,
)
from chrotop.tasks import Task, inputless_consensus, load_task_json_obj, set_agreement
from chrotop.checker import build_time_T
from oracles import diameter, reference_check_solves, reference_coordinates, reference_distance, reference_run

M1 = builtin_model("m1")
M2 = builtin_model("m2")
IIS2 = builtin_model("iis2")
CONS = inputless_consensus(2)

R, L, B = ((0,), (1,)), ((1,), (0,)), ((0, 1),)
M1_POLICY = prefix_policy({1: [(R,)], 2: [(L, s) for s in (R, B, L)]})


def split_delta(stable, base):
    return SimplicialMap(
        {
            v: Vertex(v.color, 0 if edge_position(v.label, base) <= Fraction(1, 3) else 1)
            for v in stable.vertices()
        }
    )


def test_constant_decides_at_round_zero():
    result = run(constant_protocol(0), IIS2, CONS.inputs, 2)
    for outcome in result.outcomes:
        for rec in outcome.decisions.values():
            assert rec.round == 0 and rec.value == 0


def test_winner_decides_by_round_two_on_m1():
    result = run(winner_protocol(), M1, CONS.inputs, 2)
    for outcome in result.outcomes:
        assert outcome.all_decided()
        for rec in outcome.decisions.values():
            assert rec.round <= 2


def test_never_protocol_undecided():
    result = run(never_protocol(), M1, CONS.inputs, 2)
    assert not any(oc.all_decided() for oc in result.outcomes)
    assert any(rec is None for oc in result.outcomes for rec in oc.decisions.values())


def test_irrevocability_violation_detected():
    flip = DecisionProtocol("flip", lambda color, view: view_depth(view) % 2)
    with pytest.raises(IrrevocabilityViolation):
        run(flip, IIS2, CONS.inputs, 2)


def test_check_solves_winner_on_m1():
    assert check_solves(winner_protocol(), CONS, M1, 2).status == "PASS"
    assert check_solves(winner_protocol(), CONS, M1, 3).status == "PASS"


def test_check_solves_own_input_fails_on_iis():
    report = check_solves(own_input_protocol(), CONS, IIS2, 1)
    assert report.status == "FAIL"
    full_witnesses = [e for e, _ in report.failures if len(e.face) == 2]
    assert full_witnesses


def test_check_solves_constant_fails_validity_at_solo():
    report = check_solves(constant_protocol(0), CONS, IIS2, 1)
    assert report.status == "FAIL"
    witness_faces = {e.face for e, _ in report.failures}
    assert {Vertex(1, 1)} in [set(f.vertices) for f in witness_faces]


def test_check_solves_never_undecided():
    assert check_solves(never_protocol(), CONS, IIS2, 2).status == "UNDECIDED"


def test_check_solves_refuses_a_task_of_another_arity_before_simulating(monkeypatch):
    monkeypatch.setattr(chrotop.protocol, "run", lambda *args: pytest.fail("simulated"))
    with pytest.raises(BadArity, match="^task has 2 processes but model iis3 has 3$"):
        check_solves(own_input_protocol(), CONS, builtin_model("iis3"), 1)
    with pytest.raises(BadArity, match="^task has 3 processes but model iis2 has 2$"):
        check_solves(own_input_protocol(), inputless_consensus(3), IIS2, 1)


def test_invalid_output_label():
    bad = constant_protocol("zebra")
    with pytest.raises(InvalidOutput):
        check_solves(bad, CONS, IIS2, 1)


def test_an_unorderable_label_makes_a_vertex_and_an_invalid_output():
    # a vertex keeps no sort key, so any hashable label makes one
    v = Vertex(0, 1.5)
    assert v == v and v == Vertex(0, 1.5) and v != Vertex(0, 2.5)
    with pytest.raises(InvalidOutput):
        extract_map(constant_protocol(1.5), IIS2, CONS, 1)


def test_ball_rule_end_to_end_on_m1():
    ts = TerminatingSubdivision(CONS.inputs, M1_POLICY)
    delta = split_delta(ts.stable_complex(2), CONS.inputs)
    proto = synthesize_from_stable_map(delta, ts, 2)
    assert check_solves(proto, CONS, M1, 2).status == "PASS"
    assert check_solves(proto, CONS, M1, 3).status == "PASS"


def test_ball_rule_builds_one_point_per_view_it_tries(monkeypatch):
    """The tsub-ball-rule-m1-d7 simulation: the answers the protocol keeps
    leave six views whose ball is gathered, and each view's exact point is
    built once."""
    ts = TerminatingSubdivision(CONS.inputs, M1_POLICY)
    proto = synthesize_from_stable_map(split_delta(ts.stable_complex(2), CONS.inputs), ts, 2)
    coordinates = chrotop.protocol.coordinates
    tried = Counter()

    def counted(view, base):
        tried[view.color, view] += 1
        return coordinates(view, base)

    monkeypatch.setattr(chrotop.protocol, "coordinates", counted)
    assert check_solves(proto, CONS, M1, 7).status == "PASS"
    assert sum(tried.values()) == 6
    assert max(tried.values()) == 1


def test_ball_rule_memo_bound_changes_no_decision(monkeypatch):
    """The tsub-ball-rule-m1-d7 simulation with the protocol's memo bounded
    at 4 answers, so that it is cleared over and over: the status, and each
    color's (value, round) in each outcome, are those of the default bound."""
    ts = TerminatingSubdivision(CONS.inputs, M1_POLICY)
    delta = split_delta(ts.stable_complex(2), CONS.inputs)

    def solved():
        report = check_solves(synthesize_from_stable_map(delta, ts, 2), CONS, M1, 7)
        return report.status, [{color: (rec.value, rec.round) for color, rec in oc.decisions.items()}
                                for oc in report.run_result.outcomes]

    expected = solved()
    monkeypatch.setattr(chrotop.protocol, "_BALL_ATTEMPTS_MAXSIZE", 4)
    assert solved() == expected
    assert expected[0] == "PASS" and len(expected[1]) == 1460


def reference_ball_rule(delta, ts, max_depth):
    """The ball rule with no answer remembered between calls: every round's
    ball is gathered afresh, from exact points, with D_k from the k-th
    subdivision.  Only the points, which depend on a view alone, are kept."""
    base = ts.base
    stable = ts.stable_complex(max_depth).vertices()
    radius = [diameter(chr_iterate(base, k), base) for k in range(max_depth + 1)]
    points: dict = {}

    def decide(color, view):
        for v in view_chain(view):
            point = reference_coordinates(v, base, points)
            values = {
                delta(w).label for w in stable
                if w.color == color and reference_distance(point, w.label) <= radius[min(view_depth(v), max_depth)]
            }
            if len(values) == 1:
                return values.pop()
        return None

    return decide


def assert_ball_rule_matches_reference(model, max_depth, T):
    """The m1 prefix policy's ball rule answers as `reference_ball_rule`
    on every view of `model` up to depth T, asked in any order."""
    ts = TerminatingSubdivision(CONS.inputs, M1_POLICY)
    delta = split_delta(ts.stable_complex(max_depth), CONS.inputs)
    proto = synthesize_from_stable_map(delta, ts, max_depth)
    reference = reference_ball_rule(delta, ts, max_depth)
    views = {v for t in range(T + 1) for v in build_time_T(model, CONS, t).complex.vertices()}
    expected = {v: reference(v.color, v) for v in views}
    for v in views:
        assert proto(v.color, v) == expected[v]
    # asked again, deepest first, the remembered answers agree
    for v in sorted(views, key=view_depth, reverse=True):
        assert proto(v.color, v) == expected[v]
    # and so do a fresh protocol's, asked deepest first
    proto = synthesize_from_stable_map(delta, ts, max_depth)
    for v in sorted(views, key=view_depth, reverse=True):
        assert proto(v.color, v) == expected[v]


@pytest.mark.parametrize("max_depth", [2, 3])
def test_ball_rule_matches_uncached_reference_on_every_m1_view(max_depth):
    assert_ball_rule_matches_reference(M1, max_depth, 5)


@pytest.mark.parametrize("model", [M1, M2], ids=["m1", "m2"])
def test_ball_rule_matches_uncached_reference_up_to_depth_7(model):
    assert_ball_rule_matches_reference(model, 2, 7)


def test_ball_rule_constant_map_decides_at_zero():
    ts = TerminatingSubdivision(CONS.inputs, policy_all_at_zero)
    stable = ts.stable_complex(0)
    delta = SimplicialMap({v: Vertex(v.color, 0) for v in stable.vertices()})
    proto = synthesize_from_stable_map(delta, ts, 0)
    result = run(proto, IIS2, CONS.inputs, 1)
    for outcome in result.outcomes:
        for rec in outcome.decisions.values():
            assert rec.round == 0 and rec.value == 0


def test_time_rule_decides_by_T():
    P2 = build_time_T(M1, CONS, 2)
    delta = extract_map(winner_protocol(), M1, CONS, 2)
    proto = synthesize_from_time_map(delta, P2)
    result = run(proto, M1, CONS.inputs, 3)
    for outcome in result.outcomes:
        for rec in outcome.decisions.values():
            assert rec is not None and rec.round <= 2


def test_time_rule_refuses_a_map_that_lacks_a_ball_at_synthesis():
    P2 = build_time_T(M1, CONS, 2)
    mapping = dict(extract_map(winner_protocol(), M1, CONS, 2).mapping)
    del mapping[P2.complex.vertices()[0]]
    with pytest.raises(IncompleteMap):
        synthesize_from_time_map(SimplicialMap(mapping), P2)


def test_ball_rule_refuses_a_map_that_lacks_a_stable_vertex():
    ts = TerminatingSubdivision(CONS.inputs, M1_POLICY)
    stable = ts.stable_complex(2)
    mapping = dict(split_delta(stable, CONS.inputs).mapping)
    del mapping[stable.vertices()[0]]
    with pytest.raises(IncompleteMap):
        check_solves(synthesize_from_stable_map(SimplicialMap(mapping), ts, 2), CONS, M1, 4)


def test_extract_map_winner_is_valid():
    delta = extract_map(winner_protocol(), M1, CONS, 2)
    P2 = build_time_T(M1, CONS, 2)
    assert check_simplicial_chromatic(delta, P2.complex, CONS.outputs).ok
    assert carried_by(delta, P2.xi, CONS.delta, CONS.inputs).carried


def test_extract_map_constant_protocol():
    delta = extract_map(constant_protocol(1), IIS2, CONS, 1)
    assert all(o.label == 1 for o in delta.mapping.values())


def test_extract_unbounded_raises():
    with pytest.raises(NotBoundedBy):
        extract_map(never_protocol(), IIS2, CONS, 2)


def test_round_trip_extract_synthesize():
    delta = extract_map(winner_protocol(), M1, CONS, 2)
    P2 = build_time_T(M1, CONS, 2)
    proto = synthesize_from_time_map(delta, P2)
    assert extract_map(proto, M1, CONS, 2) == delta


def test_round_trip_synthesize_extract_same_values():
    # the resynthesized protocol decides the same values as the original,
    # possibly at different rounds
    original = winner_protocol()
    delta = extract_map(original, M1, CONS, 2)
    proto = synthesize_from_time_map(delta, build_time_T(M1, CONS, 2))
    run_a = run(original, M1, CONS.inputs, 2)
    run_b = run(proto, M1, CONS.inputs, 2)
    for oa, ob in zip(run_a.outcomes, run_b.outcomes):
        assert oa.execution == ob.execution
        for color in oa.decisions:
            assert oa.decisions[color].value == ob.decisions[color].value


def test_decision_locality_equal_views_equal_decisions():
    proto = winner_protocol()
    seen: dict[Vertex, object] = {}
    for execution in all_executions(M1, CONS.inputs, 3):
        for t, config in enumerate(execution_configurations(execution)):
            for color in execution.face.colors():
                v = config.vertex_of_color(color)
                answer = proto(color, v)
                if v in seen:
                    assert seen[v] == answer
                seen[v] = answer


@pytest.mark.parametrize("model, max_depth", [("iis2", 4), ("m1", 4), ("m2", 4), ("iis3", 2)])
def test_execution_cells_match_reference_replay(model, max_depth):
    spec = builtin_model(model)
    inputs = inputless_consensus(spec.n).inputs
    for depth in range(max_depth + 1):
        cells = execution_cells(spec, inputs.simplexes(), depth)
        executions = all_executions(spec, inputs, depth)
        assert [Execution(face, word) for face, word, _ in cells] == executions
        first_built = {}
        for execution, (_, _, cell) in zip(executions, cells):
            configs = execution_configurations(execution)
            for color in execution.face.colors():
                chain = view_chain(cell.vertex_of_color(color))
                assert chain == [config.vertex_of_color(color) for config in configs]
                # equal views of two executions are one object
                for view in chain:
                    assert first_built.setdefault(view, view) is view


def _late_flip(color, view):
    # own input, revoked from round 3 on by process 0 alone, and only
    # where it heard nothing in round 1 and someone in round 2
    chain = view_chain(view)
    flipped = color == 0 and len(chain) > 3 and len(chain[1].label) == 1 and len(chain[2].label) > 1
    return chain[0].label + 1 if flipped else chain[0].label


def _round_one_text(color, view):
    # from round 1: own input after a solo round, else the text of the
    # round-1 view, which is no output label
    chain = view_chain(view)
    if len(chain) < 2:
        return None
    return chain[0].label if len(chain[1].label) == 1 else vertex_string(chain[1])


def _ball_rule(task):
    if task.n == 2:
        ts = TerminatingSubdivision(task.inputs, M1_POLICY)
        return synthesize_from_stable_map(split_delta(ts.stable_complex(2), task.inputs), ts, 2)
    ts = TerminatingSubdivision(task.inputs, policy_all_at_zero)
    return synthesize_from_stable_map(
        SimplicialMap({v: Vertex(v.color, v.color) for v in ts.stable_complex(0).vertices()}), ts, 0)


def _table(task):
    model, T, source = (M1, 2, winner_protocol()) if task.n == 2 else (builtin_model("iis3"), 1, own_input_protocol())
    table = {vertex_string(v): o.label for v, o in extract_map(source, model, task, T).items()}
    return table_protocol(table, model, task, T)


def binary_consensus():
    """Two-process consensus on inputs 0 and 1: a solo process decides
    its input, and a pair agrees on an input one of them holds."""
    inputs = Complex([Simplex([Vertex(0, a), Vertex(1, b)]) for a in (0, 1) for b in (0, 1)])
    outputs = Complex([Simplex([Vertex(0, x), Vertex(1, x)]) for x in (0, 1)])
    images = {
        face: Complex([Simplex(Vertex(v.color, x) for v in face) for x in sorted({v.label for v in face})])
        for face in inputs.simplexes()
    }
    return Task("binary-consensus", inputs, outputs, CarrierMap(images))


VIEW_PROTOCOLS = {
    "winner": lambda task: winner_protocol(),
    "own-input": lambda task: own_input_protocol(),
    "never": lambda task: never_protocol(),
    "constant:0": lambda task: constant_protocol(0),
    "flip": lambda task: DecisionProtocol("flip", lambda color, view: view_depth(view) % 2),
    "late-flip": lambda task: DecisionProtocol("late-flip", _late_flip),
    "round-one-text": lambda task: DecisionProtocol("round-one-text", _round_one_text),
}
# built over the one input facet of an inputless task
MAP_PROTOCOLS = {"ball-rule": _ball_rule, "table": _table}
TASKS = {
    "consensus": inputless_consensus,
    "set-agreement": set_agreement,
    "binary-consensus": lambda n: binary_consensus(),
}


def _result_or_error(call):
    try:
        return call()
    except ChrotopError as exc:
        return type(exc), getattr(exc, "witness", str(exc))


@pytest.mark.parametrize("model, task, depth", [
    *((m, "consensus", d) for m in ("m1", "m2", "iis2", "ll") for d in range(6)),
    *(("iis3", t, d) for t in ("consensus", "set-agreement") for d in range(3)),
    *((m, "binary-consensus", d) for m in ("m1", "iis2") for d in range(4)),
])
def test_run_and_check_solves_match_the_reference_simulation(model, task, depth):
    spec = builtin_model(model)
    task = TASKS[task](spec.n)
    protocols = VIEW_PROTOCOLS if task.name == "binary-consensus" else {**VIEW_PROTOCOLS, **MAP_PROTOCOLS}
    for name, make in protocols.items():
        # a fresh protocol per call, so no memo of a protocol is shared
        got = _result_or_error(lambda: run(make(task), spec, task.inputs, depth))
        want = _result_or_error(lambda: reference_run(make(task), spec, task.inputs, depth))
        assert got == want, name
        got = _result_or_error(lambda: check_solves(make(task), task, spec, depth))
        want = _result_or_error(lambda: reference_check_solves(make(task), task, spec, depth))
        assert got == want, name


@pytest.mark.parametrize("model, depth", [("iis2", 6), ("m1", 7)])
def test_run_asks_the_protocol_once_per_distinct_view(model, depth):
    spec = builtin_model(model)
    asked = []
    winner = winner_protocol()
    counted = DecisionProtocol("counted", lambda color, view: asked.append(view) or winner(color, view))
    run(counted, spec, CONS.inputs, depth)
    views = {
        v for _, _, cell in execution_cells(spec, CONS.inputs.simplexes(), depth)
        for color in cell.colors() for v in view_chain(cell.vertex_of_color(color))
    }
    assert len(asked) == len(views) and set(asked) == views


def test_builtin_protocol_lookup():
    assert builtin_protocol("winner").name == "winner"
    assert builtin_protocol("constant:1")(0, Vertex(0, 0)) == 1
    assert builtin_protocol("own-input")(0, Vertex(0, 5)) == 5


@pytest.mark.parametrize("raw, label", [
    ("12", 12), ("-3", -3), ("007", 7), ("--5", "--5"), ("\u0663", "\u0663"), ("\u00b2", "\u00b2"),
    ("+4", "+4"), ("x", "x"), (5, 5),
    (True, Unsupported), (1.5, Unsupported), (None, Unsupported), ([1], Unsupported),
])
def test_every_loader_reads_a_label_by_one_rule(raw, label):
    loaders = [
        lambda: load_task_json_obj(dict(CONS.to_json_obj(), outputs=[[{"color": 0, "label": raw}]]))
        .outputs.vertices()[0].label,
        lambda: load_table_protocol_json_obj({"T": 0, "table": {"0:0": raw, "1:1": raw}}, M1, CONS)(0, Vertex(0, 0)),
    ]
    if isinstance(raw, str):
        loaders.append(lambda: builtin_protocol("constant:" + raw)(0, Vertex(0, 0)))
    for load in loaders:
        if label is Unsupported:
            with pytest.raises(Unsupported):
                load()
        else:
            value = load()
            assert (type(value), value) == (type(label), label)
