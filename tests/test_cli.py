import json

from chrotop import cli
from chrotop.models import builtin_model
from chrotop.protocol import DecisionProtocol, ball_id, extract_map, view_depth, winner_protocol
from chrotop.simplicial import CarrierMap, Complex, Simplex, Vertex
from chrotop.tasks import Task, inputless_consensus


def run_cli(*argv):
    return cli.main(list(argv))


def test_subdivide_writes_all_formats(tmp_path, capsys):
    code = run_cli("subdivide", "--simplex", "1", "--k", "2", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "facets: 9" in out
    assert "D_2: 1/9" in out
    for ext in ("json", "svg", "dot"):
        assert (tmp_path / f"chr2_simplex1.{ext}").exists()
    payload = json.loads((tmp_path / "chr2_simplex1.json").read_text())
    assert payload["schema"] == 1
    assert len(payload["facets"]) == 9


def test_subdivide_triangle_counts(tmp_path, capsys):
    code = run_cli("subdivide", "--simplex", "2", "--k", "1", "--out", str(tmp_path))
    assert code == 0
    assert "facets: 13" in capsys.readouterr().out


def test_subdivide_identity(tmp_path, capsys):
    code = run_cli("subdivide", "--simplex", "1", "--k", "0", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "facets: 1" in out and "D_0: 1" in out


def test_subdivide_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("subdivide", "--simplex", "2", "--k", "1", "--out", str(a))
    run_cli("subdivide", "--simplex", "2", "--k", "1", "--out", str(b))
    for ext in ("json", "svg", "dot"):
        assert (a / f"chr1_simplex2.{ext}").read_bytes() == (b / f"chr1_simplex2.{ext}").read_bytes()


def test_check_exit_codes(tmp_path):
    assert run_cli("check", "--model", "m1", "--task", "consensus",
                   "--max-depth", "3", "--out", str(tmp_path / "m1.json")) == 0
    assert run_cli("check", "--model", "iis2", "--task", "consensus",
                   "--max-depth", "4", "--out", str(tmp_path / "iis.json")) == 10
    assert run_cli("check", "--model", "m2", "--task", "consensus",
                   "--max-depth", "4", "--out", str(tmp_path / "m2.json")) == 10
    assert run_cli("check", "--model", "iis2", "--task", "set-agreement:2",
                   "--max-depth", "2", "--out", str(tmp_path / "sa.json")) == 11
    assert run_cli("check", "--model", "m2", "--task", "set-agreement:2",
                   "--max-depth", "2", "--out", str(tmp_path / "unk.json")) == 12
    verdict = json.loads((tmp_path / "m1.json").read_text())
    assert verdict["kind"] == "solvable_bounded" and verdict["T"] <= 2


def test_check_parse_failure_exit_two(tmp_path, capsys):
    assert run_cli("check", "--model", "nope", "--task", "consensus") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("check", "--model", str(bad), "--task", "consensus") == 2


def test_check_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("check", "--model", "m2", "--task", "consensus", "--max-depth", "4", "--out", str(a))
    run_cli("check", "--model", "m2", "--task", "consensus", "--max-depth", "4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_pass_fail_undecided(tmp_path):
    assert run_cli("run", "--model", "m1", "--protocol", "winner",
                   "--task", "consensus", "--depth", "2", "--out", str(tmp_path / "w.txt")) == 0
    assert run_cli("run", "--model", "iis2", "--protocol", "own-input",
                   "--task", "consensus", "--depth", "1", "--out", str(tmp_path / "o.txt")) == 1
    assert run_cli("run", "--model", "iis2", "--protocol", "constant:0",
                   "--task", "consensus", "--depth", "1", "--out", str(tmp_path / "c.txt")) == 1
    assert run_cli("run", "--model", "iis2", "--protocol", "never",
                   "--task", "consensus", "--depth", "1", "--out", str(tmp_path / "n.txt")) == 5
    assert "violation" in (tmp_path / "c.txt").read_text()


def test_run_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli("run", "--model", "m1", "--protocol", "winner", "--task", "consensus",
            "--depth", "2", "--out", str(a))
    run_cli("run", "--model", "m1", "--protocol", "winner", "--task", "consensus",
            "--depth", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_irrevocability_exit_three(monkeypatch, capsys):
    flip = DecisionProtocol("flip", lambda color, view: view_depth(view) % 2)
    monkeypatch.setattr(cli, "builtin_protocol", lambda spec: flip)
    code = run_cli("run", "--model", "iis2", "--protocol", "flip", "--task", "consensus", "--depth", "2")
    assert code == 3
    assert "irrevocability" in capsys.readouterr().err


def test_table_protocol_from_file(tmp_path):
    model = builtin_model("m1")
    task = inputless_consensus(2)
    delta = extract_map(winner_protocol(), model, task, 2)
    table = {ball_id(v): o.label for v, o in delta.items()}
    spec = {"schema": 1, "kind": "table", "T": 2, "table": table}
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run", "--model", "m1", "--protocol", str(path),
                   "--task", "consensus", "--depth", "2", "--out", str(tmp_path / "t.txt")) == 0


def test_model_and_task_from_json_files(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(builtin_model("m2").to_json())
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(inputless_consensus(2).to_json_obj()))
    code = run_cli("check", "--model", str(model_path), "--task", str(task_path),
                   "--max-depth", "3", "--out", str(tmp_path / "v.json"))
    assert code == 10


def test_check_rejects_negative_depth_and_arity_mismatch(capsys):
    assert run_cli("check", "--model", "iis2", "--task", "consensus", "--max-depth", "-1") == 2
    assert "max depth" in capsys.readouterr().err
    assert run_cli("check", "--model", "iis2", "--task", "consensus:3", "--max-depth", "1") == 2
    assert "3 processes" in capsys.readouterr().err


def test_check_dispatches_on_task_structure_not_name(tmp_path):
    # approximate agreement on {0, h, 1}, named "consensus": no map at
    # time 0, yet solvable at time 1, so no interval certificate applies
    near = [(0, 0), (0, "h"), ("h", 0), ("h", "h"), ("h", 1), (1, "h"), (1, 1)]
    outputs = Complex([Simplex([Vertex(0, a), Vertex(1, b)]) for a, b in near])
    base = inputless_consensus(2).inputs
    images = {s: outputs for s in base.simplexes() if len(s) == 2}
    images.update({s: Complex([s]) for s in base.simplexes() if len(s) == 1})
    task = Task("consensus", base, outputs, CarrierMap(images))
    path = tmp_path / "approx.json"
    path.write_text(json.dumps(task.to_json_obj()))
    out0, out1 = tmp_path / "d0.json", tmp_path / "d1.json"
    assert run_cli("check", "--model", "iis2", "--task", str(path),
                   "--max-depth", "0", "--out", str(out0)) == 11
    assert run_cli("check", "--model", "iis2", "--task", str(path),
                   "--max-depth", "1", "--out", str(out1)) == 0
    assert json.loads(out1.read_text())["T"] == 1
