import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter, deque
from itertools import product
from pathlib import Path

import pytest

import chrotop.simplicial
import chrotop.subdivision
from chrotop import cli
from chrotop.checker import build_time_T, certify_consensus_impossible
from chrotop.models import builtin_model, load_model_json_obj
from chrotop.protocol import DecisionProtocol, ball_id, extract_map, view_depth, winner_protocol
from chrotop.simplicial import (
    CarrierMap,
    Complex,
    Simplex,
    SimplicialMap,
    Vertex,
    carried_by,
    check_simplicial_chromatic,
    parse_label,
    vertex_strings,
)
from chrotop.tasks import Task, inputless_consensus, set_agreement
from oracles import reference_diameters_Dk, reference_disconnecting, reference_limit_position, reference_sperner


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


def test_subdivide_rejects_unknown_formats(tmp_path, capsys):
    for fmt in ("pgn", "json,pgn"):
        assert run_cli("subdivide", "--simplex", "1", "--k", "1", "--out", str(tmp_path), "--format", fmt) == 2
        assert capsys.readouterr().err.startswith("error: --format")
    assert not list(tmp_path.iterdir())
    assert run_cli("subdivide", "--simplex", "1", "--k", "1", "--out", str(tmp_path), "--format", "") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"chr1_simplex1.{ext}" for ext in ("dot", "json", "svg")]


def test_subdivide_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("subdivide", "--simplex", "2", "--k", "1", "--out", str(a))
    run_cli("subdivide", "--simplex", "2", "--k", "1", "--out", str(b))
    for ext in ("json", "svg", "dot"):
        assert (a / f"chr1_simplex2.{ext}").read_bytes() == (b / f"chr1_simplex2.{ext}").read_bytes()


def test_subdivide_svg_notice_names_what_was_written(tmp_path, capsys):
    cases = [
        ("svg", "wrote no file", []),
        ("svg,json", "wrote JSON instead", ["json"]),
        ("dot,svg", "wrote DOT instead", ["dot"]),
        ("json,svg,dot", "wrote JSON/DOT instead", ["dot", "json"]),
    ]
    for fmt, wrote, exts in cases:
        out = tmp_path / fmt.replace(",", "-")
        assert run_cli("subdivide", "--simplex", "3", "--k", "1", "--out", str(out), "--format", fmt) == 0
        notices = [line for line in capsys.readouterr().out.splitlines() if line.startswith("notice:")]
        assert notices == [f"notice: SVG supports dimensions 1 and 2 only; {wrote}"]
        assert sorted(p.name for p in out.iterdir()) == [f"chr1_simplex3.{ext}" for ext in exts]
    assert run_cli("subdivide", "--simplex", "2", "--k", "0", "--out", str(tmp_path / "tri")) == 0
    assert "notice" not in capsys.readouterr().out


def test_subdivide_out_naming_a_file_exits_two(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept", encoding="utf-8")
    assert run_cli("subdivide", "--simplex", "1", "--k", "1", "--out", str(taken)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert taken.read_text(encoding="utf-8") == "kept"


def test_subdivide_output_path_taken_by_a_directory_exits_two(tmp_path, capsys):
    (tmp_path / "chr1_simplex1.dot").mkdir()
    assert run_cli("subdivide", "--simplex", "1", "--k", "1", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "chr1_simplex1.dot" in err


def test_subdivide_help_names_the_accepted_dimensions(capsys):
    assert run_cli("subdivide", "--help") == 0
    assert "1 to 3" in " ".join(capsys.readouterr().out.split())


CHECK_M1 = ("check", "--model", "m1", "--task", "consensus")
ALL_COMMANDS = ["subdivide", "check", "run"]


@pytest.mark.parametrize("argv, code, out, err", [
    # help: exit 0, the usage of these commands on stdout
    (["--help"], 0, ALL_COMMANDS, ""),
    (["-h"], 0, ALL_COMMANDS, ""),
    (["check", "--help"], 0, ["check"], ""),
    (["run", "--help"], 0, ["run"], ""),
    (["subdivide", "--help"], 0, ["subdivide"], ""),
    # usage errors: exit 2, one line on stderr
    ([], 2, "", "expected a command (subdivide, check, run), got none"),
    (["frob"], 2, "", "expected a command (subdivide, check, run), got 'frob'"),
    (["--seed", "7"], 2, "", "expected a command (subdivide, check, run), got none"),
    (["check", "--model", "m1"], 2, "", "option --task is required"),
    (["run", *CHECK_M1[1:]], 2, "", "option --protocol is required"),
    (["subdivide", "--k", "1"], 2, "", "option --simplex is required"),
    ([*CHECK_M1, "--bogus", "1"], 2, "", "option --bogus not recognized"),
    ([*CHECK_M1, "-x"], 2, "", "option -x not recognized"),
    (["check", "--m", "x"], 2, "", "option --m not a unique prefix"),
    (["check", "--task", "consensus", "--model"], 2, "", "option --model requires argument"),
    ([*CHECK_M1, "extra"], 2, "", "expected no further argument, got 'extra'"),
    ([*CHECK_M1, "--seed", "7"], 2, "", "option --seed not recognized"),
    (["subdivide", "--simplex", "1", "--k", "x"], 2, "", "option --k: invalid int value: 'x'"),
    ([*CHECK_M1, "--max-depth", "1.5"], 2, "", "option --max-depth: invalid int value: '1.5'"),
    (["run", *CHECK_M1[1:], "--protocol", "winner", "--depth", "two"], 2, "", "option --depth: invalid int value: 'two'"),
    (["--seed", "x", *CHECK_M1], 2, "", "option --seed: invalid int value: 'x'"),
    # other spellings: the exit code and verdict bytes of the spelled-out command
    (["check", "--max", "1", "--model", "m1", "--task", "consensus"], None, [*CHECK_M1, "--max-depth", "1"], ""),
    (["--seed", "7", "check", "--model=iis2", "--task=consensus", "--max-depth=5"], None,
     ["--seed", "7", "check", "--model", "iis2", "--task", "consensus", "--max-depth", "5"], ""),
])
def test_front_end_exit_codes_and_streams(argv, code, out, err, capsys):
    if code is None:
        code = run_cli(*out)
        out = capsys.readouterr().out
        assert out.startswith("{")
    got_code = run_cli(*argv)
    got = capsys.readouterr()
    assert got_code == code
    assert got.err == (f"chrotop: error: {err}\n" if err else "")
    if code == 0 and isinstance(out, list):
        assert got.out.startswith("usage: chrotop [--seed N (default 0)] ")
        assert [line.split(":")[0] for line in got.out.splitlines() if line.startswith("chrotop ")] == [
            f"chrotop {name}" for name in out]
    else:
        assert got.out == out


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """`code` run by a new interpreter that imports chrotop from this tree."""
    src = str(Path(chrotop.subdivision.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)


def test_importing_the_cli_loads_no_argparse():
    """Start-up is most of a `check`, so importing the front end loads
    nothing it does not use: argparse built four parsers per call (the
    command line is read with getopt), dataclasses and inspect decorated
    the records (they are plain classes), and no command uses
    `chrotop.metric`."""
    done = _fresh_python("import chrotop.cli, sys\n"
                         "unused = ('argparse', 'dataclasses', 'inspect', 'chrotop.metric')\n"
                         "print(*(m for m in unused if m in sys.modules))")
    assert (done.returncode, done.stdout, done.stderr) == (0, b"\n", b"")


def test_metric_names_are_exported_on_first_use():
    """The six names of `chrotop.metric` are still exported by `chrotop`,
    which loads the module only when one of them is asked for; an unknown
    name is an `AttributeError`, and loads nothing."""
    done = _fresh_python(
        "import sys, chrotop\n"
        "loaded = lambda: 'chrotop.metric' in sys.modules\n"
        "before = loaded()\n"
        "try:\n"
        "    chrotop.no_such_name\n"
        "except AttributeError as error:\n"
        "    print(error)\n"
        "unknown = loaded()\n"
        "from chrotop import Ball, ViewSequence, ball_trichotomy, exec_distance, product_distance, view_distance\n"
        "import chrotop.metric as metric\n"
        "print(before, unknown, loaded(), Ball is metric.Ball and view_distance is metric.view_distance)\n")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == b"module 'chrotop' has no attribute 'no_such_name'\nFalse False True True\n"


# sha256 of the files the writers produced before they were made linear in
# their output (the face poset over `Simplex` objects, per-vertex label texts)
GOLDEN_SHA256 = {
    "chr2_simplex2.json": "03b96ffae350a17192fdcfe8324bead938b56cdc959bf2bd6d5667b3543496e0",
    "chr2_simplex2.svg": "f342141a41ea5705d049dbd51681f1dd04f447e6a5ddb4545911ea29411bea3b",
    "chr2_simplex2.dot": "fcf9e341681431db0b4c56eb5b07d552bd09711de192292bd6f6c85d8171a734",
    "chr4_simplex1.json": "64001c135e9192355d0fd62d7a10efc1c9fcbf3e6cac45d2ff1290444c0f2edb",
    "chr4_simplex1.svg": "ee3d1cd9c2fb5e5a38e42c786189b50f933319ad11035a9c97d018be145af10c",
    "chr4_simplex1.dot": "3698e6728e9317e954e8b03dbb18d7c49d2c86bbe6b4284371614f9d2305a483",
    "chr3_simplex2.json": "a970a3a697cb9126ab9009854ea48bb1c7a5e166b4af2240b390624b43d253a7",
    "chr3_simplex2.svg": "849d7f89c7950d8e805ab6d3ba38cf2e44eea2c08c5546390263875aa52d4428",
    "chr3_simplex2.dot": "eac3863a5714207088a85427b4f830d550e7b32467a4dc7b4429a57c25ee79ef",
    "chr7_simplex1.json": "7e19188c33dcab980b86a8b3bf80ed6263b43faba789aef7c852d7cb3969704d",
    "chr7_simplex1.svg": "1aae913109c34e019a594e82eeddfa5fda4f77af270193534057cc4e4311bdac",
    "chr7_simplex1.dot": "036095e0e44b0851b6c9b930bdecb9b7b33e51a5450e78de4dfb64568bf0a9f5",
}


def test_subdivide_outputs_match_golden_hashes(tmp_path):
    for simplex, k in (("2", "2"), ("1", "4"), ("2", "3"), ("1", "7")):
        assert run_cli("subdivide", "--simplex", simplex, "--k", k, "--out", str(tmp_path)) == 0
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of the tetrahedron's files as written before complexes were ordered
# by vertex ranks and simplexes hashed one level deep, which moved set and
# dict iteration orders
GOLDEN_TETRAHEDRON_SHA256 = {
    "chr2_simplex3.json": "f5dd28da36e6f404bc9c4305286ff84f750d7376f7a4d22a5d984364aa8a7bac",
    "chr2_simplex3.dot": "2dc3822260f39dcd89f6d941697940e776356975f12fcbaa9939943ccdf3d03a",
}


def test_subdivide_tetrahedron_outputs_match_golden_hashes(tmp_path):
    assert run_cli("subdivide", "--simplex", "3", "--k", "2", "--out", str(tmp_path)) == 0
    for name, digest in GOLDEN_TETRAHEDRON_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("simplex, k", [(1, k) for k in range(6)] + [(2, k) for k in range(4)]
                         + [(3, k) for k in range(3)])
def test_subdivide_dk_line_matches_the_diameter_table(tmp_path, capsys, simplex, k):
    # the line is the closed form; the reference walks every cell afresh
    assert run_cli("subdivide", "--simplex", str(simplex), "--k", str(k), "--out", str(tmp_path)) == 0
    base = Complex([Simplex(Vertex(i, i) for i in range(simplex + 1))])
    assert f"D_{k}: {reference_diameters_Dk(base, k)[-1]}\n" in capsys.readouterr().out


def test_subdivide_computes_weights_and_texts_once(tmp_path, monkeypatch):
    calls = Counter()
    originals = {"integer_weights": chrotop.subdivision.integer_weights,
                 "diameter_Dk": chrotop.subdivision.diameter_Dk,
                 "label_strings": chrotop.simplicial.label_strings}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "chrotop"]
    for name, original in originals.items():

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # wherever a module holds the function, as the CLI and the writers import it
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    # the weights are computed only for an SVG: not for JSON and DOT alone, nor for the tetrahedron
    for argv, weights in ((("--simplex", "1", "--k", "4"), 1), (("--simplex", "2", "--k", "2"), 1),
                          (("--simplex", "2", "--k", "2", "--format", "json,dot"), 0),
                          (("--simplex", "3", "--k", "1"), 0)):
        calls.clear()
        assert run_cli("subdivide", *argv, "--out", str(tmp_path)) == 0
        assert calls == Counter({"integer_weights": weights, "diameter_Dk": 1, "label_strings": 1})


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


@pytest.mark.parametrize("excluded", [
    [{"stem": [], "cycle": ["<->"]}],
    [{"stem": ["<->"], "cycle": ["<-"]}, {"stem": ["->"], "cycle": ["<-"]}],
], ids=["half", "third"])
def test_check_leaves_a_model_cut_by_its_excluded_point_unknown(excluded, tmp_path):
    """Every execution through the excluded point is excluded, so the
    bridging cells certify nothing: the bounded search answers unknown."""
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"n": 2, "kind": "custom", "excluded": excluded}))
    out = tmp_path / "v.json"
    assert run_cli("check", "--model", str(model_path), "--task", "consensus",
                   "--max-depth", "8", "--out", str(out)) == 12
    verdict = json.loads(out.read_text())
    assert verdict["kind"] == "unknown" and "certificate" not in verdict


def test_check_parse_failure_exit_two(tmp_path, capsys):
    assert run_cli("check", "--model", "nope", "--task", "consensus") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("check", "--model", str(bad), "--task", "consensus") == 2


def test_check_rejects_malformed_model_and_task_files(tmp_path, capsys):
    bad_first = tmp_path / "first.json"
    bad_first.write_text('{"n":2,"kind":"firstRoundRestricted","allowedFirstRounds":[[[0]]]}')
    array = tmp_path / "array.json"
    array.write_text('[{"n": 2}]')
    int_excluded = tmp_path / "int-excluded.json"
    int_excluded.write_text('{"n":2,"excluded":[1]}')
    int_delta = tmp_path / "int-delta.json"
    int_delta.write_text(json.dumps(dict(inputless_consensus(2).to_json_obj(), delta=[1])))
    coerced, coerced_tasks = [], []
    for i, text in enumerate(['{"n": 2.7}', '{"n": true}', '{"n": "2"}', '{"n": 2, "name": 5}',
                              '{"n": 2, "kind": [1]}', '{"n": 2, "allowedFirstRounds": [{"0": 1, "1": 2}]}',
                              '{"n": 2, "allowedFirstRounds": [[["0"], ["1"]]]}']):
        coerced.append(tmp_path / f"coerced-{i}.json")
        coerced[-1].write_text(text)
    for i, vertex in enumerate([{"color": 0.9, "label": "0"}, {"color": True, "label": "1"},
                                {"color": 0, "label": [1]}, {"name": 5}]):
        obj = inputless_consensus(2).to_json_obj()
        if "name" in vertex:
            obj.update(vertex)
        else:
            obj["inputs"][0][0] = vertex
        coerced_tasks.append(tmp_path / f"coerced-task-{i}.json")
        coerced_tasks[-1].write_text(json.dumps(obj))
    capsys.readouterr()
    cases = ((bad_first, "consensus"), (array, "consensus"), ("m1", array),
             (int_excluded, "consensus"), ("m1", int_delta)) + tuple((m, "consensus") for m in coerced)
    cases += tuple(("iis2", t) for t in coerced_tasks)
    for model, task in cases:
        assert run_cli("check", "--model", str(model), "--task", str(task), "--max-depth", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("model", [
    {"n": 2, "kind": "custom", "allowedFirstRounds": ["0,0|1"]},
    {"n": 2, "kind": "custom", "allowedFirstRounds": [[[0, 0], [1]]]},
    {"n": 2, "kind": "custom", "excluded": [{"stem": [], "cycle": [[[0, 1, 1]]]}]},
], ids=["first-round-string", "first-round-lists", "excluded-cycle"])
def test_check_rejects_a_round_that_repeats_a_color(model, tmp_path, capsys):
    """A round naming a color twice is no ordered partition, even when its
    blocks cover 0..n-1: the model exits 2 rather than being checked."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert run_cli("check", "--model", str(path), "--task", "consensus", "--max-depth", "2") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: malformed model: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("edit", [
    lambda images, edge: {**images, edge: images[edge] + [Simplex([Vertex(0, 7), Vertex(1, 7)])]},
    lambda images, edge: {**images, edge: [Simplex([Vertex(0, 1), Vertex(1, 1)])]},
    lambda images, edge: {edge: images[edge]},
    lambda images, edge: {**images, Simplex([Vertex(0, 0)]): [Simplex([Vertex(0, 0), Vertex(1, 0)])]},
], ids=["image-leaves-outputs", "not-monotone", "vertices-missing", "colors-outside-the-simplex"])
def test_check_and_run_reject_invalid_tasks(edit, tmp_path, capsys):
    consensus = inputless_consensus(2)
    edge = consensus.inputs.facets[0]
    images = edit({s: list(image.facets) for s, image in consensus.delta.images.items()}, edge)
    task = Task("consensus", consensus.inputs, consensus.outputs,
                CarrierMap({s: Complex(facets) for s, facets in images.items()}))
    path = tmp_path / "task.json"
    path.write_text(json.dumps(task.to_json_obj()))
    for argv in (("check", "--max-depth", "3"), ("run", "--protocol", "winner")):
        assert run_cli(argv[0], "--model", "m1", "--task", str(path), *argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: invalid task: ")
        assert "Traceback" not in captured.err


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
    # process 0 alone decides 0 at round 0 and revokes it at round 1
    assert capsys.readouterr().err == "irrevocability violation: ('[0=0](0,0)', 0, 1, 0, 1)\n"


def test_table_protocol_from_file(tmp_path):
    model = builtin_model("m1")
    task = inputless_consensus(2)
    delta = extract_map(winner_protocol(), model, task, 2)
    table = {ball_id(v): o.label for v, o in delta.items()}
    # a label written as a string of digits is read as that integer
    for name, labels in (("int", table), ("str", {ball: str(o) for ball, o in table.items()})):
        spec = {"schema": 1, "kind": "table", "T": 2, "table": labels}
        path = tmp_path / f"proto-{name}.json"
        path.write_text(json.dumps(spec))
        assert run_cli("run", "--model", "m1", "--protocol", str(path),
                       "--task", "consensus", "--depth", "2", "--out", str(tmp_path / f"{name}.txt")) == 0
    assert (tmp_path / "int.txt").read_bytes() == (tmp_path / "str.txt").read_bytes()
    # the table of m1's winner map at T=2, run at depth 2 and 5, pinned below
    assert run_cli("run", "--model", "m1", "--protocol", str(tmp_path / "proto-int.json"),
                   "--task", "consensus", "--depth", "5", "--out", str(tmp_path / "int5.txt")) == 0
    for name in ("proto-int.json", "int.txt", "int5.txt"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN_RUN_SHA256[name], name


# sha256 of outputs as written before the view, word and elimination walks
# each became one loop
GOLDEN_RUN_SHA256 = {
    "proto-int.json": "0da9ffcf1294a7c56cd06ebe721f43d3072abfe1378a808de74e7741f56e8182",
    "int.txt": "e65e8c6e1d77d67b5ca44de818a94b07043dad22294ca36df192be6490cf9005",
    "int5.txt": "512e11b47d6615730969f63c8474a00f57ec924f419abd89d2f0633bc22658b3",
    "m1 winner 4": "edd2c75ba00fc2afea13cae76693680b58809e6bb2468954b73017c0f5e6b8e0",
    "iis2 own-input 3": "6bf125fc525793918330aea0ed7579eb486a642c37d8d81a7fe82d9854bb6180",
    # written before `run` asked the protocol once per distinct view
    "m2 constant:0 3": "0cb990b46d843ac76ccf932800a024a1c660aa6cb1f9493139aecf4adadd96f8",
    "iis2 never 4": "04d1a7dd0f9c628df420b9dd81d1b14da4090098e9601b0c04a0524e5d5a574c",
    "ll winner 3": "7b1ffa4b9353b4f07009aff419148898bd43a5f065cea25969fc1990a776b5eb",
}


@pytest.mark.parametrize("model, protocol, depth, code", [
    ("m1", "winner", "4", 0), ("iis2", "own-input", "3", 1), ("m2", "constant:0", "3", 1),
    ("iis2", "never", "4", 5), ("ll", "winner", "3", 1),
])
def test_run_stdout_matches_golden_hash(model, protocol, depth, code, capsys):
    assert run_cli("run", "--model", model, "--protocol", protocol, "--task", "consensus", "--depth", depth) == code
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_RUN_SHA256[f"{model} {protocol} {depth}"]


# sha256 of `check` verdicts as written before xi of the input facet became
# P_T itself and the search's constraints were precompiled to face sets
# (the seed-20261018 entry: before rainbow facets were counted in byte
# lanes); stdout and the --out file hold the same bytes
GOLDEN_CHECK_SHA256 = {
    "m1 consensus 3 0": (0, "33b84cdc209d20d6fdb6025887ea0f012bebca61113cf3709754abac15f3d507"),
    "iis2 consensus 5 0": (10, "67de51ca859fbbcf79a1c0c052f37b5e5fc6115d7493579e876c555ee4211341"),
    "iis2 consensus 7 0": (10, "728b6a2fa0668c553176d4306e92f3c323ec0d3c70bec40ebf02560f71f1b8dd"),
    "m2 consensus 6 0": (10, "22a53b779d6387df4f9f46442067369bb8ccf6aacbc4e0ba3fb5e0e8237564b1"),
    "iis3 set-agreement:3 2 0": (11, "1a4d5ec84e15b10f42135001bd6c39eeec95503e87fa39fe56c172eafe64b50a"),
    "iis3 set-agreement:3 2 7": (11, "2933b7f511e23c1a28c3bf66c36adde7174ae78866ad7bec1bf9d7aba52f8ae4"),
    "iis3 set-agreement:3 3 0": (11, "2c6eef34301100de08e54979541ceeed905e6b4ae8d477325003091494882132"),
    "iis3 set-agreement:3 3 7": (11, "bd57a4f33db22de8234b7c540fbc67050852d2bfe8d0181fed086d030a8eee06"),
    "iis3 set-agreement:3 2 20261018": (11, "b1c870eb37145396ca26337a5e3170a9306dff7b201d4760669f262771b88454"),
}


@pytest.mark.parametrize("case", list(GOLDEN_CHECK_SHA256))
def test_check_outputs_match_golden_hash(case, tmp_path, capsys):
    model, task, depth, seed = case.split()
    code, digest = GOLDEN_CHECK_SHA256[case]
    argv = ["--seed", seed, "check", "--model", model, "--task", task, "--max-depth", depth]
    assert run_cli(*argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
    out = tmp_path / "verdict.json"
    assert run_cli(*argv, "--out", str(out)) == code
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def components(complex_):
    """The vertex sets of the connected components of a complex, by a
    breadth-first search over its facets."""
    neighbours = {v: set() for v in complex_.vertices()}
    for facet in complex_.facets:
        for v in facet:
            neighbours[v].update(facet)
    found, seen = [], set()
    for start in neighbours:
        if start in seen:
            continue
        seen.add(start)
        component, queue = {start}, deque([start])
        while queue:
            for u in neighbours[queue.popleft()] - seen:
                seen.add(u)
                component.add(u)
                queue.append(u)
        found.append(component)
    return found


def solo_views(PT, task):
    """The view of each process running alone: the one vertex of xi of its input vertex."""
    return [PT.xi(Simplex([v])).vertices() for v in task.inputs.facets[0]]


CERTIFIED_CASES = [case for case, (code, _) in GOLDEN_CHECK_SHA256.items() if code == 10]


@pytest.mark.parametrize("case", CERTIFIED_CASES)
def test_certified_verdicts_join_the_solo_views_of_P_d(case, tmp_path, capsys):
    """An oracle for the interval certificate that reads no cell geometry:
    the certificate's depth d names a P_d whose edges join the two solo
    views, so no decision map sends them to 0 and to 1."""
    model, task, depth, seed = case.split()
    out = tmp_path / "verdict.json"
    assert run_cli("--seed", seed, "check", "--model", model, "--task", task, "--max-depth", depth,
                   "--out", str(out)) == 10
    certificate = json.loads(out.read_text())["certificate"]
    assert certificate["component"] == ["0", "1"]
    assert certificate["component"] in certificate["components"]
    cons = inputless_consensus(2)
    PT = build_time_T(builtin_model(model), cons, certificate["depth"])
    (solo0,), (solo1,) = solo_views(PT, cons)
    assert any(solo0 in c and solo1 in c for c in components(PT.complex))


PARITY_CASES = [case for case in GOLDEN_CHECK_SHA256 if case.startswith("iis3 set-agreement:3 ")]


@pytest.mark.parametrize("case", PARITY_CASES)
def test_parity_evidence_rechecks_from_the_json_alone(case, tmp_path):
    """An oracle for the rainbow-parity evidence that reads only the written
    verdict: per-facet value sets over the same seeded colorings
    (`reference_sperner`) give the same mode, count, parity and minimum."""
    model, task, depth, seed = case.split()
    out = tmp_path / "verdict.json"
    assert run_cli("--seed", seed, "check", "--model", model, "--task", task, "--max-depth", depth,
                   "--out", str(out)) == 11
    evidence = json.loads(out.read_text())["evidence"]
    expected = reference_sperner(3, 2, seed=int(seed))
    assert (evidence["n"], evidence["k"]) == (3, 2)
    assert evidence["mode"] == expected.mode
    assert evidence["colorings"] == expected.colorings
    assert evidence["allOdd"] == expected.all_odd
    assert evidence["minRainbow"] == expected.min_rainbow


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_solo_views_of_m1_lie_in_two_components(depth):
    cons, m1 = inputless_consensus(2), builtin_model("m1")
    assert certify_consensus_impossible(m1, depth) is None
    PT = build_time_T(m1, cons, depth)
    (solo0,), (solo1,) = solo_views(PT, cons)
    found = components(PT.complex)
    assert len(found) == 2
    assert not any(solo0 in c and solo1 in c for c in found)


def test_check_certifies_iis2_consensus_at_depth_forty(tmp_path):
    assert run_cli("check", "--model", "iis2", "--task", "consensus", "--max-depth", "40",
                   "--out", str(tmp_path / "v.json")) == 10


def test_check_decides_set_agreement_at_depth_twelve_without_a_time_complex(monkeypatch, tmp_path):
    """Sperner's lemma decides set agreement on iis3 at any depth: no P_T
    is built, and the verdict is the depth-2 one but for its depth."""
    monkeypatch.setattr("chrotop.checker.build_time_T", lambda *args: pytest.fail("built a time-T complex"))
    verdicts = {}
    for depth in ("2", "12"):
        out = tmp_path / f"d{depth}.json"
        assert run_cli("check", "--model", "iis3", "--task", "set-agreement:3", "--max-depth", depth,
                       "--out", str(out)) == 11
        verdicts[depth] = json.loads(out.read_text())
    assert (verdicts["2"].pop("maxDepth"), verdicts["12"].pop("maxDepth")) == (2, 12)
    assert verdicts["12"] == verdicts["2"]


def solo_files(tmp_path):
    """A one-process model and a one-process task that decides its input."""
    model, task = tmp_path / "solo-model.json", tmp_path / "solo-task.json"
    model.write_text(json.dumps({"n": 1, "kind": "iis", "name": "iis1"}))
    v = {"color": 0, "label": 0}
    task.write_text(json.dumps({"name": "solo", "inputs": [[v]], "outputs": [[v]],
                                "delta": [{"simplex": [v], "image": [[v]]}]}))
    return str(model), str(task)


def test_run_reaches_depths_past_the_recursion_limit(tmp_path, capsys):
    model, task = solo_files(tmp_path)
    assert run_cli("run", "--model", model, "--task", task, "--protocol", "constant:0", "--depth", "1500") == 0
    out = capsys.readouterr().out
    assert out.endswith("p0=0@r0\nresult: PASS\n") and ",".join(["0"] * 1500) in out
    assert run_cli("run", "--model", model, "--task", task, "--protocol", "never", "--depth", "1500") == 5
    assert capsys.readouterr().out.endswith("p0=?\nresult: UNDECIDED\n")


def test_run_a_table_protocol_past_the_recursion_limit(tmp_path, capsys):
    # the table's one ball is the depth-400 view; writing its id and
    # comparing run's views with the table's overflowed the stack
    model, task = solo_files(tmp_path)
    protocol = tmp_path / "solo-table.json"
    ball = "0:" + "{0:" * 400 + "0" + "}" * 400
    protocol.write_text(json.dumps({"T": 400, "table": {ball: 0}}))
    assert run_cli("run", "--model", model, "--task", task, "--protocol", str(protocol), "--depth", "400") == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("p0=0@r0\nresult: PASS\n") and captured.err == ""


def test_task_colors_must_be_processes_of_the_model(tmp_path, capsys):
    """IIS2 written as a custom model, with consensus over colors 0 and 2:
    no schedule over {0, 2} is a round of the model, so the executions of
    both processes would vanish and leave only the solo ones."""
    model = tmp_path / "iis2-custom.json"
    model.write_text(json.dumps({"n": 2, "kind": "custom", "allowedFirstRounds": ["->", "<-", "<->"]}))
    task = tmp_path / "consensus-02.json"
    task.write_text(json.dumps(inputless_consensus(2).to_json_obj()).replace('"color": 1', '"color": 2'))
    assert run_cli("check", "--model", str(model), "--task", "consensus", "--max-depth", "3",
                   "--out", str(tmp_path / "v.json")) == 10
    capsys.readouterr()
    for argv in (("check", "--max-depth", "3"), ("run", "--protocol", "own-input")):
        assert run_cli(argv[0], "--model", str(model), "--task", str(task), *argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: colors [2] are not processes 0..1")


def test_run_rejects_malformed_protocol_files(tmp_path, capsys):
    table = {"0:0": 0}
    texts = ["[1, 2]", json.dumps({"T": None, "table": table}), json.dumps({"T": True, "table": table}),
             json.dumps({"T": 2.0, "table": table}), json.dumps({"T": 2}),
             json.dumps({"T": 2, "table": [1]}), json.dumps({"T": 2, "table": {"0:0": [1]}}),
             json.dumps({"T": 2, "table": {"0:0": True}})]
    for i, text in enumerate(texts):
        path = tmp_path / f"proto-{i}.json"
        path.write_text(text)
        assert run_cli("run", "--model", "m1", "--protocol", str(path),
                       "--task", "consensus", "--depth", "2") == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("check", "--model", "DEEP", "--task", "consensus"),
    ("check", "--model", "m1", "--task", "DEEP"),
    ("run", "--model", "m1", "--task", "consensus", "--protocol", "DEEP"),
], ids=["model", "task", "protocol"])
def test_deeply_nested_json_files_exit_two(argv, tmp_path, capsys):
    """A file nested past the recursion limit is refused, not a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert run_cli(*(str(deep) if a == "DEEP" else a for a in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {deep} is nested too deeply\n"


def test_setagreement_is_not_a_task_name(capsys):
    assert run_cli("check", "--model", "iis3", "--task", "setagreement:3", "--max-depth", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: unknown task 'setagreement:3'\n"


def test_model_and_task_from_json_files(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(builtin_model("m2").to_json_obj()))
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


def test_run_rejects_an_arity_mismatch_like_check(capsys):
    # `run` simulated the two-process task on iis3 with process 2 left
    # out, printed FAIL and exited 1
    assert run_cli("check", "--model", "iis3", "--task", "consensus", "--max-depth", "1") == 2
    refused = capsys.readouterr()
    assert refused.err == "error: task has 2 processes but model iis3 has 3\n" and refused.out == ""
    for depth in ("1", "2"):
        argv = ("run", "--model", "iis3", "--task", "consensus", "--protocol", "own-input", "--depth", depth)
        assert run_cli(*argv) == 2
        assert capsys.readouterr() == refused


def test_check_bounds_the_task_process_count_before_building_it(monkeypatch, capsys):
    monkeypatch.setattr(cli, "inputless_consensus", lambda n: pytest.fail(f"built consensus:{n}"))
    monkeypatch.setattr(cli, "set_agreement", lambda n: pytest.fail(f"built set agreement:{n}"))
    for ref in ("consensus:x", "consensus:16", "consensus:20", "consensus:1", "set-agreement:6",
                "set-agreement:-3", "consensus:\u0663", "consensus:2.0"):
        assert run_cli("check", "--model", "iis2", "--task", ref, "--max-depth", "1") == 2
        assert capsys.readouterr().err.startswith(f"error: task {ref!r} needs a process count")


def approximate_agreement() -> Task:
    """Approximate agreement on {0, h, 1}, named "consensus": no map at
    time 0 in iis2, yet solvable at time 1."""
    near = [(0, 0), (0, "h"), ("h", 0), ("h", "h"), ("h", 1), (1, "h"), (1, 1)]
    outputs = Complex([Simplex([Vertex(0, a), Vertex(1, b)]) for a, b in near])
    base = inputless_consensus(2).inputs
    images = {s: outputs for s in base.simplexes() if len(s) == 2}
    images.update({s: Complex([s]) for s in base.simplexes() if len(s) == 1})
    return Task("consensus", base, outputs, CarrierMap(images))


def test_check_dispatches_on_task_structure_not_name(tmp_path):
    # no interval certificate applies to approximate agreement
    task = approximate_agreement()
    path = tmp_path / "approx.json"
    path.write_text(json.dumps(task.to_json_obj()))
    out0, out1 = tmp_path / "d0.json", tmp_path / "d1.json"
    assert run_cli("check", "--model", "iis2", "--task", str(path),
                   "--max-depth", "0", "--out", str(out0)) == 11
    assert run_cli("check", "--model", "iis2", "--task", str(path),
                   "--max-depth", "1", "--out", str(out1)) == 0
    assert json.loads(out1.read_text())["T"] == 1


def test_a_model_kind_is_only_a_label(tmp_path, capsys):
    # allowedFirstRounds restricts the model whatever its kind says
    outputs = {}
    for kind in ("iis", "firstRoundRestricted", "custom"):
        model = tmp_path / f"{kind}.json"
        model.write_text(json.dumps({"n": 2, "kind": kind, "name": "first", "allowedFirstRounds": ["->", "<-"]}))
        assert run_cli("check", "--model", str(model), "--task", "consensus", "--max-depth", "3") == 0
        outputs[kind] = capsys.readouterr().out
    assert outputs["iis"] == outputs["firstRoundRestricted"] == outputs["custom"]
    assert json.loads(outputs["iis"])["T"] == 1


def decision_map_holds(verdict: dict, model, task: Task) -> bool:
    """Re-verify a solvable verdict from its JSON alone: rebuild P_T at its
    `T`, read each ball id of `decisionMap` as the output vertex it names,
    and check that the map is simplicial, chromatic and carried by delta.
    A map that misses or invents a ball id is refused."""
    PT = build_time_T(model, task, verdict["T"])
    entries = verdict["decisionMap"]
    vertices = PT.complex.vertices()
    names = vertex_strings(vertices)
    if sorted(names) != sorted(entries):
        return False
    h = SimplicialMap({v: Vertex(entries[name]["color"], parse_label(entries[name]["label"]))
                       for v, name in zip(vertices, names)})
    return (check_simplicial_chromatic(h, PT.complex, task.outputs).ok
            and carried_by(h, PT.xi, task.delta, task.inputs).carried)


def test_solvable_verdicts_reverify_from_their_json(tmp_path, capsys):
    cases = [("m1", builtin_model("m1"), "consensus", inputless_consensus(2), d) for d in (1, 2, 3)]
    for kind in ("iis", "custom"):
        obj = {"n": 2, "kind": kind, "name": "first", "allowedFirstRounds": ["->", "<-"]}
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(obj))
        cases += [(str(path), load_model_json_obj(obj), "consensus", inputless_consensus(2), d) for d in (1, 2, 3)]
    approx = tmp_path / "approx.json"
    approx.write_text(json.dumps(approximate_agreement().to_json_obj()))
    cases.append(("iis2", builtin_model("iis2"), str(approx), approximate_agreement(), 1))
    for model_ref, model, task_ref, task, depth in cases:
        assert run_cli("check", "--model", model_ref, "--task", task_ref, "--max-depth", str(depth)) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert decision_map_holds(verdict, model, task)
        entries = verdict["decisionMap"]
        for name, output in entries.items():
            dropped = {**verdict, "decisionMap": {k: o for k, o in entries.items() if k != name}}
            assert not decision_map_holds(dropped, model, task), name
            if output["label"] in ("0", "1"):
                flipped_label = {"0": "1", "1": "0"}[output["label"]]
                flipped = {**verdict, "decisionMap": {**entries, name: {**output, "label": flipped_label}}}
                assert not decision_map_holds(flipped, model, task), name


ARROWS = ["->", "<-", "<->"]
FORCED = [
    {"endpoint": "0", "color": 0, "value": "0", "reason": "solo execution of process 0"},
    {"endpoint": "1", "color": 1, "value": "1", "reason": "solo execution of process 1"},
]
# the JSON of each built-in two-process model, under its own name and kind
BUILTIN_JSON = {
    "iis2": {"n": 2, "kind": "iis", "name": "iis2"},
    "ll": {"n": 2, "kind": "iis", "name": "ll"},
    "m2": {"n": 2, "kind": "custom", "name": "m2", "excluded": [{"stem": ["<->"], "cycle": ["<-"]}]},
}


def random_two_process_model(rng, index) -> dict:
    """The JSON of a two-process model excluding 0 to 3 random words, with
    a random `allowedFirstRounds` on every other index.  Two cycles in
    three are a solo round, whose limits, past a stem, cut nothing alone."""
    def cycle():
        return rng.choice([["->"], ["<-"], [rng.choice(ARROWS) for _ in range(rng.randint(1, 2))]])

    obj = {"n": 2, "kind": "custom", "name": f"random-{index}", "excluded": [
        {"stem": [rng.choice(ARROWS) for _ in range(rng.randint(0, 3))], "cycle": cycle()}
        for _ in range(rng.randint(0, 3))
    ]}
    if index % 2:
        obj["allowedFirstRounds"] = rng.sample(ARROWS, rng.randint(1, 3))
    return obj


def must_certify(obj: dict, depth: int) -> bool:
    """Whether the interval certificate must fire on a two-process JSON
    model, from oracles alone: every word of up to `depth` rounds (at least
    one) starts with an allowed first round, no excluded limit sits at an
    end of the edge, and none disconnects it."""
    excluded = load_model_json_obj(obj).excluded
    first = obj.get("allowedFirstRounds", ARROWS)
    return (all(w[0] in first for k in range(1, max(1, depth) + 1) for w in product(ARROWS, repeat=k))
            and not any(reference_limit_position(e) in (0, 1) for e in excluded)
            and not reference_disconnecting(excluded))


def certificate_holds(certificate: dict, obj: dict, depth: int) -> bool:
    """Whether a written certificate is the one the model's JSON calls
    for: the whole edge as its one component, every excluded word inside
    it in the model's order, and the two solo ends forced."""
    def text(e):
        stem, cycle = ",".join(e["stem"]), ",".join(e["cycle"])
        return f"({stem})({cycle})^w" if stem else f"({cycle})^w"

    return (certificate.get("kind") == "connected-interval"
            and certificate.get("depth") == max(1, depth)
            and certificate.get("component") == ["0", "1"]
            and certificate.get("components") == [["0", "1"]]
            and certificate.get("excludedLimitPointsInside") == [text(e) for e in obj.get("excluded", [])]
            and certificate.get("forcedConstraints") == FORCED)


def test_certified_verdicts_reverify_from_their_json(tmp_path, capsys):
    """`check --task consensus` exits 10 exactly when the oracles say the
    certificate must fire, and the certificate it writes is the one they
    call for; a certificate missing an excluded word, or with another
    component, is refused."""
    rng = random.Random(20261020)
    cases = list(BUILTIN_JSON.items())
    for i in range(24):
        obj = random_two_process_model(rng, i)
        path = tmp_path / f"random-{i}.json"
        path.write_text(json.dumps(obj))
        cases.append((str(path), obj))
    for name, obj in BUILTIN_JSON.items():
        assert load_model_json_obj(obj) == builtin_model(name)
    seen = Counter()
    for model_ref, obj in cases:
        for depth in (1, 5):
            code = run_cli("check", "--model", model_ref, "--task", "consensus", "--max-depth", str(depth))
            verdict = json.loads(capsys.readouterr().out)
            fires = must_certify(obj, depth)
            assert (code == 10) == fires, (model_ref, depth, code)
            seen[fires, bool(obj.get("excluded"))] += 1
            if not fires:
                assert "certificate" not in verdict
                continue
            certificate = verdict["certificate"]
            assert certificate_holds(certificate, obj, depth), model_ref
            inside = certificate["excludedLimitPointsInside"]
            for i in range(len(inside)):
                dropped = {**certificate, "excludedLimitPointsInside": inside[:i] + inside[i + 1:]}
                assert not certificate_holds(dropped, obj, depth), (model_ref, inside[i])
            for component in (["0", "1/2"], ["1/3", "1"], ["1", "0"]):
                assert not certificate_holds({**certificate, "component": component}, obj, depth)
    # the sweep meets fired and withheld certificates, with and without excluded words
    assert all(seen[fires, excluding] for fires in (False, True) for excluding in (False, True)), seen


def test_builtin_shapes_under_another_name_keep_their_verdicts(tmp_path, capsys):
    # renamed tasks reach the certificate (iis2, m2), the search (m1, FIRST3),
    # the one-edge rule (iis3 consensus:3) and Sperner-first (iis3 set agreement)
    first3 = tmp_path / "first3.json"
    first3.write_text(json.dumps({"n": 3, "kind": "custom", "allowedFirstRounds": ["0|1|2", "0,1|2", "2|0,1"]}))
    cases = [
        ("consensus", inputless_consensus(2), ["iis2", "m2", "m1"], "3"),
        ("consensus:3", inputless_consensus(3), ["iis3", str(first3)], "3"),
        ("set-agreement:3", set_agreement(3), ["iis3", str(first3)], "2"),
        ("set-agreement:2", set_agreement(2), ["m1"], "2"),
    ]
    kinds = set()
    for builtin, task_obj, models, depth in cases:
        renamed = tmp_path / f"{builtin.replace(':', '-')}.json"
        obj = task_obj.to_json_obj()
        renamed.write_text(json.dumps({**obj, "name": "renamed"}))
        for model in models:
            runs = []
            for task, name in ((builtin, obj["name"]), (str(renamed), "renamed")):
                code = run_cli("--seed", "7", "check", "--model", model, "--task", task, "--max-depth", depth)
                verdict = json.loads(capsys.readouterr().out)
                assert verdict.pop("task") == name
                runs.append((code, verdict))
            assert runs[1] == runs[0], (builtin, model)
            code, verdict = runs[0]
            kinds.add((verdict["kind"], "certificate" in verdict, "evidence" in verdict, code))
    assert kinds == {
        ("unsolvable_certified", True, False, 10),
        ("solvable_bounded", False, False, 0),
        ("unsolvable_at_all_depths", False, False, 11),
        ("unsolvable_at_all_depths", False, True, 11),
    }


def test_outputs_do_not_follow_the_string_hash_seed(tmp_path):
    """Each command in a fresh interpreter under two string hash seeds: a
    set of views, colors or labels iterated into an output would show as
    a difference here, and in no single-process test."""
    task = tmp_path / "approx.json"
    task.write_text(json.dumps(approximate_agreement().to_json_obj()))
    commands = {
        "check": ["check", "--model", "iis2", "--task", str(task), "--max-depth", "1"],
        "run": ["run", "--model", "iis2", "--protocol", "winner", "--task", "consensus", "--depth", "5",
                "--out", "run.txt"],
        "subdivide": ["subdivide", "--simplex", "2", "--k", "2", "--out", "chr"],
    }
    src = str(Path(chrotop.subdivision.__file__).parents[1])
    seen = {}
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for name, argv in commands.items():
            cwd = tmp_path / f"{name}-{seed}"
            cwd.mkdir()
            done = subprocess.run([sys.executable, "-m", "chrotop", *argv], cwd=cwd, env=env,
                                  capture_output=True, timeout=120)
            files = {str(f.relative_to(cwd)): f.read_bytes() for f in sorted(cwd.rglob("*")) if f.is_file()}
            seen.setdefault(name, []).append((done.returncode, done.stdout, done.stderr, files))
    for name, (first, second) in seen.items():
        assert first == second, name
    assert [runs[0][0] for runs in seen.values()] == [0, 1, 0]
    assert b'"T": 1' in seen["check"][0][1]
    assert b"result: FAIL" in seen["run"][0][3]["run.txt"]
    assert sorted(seen["subdivide"][0][3]) == [f"chr/chr2_simplex2.{ext}" for ext in ("dot", "json", "svg")]
