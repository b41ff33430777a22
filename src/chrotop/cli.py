"""Command-line front end.

Exit codes:
  check:      0 solvable (bounded), 10 certified unsolvable,
              11 no map at any searched depth, 12 unknown
  run:        0 pass, 1 fail, 5 undecided at depth, 3 irrevocability violation
  subdivide:  0
  any:        2 argument or input parse failure
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checker import solve
from .errors import ChrotopError, IrrevocabilityViolation, Unsupported
from .models import MAX_PROCESSES, builtin_model, load_model_json_obj
from .protocol import builtin_protocol, check_solves, load_table_protocol_json_obj
from .render import render_dot, render_json, render_svg
from .simplicial import Complex, Simplex, Vertex, label_string, label_strings, parse_label
from .subdivision import chr_iterate, diameter_Dk, integer_weights
from .tasks import Task, inputless_consensus, load_task_json_obj, set_agreement, validate_task

FORMATS = ("json", "svg", "dot")


def _resolve(ref: str, from_json, builtin):
    """`from_json` of the JSON file `ref` names, or `builtin(ref)`.  A file
    nested past the recursion limit is `Unsupported`."""
    if ref.endswith(".json") or "/" in ref:
        try:
            return from_json(json.loads(Path(ref).read_text(encoding="utf-8")))
        except RecursionError:
            raise Unsupported(f"{ref} is nested too deeply") from None
    return builtin(ref)


def _builtin_task(ref: str) -> Task:
    name, _, arg = ref.partition(":")
    n = parse_label(arg) if arg else 2
    # bounded before the task is built: its input faces number 2^n
    if type(n) is not int or not 2 <= n <= MAX_PROCESSES:
        raise Unsupported(f"task {ref!r} needs a process count from 2 to {MAX_PROCESSES}")
    if name == "consensus":
        return inputless_consensus(n)
    if name == "set-agreement":
        return set_agreement(n)
    raise ChrotopError(f"unknown task {ref!r}")


def _task(ref: str) -> Task:
    """The task `ref` names, validated once here, where tasks come in:
    the search relies on delta being a carrier map into the outputs."""
    task = _resolve(ref, load_task_json_obj, _builtin_task)
    report = validate_task(task)
    if not report.valid:
        raise Unsupported(f"invalid task: {'; '.join(report.problems)}")
    return task


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write(path: Path, writer, *args) -> None:
    """Stream `writer(*args, out)` into the file at `path`."""
    with path.open("w", encoding="utf-8") as out:
        writer(*args, out)


def cmd_subdivide(args) -> int:
    if args.simplex < 1 or args.simplex > 3:
        print("error: --simplex must be between 1 and 3", file=sys.stderr)
        return 2
    formats = args.format.split(",") if args.format else FORMATS
    if not set(formats) <= set(FORMATS):
        print(f"error: --format lists json, svg or dot, not {args.format!r}", file=sys.stderr)
        return 2
    n = args.simplex + 1
    base = Complex([Simplex(Vertex(i, i) for i in range(n))])
    K = chr_iterate(base, args.k)
    d_k = diameter_Dk(base, args.k)
    vertices = K.vertices()
    print(f"facets: {len(K.facets)}")
    print(f"vertices: {len(vertices)}")
    print(f"D_{args.k}: {d_k}")
    outdir = Path(args.out) if args.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"chr{args.k}_simplex{args.simplex}"
    if "svg" in formats and args.simplex <= 2:
        _write(outdir / f"{stem}.svg", render_svg, K, base, integer_weights(vertices, base))
    # the JSON and DOT read one list of label texts, made after the weights are freed
    texts = label_strings(v.label for v in vertices) if {"json", "dot"} & set(formats) else []
    written = []
    if "json" in formats:
        header = {"schema": 1, "seed": args.seed, "k": args.k, "Dk": str(d_k)}
        _write(outdir / f"{stem}.json", render_json, K, header, texts)
        written.append("JSON")
    if "dot" in formats:
        _write(outdir / f"{stem}.dot", render_dot, K, texts)
        written.append("DOT")
    if "svg" in formats and args.simplex > 2:
        wrote = f"wrote {'/'.join(written)} instead" if written else "wrote no file"
        print(f"notice: SVG supports dimensions 1 and 2 only; {wrote}")
    return 0


def cmd_check(args) -> int:
    model = _resolve(args.model, load_model_json_obj, builtin_model)
    task = _task(args.task)
    verdict = solve(model, task, args.max_depth, seed=args.seed)
    obj = verdict.to_json_obj()
    obj["model"] = model.name
    obj["task"] = task.name
    obj["seed"] = args.seed
    _emit(_dump(obj), args.out)
    return verdict.exit_code()


def cmd_run(args) -> int:
    model = _resolve(args.model, load_model_json_obj, builtin_model)
    task = _task(args.task)
    protocol = _resolve(args.protocol, lambda obj: load_table_protocol_json_obj(obj, model, task),
                        builtin_protocol)
    try:
        report = check_solves(protocol, task, model, args.depth)
    except IrrevocabilityViolation as exc:
        print(f"irrevocability violation: {exc.witness}", file=sys.stderr)
        return 3
    lines = [
        f"protocol: {protocol.name}  model: {model.name}  task: {task.name}"
        f"  depth: {args.depth}  seed: {args.seed}"
    ]
    for outcome in report.run_result.outcomes:
        decided = " ".join(
            f"p{color}={label_string(rec.value)}@r{rec.round}" if rec else f"p{color}=?"
            for color, rec in sorted(outcome.decisions.items())
        )
        lines.append(f"  {outcome.execution.describe()}  {decided}")
    lines.append(f"result: {report.status}")
    for execution, simplex in report.failures:
        lines.append(f"  violation at {execution.describe()}")
    _emit("\n".join(lines) + "\n", args.out)
    if report.status == "PASS":
        return 0
    if report.status == "FAIL":
        return 1
    return 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chrotop",
        description="Chromatic subdivisions and round-based task solvability checks",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in outputs and used by sampled checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_subdivide = sub.add_parser("subdivide", help="iterated chromatic subdivision of a standard simplex")
    p_subdivide.add_argument("--simplex", type=int, required=True, help="dimension of the base simplex (1 to 3; SVG for 1 and 2 only)")
    p_subdivide.add_argument("--k", type=int, required=True, help="number of subdivision rounds")
    p_subdivide.add_argument("--out", help="output directory")
    p_subdivide.add_argument("--format", help="comma list of json,svg,dot (default all)")
    p_subdivide.set_defaults(func=cmd_subdivide)

    p_check = sub.add_parser("check", help="decide bounded solvability of a task in a model")
    p_check.add_argument("--model", required=True, help="builtin name (iis2, iis3, ll, m1, m2) or JSON path")
    p_check.add_argument("--task", required=True, help="builtin (consensus[:n], set-agreement[:n]) or JSON path")
    p_check.add_argument("--max-depth", type=int, default=3)
    p_check.add_argument("--out", help="write the verdict JSON here instead of stdout")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="simulate a protocol and check task conformance")
    p_run.add_argument("--model", required=True)
    p_run.add_argument("--task", required=True)
    p_run.add_argument("--protocol", required=True, help="winner | own-input | never | constant:<v> | table JSON path")
    p_run.add_argument("--depth", type=int, default=2)
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ChrotopError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
