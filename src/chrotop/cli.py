"""Command-line front end.

Exit codes:
  check:      0 solvable (bounded), 10 certified unsolvable,
              11 no map at any searched depth, 12 unknown
  run:        0 pass, 1 fail, 5 undecided at depth, 3 irrevocability violation
  subdivide:  0
  any:        0 for --help, 2 argument or input parse failure
"""

from __future__ import annotations

import getopt
import json
import sys
from pathlib import Path
from types import SimpleNamespace

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


# command: (function, description, {option: (type, default or ... if required, value shown in the usage)})
COMMANDS = {
    "subdivide": (cmd_subdivide, "iterated chromatic subdivision of the standard simplex of dimension 1 to 3", {
        "simplex": (int, ..., "1|2|3 (SVG for 1 and 2 only)"), "k": (int, ..., "ROUNDS"),
        "out": (str, None, "DIR"), "format": (str, None, "json,svg,dot (any of them; all if empty)")}),
    "check": (cmd_check, "decide bounded solvability of a task in a model", {
        "model": (str, ..., "iis2|iis3|ll|m1|m2|PATH"), "task": (str, ..., "consensus[:n]|set-agreement[:n]|PATH"),
        "max-depth": (int, 3, "T"), "out": (str, None, "PATH (instead of stdout)")}),
    "run": (cmd_run, "simulate a protocol and check task conformance", {
        "model": (str, ..., "as for check"), "task": (str, ..., "as for check"), "depth": (int, 2, "ROUNDS"),
        "protocol": (str, ..., "winner|own-input|never|constant:<v>|PATH"), "out": (str, None, "PATH (instead of stdout)")}),
}


def _print_usage(names) -> None:
    print("usage: chrotop [--seed N (default 0)] {subdivide,check,run} [options]")
    for name in names:
        print(f"\nchrotop {name}: {COMMANDS[name][1]}")
        for opt, (_, default, value) in COMMANDS[name][2].items():
            print(f"  --{opt} {value}" + {...: " (required)", None: ""}.get(default, f" (default {default})"))


def _read_options(argv: list[str], options: dict, args: SimpleNamespace) -> list[str] | None:
    """Set `options` on `args` from the front of `argv`; the rest of `argv`, or None for --help."""
    pairs, rest = getopt.getopt(argv, "h", ["help"] + [f"{opt}=" for opt in options])
    given = {opt.lstrip("-"): text for opt, text in pairs}
    if given.keys() & {"h", "help"}:
        return None
    for opt, (kind, default, _) in options.items():
        if given.get(opt, default) is ...:
            raise getopt.GetoptError(f"option --{opt} is required")
        try:
            setattr(args, opt.replace("-", "_"), kind(given[opt]) if opt in given else default)
        except ValueError:
            raise getopt.GetoptError(f"option --{opt}: invalid {kind.__name__} value: {given[opt]!r}") from None
    return rest


def main(argv=None) -> int:
    args, names = SimpleNamespace(func=None), list(COMMANDS)
    try:
        rest = _read_options(sys.argv[1:] if argv is None else argv, {"seed": (int, 0, "N")}, args)
        if rest and rest[0] in COMMANDS:
            names, (args.func, _, options) = rest[:1], COMMANDS[rest[0]]
            rest = _read_options(rest[1:], options, args)
        if rest is None:
            _print_usage(names)
            return 0
        if rest or args.func is None:
            wanted = f"a command ({', '.join(COMMANDS)})" if args.func is None else "no further argument"
            raise getopt.GetoptError(f"expected {wanted}, got {repr(rest[0]) if rest else 'none'}")
        return args.func(args)
    except getopt.GetoptError as exc:
        print(f"chrotop: error: {exc}", file=sys.stderr)
        return 2
    except (ChrotopError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
