"""chrotop benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  Workloads (see instances.py):

  ladder-2p     `check` on two-process consensus, depths 3 to 7
  ladder-3p     `check` on three-process set agreement, depths 2 and 3
  subdivide     `subdivide` of the triangle (k=3) and the edge (k=7)
  tsub-certify  library: termination certificates and protocol simulation

Closed loop, one instance at a time, no threads: a pass runs every
instance of the workload once, in an order shuffled by the seed, each in
a fresh interpreter (see passrun.py), so no warm module state such as
the coordinate memo makes an instance cheaper than a user's call.
Passes repeat until `--seconds` have elapsed (at least one).  The seed is
also the CLI's `--seed`, which picks the sampled Sperner colorings.

With `--trace 0` the end-to-end metrics are printed (names and units in
BENCHMARK.json): median set-up time of the interpreters started, median
pass time (a failed instance is charged its budget), median over passes
of the largest peak RSS of a pass's interpreters, and the share of
instances that passed.  With `--trace 1` the run makes one untraced pass
and one traced pass, plus a second traced pass when the run can still
end within REPEAT_WITHIN_S, whose counts must equal the first's; every
traced instance checks its counts against closed forms.  It prints the
per-layer metrics.  Every run checks each instance's answer and writes a
record, with the spans of a traced run, to
`.perfbench/<workload>-seed<N>-trace<T>.json`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

Host note: on the 2-vCPU virtual machine where the benchmark was written,
CPU speed alternates between two levels about a factor of two apart,
switching every few seconds, and drifts by a quarter over tens of
minutes; single passes of `solve(iis2, consensus, 6)` took 2.4 to 4.8 s
with CPU time equal to wall time.  Passes tens of seconds long are what
keep the timings comparable.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import instances
from spans import END, INSTANCE, NAME, PARENT, START, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUN_LIMIT_S = 165.0  # a run must end well within 180 s
SETUP_SAMPLES = 5  # interpreters started per run, at least, for the set-up median
REPEAT_WITHIN_S = 45.0  # a traced run repeats its traced pass only if done by then
SLACK_S = 30.0  # allowance on top of an instance's budget before its interpreter is killed


# -- one interpreter ----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(workload: str, seed: int, iid: str | None, workdir: Path, *, trace: bool,
           timeout: float) -> dict:
    """Run passrun.py once, for one instance or (iid None) set-up only, and
    collect what it reported.  An instance it did not report (interpreter
    killed or crashed) is failed and charged its budget."""
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed),
           "--dir", str(workdir)]
    cmd += [] if iid is None else ["--instance", iid]
    cmd += ["--trace"] if trace else []
    workdir.mkdir(parents=True)
    with open(workdir / "stderr.txt", "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(),
                                cwd=ROOT, text=True)
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
            cause = f"InterpreterCrashed: exit {proc.returncode}"
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            cause = "InterpreterKilled: over budget and slack"
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    ready = next((r["ready"] for r in lines if "ready" in r), None)
    launched = {"setup_s": None if ready is None else ready - spawned,
                "elapsed_s": time.monotonic() - spawned}
    if iid is None:
        return launched
    final = next((r for r in lines if r.get("done")), {})
    result = next((r["instance"] for r in lines if "instance" in r), None)
    if result is None:
        budget = next(i.budget_s for i in instances.WORKLOADS[workload] if i.id == iid)
        result = {"id": iid, "seconds": None, "budget_s": budget, "error": cause,
                  "problems": [], "out_bytes": 0}
    result["failed"] = bool(result["error"] or result["problems"])
    result["charged"] = result["budget_s"] if result["failed"] else result["seconds"]
    launched.update(result=result, rss_mb=final.get("rss_mb"), spans=final.get("spans", []),
                    counts=final.get("counts", {}), checks=final.get("checks", []),
                    retime=final.get("retime"))
    return launched


# -- metrics ----------------------------------------------------------------------------


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    attempts = [r for p in passes for r in p["instances"]]
    rss = [p["rss_mb"] for p in passes if p["rss_mb"] is not None]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "pass_ratio": sum(not r["failed"] for r in attempts) / len(attempts),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    values: dict[str, float] = Counter()
    retimes = []
    for lc in traced["launches"]:
        for name, (seconds, calls) in self_times(lc["spans"]).items():
            values[f"{name}.self_s"] += seconds
            values[f"{name}.calls"] += calls
        values.update(lc["counts"])
        values["cli.out_bytes"] += lc["result"]["out_bytes"]
        spans = lc["spans"]
        for i, span in enumerate(spans):
            if span[NAME] == "instance" and span[END] is not None:
                covered = sum(s[END] - s[START] for s in spans if s[PARENT] == i and s[END] is not None)
                values[f"instance.{span[INSTANCE]}.coverage"] = covered / (span[END] - span[START])
        if lc["retime"]:
            retimes.append(lc["retime"])
    if retimes:
        values["simplicial.Complex.self_s"] = max(retimes, key=lambda r: r["facets"])["seconds"]
    for r in untraced["instances"]:
        if r["seconds"] is not None:
            values[f"instance.{r['id']}.s"] = r["seconds"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return values


# -- the run ------------------------------------------------------------------------------


def host() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "loadavg": list(os.getloadavg())}


def main() -> int:
    parser = argparse.ArgumentParser(description="chrotop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "chrotop" / "cli.py").is_file():
        print(f"error: no chrotop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = declared["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    started_host = host()
    print(f"chrotop benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    workload = instances.WORKLOADS[args.workload]
    rundir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    numbering = itertools.count()

    def one(iid: str | None, trace: bool = False) -> dict:
        budget = next((i.budget_s for i in workload if i.id == iid), 0.0)
        timeout = min(budget + SLACK_S, deadline - time.monotonic())
        return launch(args.workload, args.seed, iid, rundir / str(next(numbering)),
                      trace=trace, timeout=timeout)

    def run_pass(order: list[str], trace: bool = False) -> dict:
        launches = [one(iid, trace) for iid in order]
        rss = [lc["rss_mb"] for lc in launches if lc["rss_mb"] is not None]
        return {"order": order, "trace": trace, "launches": launches,
                "instances": [lc["result"] for lc in launches],
                "elapsed_s": sum(lc["elapsed_s"] for lc in launches),
                "wall_s": sum(lc["result"]["charged"] for lc in launches),
                "rss_mb": max(rss) if rss else None}

    passes: list[dict] = []
    setups: list[float] = []
    ids = [inst.id for inst in workload]
    try:
        if args.trace:
            order = random.Random(args.seed).sample(ids, len(ids))
            passes.append(run_pass(order))  # the untraced reference for trace.overhead_s
            passes.append(run_pass(order, trace=True))
            if time.monotonic() - start + passes[-1]["elapsed_s"] <= REPEAT_WITHIN_S:
                passes.append(run_pass(order, trace=True))  # its counts must equal the first's
        else:
            while True:
                order = random.Random(f"{args.seed}:{len(passes)}").sample(ids, len(ids))
                passes.append(run_pass(order))
                now = time.monotonic()
                if now - start >= args.seconds or now + passes[-1]["elapsed_s"] > deadline:
                    break
        setups = [lc["setup_s"] for p in passes for lc in p["launches"] if lc["setup_s"] is not None]
        while len(setups) < SETUP_SAMPLES and time.monotonic() + 5.0 < deadline:
            sample = one(None)["setup_s"]
            if sample is None:
                break
            setups.append(sample)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if not setups:
        print("error: no interpreter finished set-up; is chrotop importable from src/?",
              file=sys.stderr)
        return 1

    correct = True
    for i, p in enumerate(passes):
        kind = "traced" if p["trace"] else "untraced"
        print(f"pass {i + 1} ({kind}): wall {p['wall_s']:.3f} s charged, peak rss {p['rss_mb']} MB, "
              f"order {','.join(p['order'])}")
        for lc in p["launches"]:
            r = lc["result"]
            if r["problems"]:
                correct = False
                print(f"  WRONG {r['id']}: {'; '.join(r['problems'])}")
            elif r["error"]:
                took = "" if r["seconds"] is None else f" after {r['seconds']:.3f} s"
                print(f"  FAIL {r['id']}{took}: {r['error']} (charged {r['budget_s']:g} s)")
            for c in lc["checks"]:
                if not c["ok"]:
                    correct = False
                    print(f"  COUNT MISMATCH {r['id']} {c['what']}: got {c['got']}, "
                          f"closed form {c['want']}")

    if args.trace:
        traced = [p for p in passes if p["trace"]]
        counts = [sum((Counter(lc["counts"]) for lc in p["launches"]), Counter()) for p in traced]
        if len(counts) == 2 and counts[0] != counts[1]:
            correct = False
            print(f"  COUNTS DIFFER between traced passes: {dict(counts[0])} vs {dict(counts[1])}")
        repeat = ("done" if len(counts) == 2
                  else f"skipped, a second traced pass would end after {REPEAT_WITHIN_S:g} s")
        print(f"count repeat check: {repeat}")
        values = per_layer(passes[0], traced[0])
    else:
        values = end_to_end(passes, setups)
    attempts = [r for p in passes for r in p["instances"]]
    failed = sum(r["failed"] for r in attempts)
    ended_host = host()
    print(f"host: nproc {started_host['nproc']}, python {started_host['python']}, loadavg "
          f"{' '.join(f'{x:.2f}' for x in started_host['loadavg'])} at start, "
          f"{' '.join(f'{x:.2f}' for x in ended_host['loadavg'])} at end")
    print(f"fail_ratio {failed / len(attempts):.4f} ({failed} of {len(attempts)} instances failed)")
    metrics = {}
    for m in section:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<58} {value:.6g} {m['unit']}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host_start": started_host, "host_end": ended_host,
              "setups_s": setups, "passes": passes, "values": values}
    out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": len(attempts), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
