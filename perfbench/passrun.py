"""One benchmark instance in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --dir DIR [--instance ID] [--trace]

Set-up imports chrotop and builds the workload's inputs; the moment it
ends is reported as `ready` on the monotonic clock, which the parent
shares, so the parent times set-up from its own spawn.  Without
`--instance` the process stops there.  Otherwise the instance runs,
stopped by a timer once it exceeds its budget, and its answer is
checked.  The interpreter's recursion limit, garbage collector and hash
seed are left at their defaults, and no state survives from an earlier
instance, so each instance costs what a user's call costs.

Standard output carries JSON lines: `ready`, then the instance result,
then a final line with peak RSS and, when traced, the spans and counts.
The program's own standard output is captured and counted.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import instances


class BudgetExceeded(BaseException):
    """Raised by the budget timer.  Derives from BaseException so that no
    handler in the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def _emit(obj: dict) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_instance(inst, inputs, outdir: Path, recorder) -> dict:
    outdir.mkdir(parents=True)
    buf = io.StringIO()
    error = None
    summary = None
    span = None
    if recorder is not None:
        recorder.instance = inst.id
        span = recorder.open("instance")
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, inst.budget_s)
            with redirect_stdout(buf):
                summary = inst.run(inputs, outdir)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        error = "BudgetExceeded"
    except Exception as exc:  # the instance fails; the error class is its record
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    seconds = time.perf_counter() - start
    if span is not None:
        recorder.close(span)
    problems: list[str] = []
    if error is None:
        summary["stdout"] = buf.getvalue()
        problems = inst.check(summary, inputs, outdir)
    out_bytes = _tree_bytes(outdir) + len(buf.getvalue().encode("utf-8"))
    shutil.rmtree(outdir)
    return {"id": inst.id, "seconds": seconds, "budget_s": inst.budget_s, "error": error,
            "problems": problems, "out_bytes": out_bytes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--instance")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    by_id = {inst.id: inst for inst in instances.WORKLOADS[args.workload]}
    import chrotop.cli  # noqa: F401  (set-up: the CLI entry point and every layer it loads)

    inputs = {iid: inst.prepare(args.seed) for iid, inst in by_id.items()}
    _emit({"ready": time.monotonic()})
    if args.instance is None:
        return 0

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    inst = by_id[args.instance]
    _emit({"instance": run_instance(inst, inputs[inst.id], Path(args.dir) / inst.id, recorder)})
    final = {"done": True, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if recorder is not None:
        from chrotop.simplicial import Complex

        final.update(recorder.finish(Complex))
    _emit(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
