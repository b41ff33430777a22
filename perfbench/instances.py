"""Workloads of the chrotop benchmark: instances, time budgets, known
answers and independent oracles.

Every expected value below is written by hand from the model and task
definitions, the README and the acceptance tests, or derived from a
closed form.  None was recorded from a run of the code under test.  The
JSON outputs are checked field by field, never byte for byte, so that
new fields (witnesses, statistics) do not break the benchmark.

This module imports chrotop only inside functions, so the harness can
read the instance table without loading the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable


# -- closed forms ---------------------------------------------------------


def ordered_partitions(n: int) -> int:
    """Number of ordered set partitions of n items (the Fubini numbers),
    by recurrence over the size of the first block."""
    if n == 0:
        return 1
    return sum(comb(n, k) * ordered_partitions(n - k) for k in range(1, n + 1))


def chr_facets(n: int, k: int) -> int:
    """Facets of the k-th chromatic subdivision of a simplex with n
    vertices: each round splits every facet once per ordered partition."""
    return ordered_partitions(n) ** k


def chr_vertices(n: int, k: int) -> int | None:
    """Vertices of the k-th chromatic subdivision, from Euler's formula
    (V - E + F = 1 for a subdivided simplex)."""
    if n == 2:
        return 3**k + 1
    if n == 3:
        facets, boundary_edges = chr_facets(3, k), 3 * 3**k
        return 1 + (facets + boundary_edges) // 2
    return None


def time_complex_counts(model: str, T: int) -> tuple[int, int] | None:
    """(facets, views) of the time-T protocol complex of a builtin model
    with inputless consensus or set agreement inputs, or None when no
    closed form is known.

    iis_n at time T is the T-th chromatic subdivision of the input
    simplex.  m2 removes one infinite execution and no finite prefix, so
    it has the same finite complexes as iis2.  m1 keeps the two solo
    first rounds, the two end cells of the edge, which are disjoint: two
    paths of 3^(T-1) edges each.
    """
    if model in ("iis2", "m2"):
        return chr_facets(2, T), chr_vertices(2, T)
    if model == "iis3":
        return chr_facets(3, T), chr_vertices(3, T)
    if model == "m1":
        if T == 0:
            return 1, 2
        return 2 * 3 ** (T - 1), 2 * (3 ** (T - 1) + 1)
    return None


# -- instances ------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One unit of work in a pass.

    `prepare(seed)` builds the inputs during set-up; `run(inputs, outdir)`
    does the timed work and returns a small summary of what the program
    produced, with its standard output added under "stdout";
    `check(summary, inputs, outdir)` reads the summary and the files the
    run wrote, untimed, and returns the mismatches against the known
    answer (empty when correct).  `budget_s` is the time the
    instance is charged when it fails, and the time after which it is
    stopped.
    """

    id: str
    budget_s: float
    prepare: Callable
    run: Callable
    check: Callable


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _cli(argv: list[str]) -> dict:
    """Run the CLI in-process, as the `chrotop` console script does."""
    from chrotop import cli

    rc = cli.main(argv)
    return {"exit": rc}


# ---- `check` ladder instances ---------------------------------------------------


def check_instance(id_: str, model: str, task: str, depth: int, budget_s: float,
                   check_verdict: Callable[[dict, list], None], exit_code: int) -> Instance:
    def prepare(seed: int) -> list[str]:
        return ["--seed", str(seed), "check", "--model", model, "--task", task,
                "--max-depth", str(depth)]

    def run(argv: list[str], outdir: Path) -> dict:
        return _cli(argv + ["--out", str(outdir / "verdict.json")])

    def check(summary: dict, argv: list[str], outdir: Path) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit code", summary["exit"], exit_code)
        out = outdir / "verdict.json"
        if not out.exists():
            problems.append("no verdict written")
            return problems
        verdict = json.loads(out.read_text(encoding="utf-8"))
        _expect(problems, "schema", verdict.get("schema"), 1)
        _expect(problems, "model", verdict.get("model"), model)
        _expect(problems, "maxDepth", verdict.get("maxDepth"), depth)
        _expect(problems, "seed", verdict.get("seed"), int(argv[1]))
        check_verdict(verdict, problems)
        return problems

    return Instance(id_, budget_s, prepare, run, check)


def _solvable_at(T: int):
    def check(verdict: dict, problems: list) -> None:
        _expect(problems, "kind", verdict.get("kind"), "solvable_bounded")
        _expect(problems, "T", verdict.get("T"), T)
        if not verdict.get("decisionMap"):
            problems.append("solvable verdict without a decision map")
    return check


def _interval_certificate(excluded_inside: list[str]):
    def check(verdict: dict, problems: list) -> None:
        _expect(problems, "kind", verdict.get("kind"), "unsolvable_certified")
        cert = verdict.get("certificate") or {}
        _expect(problems, "certificate.kind", cert.get("kind"), "connected-interval")
        _expect(problems, "certificate.component", cert.get("component"), ["0", "1"])
        _expect(problems, "certificate.excludedLimitPointsInside",
                cert.get("excludedLimitPointsInside"), excluded_inside)
    return check


def _rainbow_parity(verdict: dict, problems: list) -> None:
    # Sperner's lemma: every boundary-respecting coloring of a subdivided
    # triangle has an odd number of rainbow facets, so allOdd must hold.
    _expect(problems, "kind", verdict.get("kind"), "unsolvable_at_all_depths")
    ev = verdict.get("evidence") or {}
    _expect(problems, "evidence.kind", ev.get("kind"), "rainbow-parity")
    _expect(problems, "evidence.allOdd", ev.get("allOdd"), True)
    _expect(problems, "evidence.n", ev.get("n"), 3)
    _expect(problems, "evidence.k", ev.get("k"), 2)
    _expect(problems, "evidence.mode", ev.get("mode"), "sampled")
    _expect(problems, "evidence.colorings", ev.get("colorings"), 2000)
    if not isinstance(ev.get("minRainbow"), int) or ev["minRainbow"] < 1:
        problems.append(f"evidence.minRainbow: {ev.get('minRainbow')!r} is not a positive count")


# ---- subdivide instances -------------------------------------------------------


def subdivide_instance(id_: str, simplex: int, k: int, budget_s: float) -> Instance:
    n = simplex + 1
    stem = f"chr{k}_simplex{simplex}"

    def prepare(seed: int) -> list[str]:
        return ["--seed", str(seed), "subdivide", "--simplex", str(simplex), "--k", str(k)]

    def run(argv: list[str], outdir: Path) -> dict:
        return _cli(argv + ["--out", str(outdir)])

    def check(summary: dict, argv: list[str], outdir: Path) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit code", summary["exit"], 0)
        lines = dict(
            line.split(": ", 1) for line in summary["stdout"].splitlines() if ": " in line
        )
        _expect(problems, "facets line", lines.get("facets"), str(chr_facets(n, k)))
        _expect(problems, "vertices line", lines.get("vertices"), str(chr_vertices(n, k)))
        if n == 2:
            # cells of chr^k of the edge are intervals of length 3^-k
            _expect(problems, "D_k line", lines.get(f"D_{k}"), str(Fraction(1, 3**k)))
        for ext in ("json", "svg", "dot"):
            if not (outdir / f"{stem}.{ext}").is_file():
                problems.append(f"missing output {stem}.{ext}")
        if problems:
            return problems
        payload = json.loads((outdir / f"{stem}.json").read_text(encoding="utf-8"))
        _expect(problems, "json.k", payload.get("k"), k)
        _expect(problems, "json.n", payload.get("n"), n)
        _expect(problems, "json.Dk", payload.get("Dk"), lines.get(f"D_{k}"))
        facets = payload.get("facets") or []
        _expect(problems, "json facet count", len(facets), chr_facets(n, k))
        if any(sorted(v["color"] for v in f) != list(range(n)) for f in facets):
            problems.append("json has a facet that is not chromatic")
        return problems

    return Instance(id_, budget_s, prepare, run, check)


# ---- terminating-subdivision and protocol instances ------------------------------

R, L, B = ((0,), (1,)), ((1,), (0,)), ((0, 1),)


def _library_inputs(seed: int) -> dict:
    from chrotop.models import builtin_model
    from chrotop.tasks import inputless_consensus

    return {"m1": builtin_model("m1"), "m2": builtin_model("m2"),
            "consensus": inputless_consensus(2),
            "m1-policy": _m1_policy(), "m2-naive-policy": _m2_naive_policy(7)}


def _m1_policy():
    from chrotop.subdivision import prefix_policy

    return prefix_policy({1: [(R,)], 2: [(L, s) for s in (R, B, L)]})


def _m2_naive_policy(max_depth: int):
    from chrotop.subdivision import prefix_policy

    words = {1: [(R,), (L,)]}
    for j in range(2, max_depth + 1):
        words[j] = [(B,) + (L,) * (j - 2) + (s,) for s in (R, B)]
    return prefix_policy(words)


def _split_map(tsub, depth: int):
    """Decide 0 on stable vertices in the left third of the edge, else 1."""
    from chrotop.simplicial import SimplicialMap, Vertex
    from chrotop.subdivision import edge_position

    stable = tsub.stable_complex(depth)
    return SimplicialMap({
        v: Vertex(v.color, 0 if edge_position(v.label, tsub.base) <= Fraction(1, 3) else 1)
        for v in stable.vertices()
    })


def _certify(policy: str, model: str, depth: int):
    def run(inputs: dict, outdir: Path) -> dict:
        from chrotop.checker import verify_termination_certificate
        from chrotop.subdivision import TerminatingSubdivision

        cons = inputs["consensus"]
        tsub = TerminatingSubdivision(cons.inputs, inputs[policy])
        report = verify_termination_certificate(
            tsub, _split_map(tsub, depth), inputs[model], cons, depth)
        witness = report.closure_witness or {}
        return {
            "ok": report.ok, "admissible": report.admissible, "carried": report.carried,
            "continuous": report.continuous,
            "uncovered_only_excluded": report.uncovered_only_excluded,
            "closure_excluded": witness.get("excluded"),
            "closure_values": witness.get("values"),
        }
    return run


def _check_m1_certificate(summary: dict, inputs: dict, outdir: Path) -> list[str]:
    problems: list[str] = []
    for key in ("ok", "admissible", "carried", "continuous"):
        _expect(problems, key, summary[key], True)
    return problems


def _check_m2_naive_certificate(summary: dict, inputs: dict, outdir: Path) -> list[str]:
    problems: list[str] = []
    _expect(problems, "ok", summary["ok"], False)
    _expect(problems, "carried", summary["carried"], True)
    _expect(problems, "continuous", summary["continuous"], False)
    _expect(problems, "closure witness excluded", summary["closure_excluded"], "(<->)(<-)^w")
    _expect(problems, "closure witness values", summary["closure_values"], ["0", "1"])
    _expect(problems, "admissible", summary["admissible"], False)
    _expect(problems, "uncovered only excluded", summary["uncovered_only_excluded"], True)
    return problems


def _run_ball_rule(inputs: dict, outdir: Path) -> dict:
    from chrotop.protocol import check_solves, synthesize_from_stable_map
    from chrotop.subdivision import TerminatingSubdivision

    cons = inputs["consensus"]
    tsub = TerminatingSubdivision(cons.inputs, inputs["m1-policy"])
    protocol = synthesize_from_stable_map(_split_map(tsub, 2), tsub, 2)
    return {"status": check_solves(protocol, cons, inputs["m1"], 7).status}


def _run_table(inputs: dict, outdir: Path) -> dict:
    from chrotop.checker import build_time_T
    from chrotop.protocol import ball_id, check_solves, extract_map, table_protocol, winner_protocol
    from chrotop.simplicial import carried_by, check_simplicial_chromatic

    cons, m1 = inputs["consensus"], inputs["m1"]
    delta = extract_map(winner_protocol(), m1, cons, 5)
    P5 = build_time_T(m1, cons, 5)
    simplicial_ok = check_simplicial_chromatic(delta, P5.complex, cons.outputs).ok
    carried_ok = carried_by(delta, P5.xi, cons.delta, cons.inputs).carried
    table = {ball_id(ball): out.label for ball, out in delta.items()}
    report = check_solves(table_protocol(table, m1, cons, 5), cons, m1, 5)
    return {"simplicial": simplicial_ok, "carried": carried_ok, "status": report.status,
            "balls": len(table)}


def _check_ball_rule(summary: dict, inputs: dict, outdir: Path) -> list[str]:
    # simulation of every execution is the oracle for a synthesized protocol
    problems: list[str] = []
    _expect(problems, "check_solves status", summary["status"], "PASS")
    return problems


def _check_table(summary: dict, inputs: dict, outdir: Path) -> list[str]:
    problems = _check_ball_rule(summary, inputs, outdir)
    _expect(problems, "simplicial", summary["simplicial"], True)
    _expect(problems, "carried", summary["carried"], True)
    _expect(problems, "balls", summary["balls"], time_complex_counts("m1", 5)[1])
    return problems


# -- workloads --------------------------------------------------------------------

WORKLOADS: dict[str, list[Instance]] = {
    "ladder-2p": [
        check_instance("m1-consensus-d3", "m1", "consensus", 3, 5.0, _solvable_at(1), 0),
        check_instance("iis2-consensus-d5", "iis2", "consensus", 5, 10.0, _interval_certificate([]), 10),
        check_instance("iis2-consensus-d6", "iis2", "consensus", 6, 20.0, _interval_certificate([]), 10),
        # failed with RecursionError in the decision-map search, after about
        # 30 s, when this benchmark was written; the budget leaves room for that
        check_instance("iis2-consensus-d7", "iis2", "consensus", 7, 60.0, _interval_certificate([]), 10),
        check_instance("m2-consensus-d6", "m2", "consensus", 6, 20.0,
                       _interval_certificate(["(<->)(<-)^w"]), 10),
    ],
    "ladder-3p": [
        check_instance("iis3-set-agreement-d2", "iis3", "set-agreement:3", 2, 10.0, _rainbow_parity, 11),
        check_instance("iis3-set-agreement-d3", "iis3", "set-agreement:3", 3, 90.0, _rainbow_parity, 11),
    ],
    "subdivide": [
        subdivide_instance("subdivide-simplex2-k3", 2, 3, 20.0),
        subdivide_instance("subdivide-simplex1-k7", 1, 7, 30.0),
    ],
    "tsub-certify": [
        Instance("tsub-m1-prefix-d5", 10.0, _library_inputs, _certify("m1-policy", "m1", 5),
                 _check_m1_certificate),
        Instance("tsub-m2-naive-d7", 30.0, _library_inputs, _certify("m2-naive-policy", "m2", 7),
                 _check_m2_naive_certificate),
        Instance("tsub-ball-rule-m1-d7", 40.0, _library_inputs, _run_ball_rule, _check_ball_rule),
        Instance("tsub-table-m1-d5", 10.0, _library_inputs, _run_table, _check_table),
    ],
}
