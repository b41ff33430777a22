"""Span recording for a traced instance.

Spans are recorded from outside the program: the public functions named
in SPANNED are replaced, in every loaded chrotop module that holds them,
by wrappers that record [name, start, end, parent, instance].  A span's
id is its index in the list and `parent` is the id of the enclosing
span.  Per-vertex hot functions (Simplex, coordinates, label_string) are
deliberately not wrapped; their cost shows in the self time of the
enclosing span.

Counts are taken at the same boundaries.  Counts that need a look at a
returned object (facets and views of a complex) are computed after the
instance, from stashed results, so that no count is paid inside a timed
span.

Which end-to-end metric each layer metric should move, and where:

  checker.build_time_T.self_s, simplicial.Complex.self_s (Complex(facets)
  re-timed, outside any span, on the largest P_T of the pass),
  checker.facets, checker.views
      wall_s on ladder-3p; nothing on subdivide
  protocol.execution_configurations.self_s/.calls, protocol.executions,
  models.enumerate_prefixes.self_s, models.words,
  checker.certify_consensus_impossible.self_s, checker.intervals
      wall_s on ladder-2p; little or nothing on ladder-3p
  checker.search_decision_map.self_s, checker.search_views
      wall_s on ladder-3p; pass_ratio on ladder-2p (the d7 rung)
  checker.sperner_evidence.self_s, checker.colorings
      ladder-3p only
  subdivision.chr_iterate.self_s, subdivision.diameter_Dk.self_s,
  subdivision.facets, render.render_svg.self_s, render.render_dot.self_s,
  cli.json.self_s, cli.out_bytes
      wall_s and peak_rss_mb on subdivide; nothing on the ladders
  checker.verify_termination_certificate.self_s, checker.stable_cells,
  subdivision.TerminatingSubdivision.materialize.self_s,
  protocol.check_solves.self_s, protocol.simulated_executions,
  protocol.synthesize_from_stable_map.self_s, protocol.extract_map.self_s,
  simplicial.check_simplicial_chromatic.self_s, simplicial.carried_by.self_s
      wall_s on tsub-certify; little on the ladders

chrotop.tasks costs show only in setup_s; chrotop.metric is on no
verdict or export path and is not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

# (module, attribute, span name); an attribute "Class.method" patches the class
SPANNED = [
    ("chrotop.cli", "_dump", "cli.json"),
    ("chrotop.simplicial", "Complex.to_json_obj", "cli.json"),
    ("chrotop.checker", "Verdict.to_json_obj", "cli.json"),
    ("chrotop.checker", "build_time_T", "checker.build_time_T"),
    ("chrotop.checker", "search_decision_map", "checker.search_decision_map"),
    ("chrotop.checker", "certify_consensus_impossible", "checker.certify_consensus_impossible"),
    ("chrotop.checker", "sperner_evidence", "checker.sperner_evidence"),
    ("chrotop.checker", "verify_termination_certificate", "checker.verify_termination_certificate"),
    ("chrotop.protocol", "execution_configurations", "protocol.execution_configurations"),
    ("chrotop.protocol", "check_solves", "protocol.check_solves"),
    ("chrotop.protocol", "synthesize_from_stable_map", "protocol.synthesize_from_stable_map"),
    ("chrotop.protocol", "extract_map", "protocol.extract_map"),
    ("chrotop.models", "enumerate_prefixes", "models.enumerate_prefixes"),
    ("chrotop.subdivision", "chr_iterate", "subdivision.chr_iterate"),
    ("chrotop.subdivision", "diameter_Dk", "subdivision.diameter_Dk"),
    ("chrotop.subdivision", "TerminatingSubdivision.materialize",
     "subdivision.TerminatingSubdivision.materialize"),
    ("chrotop.simplicial", "check_simplicial_chromatic", "simplicial.check_simplicial_chromatic"),
    ("chrotop.simplicial", "carried_by", "simplicial.carried_by"),
    ("chrotop.render", "render_svg", "render.render_svg"),
    ("chrotop.render", "render_dot", "render.render_dot"),
]

# functions that are counted but get no span of their own, so their time
# stays in the caller's self time
COUNTED = [
    ("chrotop.protocol", "all_executions", "protocol.all_executions"),
    ("chrotop.subdivision", "TerminatingSubdivision.stable_cells",
     "subdivision.TerminatingSubdivision.stable_cells"),
]

# calls whose results are kept to be counted after the instance
STASHED = ("checker.build_time_T", "subdivision.chr_iterate")

NAME, START, END, PARENT, INSTANCE = range(5)


class Recorder:
    """In-memory spans and counts of one traced instance."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance: str | None = None
        self.counts: Counter = Counter()
        self.stashed: list[tuple[str, object, tuple]] = []
        self.signatures: dict[str, inspect.Signature] = {}

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, perf_counter(), None, self.stack[-1] if self.stack else None, self.instance]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "checker.search_decision_map":
                # counted on entry: the views were searched even when the search raises
                self._stash(name, self.signatures[name].bind(*args, **kwargs).arguments, None)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            self._count(name, args, kwargs, result)
            return result
        self.signatures[name] = inspect.signature(fn)
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(name, args, kwargs, result)
            return result
        self.signatures[name] = inspect.signature(fn)
        return wrapper

    def _count(self, name: str, args: tuple, kwargs: dict, result) -> None:
        c = self.counts
        if name == "models.enumerate_prefixes":
            c["models.words"] += len(result)
            if self.parent_name() == "checker.certify_consensus_impossible":
                c["checker.intervals"] += len(result)
        elif name == "protocol.all_executions":
            c["protocol.executions"] += len(result)
        elif name == "subdivision.TerminatingSubdivision.stable_cells":
            if self.parent_name() == "checker.verify_termination_certificate":
                c["checker.stable_cells"] += len(result)
        elif name == "protocol.check_solves":
            c["protocol.simulated_executions"] += len(result.run_result.outcomes)
        elif name == "checker.sperner_evidence":
            c["checker.colorings"] += result.colorings
        elif name in STASHED:
            self._stash(name, self.signatures[name].bind(*args, **kwargs).arguments, result)

    def _stash(self, name: str, args: dict, result) -> None:
        if name == "checker.search_decision_map":
            self.stashed.append((name, args["PT"].complex, ()))
        elif name == "checker.build_time_T":
            self.stashed.append((name, result.complex, (args["model"].name, args["T"])))
        elif name == "subdivision.chr_iterate":
            base = args["K"]
            self.stashed.append((name, result, (len(base.facets), len(base.vertices()), args["k"])))

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Replace the spanned and counted functions in every loaded chrotop
        module (and class) that refers to them."""
        modules = [importlib.import_module(m) for m in (
            "chrotop", "chrotop.cli", "chrotop.checker", "chrotop.protocol", "chrotop.models",
            "chrotop.subdivision", "chrotop.simplicial", "chrotop.render", "chrotop.tasks",
            "chrotop.metric")]
        targets = [(m, a, self._spanned, n) for m, a, n in SPANNED]
        targets += [(m, a, self._counted, n) for m, a, n in COUNTED]
        for module_name, attr, make, name in targets:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, make(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapped = make(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    # -- results ------------------------------------------------------------------

    def finish(self, complex_type) -> dict:
        """Compute the stashed counts, check them against closed forms, and
        re-time `complex_type(facets)` on the largest time complex built.
        Returns the spans, counts, checks and re-timing as JSON-ready data."""
        from instances import chr_facets, chr_vertices, time_complex_counts

        checks = []
        largest = None
        for name, obj, key in self.stashed:
            if name == "checker.search_decision_map":
                self.counts["checker.search_views"] += len(obj.vertices())
            elif name == "checker.build_time_T":
                facets, views = len(obj.facets), len(obj.vertices())
                self.counts["checker.facets"] += facets
                self.counts["checker.views"] += views
                if largest is None or facets > len(largest.facets):
                    largest = obj
                want = time_complex_counts(*key)
                if want is not None:
                    checks.append({"what": f"P_T {key[0]} T={key[1]} (facets, views)",
                                   "got": [facets, views], "want": list(want),
                                   "ok": [facets, views] == list(want)})
            elif name == "subdivision.chr_iterate":
                base_facets, n, k = key
                facets = len(obj.facets)
                self.counts["subdivision.facets"] += facets
                if base_facets == 1 and chr_vertices(n, k) is not None:
                    got = [facets, len(obj.vertices())]
                    want = [chr_facets(n, k), chr_vertices(n, k)]
                    checks.append({"what": f"chr^{k} of a simplex with {n} vertices (facets, vertices)",
                                   "got": got, "want": want, "ok": got == want})
        self.stashed.clear()
        retime = None
        if largest is not None:
            facets = list(largest.facets)
            start = perf_counter()
            complex_type(facets)
            retime = {"facets": len(facets), "seconds": perf_counter() - start}
        return {"spans": self.spans, "counts": dict(self.counts), "checks": checks,
                "retime": retime}


def self_times(spans: list[list]) -> dict[str, tuple[float, int]]:
    """Total self time and call count per span name.  A span's self time is
    its duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None and span[END] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    totals: dict[str, tuple[float, int]] = {}
    for i, span in enumerate(spans):
        if span[END] is None:
            continue
        seconds, calls = totals.get(span[NAME], (0.0, 0))
        totals[span[NAME]] = (seconds + span[END] - span[START] - child_time[i], calls + 1)
    return totals
