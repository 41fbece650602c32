"""Per-layer spans and counters around the library's public entry points.

A ``Tracer`` patches the entry points of each module (the module attributes
the driver calls through, and the methods of the encoding, SAT and hitting
classes) with wrappers that time each call as a span.  A span's self time is
its duration minus the time of the spans it encloses.  ``uninstall``
restores the originals, so untraced passes run the library unchanged.

SAT time is taken from the wrapped ``Solver.solve`` calls wherever they
happen, including core-improvement and disjoint-phase probes, rather than
from ``RunReport.sat_time``, which bills those probes to ``improve_time``.
"""

from __future__ import annotations

import time
from collections import Counter

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("wcsp_io.parse_s", "s", "lower"),
    ("merge.build_s", "s", "lower"),
    ("merge.min_fill_s", "s", "lower"),
    ("merge.components", "count", "lower"),
    ("encoding.build_s", "s", "lower"),
    ("encoding.clauses", "count", "lower"),
    ("encoding.solve_s", "s", "lower"),
    ("encoding.solve_calls", "count", "lower"),
    ("encoding.self_s", "s", "lower"),
    ("encoding.unsat_share", "ratio", "higher"),
    ("sat.solve_s", "s", "lower"),
    ("sat.ms_per_call", "ms", "lower"),
    ("sat.conflicts", "count", "lower"),
    ("sat.conflicts_per_call", "count", "lower"),
    ("sat.propagate_calls", "count", "lower"),
    ("sat.learnts", "count", "lower"),
    ("hitting.problem_s", "s", "lower"),
    ("hitting.problem_calls", "count", "lower"),
    ("hitting.min_s", "s", "lower"),
    ("hitting.min_calls", "count", "lower"),
    ("hitting.bounded_s", "s", "lower"),
    ("hitting.bounded_calls", "count", "lower"),
    ("hitting.greedy_s", "s", "lower"),
    ("hitting.greedy_calls", "count", "lower"),
    ("hitting.exact_fallbacks", "count", "lower"),
    ("improve.s", "s", "lower"),
    ("improve.self_s", "s", "lower"),
    ("improve.calls", "count", "lower"),
    ("improve.probes", "count", "lower"),
    ("improve.raise_share", "ratio", "higher"),
    ("driver.iterations", "count", "lower"),
    ("driver.oracle_calls", "count", "lower"),
    ("driver.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("host.ref_loop_s", "s", "lower"),
)


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.total: Counter = Counter()  # span name -> seconds
        self.own: Counter = Counter()  # span name -> self seconds
        self.calls: Counter = Counter()  # span name -> calls
        self.counts: Counter = Counter()  # counter name -> value
        self._stack: list[list] = []  # open spans: [name, seconds of child spans]
        self._encodings: list = []  # encodings built by the current solve
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for c in (self.total, self.own, self.calls, self.counts):
            c.clear()
        self._stack.clear()
        self._encodings.clear()

    def snapshot(self) -> dict[str, Counter]:
        return {
            "total": self.total.copy(),
            "own": self.own.copy(),
            "calls": self.calls.copy(),
            "counts": self.counts.copy(),
        }

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        lib = self.lib
        enc_cls = lib.encoding.InducedCspEncoding
        solver_cls = lib.sat.Solver
        spans = (
            (lib.wcsp_io, "parse_wcsp", "parse", None),
            (lib.driver, "solve", "solve", self._after_solve),
            (lib.driver, "build_merged", "merge", self._after_merge),
            (lib.merge, "min_fill_order", "min_fill", None),
            (enc_cls, "__init__", "enc_build", self._after_enc_build),
            (enc_cls, "solve_induced", "enc_solve", self._after_enc_solve),
            (solver_cls, "solve", "sat_solve", None),
            (lib.hitting.HittingProblem, "__init__", "hv_problem", None),
            (lib.driver, "min_cost_hv", "hv_min", None),
            (lib.driver, "cost_bounded_hv", "hv_bounded", None),
            (lib.driver, "greedy_hv", "hv_greedy", None),
            (lib.driver, "improve_core", "improve", None),
        )
        for owner, attr, name, after in spans:
            self._patch(owner, attr, self._span(name, getattr(owner, attr), after))
        self._patch(solver_cls, "propagate", self._counted("propagate", solver_cls.propagate))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn, after):
        stack, total, own, calls = self._stack, self.total, self.own, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                total[name] += elapsed
                own[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters read at span exit ------------------------------------------------

    def _after_solve(self, args, report) -> None:
        c = self.counts
        c["iterations"] += report.iterations
        c["exact_fallbacks"] += report.exact_fallbacks
        for enc in self._encodings:
            c["conflicts"] += enc.solver.conflicts
            c["learnts"] += len(enc.solver.learnts)
        self._encodings.clear()

    def _after_merge(self, args, merged) -> None:
        self.counts["components"] += len(merged.view.cost_functions)

    def _after_enc_build(self, args, _) -> None:
        enc = args[0]
        self._encodings.append(enc)
        self.counts["clauses"] += len(enc.solver.clauses)

    def _after_enc_solve(self, args, result) -> None:
        c = self.counts
        unsat = isinstance(result, self.lib.encoding.Unsatisfiable)
        c["unsat"] += unsat
        if any(frame[0] == "improve" for frame in self._stack):
            c["probes"] += 1
            c["probe_unsat"] += unsat


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(snapshots) -> dict[str, float]:
    """Per-layer metrics of the summed span snapshots (one per solve)."""
    t, own, n, c = Counter(), Counter(), Counter(), Counter()
    for s in snapshots:
        t.update(s["total"])
        own.update(s["own"])
        n.update(s["calls"])
        c.update(s["counts"])
    return {
        "wcsp_io.parse_s": t["parse"],
        "merge.build_s": t["merge"],
        "merge.min_fill_s": t["min_fill"],
        "merge.components": c["components"],
        "encoding.build_s": t["enc_build"],
        "encoding.clauses": c["clauses"],
        "encoding.solve_s": t["enc_solve"],
        "encoding.solve_calls": n["enc_solve"],
        "encoding.self_s": own["enc_solve"],
        "encoding.unsat_share": _share(c["unsat"], n["enc_solve"]),
        "sat.solve_s": t["sat_solve"],
        "sat.ms_per_call": 1000.0 * _share(t["sat_solve"], n["sat_solve"]),
        "sat.conflicts": c["conflicts"],
        "sat.conflicts_per_call": _share(c["conflicts"], n["sat_solve"]),
        "sat.propagate_calls": c["propagate"],
        "sat.learnts": c["learnts"],
        "hitting.problem_s": t["hv_problem"],
        "hitting.problem_calls": n["hv_problem"],
        "hitting.min_s": t["hv_min"],
        "hitting.min_calls": n["hv_min"],
        "hitting.bounded_s": t["hv_bounded"],
        "hitting.bounded_calls": n["hv_bounded"],
        "hitting.greedy_s": t["hv_greedy"],
        "hitting.greedy_calls": n["hv_greedy"],
        "hitting.exact_fallbacks": c["exact_fallbacks"],
        "improve.s": t["improve"],
        "improve.self_s": own["improve"],
        "improve.calls": n["improve"],
        "improve.probes": c["probes"],
        "improve.raise_share": _share(c["probe_unsat"], c["probes"]),
        "driver.iterations": c["iterations"],
        "driver.oracle_calls": n["enc_solve"] - c["probes"],
        "driver.self_s": own["solve"],
    }
