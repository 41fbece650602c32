"""The implicit-hitting-set main loop.

One ``_Run`` owns a solve: the induced-CSP encoding, the growing hitting
problem, the bounds, the incumbent and the counters.  Each iteration asks
for a hitting vector (exact lower-bound driven, cost-bounded upper-bound
driven, or greedy with a fallback to either exact flavor after a useless
greedy iteration).  A refuted vector goes through one refutation loop,
``_Run.refute``: its lazy core is improved by one of four strategies and
added, and with disjoint-core extraction on, the vector is probed again with
the components of the cores found so far released, each unsatisfiable
probe's lazy core going round the same loop.  Cost-function merging may
shrink the vector space first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import inf

from .encoding import InducedCspEncoding, Satisfiable, SolveDeadlineExceeded, Unsatisfiable
from .hitting import HittingProblem, cost_bounded_hv, greedy_hv, min_cost_hv
from .improve import STRATEGIES, improve_core
from .merge import build_merged
from .model import Assignment, CostVector, WcspInstance

HV_STRATEGIES = ("lb", "ub", "grd-lb", "grd-ub")


@dataclass(frozen=True)
class SolverConfig:
    """One run's configuration.  Every field but ``time_limit`` is an axis of
    ``cli.AXES``, in this order: a new field needs an entry there too, and a
    test fails until it has one."""

    hv: str = "lb"
    core: str = "maximal"
    merge: bool = False
    disjoint: bool = False
    time_limit: float = 3600.0

    def __post_init__(self) -> None:
        if self.hv not in HV_STRATEGIES:
            raise ValueError(f"unknown hitting-vector strategy {self.hv!r}")
        if self.core not in STRATEGIES:
            raise ValueError(f"unknown core strategy {self.core!r}")
        if not self.time_limit > 0:  # NaN too: no deadline would ever pass
            raise ValueError("time_limit must be positive")


@dataclass
class RunReport:
    """Per-run outcome and counters.

    ``hv_nodes`` counts the nodes of every exact hitting-vector branch and
    bound.  ``sat_calls`` counts every induced-CSP solve (including improvement
    probes and the feasibility pre-check); ``improve_probes`` is the subset
    spent inside core improvement and the disjoint-core phase, and
    ``sat_conflicts`` counts the SAT engine's conflicts over all of them.
    ``sat_time`` is the time of all those solves, so it overlaps
    ``improve_time``, which covers whole improvement and disjoint phases.
    ``merge_time`` (0 without merging) and ``encode_time`` are the set-up
    before the first solve (a run whose deadline passes there has no
    solve).  Bounds and the optimum include the instance's constant offset.
    ``final_cores`` is the run's core set at the end and ``inserted_cores``
    every improved core in the order it was added.  Every field defaults to
    zero or empty; ``solve`` fills them all.  ``ihswcsp solve`` prints and
    ``ihswcsp bench`` writes every field but the per-run lists
    (``bounds_trace``, both core lists, ``best_assignment``), in this order."""

    status: str = ""
    optimum: int | None = None
    final_lb: int | None = None
    final_ub: int | None = None
    iterations: int = 0
    hv_calls: int = 0
    hv_nodes: int = 0
    sat_calls: int = 0
    sat_conflicts: int = 0
    improve_probes: int = 0
    exact_fallbacks: int = 0
    core_set_size: int = 0
    components: int = 0
    bounds_trace: list[tuple[int | None, int | None]] = field(default_factory=list)
    hv_time: float = 0.0
    sat_time: float = 0.0
    improve_time: float = 0.0
    merge_time: float = 0.0
    encode_time: float = 0.0
    total_time: float = 0.0
    final_cores: list[CostVector] = field(default_factory=list)
    inserted_cores: list[CostVector] = field(default_factory=list)
    best_assignment: Assignment | None = None


class _Run:
    """One solve: its encoding, hitting problem, bounds and incumbent, and
    the report whose counters it updates in place."""

    def __init__(self, instance: WcspInstance, cfg: SolverConfig):
        self.cfg = cfg
        self.started = time.perf_counter()
        self.deadline = self.started + cfg.time_limit
        self.view = instance  # the merged view once set_up() has merged
        self.enc: InducedCspEncoding | None = None  # built by set_up(); each
        self.problem: HittingProblem | None = None  # stays None if set-up times out
        self.lb = 0
        self.ub: float = inf  # the incumbent's cost, inf until one exists
        self.best_assignment: Assignment | None = None
        self.trace: list[tuple[int, float]] = []
        self.stats = RunReport()

    def set_up(self) -> None:
        """Merge when on, then build the encoding, both under the run's
        deadline, which they poll, and the hitting problem on the encoding's
        grid."""
        if self.cfg.merge:
            try:
                self.view = build_merged(self.view, self.deadline).view
            finally:
                self.stats.merge_time = time.perf_counter() - self.started
        t = time.perf_counter()
        try:
            self.enc = InducedCspEncoding(self.view, self.deadline)
        finally:
            self.stats.encode_time = time.perf_counter() - t
        self.problem = HittingProblem(self.enc.space, deadline=self.deadline)

    def loop(self) -> None:
        """The IHS loop.  Its exact hitting oracle is "min" in lb modes (a
        minimum-cost vector, whose cost is a lower bound) and "bounded" in ub
        modes (any vector cheaper than ub, None when none exists, which closes
        the bounds).  Greedy modes ask for greedy vectors instead, and run one
        exact iteration after any greedy vector whose solution does not
        improve ub."""
        exact = "min" if self.cfg.hv.endswith("lb") else "bounded"
        greedy = self.cfg.hv.startswith("grd-")
        fallback = False
        while self.lb < self.ub:
            self.stats.iterations += 1
            kind = exact if fallback or not greedy else "greedy"
            self.stats.exact_fallbacks += fallback
            fallback = False
            h = self.hitting(kind)
            if h is None:
                self.lb = self.ub
            else:
                if kind == "min":
                    self.lb = sum(h)
                res = self.enc.solve_induced(h)
                if isinstance(res, Satisfiable):
                    fallback = not self.record(res) and kind == "greedy"
                else:
                    self.refute(h, res.lazy_core)
            self.trace.append((self.lb, self.ub))

    def hitting(self, kind: str):
        if time.perf_counter() > self.deadline:
            raise SolveDeadlineExceeded
        t = time.perf_counter()
        try:
            if kind == "min":
                return min_cost_hv(self.problem)
            if kind == "bounded":
                return cost_bounded_hv(self.problem, self.ub)
            return greedy_hv(self.problem)
        finally:
            self.stats.hv_time += time.perf_counter() - t
            self.stats.hv_calls += 1

    def record(self, res: Satisfiable) -> bool:
        """Take the answer's solution as the incumbent if it improves ub;
        returns whether it did.  Every solution of the run comes through
        here."""
        sv_cost = sum(res.solution_vector)
        if sv_cost < self.ub:
            self.ub, self.best_assignment = sv_cost, res.assignment
            return True
        return False

    def refute(self, h: CostVector, lazy_core: CostVector) -> None:
        """Turn the lazy core that refuted ``h`` into stored cores: improve
        it, add it and record any solution its probes found.  With the
        disjoint phase on, the core's active components (those below their
        maximum) join ``used``, and ``h`` is probed again with every used
        component released to its maximum; an unsatisfiable probe's lazy
        core goes round the same loop.  A lazy core sits at the maximum on
        every released component and improvement only raises components, so
        each new core's active components lie outside ``used``.  The loop
        ends at a satisfiable probe, whose solution is recorded, or at a
        core with no active component, so within one probe per component.
        ``improve_probes`` and ``improve_time`` cover the whole loop, also
        one that a deadline ends."""
        t = time.perf_counter()
        before = self.enc.num_solves
        top = self.enc.space.maximum
        used: set[int] = set()
        try:
            while True:
                core, best = improve_core(self.cfg.core, lazy_core, self.ub, self.enc)
                self.problem.add(core)
                self.stats.inserted_cores.append(core)
                if best is not None:
                    self.record(best)
                if not self.cfg.disjoint:
                    break
                active = {i for i in range(len(core)) if core[i] < top[i]}
                if not active:
                    break
                used |= active
                probe = tuple(top[i] if i in used else h[i] for i in range(len(h)))
                res = self.enc.solve_induced(probe)
                if isinstance(res, Satisfiable):
                    self.record(res)
                    break
                lazy_core = res.lazy_core
        finally:
            self.stats.improve_probes += self.enc.num_solves - before
            self.stats.improve_time += time.perf_counter() - t

    def report(self, status: str) -> RunReport:
        """The run's report, completed with its status, bounds, trace and
        total time and the encoding's and hitting problem's counters; a run
        stopped in set-up has neither and keeps those counters' defaults."""

        def off(x: float) -> int | None:
            return None if x == inf else x + self.view.constant_offset

        r = self.stats
        r.status = status
        r.optimum = off(self.lb) if status == "optimal" else None
        r.final_lb, r.final_ub = off(self.lb), off(self.ub)
        r.bounds_trace = [(off(lb), off(ub)) for lb, ub in self.trace]
        r.components = len(self.view.cost_functions)
        r.best_assignment = self.best_assignment
        if self.problem is not None:
            r.hv_nodes, r.final_cores = self.problem.nodes, list(self.problem.cores)
            r.core_set_size = len(r.final_cores)
            r.sat_calls, r.sat_time = self.enc.num_solves, self.enc.solve_time
            r.sat_conflicts = self.enc.solver.conflicts
        r.total_time = time.perf_counter() - self.started
        return r


def solve(instance: WcspInstance, cfg: SolverConfig | None = None) -> RunReport:
    """Solve a WCSP to optimality with the configured IHS variant.

    Deterministic for a fixed (instance, config); the reported optimum equals
    the instance's true minimum cost, merging on or off.  A run that times
    out with no solution of its own reports the feasibility pre-check's."""
    run = _Run(instance, cfg or SolverConfig())
    feasible = None
    try:
        run.set_up()
        feasible = run.enc.solve_induced(run.enc.space.maximum)
        if isinstance(feasible, Unsatisfiable):
            return run.report("infeasible")
        run.loop()
    except SolveDeadlineExceeded:
        if run.ub == inf and feasible is not None:
            run.record(feasible)
        return run.report("timeout")
    return run.report("optimal")
