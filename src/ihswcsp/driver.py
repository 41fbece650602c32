"""The implicit-hitting-set main loop.

Four hitting-vector flavors (exact lower-bound driven, cost-bounded
upper-bound driven, and the two greedy variants falling back to either exact
flavor after a useless greedy iteration) combined with four core-improvement
strategies and optional cost-function merging and disjoint-core extraction.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

from .encoding import InducedCspEncoding, Satisfiable, SolveDeadlineExceeded, Unsatisfiable
from .hitting import HittingProblem, cost_bounded_hv, greedy_hv, min_cost_hv
from .improve import STRATEGIES, ImproveOutcome, improve_core
from .merge import build_merged
from .model import Assignment, CostVector, WcspInstance, cost

HV_STRATEGIES = ("lb", "ub", "grd-lb", "grd-ub")


class IterationCapExceeded(RuntimeError):
    """The run exceeded the configured iteration cap."""


@dataclass(frozen=True)
class SolverConfig:
    hv: str = "lb"
    core: str = "maximal"
    merge: bool = False
    disjoint: bool = False
    merge_cap: int = 4096
    time_limit: float = 3600.0
    iteration_cap: int = 10_000_000
    keep_cores: bool = False

    def validate(self) -> None:
        if self.hv not in HV_STRATEGIES:
            raise ValueError(f"unknown hitting-vector strategy {self.hv!r}")
        if self.core not in STRATEGIES:
            raise ValueError(f"unknown core strategy {self.core!r}")
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.merge_cap < 1:
            raise ValueError("merge_cap must be >= 1")


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
    before the first solve.  Bounds and the optimum include the instance's
    constant offset."""

    status: str
    optimum: int | None
    final_lb: int | None
    final_ub: int | None
    iterations: int
    hv_calls: int
    hv_nodes: int
    sat_calls: int
    sat_conflicts: int
    improve_probes: int
    core_set_size: int
    core_insertions: int
    components: int
    exact_fallbacks: int
    bounds_trace: list[tuple[int | None, int | None]]
    hv_time: float
    sat_time: float
    improve_time: float
    merge_time: float
    encode_time: float
    total_time: float
    best_assignment: Assignment | None = None
    final_cores: list[CostVector] | None = None
    inserted_cores: list[CostVector] | None = None


class _Run:
    def __init__(self, view: WcspInstance, cfg: SolverConfig, started: float):
        self.cfg = cfg
        self.enc = InducedCspEncoding(view)
        self.enc.deadline = started + cfg.time_limit
        self.problem = HittingProblem(self.enc.space, deadline=self.enc.deadline)
        self.lb = 0
        self.ub: int | None = None
        self.best_assignment: Assignment | None = None
        self.iterations = 0
        self.hv_calls = 0
        self.improve_probes = 0
        self.exact_fallbacks = 0
        self.trace: list[tuple[int | None, int | None]] = []
        self.hv_time = 0.0
        self.improve_time = 0.0
        self.merge_time = self.encode_time = 0.0  # set by solve()
        self.inserted: list[CostVector] = []

    def hitting(self, kind: str):
        if self.enc.deadline is not None and time.perf_counter() > self.enc.deadline:
            raise SolveDeadlineExceeded
        t = time.perf_counter()
        try:
            if kind == "min":
                return min_cost_hv(self.problem)
            if kind == "bounded":
                return cost_bounded_hv(self.problem, self.ub)
            return greedy_hv(self.problem)
        finally:
            self.hv_time += time.perf_counter() - t
            self.hv_calls += 1

    def _record_solution(self, sv_cost: int, assignment: Assignment | None) -> bool:
        """Take the solution as the incumbent if it improves ub; returns
        whether it did."""
        if self.ub is None or sv_cost < self.ub:
            self.ub = sv_cost
            self.best_assignment = assignment
            return True
        return False

    def _add_outcome(self, outcome: ImproveOutcome) -> None:
        self.problem.add(outcome.core)
        if self.cfg.keep_cores:
            self.inserted.append(outcome.core)
        if outcome.new_ub is not None:
            self._record_solution(outcome.new_ub, outcome.new_ub_assignment)

    def improve_and_add(self, h: CostVector, lazy_core: CostVector) -> None:
        t = time.perf_counter()
        before = self.enc.num_solves
        outcome = improve_core(self.cfg.core, lazy_core, self.ub, self.enc)
        self._add_outcome(outcome)
        if self.cfg.disjoint:
            self._disjoint_phase(h, outcome.core)
        self.improve_probes += self.enc.num_solves - before
        self.improve_time += time.perf_counter() - t

    def _disjoint_phase(self, h: CostVector, k: CostVector) -> None:
        for found in disjoint_core_phase(h, k, self.enc, self.cfg.core, self.ub):
            if isinstance(found, Satisfiable):
                self._record_solution(cost(found.solution_vector), found.assignment)
            else:
                self._add_outcome(found)

    # -- iteration bookkeeping ---------------------------------------------------

    def tick(self) -> None:
        self.iterations += 1
        if self.iterations > self.cfg.iteration_cap:
            raise IterationCapExceeded(f"iteration cap {self.cfg.iteration_cap} exceeded")

    def snap(self) -> None:
        self.trace.append((self.lb, self.ub))

    def open_bounds(self) -> bool:
        return self.ub is None or self.lb < self.ub


def disjoint_core_phase(
    h: CostVector,
    k: CostVector,
    enc: InducedCspEncoding,
    strategy: str,
    ub: int | None = None,
    limit: int | None = None,
) -> Iterator[ImproveOutcome | Satisfiable]:
    """Disjoint-core extraction after ``h`` was improved into the core ``k``:
    repeatedly re-solve with all previously active components released to
    their maximum, improving each new conflict into a core whose active
    components are disjoint from the earlier ones by construction.

    Yields the improvement outcome of each new core in order, then the
    satisfiable answer that ended the phase, if one did.  The phase also
    stops after ``limit`` cores (default: the number of components) or at a
    core with no active component.  ``ub`` is the incumbent cost; the
    solutions the outcomes find tighten it for the later improvements.  A
    caller that consumes the outcomes as they come keeps them when a
    deadline interrupts the phase."""
    max_levels = enc.space.maximum
    if limit is None:
        limit = len(max_levels)
    used = {i for i in range(len(k)) if k[i] < max_levels[i]}
    for _ in range(limit):
        probe = tuple(max_levels[i] if i in used else h[i] for i in range(len(h)))
        res = enc.solve_induced(probe)
        if isinstance(res, Satisfiable):
            yield res
            return
        outcome = improve_core(strategy, res.lazy_core, ub, enc)
        yield outcome
        if outcome.new_ub is not None and (ub is None or outcome.new_ub < ub):
            ub = outcome.new_ub
        active = {i for i in range(len(outcome.core)) if outcome.core[i] < max_levels[i]}
        if not active:
            return
        used |= active


# ---------------------------------------------------------------------------
# the main loop


def _loop(run: _Run, exact: str, greedy: bool) -> None:
    """The IHS loop.  ``exact`` names the exact hitting oracle: "min" (a
    minimum-cost vector, whose cost is a lower bound) or "bounded" (any
    vector cheaper than ub, None when none exists, which closes the bounds).
    With ``greedy`` the loop asks for greedy vectors instead, and runs one
    exact iteration after any greedy vector whose solution does not improve
    ub."""
    fallback = False
    while run.open_bounds():
        run.tick()
        kind = "greedy" if greedy and not fallback else exact
        if fallback:
            run.exact_fallbacks += 1
            fallback = False
        h = run.hitting(kind)
        if h is None:
            run.lb = run.ub
        else:
            if kind == "min":
                run.lb = cost(h)
            res = run.enc.solve_induced(h)
            if isinstance(res, Satisfiable):
                improved = run._record_solution(cost(res.solution_vector), res.assignment)
                fallback = kind == "greedy" and not improved
            else:
                run.improve_and_add(h, res.lazy_core)
        run.snap()


# ---------------------------------------------------------------------------
# entry point


def solve(instance: WcspInstance, cfg: SolverConfig | None = None) -> RunReport:
    """Solve a WCSP to optimality with the configured IHS variant.

    Deterministic for a fixed (instance, config); the reported optimum equals
    the instance's true minimum cost, merging on or off."""
    cfg = cfg or SolverConfig()
    cfg.validate()
    started = time.perf_counter()
    view = build_merged(instance, cfg.merge_cap).view if cfg.merge else instance
    merged = time.perf_counter()
    run = _Run(view, cfg, started)
    run.merge_time, run.encode_time = merged - started, time.perf_counter() - merged
    offset = view.constant_offset
    status = "optimal"
    try:
        res = run.enc.solve_induced(run.enc.space.maximum)
        if isinstance(res, Unsatisfiable):
            return _report(run, "infeasible", None, started, offset)
        greedy = cfg.hv.startswith("grd-")
        _loop(run, "min" if cfg.hv.endswith("lb") else "bounded", greedy)
    except SolveDeadlineExceeded:
        status = "timeout"
    if status == "optimal":
        optimum = run.lb + offset
    else:
        optimum = None
    return _report(run, status, optimum, started, offset)


def _report(
    run: _Run, status: str, optimum: int | None, started: float, offset: int
) -> RunReport:
    def off(x: int | None) -> int | None:
        return None if x is None else x + offset

    return RunReport(
        status=status,
        optimum=optimum,
        final_lb=off(run.lb),
        final_ub=off(run.ub),
        iterations=run.iterations,
        hv_calls=run.hv_calls,
        hv_nodes=run.problem.nodes,
        sat_calls=run.enc.num_solves,
        sat_conflicts=run.enc.solver.conflicts,
        improve_probes=run.improve_probes,
        core_set_size=len(run.problem.cores),
        core_insertions=run.problem.insertions,
        components=run.enc.num_components,
        exact_fallbacks=run.exact_fallbacks,
        bounds_trace=[(off(lb), off(ub)) for lb, ub in run.trace],
        hv_time=run.hv_time,
        sat_time=run.enc.solve_time,
        improve_time=run.improve_time,
        merge_time=run.merge_time,
        encode_time=run.encode_time,
        total_time=time.perf_counter() - started,
        best_assignment=run.best_assignment,
        final_cores=list(run.problem.cores) if run.cfg.keep_cores else None,
        inserted_cores=list(run.inserted) if run.cfg.keep_cores else None,
    )
