import dataclasses
import itertools
import math
import random
import time

import pytest

from conftest import grown

from ihswcsp.driver import SolverConfig, solve
from ihswcsp.encoding import InducedCspEncoding, SolveDeadlineExceeded, Unsatisfiable
from ihswcsp.hitting import HittingProblem, LevelSpace, min_cost_hv
from ihswcsp.merge import build_merged
from ihswcsp.model import (
    CostFunction,
    FullTable,
    HardConstraint,
    WcspInstance,
    evaluate,
    make_cost_function,
)
from ihswcsp.wcsp_io import GeneratorParams, brute_force_optimum, gen_scale_free, gen_uniform
from oracles import certify, dominates, random_tiny_instance, three_colouring

ALL_HV = ("lb", "ub", "grd-lb", "grd-ub")
ALL_CORE = ("lazy", "cost-bounded", "partial-max", "maximal")


def _forced_instance():
    f = CostFunction((0,), 0, {(0,): 2}, (0, 1, 2))
    return WcspInstance("forced", (1,), (), (f,), 10)


def _two_conflicts_instance():
    # two independent sub-instances, each forcing a cost of 1
    f1 = make_cost_function((0,), 0, {(0,): 1, (1,): 2}, (2, 2))
    f2 = make_cost_function((1,), 0, {(0,): 1, (1,): 2}, (2, 2))
    return WcspInstance("twin", (2, 2), (), (f1, f2), 10)


def test_lb_hand_trace_on_forced_instance():
    report = solve(_forced_instance(), SolverConfig(hv="lb", core="maximal"))
    assert report.status == "optimal"
    assert report.optimum == 2
    assert report.iterations == 2
    assert report.core_set_size == 1
    # the maximal improvement's satisfiable probe already sights the optimum
    assert report.bounds_trace == [(0, 2), (2, 2)]


def test_ub_hand_trace_on_forced_instance():
    # lazy cores climb one level per iteration and close with the NUL answer;
    # maximal improvement sights the optimum during its probes and saves the
    # explicit solution iteration
    lazy = solve(_forced_instance(), SolverConfig(hv="ub", core="lazy"))
    assert lazy.status == "optimal"
    assert lazy.optimum == 2
    assert lazy.iterations == 4
    assert lazy.bounds_trace[-1] == (2, 2)
    maximal = solve(_forced_instance(), SolverConfig(hv="ub", core="maximal"))
    assert maximal.optimum == 2
    assert maximal.iterations == 2
    assert maximal.core_set_size == 1


def test_baseline_satisfiable_zero_cost():
    f = make_cost_function((0,), 0, {(1,): 1}, (2,))
    w = WcspInstance("zero", (2,), (), (f,), 10)
    lb = solve(w, SolverConfig(hv="lb"))
    assert lb.optimum == 0 and lb.iterations == 1
    # the cost-bounded loop's while-condition already closes at lb = ub = 0,
    # so no explicit NUL iteration is needed
    ub = solve(w, SolverConfig(hv="ub"))
    assert ub.optimum == 0 and ub.iterations == 1


def test_infeasible_instance_reported():
    hc = HardConstraint((0, 1), frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    f = make_cost_function((0,), 0, {(1,): 1}, (2, 2))
    w = WcspInstance("dead", (2, 2), (hc,), (f,), 10)
    for hv in ALL_HV:
        report = solve(w, SolverConfig(hv=hv))
        assert report.status == "infeasible"
        assert report.optimum is None


def test_oracle_equivalence_all_configs():
    rng = random.Random(21)
    for _ in range(12):
        w = random_tiny_instance(rng)
        expected = brute_force_optimum(w)
        for hv in ALL_HV:
            for core in ALL_CORE:
                for merge in (False, True):
                    report = solve(w, SolverConfig(hv=hv, core=core, merge=merge))
                    if expected is None:
                        assert report.status == "infeasible"
                    else:
                        assert report.optimum == expected, (hv, core, merge)


def test_trace_monotone_and_terminal_equality():
    rng = random.Random(22)
    for _ in range(10):
        w = random_tiny_instance(rng)
        if brute_force_optimum(w) is None:
            continue
        for hv in ALL_HV:
            report = solve(w, SolverConfig(hv=hv, core="partial-max"))
            trace = report.bounds_trace
            lbs = [lb for lb, _ in trace if lb is not None]
            assert lbs == sorted(lbs)
            ubs = [ub for _, ub in trace if ub is not None]
            assert all(a >= b for a, b in zip(ubs, ubs[1:]))
            assert report.final_lb == report.final_ub == report.optimum


def test_lb_without_disjoint_inserts_one_core_per_nonfinal_iteration():
    rng = random.Random(23)
    for _ in range(10):
        w = random_tiny_instance(rng)
        if brute_force_optimum(w) is None:
            continue
        report = solve(w, SolverConfig(hv="lb", core="maximal"))
        assert len(report.inserted_cores) == report.iterations - 1


def test_default_solve_reports_its_cores():
    w = gen_uniform(GeneratorParams(8, 3, 10, 2, 6, seed=5))
    report = solve(w)
    rebuilt = grown(LevelSpace.from_instance(w), report.final_cores)
    assert report.final_cores == rebuilt.cores
    assert report.inserted_cores


def test_lb_terminal_core_set_proves_optimum():
    rng = random.Random(24)
    for _ in range(10):
        w = random_tiny_instance(rng)
        if brute_force_optimum(w) is None:
            continue
        for hv in ("lb", "grd-lb"):
            report = solve(w, SolverConfig(hv=hv, core="maximal"))
            space = LevelSpace.from_instance(w)
            proof = min_cost_hv(grown(space, report.final_cores))
            assert sum(proof) + w.constant_offset == report.optimum


# instances past brute force's reach (3**20 and 3**18 assignments), their
# optima, and the configurations certified on each
CERTIFIED_RUNS = [
    (GeneratorParams(20, 3, 2, 3, 6, seed=2), 50, [
        SolverConfig(hv="lb", core="maximal", merge=True),
        SolverConfig(hv="lb", core="maximal", merge=True, disjoint=True),
        SolverConfig(hv="ub", core="maximal", merge=True),
        SolverConfig(hv="grd-lb", core="partial-max", merge=True),
        SolverConfig(hv="lb", core="maximal"),
    ]),
    (GeneratorParams(18, 3, 2, 3, 6, seed=1), 94, [
        SolverConfig(hv="lb", core="maximal", merge=True, disjoint=True),
        SolverConfig(hv="ub", core="maximal", merge=True),
    ]),
]


@pytest.mark.parametrize("params, optimum, configs", CERTIFIED_RUNS)
def test_runs_past_brute_force_carry_a_certificate(params, optimum, configs):
    instance = gen_scale_free(params)
    for cfg in configs:
        report = solve(instance, cfg)
        assert (report.status, report.optimum) == ("optimal", optimum), cfg
        certify(instance, cfg, report)


def test_run_grows_one_problem_that_equals_a_rebuild(monkeypatch):
    import ihswcsp.driver as driver

    built = []

    class Recorded(HittingProblem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(driver, "HittingProblem", Recorded)
    evictions = 0
    for seed in range(1, 8):
        w = gen_uniform(GeneratorParams(8, 3, 10, 2, 6, seed=seed))
        for core, disjoint in (("lazy", False), ("lazy", True), ("maximal", False)):
            built.clear()
            cfg = SolverConfig(hv="lb", core=core, disjoint=disjoint)
            report = solve(w, cfg)
            [problem] = built
            rebuilt = grown(LevelSpace.from_instance(w), report.final_cores)
            for table in ("cores", "witnesses", "columns"):
                assert getattr(problem, table) == getattr(rebuilt, table)
            # the antichain rules, replayed: add stores every core the run
            # gives it, and survivors keep their order
            expected = []
            for k in report.inserted_cores:
                assert not any(dominates(c, k) for c in expected)
                expected = [c for c in expected if not dominates(k, c)] + [k]
            assert problem.cores == expected
            assert problem.nodes == report.hv_nodes
            evictions += len(report.inserted_cores) - report.core_set_size
    assert evictions > 0


def test_disjoint_phase_extracts_independent_cores():
    w = _two_conflicts_instance()
    report = solve(w, SolverConfig(hv="lb", core="maximal", disjoint=True))
    assert report.optimum == 2
    assert len(report.inserted_cores) >= 2
    # the first iteration already contributed two disjoint cores
    assert report.iterations < 3 or len(report.inserted_cores) > report.iterations - 1


def test_disjoint_phase_adds_disjoint_cores_in_first_iteration():
    w = _two_conflicts_instance()
    report = solve(w, SolverConfig(hv="lb", core="maximal", disjoint=True))
    # the first iteration inserts both cores; the second one is satisfiable
    assert report.iterations == 2 and report.bounds_trace[-1] == (2, 2)
    first, second = report.inserted_cores
    top = LevelSpace.from_instance(w).maximum
    active = [{i for i in range(len(k)) if k[i] < top[i]} for k in (first, second)]
    assert active[0] and active[1] and not active[0] & active[1]
    fresh = InducedCspEncoding(w)
    for k in (first, second):
        assert isinstance(fresh.solve_induced(k), Unsatisfiable)
    without = solve(w, SolverConfig(hv="lb", core="maximal"))
    assert without.iterations == 3


def test_single_conflict_instance_yields_no_extras():
    w = _forced_instance()
    on = solve(w, SolverConfig(hv="lb", core="maximal", disjoint=True))
    off = solve(w, SolverConfig(hv="lb", core="maximal"))
    assert on.inserted_cores == off.inserted_cores == [(1,)]
    # the phase's only probe is the satisfiable one that ends it
    assert on.improve_probes == off.improve_probes + 1


def test_disjoint_phase_probes_at_most_one_per_component(monkeypatch):
    import ihswcsp.driver as driver

    phases: list[int] = []  # non-improvement probes of each refutation
    inside = {"phase": False, "improve": False}
    inner_refute, inner_improve = driver._Run.refute, driver.improve_core
    inner_solve = InducedCspEncoding.solve_induced

    def refute(self, h, lazy_core):
        phases.append(0)
        inside["phase"] = True
        try:
            return inner_refute(self, h, lazy_core)
        finally:
            inside["phase"] = False

    def improve(*args):
        inside["improve"] = True
        try:
            return inner_improve(*args)
        finally:
            inside["improve"] = False

    def solve_induced(self, vector, core=True):
        if inside["phase"] and not inside["improve"]:
            phases[-1] += 1
        return inner_solve(self, vector, core)

    monkeypatch.setattr(driver._Run, "refute", refute)
    monkeypatch.setattr(driver, "improve_core", improve)
    monkeypatch.setattr(InducedCspEncoding, "solve_induced", solve_induced)
    rng = random.Random(27)
    longest = 0
    for _ in range(12):
        w = random_tiny_instance(rng)
        for hv in ALL_HV:
            for core in ALL_CORE:
                phases.clear()
                report = solve(w, SolverConfig(hv=hv, core=core, disjoint=True))
                assert all(1 <= n <= report.components for n in phases), (hv, core, phases)
                longest = max([longest, *phases])
    assert longest > 1  # some phase went past its first probe


def test_sat_time_bills_improvement_and_disjoint_probes(monkeypatch):
    from ihswcsp.sat import Solver

    pause = 0.005
    inner = Solver.solve

    def slow_solve(self, *args, **kwargs):
        time.sleep(pause)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve", slow_solve)
    report = solve(_two_conflicts_instance(), SolverConfig(hv="lb", core="maximal", disjoint=True))
    assert report.improve_probes > 0
    assert report.sat_time >= report.sat_calls * pause


def test_timeout_reported():
    w = gen_uniform(GeneratorParams(8, 3, 10, 2, 6, seed=5))
    report = solve(w, SolverConfig(hv="lb", core="maximal", time_limit=1e-9))
    assert report.status == "timeout"
    assert report.optimum is None


def test_timeout_keeps_the_feasibility_solution(monkeypatch):
    # a run whose first hitting call times out reports the solution of the
    # feasibility pre-check, and its cost as ub, merging on or off
    import ihswcsp.driver as driver

    def expire(problem):
        raise SolveDeadlineExceeded

    monkeypatch.setattr(driver, "min_cost_hv", expire)
    w = gen_uniform(GeneratorParams(8, 3, 10, 2, 6, seed=5))
    w = dataclasses.replace(
        w, hard_constraints=(HardConstraint((0, 1), frozenset({(0, 0), (1, 1)})),), constant_offset=7
    )
    for merge in (False, True):
        report = solve(w, SolverConfig(hv="lb", core="lazy", merge=merge))
        assert report.status == "timeout" and report.optimum is None
        assert (report.sat_calls, report.iterations, report.bounds_trace) == (1, 1, [])
        feasible, _, total = evaluate(w, report.best_assignment)
        assert feasible
        assert report.final_ub == total + 7


def test_deadline_interrupts_hitting_search():
    # one hitting call on this instance can take about 0.3 s, so the limit is
    # kept only if the branch and bound itself watches the deadline
    w = gen_uniform(GeneratorParams(15, 3, 30, 4, 6, seed=1))
    report = solve(w, SolverConfig(hv="lb", core="maximal", time_limit=2))
    assert report.status == "timeout"
    assert report.total_time < 2.5


def test_deadline_interrupts_a_sat_solve():
    # the feasibility solve alone runs far past the limit, so the limit is
    # kept only if the SAT engine itself polls the deadline
    started = time.perf_counter()
    report = solve(three_colouring(450), SolverConfig(time_limit=1.0))
    assert report.status == "timeout"
    assert time.perf_counter() - started < 10


def test_deadline_interrupts_the_encoding_build():
    # each of the four tables lists one of its 16**4 tuples at cost 0, so the
    # encoding streams 65,535 clauses per table: about half a second in all
    domains = (16,) * 16
    tables = [make_cost_function((x, x + 1, x + 2, x + 3), 1, {(0,) * 4: 0}, domains) for x in (0, 4, 8, 12)]
    w = WcspInstance("dense", domains, (), tuple(tables), 10)
    with pytest.raises(SolveDeadlineExceeded):
        InducedCspEncoding(w, deadline=time.perf_counter())
    started = time.perf_counter()
    report = solve(w, SolverConfig(time_limit=0.05))
    assert time.perf_counter() - started < 0.05 + 0.2
    assert report.status == "timeout" and report.optimum is None
    assert (report.final_lb, report.final_ub, report.iterations) == (0, None, 0)
    assert (report.sat_calls, report.sat_conflicts, report.sat_time) == (0, 0, 0.0)
    assert report.components == 4 and report.final_cores == [] and report.bounds_trace == []
    assert 0 < report.encode_time <= report.total_time


def test_a_run_stopped_in_set_up_reports_what_it_did():
    # an encoding stopped by the deadline (the instance above), merging off
    # and on, then a merge stopped by it: min-fill alone on this graph takes
    # seconds, and the run keeps the instance's 5000 functions
    domains = (16,) * 16
    tables = [make_cost_function((x, x + 1, x + 2, x + 3), 1, {(0,) * 4: 0}, domains) for x in (0, 4, 8, 12)]
    dense = WcspInstance("dense", domains, (), tuple(tables), 10, 3)
    wide = gen_uniform(GeneratorParams(1000, 2, 5000, 2, 2, seed=1))
    for w, merge, limit in ((dense, False, 0.05), (dense, True, 0.05), (wide, True, 0.5)):
        started = time.perf_counter()
        report = dataclasses.asdict(solve(w, SolverConfig(merge=merge, time_limit=limit)))
        assert time.perf_counter() - started < limit + (1.5 if w is wide else 0.2)
        times = {k: report.pop(k) for k in list(report) if k.endswith("_time")}
        assert report == {
            "status": "timeout", "optimum": None, "final_lb": w.constant_offset, "final_ub": None,
            "iterations": 0, "hv_calls": 0, "hv_nodes": 0, "sat_calls": 0, "sat_conflicts": 0,
            "improve_probes": 0, "core_set_size": 0, "components": len(w.cost_functions),
            "exact_fallbacks": 0, "bounds_trace": [], "final_cores": [], "inserted_cores": [],
            "best_assignment": None,
        }
        assert (times["hv_time"], times["sat_time"], times["improve_time"]) == (0.0, 0.0, 0.0)
        assert (times["merge_time"] > 0) == merge
        assert (times["encode_time"] > 0) == (w is dense)
        assert times["merge_time"] + times["encode_time"] <= times["total_time"]


def test_a_run_builds_one_level_space(monkeypatch):
    import ihswcsp.model as model

    built = []
    init = model.LevelSpace.__init__

    def counted(self, levels):
        built.append(self)
        init(self, levels)

    monkeypatch.setattr(model.LevelSpace, "__init__", counted)
    w = gen_uniform(GeneratorParams(8, 3, 10, 2, 6, seed=5))
    for merge in (False, True):
        for hv in ALL_HV:
            built.clear()
            report = solve(w, SolverConfig(hv=hv, merge=merge))
            assert report.status == "optimal" and len(built) == 1


def test_deadline_holds_in_ub_mode():
    # ub mode spends its time in cost-bounded searches and improvement probes
    w = gen_scale_free(GeneratorParams(25, 3, 2, 4, 6, seed=1))
    report = solve(w, SolverConfig(hv="ub", core="maximal", time_limit=2))
    assert report.status == "timeout"
    assert report.total_time < 2.5


def test_an_infinite_time_limit_runs_as_the_default_one():
    # time_limit=inf hands inf to every deadline (merging, encoding, SAT,
    # hitting); the run must then be the default-limit run in every field
    # but the times.  Most scale-free runs pass the SAT engine's 64-conflict
    # poll; test_search_polls_deadline runs a search past the 1024-node one.
    rng = random.Random(32)
    instances = [gen_scale_free(GeneratorParams(12, 3, 2, 3, 6, seed=1))]
    instances += [random_tiny_instance(rng) for _ in range(2)]
    for w in instances:
        for hv, core, merge in itertools.product(("lb", "ub", "grd-lb"), ("maximal", "cost-bounded"), (False, True)):
            reports = [
                solve(w, SolverConfig(hv=hv, core=core, merge=merge, time_limit=limit))
                for limit in (math.inf, SolverConfig.time_limit)
            ]
            unbounded, bounded = (
                {k: v for k, v in dataclasses.asdict(r).items() if not k.endswith("_time")} for r in reports
            )
            assert unbounded == bounded, (w.name, hv, core, merge)
            assert unbounded["status"] in ("optimal", "infeasible")


def test_determinism_of_counters():
    rng = random.Random(25)
    conflicts = 0
    for _ in range(5):
        w = random_tiny_instance(rng)
        for hv in ALL_HV:
            cfg = SolverConfig(hv=hv, core="cost-bounded", merge=True)
            a, b = solve(w, cfg), solve(w, cfg)
            assert (a.status, a.optimum, a.iterations, a.core_set_size) == (
                b.status,
                b.optimum,
                b.iterations,
                b.core_set_size,
            )
            assert (a.hv_calls, a.hv_nodes, a.sat_calls, a.sat_conflicts, a.improve_probes) == (
                b.hv_calls,
                b.hv_nodes,
                b.sat_calls,
                b.sat_conflicts,
                b.improve_probes,
            )
            if not hv.startswith("grd-"):  # every iteration runs the branch and bound
                assert a.hv_nodes >= a.hv_calls > 0
            conflicts += a.sat_conflicts
    assert conflicts > 0  # the counter is read from the SAT engine


def test_grd_exact_fallback_engages_and_stays_correct():
    # frozen seed whose greedy iteration goes useless at least once
    rng = random.Random(2914)
    found = False
    for _ in range(60):
        w = random_tiny_instance(rng)
        expected = brute_force_optimum(w)
        if expected is None:
            continue
        for hv in ("grd-lb", "grd-ub"):
            report = solve(w, SolverConfig(hv=hv, core="lazy"))
            assert report.optimum == expected
            assert report.iterations < 10_000
            if report.exact_fallbacks > 0:
                found = True
    assert found, "no greedy run ever fell back to an exact iteration"


# (hv, disjoint) -> (bounds_trace, iterations, hv_calls, sat_calls,
# exact_fallbacks, core_set_size) for GOLDEN_PARAMS under maximal cores
GOLDEN_PARAMS = GeneratorParams(8, 3, 10, 2, 6, seed=5)
GOLDEN = {
    ("lb", False): ([(0, 43), (6, 25), (6, 25), (10, 25), (11, 21), (15, 21), (15, 15)], 7, 7, 53, 0, 6),
    ("lb", True): ([(0, 36), (10, 25), (10, 25), (14, 25), (15, 22), (15, 15)], 6, 6, 55, 0, 7),
    ("ub", False): (
        [(0, 43), (0, 43), (0, 32), (0, 32), (0, 32), (0, 32), (0, 26), (0, 25), (0, 21), (0, 17), (0, 15), (15, 15)],
        12, 12, 67, 0, 9,
    ),
    ("ub", True): ([(0, 36), (0, 25), (0, 25), (0, 25), (0, 17), (0, 15), (15, 15)], 7, 7, 53, 0, 7),
    ("grd-lb", False): (
        [(0, 43), (0, 43), (0, 32), (0, 32), (0, 32), (0, 15), (0, 15), (14, 15), (14, 15), (14, 15), (15, 15)],
        11, 11, 65, 2, 7,
    ),
    ("grd-lb", True): (
        [(0, 36), (0, 25), (0, 25), (0, 25), (0, 15), (0, 15), (14, 15), (14, 15), (15, 15)],
        9, 9, 64, 2, 8,
    ),
    ("grd-ub", False): (
        [(0, 43), (0, 43), (0, 32), (0, 32), (0, 32), (0, 15), (0, 15), (0, 15), (0, 15), (0, 15), (15, 15)],
        11, 11, 64, 2, 7,
    ),
    ("grd-ub", True): (
        [(0, 36), (0, 25), (0, 25), (0, 25), (0, 15), (0, 15), (0, 15), (0, 15), (15, 15)],
        9, 9, 63, 2, 8,
    ),
}


@pytest.mark.parametrize("hv, disjoint", sorted(GOLDEN))
def test_golden_trace(hv, disjoint):
    w = gen_uniform(GOLDEN_PARAMS)
    r = solve(w, SolverConfig(hv=hv, core="maximal", disjoint=disjoint))
    got = (r.bounds_trace, r.iterations, r.hv_calls, r.sat_calls, r.exact_fallbacks, r.core_set_size)
    assert got == GOLDEN[hv, disjoint]


def test_merge_changes_component_count_not_optimum():
    rng = random.Random(26)
    for _ in range(8):
        w = random_tiny_instance(rng, max_vars=3, max_funcs=3)
        expected = brute_force_optimum(w)
        if expected is None:
            continue
        merged_components = len(build_merged(w).view.cost_functions)
        on = solve(w, SolverConfig(hv="ub", core="maximal", merge=True))
        off = solve(w, SolverConfig(hv="ub", core="maximal", merge=False))
        assert on.optimum == off.optimum == expected
        assert on.components == merged_components
        assert on.components <= off.components


def test_instance_without_cost_functions():
    hc = HardConstraint((0, 1), frozenset({(0, 0)}))
    w = WcspInstance("hardonly", (2, 2), (hc,), (), 10)
    for hv in ALL_HV:
        report = solve(w, SolverConfig(hv=hv, merge=True))
        assert report.status == "optimal" and report.optimum == 0


def test_constant_merged_cluster():
    # the two functions sum to 1 on every assignment, collapsing the merged
    # component to a single level
    f1 = make_cost_function((0,), 0, {(1,): 1}, (2,))
    f2 = make_cost_function((0,), 0, {(0,): 1}, (2,))
    w = WcspInstance("const", (2,), (), (f1, f2), 10)
    assert [f.levels for f in build_merged(w).view.cost_functions] == [(1,)]
    for hv in ALL_HV:
        report = solve(w, SolverConfig(hv=hv, core="maximal", merge=True))
        assert report.optimum == 1


def test_zero_variable_instance_solves_with_and_without_merging():
    f = CostFunction((), 0, {(): 5}, (0, 5))
    w = WcspInstance("z", (), (), (f,), 10)
    for merge in (False, True):
        report = solve(w, SolverConfig(merge=merge))
        assert report.status == "optimal" and report.optimum == 5


def test_default_whose_unlisted_tuples_are_all_at_top_solves_in_every_configuration():
    # the one unlisted tuple (3,) is at top, so the default 5 is no cost the
    # function takes and must not reach the encoding as a level
    from ihswcsp.wcsp_io import parse_wcsp

    w = parse_wcsp("blk 1 4 1 10\n4\n1 0 5 4\n0 1\n1 2\n2 1\n3 10\n")
    assert brute_force_optimum(w) == 1
    for hv, core, merge, disjoint in itertools.product(ALL_HV, ALL_CORE, (False, True), (False, True)):
        report = solve(w, SolverConfig(hv=hv, core=core, merge=merge, disjoint=disjoint))
        assert report.optimum == 1, (hv, core, merge, disjoint)


def test_a_default_off_the_levels_is_refused_while_a_tuple_is_unlisted():
    # the unlisted tuple (1,) of the unary function costs its default: at 0
    # the search read it as level 1 and reported optimum 1 against a true 0,
    # and at 5 the encoding found no selector for it
    pair = CostFunction((0, 1), 0, {(0, 0): 3, (1, 1): 0}, (0, 3))
    for default in (0, 5):
        f = CostFunction((0,), default, {(0,): 1}, (1, 2))
        with pytest.raises(ValueError, match=rf"default cost {default} of cost function 0 over scope \(0,\)"):
            WcspInstance("bad", (2, 2), (), (f, pair), 10)
    # a table that lists every tuple never costs its default, so keeps any
    for table in ({(0,): 1, (1,): 2}, FullTable((2,), [1, 2])):
        w = WcspInstance("full", (2, 2), (), (CostFunction((0,), 5, table, (1, 2)), pair), 10)
        assert brute_force_optimum(w) == 1
        for merge in (False, True):
            assert solve(w, SolverConfig(merge=merge)).optimum == 1


def test_deadline_during_core_improvement_keeps_its_probes(monkeypatch):
    # the 40th improvement probe meets the deadline in the middle of a
    # refutation; the probes that refutation already made stay counted
    import ihswcsp.driver as driver

    seen = {"improving": False, "probes": 0, "other": 0}
    inner_improve, inner_solve = driver.improve_core, InducedCspEncoding.solve_induced

    def improve(*args):
        seen["improving"] = True
        try:
            return inner_improve(*args)
        finally:
            seen["improving"] = False

    def solve_induced(self, vector, core=True):
        if not seen["improving"]:
            seen["other"] += 1
        elif seen["probes"] == 39:
            raise SolveDeadlineExceeded
        else:
            seen["probes"] += 1
        return inner_solve(self, vector, core)

    monkeypatch.setattr(driver, "improve_core", improve)
    monkeypatch.setattr(InducedCspEncoding, "solve_induced", solve_induced)
    w = gen_uniform(GeneratorParams(10, 4, 20, 6, 10, seed=2))
    report = solve(w, SolverConfig(hv="ub", core="maximal", merge=True))
    assert report.status == "timeout"
    # the feasibility pre-check, the oracle calls and every probe that ran
    assert report.improve_probes == seen["probes"] == 39
    assert report.sat_calls == seen["other"] + report.improve_probes == 42


def test_constant_offset_flows_through_solve():
    from ihswcsp.wcsp_io import parse_wcsp

    w = parse_wcsp("off 1 2 2 10\n2\n1 0 3 0\n1 0 0 1\n1 2\n")
    assert w.constant_offset == 3
    assert brute_force_optimum(w) == 3
    for merge in (False, True):
        report = solve(w, SolverConfig(hv="lb", core="maximal", merge=merge))
        assert report.optimum == 3
        assert report.final_lb == report.final_ub == 3


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(hv="nope")
    with pytest.raises(ValueError):
        SolverConfig(core="nope")
    with pytest.raises(ValueError):
        SolverConfig(time_limit=0)
    with pytest.raises(ValueError):
        SolverConfig(time_limit=float("nan"))
