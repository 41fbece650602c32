"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines as they complete.
"""

import csv
import itertools
import random
from collections import defaultdict

from conftest import grown

from ihswcsp.cli import main as cli_main
from ihswcsp.driver import HV_STRATEGIES, SolverConfig, solve
from ihswcsp.encoding import InducedCspEncoding, Satisfiable, Unsatisfiable
from ihswcsp.hitting import LevelSpace, cost_bounded_hv, greedy_hv, min_cost_hv
from ihswcsp.improve import STRATEGIES
from ihswcsp.merge import build_merged
from ihswcsp.model import evaluate
from ihswcsp.sat import Solver
from ihswcsp.wcsp_io import brute_force_optimum, parse_wcsp, write_wcsp
from oracles import (
    add_clause,
    enumerate_hitting,
    hits,
    neg,
    pos,
    random_cnf,
    random_cores,
    random_level_space,
    random_tiny_instance,
    truth_table_sat,
)


def _report(number: int, label: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {label}: {verdict}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def _view_for(inst, merge: bool):
    return build_merged(inst).view if merge else inst


def test_criterion_01_whole_solver_oracle_equivalence(suite1, suite1_oracle, suite1_runs):
    failures = []
    assert len(suite1) >= 200
    for name, _ in suite1:
        expected = suite1_oracle[name]
        for hv in HV_STRATEGIES:
            for core in STRATEGIES:
                for merge in (False, True):
                    report = suite1_runs[(name, hv, core, merge)]
                    if report.status != "optimal" or report.optimum != expected:
                        failures.append((name, hv, core, merge, report.status, report.optimum, expected))
    _report(1, "whole-solver oracle equivalence (200 x 32)", failures)


def test_criterion_02_hitting_solver_oracle():
    failures = []
    rng = random.Random(777)
    for trial in range(500):
        levels = random_level_space(rng)
        cores = random_cores(rng, levels)
        expected_cost, expected_vec = enumerate_hitting(levels, cores)
        if expected_cost is None:
            continue
        problem = grown(LevelSpace(levels), cores)
        h = min_cost_hv(problem)
        if sum(h) != expected_cost or h != expected_vec or not hits(h, cores):
            failures.append((trial, "min", h, expected_cost, expected_vec))
        for ub in (expected_cost, expected_cost + 1, expected_cost + 4):
            got = cost_bounded_hv(problem, ub)
            if (got is None) != (expected_cost >= ub):
                failures.append((trial, "bounded", ub, got))
            elif got is not None and (sum(got) >= ub or not hits(got, cores)):
                failures.append((trial, "bounded-value", ub, got))
        g = greedy_hv(problem)
        if not hits(g, cores) or sum(g) < expected_cost:
            failures.append((trial, "greedy", g))
    _report(2, "hitting vectors vs exhaustive enumeration (500 problems)", failures)


def test_criterion_03_sat_engine_oracle():
    failures = []
    rng = random.Random(778)
    for trial in range(1000):
        max_vars = 20 if trial % 25 == 0 else 13
        n, clauses = random_cnf(rng, max_vars=max_vars)
        assumptions = []
        if rng.random() < 0.5:
            for v in rng.sample(range(n), rng.randint(0, min(5, n))):
                assumptions.append(pos(v) if rng.random() < 0.5 else neg(v))
        solver = Solver()
        for c in clauses:
            add_clause(solver, c)
        solver.ensure_var(n - 1)
        res = solver.solve(assumptions)
        if res.sat != truth_table_sat(n, clauses, assumptions):
            failures.append((trial, "verdict"))
            continue
        if not res.sat:
            fresh = Solver()
            for c in clauses:
                add_clause(fresh, c)
            for a in res.failed:
                add_clause(fresh, [a])
            if fresh.solve().sat:
                failures.append((trial, "failed-set"))
    _report(3, "sat engine vs truth tables (1000 formulas)", failures)


def test_criterion_04_induced_encoding_equivalence():
    failures = []
    rng = random.Random(779)
    for trial in range(50):
        w = random_tiny_instance(rng, max_vars=4, max_dom=3, max_funcs=3)
        enc = InducedCspEncoding(w)
        assignments = list(itertools.product(*(range(d) for d in w.domains)))
        for v in itertools.product(*(f.levels for f in w.cost_functions)):
            res = enc.solve_induced(v)
            expected = any(
                evaluate(w, a)[0]
                and all(evaluate(w, a)[1][i] <= v[i] for i in range(len(v)))
                for a in assignments
            )
            if isinstance(res, Satisfiable) != expected:
                failures.append((trial, v))
    _report(4, "induced-CSP encoding vs assignment enumeration (50 instances)", failures)


def test_criterion_05_bound_invariants(suite1, suite1_oracle, suite1_runs):
    failures = []
    for name, inst in suite1:
        w_star = suite1_oracle[name]
        for hv in HV_STRATEGIES:
            for core in STRATEGIES:
                for merge in (False, True):
                    report = suite1_runs[(name, hv, core, merge)]
                    trace = report.bounds_trace
                    lbs = [lb for lb, _ in trace if lb is not None]
                    ubs = [ub for _, ub in trace if ub is not None]
                    if any(lb > w_star for lb in lbs) or any(ub < w_star for ub in ubs):
                        failures.append((name, hv, core, merge, "sandwich"))
                    if lbs != sorted(lbs):
                        failures.append((name, hv, core, merge, "lb-monotone"))
                    if any(a < b for a, b in zip(ubs, ubs[1:])):
                        failures.append((name, hv, core, merge, "ub-monotone"))
                    if report.final_lb != report.final_ub:
                        failures.append((name, hv, core, merge, "terminal"))
        for hv in ("lb", "grd-lb"):
            for merge in (False, True):
                report = suite1_runs[(name, hv, "maximal", merge)]
                view = _view_for(inst, merge)
                proof = min_cost_hv(grown(LevelSpace.from_instance(view), report.final_cores))
                if sum(proof) + view.constant_offset != report.optimum:
                    failures.append((name, hv, merge, "terminal-mhv"))
    _report(5, "bound sandwich, monotone traces, terminal MHV", failures)


def test_criterion_06_core_validity_and_maximality(suite1, suite1_runs):
    failures = []
    for name, inst in suite1:
        for merge in (False, True):
            view = _view_for(inst, merge)
            audit = InducedCspEncoding(view)
            inserted = set()
            maximal_cores = set()
            for hv in HV_STRATEGIES:
                for core in STRATEGIES:
                    report = suite1_runs[(name, hv, core, merge)]
                    inserted.update(report.inserted_cores)
                    if core == "maximal":
                        maximal_cores.update(report.final_cores)
            for k in sorted(inserted):
                if isinstance(audit.solve_induced(k), Satisfiable):
                    failures.append((name, merge, "core-sat", k))
            for k in sorted(maximal_cores):
                for i, f in enumerate(view.cost_functions):
                    if k[i] >= f.levels[-1]:
                        continue
                    raised = list(k)
                    raised[i] = f.levels[f.levels.index(k[i]) + 1]
                    if isinstance(audit.solve_induced(tuple(raised)), Unsatisfiable):
                        failures.append((name, merge, "not-maximal", k, i))
    _report(6, "inserted cores re-verify UNSAT; maximal cores are maximal", failures)


def test_criterion_07_merge_preservation(suite1, suite1_runs):
    failures = []
    for name, inst in suite1:
        for hv in HV_STRATEGIES:
            for core in STRATEGIES:
                on = suite1_runs[(name, hv, core, True)]
                off = suite1_runs[(name, hv, core, False)]
                if on.optimum != off.optimum:
                    failures.append((name, hv, core, on.optimum, off.optimum))
                if on.components > off.components:
                    failures.append((name, hv, core, "components"))
    _report(7, "merge preserves optima and never adds components", failures)


def test_criterion_08_core_set_size_direction(suite1, suite1_runs):
    failures = []
    solved = [
        name
        for name, _ in suite1
        if all(
            suite1_runs[(name, hv, core, merge)].status == "optimal"
            for hv in HV_STRATEGIES
            for core in STRATEGIES
            for merge in (False, True)
        )
    ]
    assert len(solved) >= 100
    for hv in HV_STRATEGIES:
        sizes = defaultdict(list)
        for name in solved:
            for merge in (False, True):
                for core in ("maximal", "lazy"):
                    sizes[core].append(suite1_runs[(name, hv, core, merge)].core_set_size)
        mean_maximal = sum(sizes["maximal"]) / len(sizes["maximal"])
        mean_lazy = sum(sizes["lazy"]) / len(sizes["lazy"])
        if mean_maximal > mean_lazy:
            failures.append((hv, mean_maximal, mean_lazy))
    _report(8, "mean core-set size: maximal <= lazy per hv strategy", failures)


def test_criterion_09_determinism(suite1, suite1_runs):
    failures = []
    for name, inst in suite1[:20]:
        for hv in HV_STRATEGIES:
            for core in STRATEGIES:
                for merge in (False, True):
                    first = suite1_runs[(name, hv, core, merge)]
                    again = solve(inst, SolverConfig(hv=hv, core=core, merge=merge))
                    same = (
                        first.optimum == again.optimum
                        and first.iterations == again.iterations
                        and first.core_set_size == again.core_set_size
                        and first.hv_calls == again.hv_calls
                        and first.sat_calls == again.sat_calls
                        and first.improve_probes == again.improve_probes
                    )
                    if not same:
                        failures.append((name, hv, core, merge))
    _report(9, "identical counters on repeated runs (20 instances)", failures)


def test_criterion_10_format_and_cli(suite1, suite1_oracle, tmp_path, capsys):
    failures = []
    for name, inst in suite1:
        reparsed = parse_wcsp(write_wcsp(inst))
        if brute_force_optimum(reparsed) != suite1_oracle[name]:
            failures.append((name, "roundtrip"))

    fam = tmp_path / "fam"
    fam.mkdir()
    for name, inst in suite1[:3]:
        (fam / f"fam_{name[-3:]}.wcsp").write_text(write_wcsp(inst))
    rows_csv = tmp_path / "rows.csv"
    code = cli_main([
        "bench", "--instance", str(fam), "--out", str(rows_csv),
        "--matrix", "hv=lb,ub;core=lazy,maximal;merge=off",
    ])
    if code != 0:
        failures.append(("bench-exit", code))
    code = cli_main(["table", "--csv", str(rows_csv), "--kind", "core-ratio"])
    table_out = capsys.readouterr().out
    if code != 0:
        failures.append(("table-exit", code))

    # the one-best-cell invariant is asserted on a tie-free synthetic fixture
    synthetic = tmp_path / "synthetic.csv"
    with rows_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    for i, row in enumerate(rows):
        row["instance"] = "synth_0"
        row["status"] = "optimal"
        row["total_time_ms"] = str(1000 * (i + 1))
    with synthetic.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    code = cli_main(["table", "--csv", str(synthetic), "--kind", "time-ratio"])
    table_out = capsys.readouterr().out
    if code != 0:
        failures.append(("synthetic-exit", code))
    if table_out.count(" 1.00 (0)") != 1:
        failures.append(("one-best-cell", table_out.count(" 1.00 (0)")))
    _report(10, "wcsp round-trip and bench->table pipeline", failures)
