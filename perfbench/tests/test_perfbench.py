"""Tests of the benchmark itself: inputs, the correctness gate, tracing and
the BENCHMARK.json contract.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MATRIX = workloads.WORKLOADS["matrix"]


@pytest.fixture(scope="module")
def lib():
    return run.load_library(run.ROOT)


@pytest.fixture(scope="module")
def matrix_jobs(lib):
    ref = run.load_reference("matrix")
    return workloads.build_jobs(lib, MATRIX, workloads.Transform.from_seed(7), ref["optima"])


def test_seed_reproduces_identical_instance_text():
    spec = workloads.WORKLOADS["ingest"].instances[1]
    tf = workloads.Transform.from_seed(11)
    first = workloads.instance_text(run.load_library(run.ROOT), spec, tf)
    again = workloads.instance_text(run.load_library(run.ROOT), spec, tf)
    assert first == again
    other = workloads.instance_text(run.load_library(run.ROOT), spec, workloads.Transform.from_seed(12))
    assert other != first


def test_scaled_instances_do_the_same_search(lib):
    """A seed's cost scale and offset leave the solver's work unchanged."""
    spec = MATRIX.instances[3]
    configs = MATRIX.configs[::7]
    identity = workloads.Transform(1, 0)
    for seed in (3, 4):
        tf = workloads.Transform.from_seed(seed)
        assert tf != identity
        for config in configs:
            cfg = workloads.solver_config(lib, config)
            base = lib.driver.solve(lib.parse_wcsp(workloads.instance_text(lib, spec, identity)), cfg)
            scaled = lib.driver.solve(lib.parse_wcsp(workloads.instance_text(lib, spec, tf)), cfg)
            fp = gate.fingerprint(scaled)
            assert (*fp[:4], tf.base(fp[4]), tf.base(fp[5])) == gate.fingerprint(base)
            assert scaled.optimum == tf.cost(base.optimum)


def test_gate_accepts_a_correct_solve(matrix_jobs, lib):
    _, instance, report = run.run_job(lib, matrix_jobs[0])
    assert gate.check(lib, instance, report, matrix_jobs[0].expected_optimum) == []


def test_gate_rejects_a_corrupted_optimum(matrix_jobs, lib):
    job = matrix_jobs[0]
    _, instance, report = run.run_job(lib, job)
    bad = dataclasses.replace(report, optimum=report.optimum + 1)
    assert gate.check(lib, instance, bad, job.expected_optimum)
    assert gate.check(lib, instance, report, job.expected_optimum + 1)


def test_gate_rejects_a_corrupted_assignment(matrix_jobs, lib):
    job = matrix_jobs[0]
    _, instance, report = run.run_job(lib, job)
    a = report.best_assignment
    for i, d in enumerate(instance.domains):
        for v in range(d):
            changed = a[:i] + (v,) + a[i + 1 :]
            feasible, _, total = lib.evaluate(instance, changed)
            if not feasible or total + instance.constant_offset != job.expected_optimum:
                bad = dataclasses.replace(report, best_assignment=changed)
                assert gate.check(lib, instance, bad, job.expected_optimum)
    out_of_domain = (instance.domains[0],) + a[1:]
    bad = dataclasses.replace(report, best_assignment=out_of_domain)
    assert gate.check(lib, instance, bad, job.expected_optimum)
    assert gate.check(lib, instance, dataclasses.replace(report, best_assignment=None), job.expected_optimum)


def test_traced_and_untraced_runs_have_identical_fingerprints(matrix_jobs, lib):
    jobs = matrix_jobs[::16]
    originals = (lib.driver.solve, lib.sat.Solver.solve, lib.encoding.InducedCspEncoding.solve_induced)
    res = run.measure(lib, jobs, 0.001, trace=True)
    assert res.passes == {"untraced": 2, "traced": 2}
    assert not res.problems  # a traced repeat that differs from the first is a problem
    assert all(s is not None for s in res.layers)
    assert (lib.driver.solve, lib.sat.Solver.solve, lib.encoding.InducedCspEncoding.solve_induced) == originals

    metrics = tracing.layer_metrics(res.layers)
    assert set(metrics) | {"trace.overhead", "host.ref_loop_s"} == {n for n, _, _ in tracing.LAYER_METRICS}
    untraced = [gate.fingerprint(run.run_job(lib, job)[2]) for job in jobs]
    assert untraced == res.prints
    assert metrics["driver.iterations"] == sum(fp[0] for fp in untraced)
    assert metrics["encoding.solve_calls"] == sum(fp[2] for fp in untraced)
    assert metrics["hitting.min_calls"] + metrics["hitting.bounded_calls"] + metrics[
        "hitting.greedy_calls"
    ] == sum(fp[1] for fp in untraced)


def test_units_group_the_jobs_of_one_instance(matrix_jobs):
    units = run.units_of(matrix_jobs)
    assert len(units) == len(MATRIX.instances)
    assert [i for unit in units for i in unit] == list(range(len(matrix_jobs)))
    for unit in units:
        assert len({matrix_jobs[i].spec for i in unit}) == 1


def test_every_unit_is_timed_against_the_calibration(matrix_jobs, lib):
    jobs = matrix_jobs[:2] + matrix_jobs[64:66]
    res = run.measure(lib, jobs, 0.001, trace=False)
    assert res.passes["untraced"] == run.MIN_PASSES
    # one calibration before each pass and one after each of its two units
    assert len(res.host.calibrations) == 3 * run.MIN_PASSES
    assert all(c > 0 for c in res.host.calibrations)
    assert [len(r) for r in res.ratios()] == [run.MIN_PASSES] * 2
    assert all(r > 0 for unit in res.ratios() for r in unit)


def test_one_disturbed_calibration_does_not_move_a_ratio():
    host = hostspeed.Calibrated()
    host.calibrations = [0.04, 0.04, 0.4, 0.04, 0.04]
    assert host.ratio(0.4, 1) == pytest.approx(10.0)
    assert host.ratio(0.4, 2) == pytest.approx(10.0)
    assert host.ratio(0.4, 3) == pytest.approx(10.0)  # only three calibrations around the last


def test_a_failed_solve_is_counted_not_skipped(matrix_jobs, lib):
    jobs = [dataclasses.replace(job) for job in matrix_jobs[:3]]
    jobs[1].expected_optimum += 1
    res = run.measure(lib, jobs, 0.001, trace=False)
    assert list(res.problems) == [1]
    assert res.passes["untraced"] == 1  # measuring stops after the first failure


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        tracing.LAYER_METRICS
    )
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    ref = json.loads(run.REFERENCE.read_text())["workloads"]
    for w in workloads.WORKLOADS.values():
        assert set(ref[w.name]["optima"]) == {s.key for s in w.instances}


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
