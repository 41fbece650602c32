#!/usr/bin/env python3
"""Benchmark of the ihswcsp solver through its public library API.

    python3 perfbench/run.py --workload hitting-deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.
One process, no workers.  Each pass parses and solves every job of the
workload (a job is an instance and a configuration); passes repeat until
``--seconds`` are used.  The jobs of one instance form a timed unit, and a
fixed calibration workload (hostspeed.py) is timed between units.  Each
unit's time is divided by the median of the calibrations around it, and
``solve_s`` sums each unit's median ratio, in seconds at the calibration's
reference speed.  Every answer goes through the correctness gate, and every
repeat must do exactly the same work as the first.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it holds the per-layer metrics.  A run that cannot start
(no library sources, no reference data) exits with code 2 and prints no
result.  See perfbench/README.md for the workloads and the metrics.
"""

import time

STARTED = time.perf_counter()

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path

import gate
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 9
MIN_PASSES = 3  # untraced runs; traced runs alternate two of each kind

END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cores": "count",
    "solved": "count",
}


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


def load_library(root: Path):
    """Import the ihswcsp package from ``root/src`` afresh: its modules are
    executed again even when an earlier set-up imported them."""
    src = root / "src"
    if not (src / "ihswcsp" / "__init__.py").is_file():
        raise SetupError(f"no ihswcsp sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "ihswcsp" or m.startswith("ihswcsp.")]:
        del sys.modules[name]
    return importlib.import_module("ihswcsp")


def load_reference(workload_name: str) -> dict:
    if not REFERENCE.is_file():
        raise SetupError(f"missing {REFERENCE.name}")
    ref = json.loads(REFERENCE.read_text())["workloads"]
    if workload_name not in ref:
        raise SetupError(f"no reference data for workload {workload_name!r}")
    return ref[workload_name]


def set_up(workload, tf):
    lib = load_library(ROOT)
    ref = load_reference(workload.name)
    return lib, ref, workloads.build_jobs(lib, workload, tf, ref["optima"])


def ref_loop() -> float:
    """Median of five calibrations: the host's speed at one moment."""
    return statistics.median(hostspeed.calibrate() for _ in range(5))


class Results:
    def __init__(self, n_jobs: int, n_units: int):
        self.host = hostspeed.Calibrated()
        # Per unit, each repeat's (seconds, calibration mark).
        self.samples: list[list[tuple[float, int]]] = [[] for _ in range(n_units)]
        self.samples_traced: list[list[tuple[float, int]]] = [[] for _ in range(n_units)]
        self.fastest_traced = [math.inf] * n_jobs
        self.layers: list[dict | None] = [None] * n_jobs  # spans of the fastest traced repeat
        self.prints: list[tuple | None] = [None] * n_jobs  # fingerprint of the first repeat
        self.problems: dict[int, list[str]] = {}
        self.passes = {"untraced": 0, "traced": 0}

    def fail(self, i: int, problems: list[str]) -> None:
        self.problems.setdefault(i, []).extend(problems)

    def ratios(self, traced: bool = False) -> list[list[float]]:
        """Per unit, each repeat's time over the calibrations around it."""
        samples = self.samples_traced if traced else self.samples
        return [[self.host.ratio(t, mark) for t, mark in unit] for unit in samples]

    def raw(self) -> list[list[float]]:
        """Per unit, each untraced repeat's seconds."""
        return [[t for t, _ in unit] for unit in self.samples]


def units_of(jobs) -> list[list[int]]:
    """Consecutive jobs on the same instance form one timed unit."""
    units: list[list[int]] = []
    for i, job in enumerate(jobs):
        if units and jobs[units[-1][0]].spec == job.spec:
            units[-1].append(i)
        else:
            units.append([i])
    return units


def run_job(lib, job):
    start = time.perf_counter()
    instance = lib.wcsp_io.parse_wcsp(job.text)
    report = lib.driver.solve(instance, job.solver_config)
    return time.perf_counter() - start, instance, report


def run_checked(lib, jobs, i: int, res: Results, tracer) -> float | None:
    """Seconds job ``i`` took, after checking its answer; None if it crashed."""
    job = jobs[i]
    if tracer is not None:
        tracer.reset()
    try:
        elapsed, instance, report = run_job(lib, job)
    except Exception:  # a crash is a failed operation; keep measuring the rest
        res.fail(i, [traceback.format_exc(limit=3)])
        return None
    problems = gate.check(lib, instance, report, job.expected_optimum)
    fp = gate.fingerprint(report)
    if res.prints[i] is None:
        res.prints[i] = fp
    elif fp != res.prints[i]:
        problems.append(f"fingerprint {fp} differs from an earlier repeat's {res.prints[i]}")
    if problems:
        res.fail(i, problems)
    if tracer is not None and elapsed < res.fastest_traced[i]:
        res.fastest_traced[i] = elapsed
        res.layers[i] = tracer.snapshot()
    return elapsed


def run_pass(lib, jobs, units, res: Results, tracer=None) -> None:
    gc.collect()
    samples = res.samples if tracer is None else res.samples_traced
    res.host.calibrate()
    for u, unit in enumerate(units):
        mark = res.host.mark()
        times = [run_checked(lib, jobs, i, res, tracer) for i in unit]
        res.host.calibrate()
        if None not in times:
            samples[u].append((sum(times), mark))
    res.passes["untraced" if tracer is None else "traced"] += 1


def measure(lib, jobs, seconds: float, trace: bool) -> Results:
    """Repeat passes until the next one would end after ``seconds``; stop
    early once any job has failed."""
    units = units_of(jobs)
    res = Results(len(jobs), len(units))
    tracer = tracing.Tracer(lib) if trace else None
    plan = itertools.cycle((None, tracer)) if trace else itertools.repeat(None)
    min_passes = 4 if trace else MIN_PASSES
    start = time.perf_counter()
    longest = 0.0
    for n, pass_tracer in enumerate(plan, 1):
        began = time.perf_counter()
        if pass_tracer is None:
            run_pass(lib, jobs, units, res)
        else:
            pass_tracer.install()
            try:
                run_pass(lib, jobs, units, res, pass_tracer)
            finally:
                pass_tracer.uninstall()
        now = time.perf_counter()
        longest = max(longest, now - began)
        if res.problems or (n >= min_passes and now - start + longest > seconds):
            return res


def check_brute_force(lib, jobs, res: Results) -> None:
    """Check each distinct instance's reference optimum by enumeration."""
    checked: dict[str, int | None] = {}
    for i, job in enumerate(jobs):
        key = job.spec.key
        if key not in checked:
            checked[key] = lib.brute_force_optimum(lib.wcsp_io.parse_wcsp(job.text))
        if checked[key] != job.expected_optimum:
            res.fail(i, [f"brute force optimum {checked[key]} != reference {job.expected_optimum}"])


def fingerprint_digest(jobs, prints, tf) -> str:
    """Digest of every job's fingerprint with bounds mapped back to the
    unscaled instance, so runs with any seed can be compared."""
    rows = []
    for job, fp in zip(jobs, prints):
        if fp is not None:
            fp = (*fp[:4], tf.base(fp[4]), tf.base(fp[5]))
        rows.append([job.key, fp])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def median_sum(samples) -> float:
    """Sum over units of each unit's median sample; units without samples
    (every repeat crashed) are left out."""
    return sum(statistics.median(s) for s in samples if s)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    tf = workloads.Transform.from_seed(args.seed)
    host_before = ref_loop()
    setup_host = hostspeed.Calibrated()
    setup_samples = []  # (seconds, calibration mark) of each set-up
    setup_host.calibrate()
    try:
        for _ in range(SETUP_REPEATS):
            mark = setup_host.mark()
            began = time.perf_counter()
            lib, reference, jobs = set_up(workload, tf)
            setup_samples.append((time.perf_counter() - began, mark))
            setup_host.calibrate()
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    cold_setup = time.perf_counter() - STARTED

    res = measure(lib, jobs, args.seconds, bool(args.trace))
    if workload.brute_force:
        check_brute_force(lib, jobs, res)
    host_after = ref_loop()

    digest = fingerprint_digest(jobs, res.prints, tf)
    note = "" if digest == reference["fingerprint_digest"] else " (differs from the recorded search)"
    print(
        f"perfbench {workload.name} seed={args.seed} scale={tf.scale} offset={tf.offset} "
        f"jobs={len(jobs)} passes={res.passes} cold_setup_s={cold_setup:.3f} "
        f"host.ref_loop_s={host_before:.4f}/{host_after:.4f} (start/end) "
        f"calibration_s={statistics.median(res.host.calibrations):.4f} "
        f"raw_solve_s={median_sum(res.raw()):.4f} "
        f"fingerprints={digest}{note}",
        file=sys.stderr,
    )
    for i, problems in sorted(res.problems.items()):
        print(f"FAILED {jobs[i].key}: {'; '.join(problems)}", file=sys.stderr)

    failed = len(res.problems)
    if args.trace:
        snapshots = [s for s in res.layers if s is not None]
        values = tracing.layer_metrics(snapshots)
        values["trace.overhead"] = median_sum(res.ratios(traced=True)) / median_sum(res.ratios())
        values["host.ref_loop_s"] = (host_before + host_after) / 2
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        metrics = {name: metric(values[name], units[name]) for name, _, _ in tracing.LAYER_METRICS}
    else:
        values = {
            "solve_s": hostspeed.REFERENCE_S * median_sum(res.ratios()),
            "setup_s": hostspeed.REFERENCE_S
            * statistics.median(setup_host.ratio(t, mark) for t, mark in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cores": sum(fp[3] for fp in res.prints if fp is not None),
            "solved": len(jobs) - failed,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
