#!/usr/bin/env python3
"""Record the benchmark's reference data in perfbench/reference.json.

    python3 perfbench/record.py [WORKLOAD ...]

For every instance of each named workload (default: all), the optimum found
by the workload's first configuration is cross-checked against a second
configuration and, where the workload asks for it, against
brute_force_optimum.  Every job of the workload must then pass the
correctness gate against that optimum.  The digest of the jobs' fingerprints
records the search at the current commit.
"""

import json
import sys

import gate
import run
import workloads


def record(lib, workload) -> dict:
    tf = workloads.Transform(1, 0)
    optima = {}
    for spec in workload.instances:
        text = workloads.instance_text(lib, spec, tf)
        checks = [workload.configs[0]]
        if workload.cross_check is not None:
            checks.append(workload.cross_check)
        found = {
            c.key: lib.driver.solve(lib.parse_wcsp(text), workloads.solver_config(lib, c)).optimum
            for c in checks
        }
        if workload.brute_force:
            found["brute force"] = lib.brute_force_optimum(lib.parse_wcsp(text))
        if None in found.values() or len(set(found.values())) != 1:
            raise SystemExit(f"{workload.name} {spec.key}: optima disagree: {found}")
        optima[spec.key] = found[checks[0].key]
        print(f"{workload.name} {spec.key}: optimum {optima[spec.key]} ({', '.join(found)})")

    jobs = workloads.build_jobs(lib, workload, tf, optima)
    prints = []
    for job in jobs:
        _, instance, report = run.run_job(lib, job)
        problems = gate.check(lib, instance, report, job.expected_optimum)
        if problems:
            raise SystemExit(f"{workload.name} {job.key}: {'; '.join(problems)}")
        prints.append(gate.fingerprint(report))
    return {
        "cross_check": None if workload.cross_check is None else workload.cross_check.key,
        "optima": optima,
        "fingerprint_digest": run.fingerprint_digest(jobs, prints, tf),
    }


def main(argv: list[str]) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workloads: {unknown}", file=sys.stderr)
        return 2
    lib = run.load_library(run.ROOT)
    data = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {"workloads": {}}
    for name in names:
        data["workloads"][name] = record(lib, workloads.WORKLOADS[name])
    data["workloads"] = dict(sorted(data["workloads"].items()))
    run.REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
