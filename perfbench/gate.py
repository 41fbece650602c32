"""The correctness gate and the exact-work fingerprint of one solve."""

from __future__ import annotations


def fingerprint(report) -> tuple:
    """What the solver did, exactly: equal fingerprints mean equal work."""
    return (
        report.iterations,
        report.hv_calls,
        report.sat_calls,
        report.core_set_size,
        report.final_lb,
        report.final_ub,
    )


def check(lib, instance, report, expected_optimum: int) -> list[str]:
    """Problems with one solve's answer; an empty list means it passed.

    The solve must prove the expected optimum, and its assignment must be
    feasible and cost exactly that optimum on the parsed instance."""
    problems = []
    if report.status != "optimal":
        problems.append(f"status {report.status}")
    if report.optimum != expected_optimum:
        problems.append(f"optimum {report.optimum} != reference {expected_optimum}")
    a = report.best_assignment
    if a is None:
        problems.append("no assignment")
        return problems
    if len(a) != instance.num_vars or any(
        not 0 <= v < d for v, d in zip(a, instance.domains)
    ):
        problems.append(f"assignment {a!r} lies outside the domains")
        return problems
    feasible, _, total = lib.evaluate(instance, a)
    if not feasible:
        problems.append("assignment is infeasible")
    if total + instance.constant_offset != expected_optimum:
        problems.append(
            f"assignment costs {total + instance.constant_offset} != {expected_optimum}"
        )
    return problems
