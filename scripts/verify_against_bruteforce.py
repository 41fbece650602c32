#!/usr/bin/env python3
"""Randomized soak test: generate instances, solve them with every
configuration (hitting-vector strategy, core strategy, merging and the
disjoint phase, 64 in all), and compare each optimum against exhaustive
enumeration.

Usage:
    python3 scripts/verify_against_bruteforce.py [--trials N] [--seed S]

Exits nonzero on the first disagreement, printing the offending instance in
wcsp format so it can be replayed with the CLI.
"""

import argparse
import itertools
import random
import sys

from ihswcsp.driver import HV_STRATEGIES, SolverConfig, solve
from ihswcsp.improve import STRATEGIES
from ihswcsp.wcsp_io import GeneratorParams, brute_force_optimum, gen_scale_free, gen_uniform, write_wcsp


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    for trial in range(args.trials):
        if rng.random() < 0.3:
            n = rng.randint(5, 8)
            p = GeneratorParams(n, 2, rng.randint(1, 3), rng.randint(1, 3),
                                rng.randint(1, 4), seed=rng.randrange(1 << 30))
            inst = gen_scale_free(p)
        else:
            n = rng.randint(5, 9)
            d = rng.randint(2, 3)
            p = GeneratorParams(n, d, rng.randint(3, min(12, n * (n - 1) // 2)),
                                rng.randint(1, 3), rng.randint(1, min(6, d * d)),
                                seed=rng.randrange(1 << 30))
            inst = gen_uniform(p)
        expected = brute_force_optimum(inst)
        configs = 0
        for hv, core, merge, disjoint in itertools.product(
            HV_STRATEGIES, STRATEGIES, (False, True), (False, True)
        ):
            report = solve(inst, SolverConfig(hv=hv, core=core, merge=merge, disjoint=disjoint))
            if report.optimum != expected:
                print(f"MISMATCH trial={trial} hv={hv} core={core} merge={merge} "
                      f"disjoint={disjoint}: got {report.optimum}, expected {expected}")
                print(write_wcsp(inst))
                return 1
            configs += 1
        print(f"trial {trial}: optimum {expected} confirmed by all {configs} configurations")
    return 0


if __name__ == "__main__":
    sys.exit(run())
