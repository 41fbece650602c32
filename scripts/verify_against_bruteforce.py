#!/usr/bin/env python3
"""Randomized soak test: generate instances, solve them with every
configuration (hitting-vector strategy, core strategy, merging and the
disjoint phase, 64 in all), and compare each optimum against exhaustive
enumeration.  Every third trial, the first included, is a random tiny WCSP
text with tuples at ``top`` and nonzero defaults, so that the parser's split
into hard constraints and cost functions is solved too.

Usage:
    python3 scripts/verify_against_bruteforce.py [--trials N] [--seed S]

Exits nonzero on the first disagreement, or the first exception raised by
the solver or the enumeration, printing the trial, the configuration (and
the exception's type and message) and the offending instance in wcsp format
so it can be replayed with the CLI.
"""

import argparse
import itertools
import random
import sys
import traceback

from ihswcsp.cli import AXES, parse_matrix
from ihswcsp.driver import solve
from ihswcsp.wcsp_io import (
    GeneratorParams,
    brute_force_optimum,
    gen_scale_free,
    gen_uniform,
    parse_wcsp,
    write_wcsp,
)


def random_text(rng: random.Random, top: int = 20) -> str:
    """A tiny WCSP text: unary and binary functions with a nonzero default
    (sometimes ``top``) and some tuples costing ``top``; half of them list
    every tuple."""
    n = rng.randint(2, 5)
    domains = [rng.randint(1, 3) for _ in range(n)]
    nfunctions = rng.randint(1, 4)
    lines = [f"soak {n} {max(domains)} {nfunctions} {top}", " ".join(map(str, domains))]
    for _ in range(nfunctions):
        scope = rng.sample(range(n), rng.randint(1, 2))
        cells = list(itertools.product(*(range(domains[x]) for x in scope)))
        if rng.random() < 0.5:
            cells = rng.sample(cells, rng.randint(0, len(cells)))
        lines.append(" ".join(map(str, (len(scope), *scope, rng.choice((1, 3, 5, top)), len(cells)))))
        lines += [" ".join(map(str, (*t, rng.choice((0, 1, 2, 4, top))))) for t in cells]
    return "\n".join(lines) + "\n"


def failed(line: str, instance_text: str) -> int:
    """Print what failed and the instance to replay it with; the exit code."""
    print(line)
    print(instance_text)
    return 1


# every hv and core strategy, merging off and on, the disjoint phase off and on
CONFIGS = parse_matrix("merge=off,on;disjoint=off,on")


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    for trial in range(args.trials):
        if trial % 3 == 0:
            text = random_text(rng)
            inst = parse_wcsp(text)
        elif rng.random() < 0.3:
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
        replay = text if trial % 3 == 0 else write_wcsp(inst)
        config = "brute force"
        configs = 0
        try:
            expected = brute_force_optimum(inst)
            for cfg in CONFIGS:
                config = " ".join(f"{a}={getattr(cfg, a)}" for a in AXES)
                report = solve(inst, cfg)
                if report.optimum != expected:
                    return failed(f"MISMATCH trial={trial} {config}: got {report.optimum}, "
                                  f"expected {expected}", replay)
                configs += 1
        except Exception as e:
            traceback.print_exc()
            return failed(f"CRASH trial={trial} {config}: {type(e).__name__}: {e}", replay)
        print(f"trial {trial}: optimum {expected} confirmed by all {configs} configurations")
    return 0


if __name__ == "__main__":
    sys.exit(run())
