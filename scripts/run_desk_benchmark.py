#!/usr/bin/env python3
"""End-to-end desk-scale experiment: generate five small instance families,
run the full 32-configuration matrix under a per-run timeout, and render the
time-ratio, core-ratio, and merge-speedup tables.

Usage:
    python3 scripts/run_desk_benchmark.py [--out OUTDIR] [--count N]
                                          [--timeout SECONDS] [--jobs N]
                                          [--seed N]

The family parameters are miniature versions of the uniform and scale-free
benchmark classes (domains / weights / sparse / scale-free-2 / scale-free-3),
sized so the whole matrix finishes in minutes on one core.  OUTDIR/instances
must hold no .wcsp file yet: the script refuses to mix a run into an earlier
one's instances, and deletes nothing.  The timeout must be positive and
finite, as the time-ratio table clamps timed-out runs to it.
"""

import argparse
import math
import sys
from pathlib import Path

from ihswcsp.cli import main as cli

FAMILIES = [
    # (name, class, n, d, m, w, t)
    ("domains", "uniform", 8, 3, 10, 2, 6),
    ("weights", "uniform", 8, 2, 10, 8, 3),
    ("sparse", "uniform", 12, 2, 14, 2, 2),
    ("scalefree2", "scale-free", 8, 2, 2, 2, 3),
    ("scalefree3", "scale-free", 8, 2, 3, 1, 3),
]


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="bench_out")
    parser.add_argument("--count", type=int, default=10, help="instances per family")
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    # the tables clamp timed-out runs to the timeout, so refuse a bad one
    # now, not after the whole matrix has run
    if not 0 < args.timeout < math.inf:
        print(f"error: --timeout must be positive and finite, not {args.timeout}", file=sys.stderr)
        return 1
    out = Path(args.out)
    instances = out / "instances"
    # bench reads every instance in the directory, so an earlier run's
    # files would mix into this run's tables
    stale = next(instances.glob("*.wcsp"), None)
    if stale is not None:
        print(
            f"error: {instances} already holds instances ({stale.name}); choose a new --out",
            file=sys.stderr,
        )
        return 1
    for name, family, n, d, m, w, t in FAMILIES:
        code = cli([
            "generate", "--class", family,
            "--params", f"{n},{d},{m},{w},{t}",
            "--count", str(args.count),
            "--out", str(instances),
            "--seed", str(args.seed),
            "--name", name,
        ])
        if code != 0:
            return code

    rows = out / "rows.csv"
    code = cli([
        "bench", "--instance", str(instances), "--out", str(rows),
        "--timeout", str(args.timeout), "--jobs", str(args.jobs),
    ])
    if code != 0:
        return code

    for kind in ("time-ratio", "core-ratio", "speedup"):
        print(f"\n==== {kind} ====\n")
        code = cli([
            "table", "--csv", str(rows), "--kind", kind,
            "--timeout", str(args.timeout),
            "--out", str(out / f"table_{kind}.txt"),
        ])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
