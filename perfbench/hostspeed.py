"""A fixed pure-Python workload that measures how fast the host runs now.

On a shared host the CPU's speed drifts by a quarter or more within minutes,
so raw wall times of the same solve differ between runs by more than any
change worth measuring.  ``calibrate`` times a fixed mix of the kinds of work
the solver does (integer arithmetic, a pointer chase over a few megabytes of
Python objects, and dict and list look-ups) in about 45 ms.  The benchmark
times it between its timed operations and divides each operation's time by
the median of the four calibrations nearest it, two before and two after: a
slow spell slows both, and the ratio stays.  The median, rather than the
mean of the two neighbours, keeps one disturbed calibration from moving the
ratio.

``REFERENCE_S`` converts such a ratio back to seconds: it is what
``calibrate`` takes on the 2-core host the benchmark was built on, at its
usual speed.  The code here is frozen: changing it changes every reported
time.
"""

from __future__ import annotations

import random
import statistics
import time

REFERENCE_S = 0.040

_RNG = random.Random(20250113)


def _single_cycle(n: int) -> list[int]:
    """A random permutation of range(n) that is one cycle (Sattolo)."""
    p = list(range(n))
    for i in range(n - 1, 0, -1):
        j = _RNG.randrange(i)
        p[i], p[j] = p[j], p[i]
    return p


_CHAIN = _single_cycle(1 << 17)
_VARS = 300
_CLAUSES = [
    [_RNG.choice((1, -1)) * _RNG.randint(1, _VARS) for _ in range(3)] for _ in range(1200)
]
_WATCHES: dict[int, list[int]] = {}
for _ci, _clause in enumerate(_CLAUSES):
    for _lit in _clause[:2]:
        _WATCHES.setdefault(_lit, []).append(_ci)


def calibrate() -> float:
    """Seconds the fixed workload takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(140_000):
        acc = (acc + i * i) % 1_000_003
    k = 0
    chain = _CHAIN
    for _ in range(70_000):
        k = chain[k]
    unassigned = 0
    for _ in range(9):
        value: dict[int, bool] = {}
        for v in range(1, _VARS + 1, 3):
            value[v] = True
            for ci in _WATCHES.get(-v, ()):
                unassigned += sum(1 for lit in _CLAUSES[ci] if abs(lit) not in value)
    return time.perf_counter() - start


class Calibrated:
    """Timings taken between calibrations, and their host-normalised values.

    Call ``calibrate`` before the first timed operation and after each one;
    ``mark`` names the calibration just before an operation."""

    def __init__(self):
        self.calibrations: list[float] = []

    def calibrate(self) -> None:
        self.calibrations.append(calibrate())

    def mark(self) -> int:
        return len(self.calibrations) - 1

    def ratio(self, seconds: float, mark: int) -> float:
        """``seconds`` over the median calibration from two before to two
        after the operation."""
        return seconds / statistics.median(self.calibrations[max(0, mark - 1) : mark + 3])
