"""Core improvement: transform a core into a dominating core, optionally
discovering better solutions along the way.

Every strategy starts from the lazy core the oracle provides for free, then
raises components one level at a time, always picking the candidate with the
lowest current value (ties toward the smaller index), probing after each
raise and keeping it only while the vector stays a core.  A probe reads only
the yes-or-no answer, so it asks the oracle for no core.
"""

from __future__ import annotations

from math import inf

from .encoding import InducedCspEncoding, Satisfiable
from .model import CostVector

STRATEGIES = ("lazy", "cost-bounded", "partial-max", "maximal")


def improve_core(
    strategy: str, lazy_core: CostVector, ub: float, encoding: InducedCspEncoding
) -> tuple[CostVector, Satisfiable | None]:
    """Improve ``lazy_core``, the core an unsatisfiable answer of ``encoding``
    carries.

    ``lazy`` returns it as it is, without a probe.  The other strategies
    raise and probe: ``maximal`` until no component can rise,
    ``cost-bounded`` until the core costs at least ``ub`` as well, and
    ``partial-max`` until the first satisfiable probe (components at their
    maximum are skipped, not counted as a stop).  Returns ``(core, best)``:
    the improved core and the cheapest satisfiable probe answer, or None
    when no probe was satisfiable.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown core strategy {strategy!r}")
    if strategy == "lazy":
        return tuple(lazy_core), None
    if strategy != "cost-bounded":
        ub = inf
    space = encoding.space
    k = list(lazy_core)
    best: Satisfiable | None = None
    candidates = [i for i in range(len(k)) if k[i] < space.maximum[i]]
    while candidates and sum(k) < ub:
        i = min(candidates, key=lambda i: (k[i], i))
        raised = space.above(i, k[i])
        probe = list(k)
        probe[i] = raised
        res = encoding.solve_induced(tuple(probe), core=False)
        if isinstance(res, Satisfiable):
            if best is None or sum(res.solution_vector) < sum(best.solution_vector):
                best = res
            candidates.remove(i)
            if strategy == "partial-max":
                break
        else:
            k[i] = raised
            if k[i] >= space.maximum[i]:
                candidates.remove(i)
    return tuple(k), best
