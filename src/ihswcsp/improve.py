"""Core improvement: transform a core into a dominating core, optionally
discovering better solutions along the way.

Every strategy starts from the lazy core the oracle provides for free, then
raises components one level at a time, always picking the candidate with the
lowest current value (ties toward the smaller index), probing after each
raise and keeping it only while the vector stays a core.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import InducedCspEncoding, Satisfiable
from .model import Assignment, CostVector, cost

# strategy -> (respect_ub, stop_on_sat) of its raise loop; None for lazy,
# which keeps the failed-assumption core as it is
_RAISE_SETTINGS: dict[str, tuple[bool, bool] | None] = {
    "lazy": None,
    "cost-bounded": (True, False),
    "partial-max": (False, True),
    "maximal": (False, False),
}
STRATEGIES = tuple(_RAISE_SETTINGS)


@dataclass
class ImproveOutcome:
    core: CostVector
    new_ub: int | None
    new_ub_assignment: Assignment | None
    probes: int


def improve_core(
    strategy: str, lazy_core: CostVector, ub: int | None, encoding: InducedCspEncoding
) -> ImproveOutcome:
    """Improve ``lazy_core``, the core an unsatisfiable answer of ``encoding``
    carries.

    ``lazy`` returns it as it is, without a probe.  The other strategies
    raise and probe: ``maximal`` until no component can rise,
    ``cost-bounded`` until the core costs at least ``ub`` as well, and
    ``partial-max`` until the first satisfiable probe (components at their
    maximum are skipped, not counted as a stop).  The best solution a probe
    finds is returned as ``new_ub``.
    """
    if strategy not in _RAISE_SETTINGS:
        raise ValueError(f"unknown core strategy {strategy!r}")
    settings = _RAISE_SETTINGS[strategy]
    if settings is None:
        return ImproveOutcome(tuple(lazy_core), None, None, 0)
    respect_ub, stop_on_sat = settings
    if not respect_ub:
        ub = None
    space = encoding.space
    before = encoding.num_solves
    k = list(lazy_core)
    best_cost: int | None = None
    best_assignment: Assignment | None = None
    candidates = [i for i in range(len(k)) if k[i] < space.maximum[i]]
    while candidates:
        if ub is not None and sum(k) >= ub:
            break
        i = min(candidates, key=lambda i: (k[i], i))
        raised = space.above(i, k[i])
        probe = list(k)
        probe[i] = raised
        res = encoding.solve_induced(tuple(probe))
        if isinstance(res, Satisfiable):
            sv_cost = cost(res.solution_vector)
            if best_cost is None or sv_cost < best_cost:
                best_cost, best_assignment = sv_cost, res.assignment
            candidates.remove(i)
            if stop_on_sat:
                break
        else:
            k[i] = raised
            if k[i] >= space.maximum[i]:
                candidates.remove(i)
    return ImproveOutcome(tuple(k), best_cost, best_assignment, encoding.num_solves - before)
