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
    strategy: str, h: CostVector, ub: int | None, oracle: InducedCspEncoding
) -> ImproveOutcome:
    """Improve the lazy core of the unsatisfiable vector ``h``.

    ``lazy`` returns the failed-assumption core (no extra probe when the
    oracle just answered for ``h``).  The other strategies raise and probe:
    ``maximal`` until no component can rise, ``cost-bounded`` until the core
    costs at least ``ub`` as well, and ``partial-max`` until the first
    satisfiable probe (components at their maximum are skipped, not counted
    as a stop).  The best solution a probe finds is returned as ``new_ub``.
    """
    if strategy not in _RAISE_SETTINGS:
        raise ValueError(f"unknown core strategy {strategy!r}")
    settings = _RAISE_SETTINGS[strategy]
    before = oracle.num_solves
    k = list(oracle.lazy_core_of(h))
    if settings is None:
        return ImproveOutcome(tuple(k), None, None, oracle.num_solves - before)
    respect_ub, stop_on_sat = settings
    if not respect_ub:
        ub = None
    funcs = oracle.instance.cost_functions
    best_cost: int | None = None
    best_assignment: Assignment | None = None
    next_index = [
        {lv: j for j, lv in enumerate(f.levels)} for f in funcs
    ]
    candidates = [i for i in range(len(k)) if k[i] < funcs[i].levels[-1]]
    while candidates:
        if ub is not None and sum(k) >= ub:
            break
        i = min(candidates, key=lambda i: (k[i], i))
        raised = funcs[i].levels[next_index[i][k[i]] + 1]
        probe = list(k)
        probe[i] = raised
        res = oracle.solve_induced(tuple(probe))
        if isinstance(res, Satisfiable):
            sv_cost = cost(res.solution_vector)
            if best_cost is None or sv_cost < best_cost:
                best_cost, best_assignment = sv_cost, res.assignment
            candidates.remove(i)
            if stop_on_sat:
                break
        else:
            k[i] = raised
            if k[i] >= funcs[i].levels[-1]:
                candidates.remove(i)
    return ImproveOutcome(tuple(k), best_cost, best_assignment, oracle.num_solves - before)
