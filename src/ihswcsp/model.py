"""Data model for weighted CSPs: instances, cost vectors and their level grid."""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from math import prod
from operator import add, mul
from typing import Iterable

CostVector = tuple[int, ...]
Assignment = tuple[int, ...]


@dataclass(frozen=True)
class HardConstraint:
    """Forbidden value combinations over an ordered variable scope."""

    scope: tuple[int, ...]
    forbidden: frozenset[tuple[int, ...]]

    def violates(self, assignment: Assignment) -> bool:
        return tuple(assignment[x] for x in self.scope) in self.forbidden


class FullTable(Mapping):
    """A read-only table that lists every tuple of a scope: ``costs`` holds
    the cost of each tuple in product order (the last position varies
    fastest) over ``shape``, the scope's domain sizes, and ``strides`` each
    position's weight in a tuple's index into ``costs``.  It equals the dict
    of the same tuples and costs, and iterates in the same order."""

    def __init__(self, shape: tuple[int, ...], costs: list[int]):
        if len(costs) != prod(shape):
            raise ValueError(f"{len(costs)} costs for a table of shape {shape}")
        self.shape = shape = tuple(shape)
        self.costs = costs
        self.strides = tuple(prod(shape[p + 1 :]) for p in range(len(shape)))

    def __len__(self) -> int:
        return len(self.costs)

    def __iter__(self):
        return itertools.product(*map(range, self.shape))

    def __getitem__(self, key: tuple[int, ...]) -> int:
        try:
            if type(key) is tuple and len(key) == len(self.shape):
                if all(0 <= a < d for a, d in zip(key, self.shape)):
                    return self.costs[sum(map(mul, key, self.strides))]
        except TypeError:  # an entry that is not an integer
            pass
        raise KeyError(key)


def product_sum(
    domains: tuple[int, ...], scope: tuple[int, ...], tables: Iterable[tuple[tuple[int, ...], list[int]]]
) -> list[int]:
    """The sum over ``scope``, one entry per tuple in product order, of the
    ``(sub_scope, costs)`` tables, each listing its costs in product order
    over its own ``sub_scope`` (a subset of ``scope`` in any order); all 0
    without a table.  A table out of ``scope``'s order is first gathered
    into it by flat index; then each ``scope`` variable it lacks, from the
    last one back, repeats every block of entries over the variables after
    it once per value, by list copies rather than entry by entry."""
    position = {x: p for p, x in enumerate(scope)}
    total = None
    for sub, costs in tables:
        ordered = sorted(sub, key=position.__getitem__)
        if ordered != list(sub):
            index = [0]
            for x in ordered:
                s = prod(domains[y] for y in sub[sub.index(x) + 1 :])
                index = [i + o for i in index for o in range(0, s * domains[x], s)]
            costs = list(map(costs.__getitem__, index))
        size = 1  # entries per block: the tuples of the variables after x
        for x in reversed(scope):
            d = domains[x]
            if x not in sub:
                blocks = (costs[b : b + size] * d for b in range(0, len(costs), size))
                costs = list(itertools.chain.from_iterable(blocks))
            size *= d
        total = list(costs) if total is None else list(map(add, total, costs))
    return [0] * prod(domains[x] for x in scope) if total is None else total


@dataclass(frozen=True)
class CostFunction:
    """Table-defined cost function over an ordered variable scope.

    ``explicit`` maps listed tuples to their costs: a dict for a parsed
    table, a ``FullTable`` for a merged one.  ``levels`` is the sorted set of
    costs the function ranges over; every explicit cost appears in it, so
    does the default cost when the table leaves a tuple unlisted (a
    ``WcspInstance`` refuses the function otherwise), and it may carry extra
    levels (they only enlarge the vector space, never change the optimum).
    """

    scope: tuple[int, ...]
    default_cost: int
    explicit: Mapping[tuple[int, ...], int]
    levels: tuple[int, ...]

    def value(self, assignment: Assignment) -> int:
        return self.explicit.get(tuple(assignment[x] for x in self.scope), self.default_cost)

    def dense(self, domains: tuple[int, ...]) -> list[int]:
        """The cost of every tuple of the scope, in product order."""
        if isinstance(self.explicit, FullTable):
            return self.explicit.costs
        tuples = itertools.product(*(range(domains[x]) for x in self.scope))
        return list(map(self.explicit.get, tuples, itertools.repeat(self.default_cost)))


def make_cost_function(
    scope: tuple[int, ...],
    default_cost: int | None,
    explicit: dict[tuple[int, ...], int],
    domains: tuple[int, ...],
    blocked: frozenset[tuple[int, ...]] = frozenset(),
) -> CostFunction | None:
    """Build a cost function, computing its level set.

    Levels are the distinct costs the function can take over non-blocked
    tuples, plus 0 when the default cost is 0 (even if the explicit table
    covers the whole cross product).  ``default_cost=None`` means unlisted
    tuples are all blocked (hard-forbidden upstream).  A default that is
    not among those costs (None included) becomes the lowest level.  Returns
    None when no cost level remains (pure hard constraint).
    """
    table_size = prod(domains[x] for x in scope)
    costs = set(explicit.values())
    if default_cost is not None:
        has_unlisted = len(explicit) + len(blocked) < table_size
        if has_unlisted or default_cost == 0:
            costs.add(default_cost)
    if not costs:
        return None
    levels = tuple(sorted(costs))
    if default_cost not in costs:
        default_cost = levels[0]
    return CostFunction(scope, default_cost, dict(explicit), levels)


class LevelSpace:
    """The grid of cost vectors: component ``i`` ranges over the sorted
    levels ``levels[i]`` of its cost function."""

    def __init__(self, levels: Iterable[Iterable[int]]):
        self.levels = tuple(tuple(ls) for ls in levels)
        self.baseline: CostVector = tuple(ls[0] for ls in self.levels)
        self.maximum: CostVector = tuple(ls[-1] for ls in self.levels)

    @classmethod
    def from_instance(cls, w: WcspInstance) -> LevelSpace:
        return cls(f.levels for f in w.cost_functions)

    def above(self, i: int, v: int) -> int | None:
        """The level of component ``i`` next above its level ``v``, or None
        when ``v`` is its maximum; a ``v`` that is not one of its levels
        raises ``ValueError``."""
        ls = self.levels[i]
        j = bisect_right(ls, v)
        if not j or ls[j - 1] != v:
            raise ValueError(f"value {v} is not a level of component {i}")
        return ls[j] if j < len(ls) else None


@dataclass(frozen=True)
class WcspInstance:
    """A weighted CSP: variables with finite domains, hard constraints, and
    cost functions.  ``top`` is the hard-cost threshold; all stored costs are
    below it.  ``constant_offset`` accumulates folded constant functions and
    is added to reported optima, never to solution vectors."""

    name: str
    domains: tuple[int, ...]
    hard_constraints: tuple[HardConstraint, ...]
    cost_functions: tuple[CostFunction, ...]
    top: int
    constant_offset: int = 0

    @property
    def num_vars(self) -> int:
        return len(self.domains)

    def __post_init__(self) -> None:
        if self.top < 1:
            raise ValueError("top must be >= 1")
        n = len(self.domains)
        if any(d < 1 for d in self.domains):
            raise ValueError("every domain must be nonempty")
        for hc in self.hard_constraints:
            self._check_scope(hc.scope, n)
            if not self._tuples_fit(hc.forbidden, hc.scope):
                for t in hc.forbidden:
                    self._check_tuple(t, hc.scope)
        for i, f in enumerate(self.cost_functions):
            self._check_scope(f.scope, n)
            if not all(a < b for a, b in zip(f.levels, f.levels[1:])):
                raise ValueError("levels must be strictly increasing")
            if not f.levels:
                raise ValueError("cost function without levels")
            if not (0 <= f.levels[0] and f.levels[-1] < self.top):
                raise ValueError("levels must lie in [0, top)")
            level_set = set(f.levels)
            if isinstance(f.explicit, FullTable):
                shape = tuple(self.domains[x] for x in f.scope)
                if f.explicit.shape != shape:
                    raise ValueError(f"table shape {f.explicit.shape} is not {shape}, "
                                     f"the domains of scope {f.scope}")
                if level_set.issuperset(f.explicit.costs):
                    continue
            elif self._tuples_fit(f.explicit, f.scope) and level_set.issuperset(f.explicit.values()):
                # an unlisted tuple costs the default, so it must be a level
                if f.default_cost in level_set or len(f.explicit) == prod(self.domains[x] for x in f.scope):
                    continue
                raise ValueError(f"default cost {f.default_cost} of cost function {i} over scope "
                                 f"{f.scope} is not a level, and its table leaves tuples unlisted")
            for t, c in f.explicit.items():  # find and name the first bad entry
                self._check_tuple(t, f.scope)
                if c not in level_set:
                    raise ValueError(f"explicit cost {c} of tuple {t} missing from levels")

    def _check_scope(self, scope: tuple[int, ...], n: int) -> None:
        if len(set(scope)) != len(scope):
            raise ValueError(f"repeated variable in scope {scope}")
        if any(not (0 <= x < n) for x in scope):
            raise ValueError(f"scope {scope} out of range for {n} variables")

    def _tuples_fit(self, tuples, scope: tuple[int, ...]) -> bool:
        """Whether every tuple fits the scope's arity and domains, by columns."""
        if not tuples:
            return True
        if set(map(len, tuples)) != {len(scope)}:
            return False
        return all(
            0 <= min(col) and max(col) < self.domains[x] for x, col in zip(scope, zip(*tuples))
        )

    def _check_tuple(self, t: tuple[int, ...], scope: tuple[int, ...]) -> None:
        if len(t) != len(scope):
            raise ValueError(f"tuple {t} does not match scope arity {len(scope)}")
        if any(not (0 <= a < self.domains[x]) for x, a in zip(scope, t)):
            raise ValueError(f"tuple {t} outside domain of scope {scope}")


def evaluate(w: WcspInstance, assignment: Assignment) -> tuple[bool, CostVector, int]:
    """Check feasibility and evaluate the per-function solution vector.

    Returns ``(feasible, solution_vector, total_cost)`` with ``total_cost``
    equal to the plain sum of the solution vector (the instance's constant
    offset, if any, is applied by optimum-reporting callers).
    """
    if len(assignment) != w.num_vars:
        raise ValueError("assignment length does not match variable count")
    for x, (a, d) in enumerate(zip(assignment, w.domains)):
        if not 0 <= a < d:
            raise ValueError(f"value {a} of variable {x} is outside its domain of size {d}")
    sv = tuple(f.value(assignment) for f in w.cost_functions)
    feasible = all(not hc.violates(assignment) for hc in w.hard_constraints)
    feasible = feasible and all(v < w.top for v in sv)
    return feasible, sv, sum(sv)
