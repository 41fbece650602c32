"""CNF encoding of induced CSPs with per-level selector assumptions.

Each WCSP variable gets one-hot value literals; each cost function gets one
selector literal per cost level meaning "this function costs at most that
level", chained toward looser bounds so every costed tuple is forbidden by a
single clause anchored at the level just below its own cost.  Solving the CSP
induced by a cost vector is then a single assumption-based SAT call, and the
failed assumptions map directly to a lazy core.

Every variable is created in one ``Solver.ensure_var`` call, and every
clause built here is clean, as ``Solver.add_clauses`` requires.
``WcspInstance`` rejects a repeated scope variable, so no clause repeats a
variable.  Selector variables are created after every value variable, so a
forbid clause is sorted as built when its scope ascends (merged scopes
always do); other scopes are sorted here.  The solver may keep a clause
list it is given, so a list the encoder keeps (``value_lit``) is handed
over as a copy.

A table that lists every tuple (every merged table, a ``FullTable``, and
any parsed table that lists them all) has its forbid clauses built in one
pass in product order, the order of its sorted tuples: each tuple's negated
value literals zipped with its cost, read in product order by
``CostFunction.dense``.  A partial table lists its costed tuples sorted, then
its unlisted ones.  The decoding reads a ``FullTable``'s cost by flat index.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import prod
from operator import itemgetter, mul

from .model import Assignment, CostVector, FullTable, LevelSpace, WcspInstance
from .sat import SolveDeadlineExceeded, Solver
from .wcsp_io import ENUMERATION_CAP


def _scope_key(scope):
    """The function that reads a scope's tuple off an assignment tuple; a
    slice keeps the tuple form for a scope of one variable or none."""
    if len(scope) > 1:
        return itemgetter(*scope)
    return itemgetter(slice(scope[0], scope[0] + 1) if scope else slice(0))


@dataclass(frozen=True)
class Satisfiable:
    assignment: Assignment
    solution_vector: CostVector


@dataclass(frozen=True)
class Unsatisfiable:
    lazy_core: CostVector | None


class InducedCspEncoding:
    """One encoding (and one incremental SAT engine) per solver run.

    ``space`` is the instance's level grid.  ``deadline``, a
    ``time.perf_counter()`` reading or None, becomes the solver's, which
    polls it while loading the clauses, and raises ``SolveDeadlineExceeded``
    past it."""

    def __init__(self, instance: WcspInstance, deadline: float | None = None):
        self.space = space = LevelSpace.from_instance(instance)
        self.domains = instance.domains
        # each unlisted tuple above the baseline costs one clause, so refuse a
        # table past the enumeration cap before building anything
        n_unlisted = [
            prod(instance.domains[x] for x in f.scope) - len(f.explicit)
            for f in instance.cost_functions
        ]
        for i, (f, count) in enumerate(zip(instance.cost_functions, n_unlisted)):
            if count > ENUMERATION_CAP and f.default_cost > space.baseline[i]:
                raise ValueError(
                    f"cost function {i} over scope {f.scope} has {count} unlisted tuples "
                    f"at default cost {f.default_cost}, more than the {ENUMERATION_CAP} "
                    "the encoding enumerates"
                )
        self.solver = solver = Solver()
        solver.deadline = deadline
        self.num_solves = 0
        self.solve_time = 0.0

        # every value variable, then every selector variable, in one step
        n_sels = sum(len(f.levels) for f in instance.cost_functions)
        solver.ensure_var(sum(instance.domains) + n_sels - 1)
        self.value_lit: list[list[int]] = []
        first = 0
        for d in instance.domains:
            lits = list(range(2 * first, 2 * (first + d), 2))
            first += d
            self.value_lit.append(lits)
            # a copy: a stored clause is reordered in place by propagation
            solver.add_clauses([lits[:], *([a ^ 1, b ^ 1] for a, b in itertools.combinations(lits, 2))])

        for hc in instance.hard_constraints:
            solver.add_clauses(self._forbidding(hc.scope, ((t, None) for t in sorted(hc.forbidden))))

        self.sel: list[dict[int, int]] = []  # per component: level -> its selector
        for i, f in enumerate(instance.cost_functions):
            sels = list(range(2 * first, 2 * (first + len(f.levels)), 2))
            first += len(f.levels)
            solver.add_clauses([a ^ 1, b] for a, b in zip(sels, sels[1:]))
            self.sel.append(dict(zip(f.levels, sels)))
            # level -> the negated selector of the level below it
            below = dict(zip(f.levels[1:], [lit ^ 1 for lit in sels]))
            if not n_unlisted[i]:
                solver.add_clauses(self._forbidding_full(f, below))
                continue
            base = space.baseline[i]
            explicit = sorted(f.explicit.items())
            solver.add_clauses(self._forbidding(f.scope, ((t, below[c]) for t, c in explicit if c > base)))
            # the unlisted tuples are streamed, never held as a list; a table
            # with unlisted tuples has its default among its levels
            if f.default_cost > base:
                ranges = [range(instance.domains[x]) for x in f.scope]
                neg_sel = below[f.default_cost]
                unlisted = (t for t in itertools.product(*ranges) if t not in f.explicit)
                solver.add_clauses(self._forbidding(f.scope, ((t, neg_sel) for t in unlisted)))
        # for decoding: each variable's first value variable, and each
        # function's scope key and table lookup: a dict's with its default, a
        # FullTable's cost list with its strides (a tuple)
        self._first = [lits[0] >> 1 for lits in self.value_lit]
        self._tables = [
            (_scope_key(f.scope), f.explicit.costs.__getitem__, f.explicit.strides)
            if isinstance(f.explicit, FullTable)
            else (_scope_key(f.scope), f.explicit.get, f.default_cost)
            for f in instance.cost_functions
        ]

    def _forbidding_full(self, f, below: dict[int, int]):
        """The sorted clauses, in product order, that forbid each tuple of
        ``f`` above its lowest level while the selector of the level below
        the tuple's cost holds; ``below`` maps each such cost to that
        selector, negated.  ``f`` lists every tuple, so its costs zip with
        the product of the scope's negated value literals; a clause is
        sorted as built when the scope ascends."""
        base = f.levels[0]
        negs = [[lit ^ 1 for lit in self.value_lit[x]] for x in f.scope]
        costs = f.dense(self.domains)
        clauses = ([*lits, below[c]] for lits, c in zip(itertools.product(*negs), costs) if c > base)
        if list(f.scope) == sorted(f.scope):
            return clauses
        return map(sorted, clauses)

    def _forbidding(self, scope, pairs):
        """Yield, for each ``(t, neg_sel)`` of ``pairs``, the sorted clause
        that forbids tuple ``t`` over ``scope`` while the selector whose
        negation is ``neg_sel`` holds (always, if ``neg_sel`` is None).
        Selector variables are created after every value variable, so
        ``neg_sel`` sorts last, and an ascending scope needs no sort."""
        negs = [[lit ^ 1 for lit in self.value_lit[x]] for x in scope]
        ascending = list(scope) == sorted(scope)
        for t, neg_sel in pairs:
            lits = [n[a] for n, a in zip(negs, t)]
            if neg_sel is not None:
                lits.append(neg_sel)
            yield lits if ascending else sorted(lits)

    # -- queries ---------------------------------------------------------------

    def solve_induced(self, v: CostVector, core: bool = True) -> Satisfiable | Unsatisfiable:
        """Solve the CSP induced by bounding every component at ``v``.

        SAT answers carry the decoded assignment and its solution vector
        (componentwise <= v); UNSAT answers carry the lazy core read off the
        failed assumptions, or None with ``core=False``, which spares the
        solver its failed-set walk.  Each solve counts in ``num_solves`` and
        its time in ``solve_time``, also one that passes the solver's
        deadline and raises ``SolveDeadlineExceeded``, as does a call that
        starts past it.
        """
        started = time.perf_counter()
        if self.solver.deadline is not None and started > self.solver.deadline:
            raise SolveDeadlineExceeded
        if len(v) != len(self.sel):
            raise ValueError("cost vector length does not match component count")
        try:
            assumptions = [sel[x] for sel, x in zip(self.sel, v)]
        except KeyError:
            raise ValueError(f"cost vector {v} is not a level vector") from None
        self.num_solves += 1
        try:
            res = self.solver.solve(assumptions, failed=core)
            if res.sat:
                # exactly one value variable of each WCSP variable is true
                model = res.model
                a = tuple([model.index(True, first) - first for first in self._first])
                sv = tuple([
                    get(sum(map(mul, key(a), arg))) if type(arg) is tuple else get(key(a), arg)
                    for key, get, arg in self._tables
                ])
                return Satisfiable(a, sv)
            if not core:
                return Unsatisfiable(None)
            failed = set(res.failed)
            maximum = self.space.maximum
            return Unsatisfiable(tuple(
                v[i] if lit in failed else maximum[i] for i, lit in enumerate(assumptions)
            ))
        finally:
            self.solve_time += time.perf_counter() - started
