"""CNF encoding of induced CSPs with per-level selector assumptions.

Each WCSP variable gets one-hot value literals; each cost function gets one
selector literal per cost level meaning "this function costs at most that
level", chained toward looser bounds so every costed tuple is forbidden by a
single clause anchored at the level just below its own cost.  Solving the CSP
induced by a cost vector is then a single assumption-based SAT call, and the
failed assumptions map directly to a lazy core.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import prod

from .model import Assignment, CostVector, LevelSpace, WcspInstance, evaluate
from .sat import Solver, pos


@dataclass(frozen=True)
class Satisfiable:
    assignment: Assignment
    solution_vector: CostVector


@dataclass(frozen=True)
class Unsatisfiable:
    lazy_core: CostVector


class SolveDeadlineExceeded(RuntimeError):
    """Cooperative timeout: raised before an oracle call that would start
    past the deadline, and by the hitting-vector branch and bound, which
    polls it; never in the middle of a SAT solve."""


class InducedCspEncoding:
    """One encoding (and one incremental SAT engine) per solver run.

    ``space`` is the instance's level grid, which every layer of the run
    reads."""

    def __init__(self, instance: WcspInstance):
        self.instance = instance
        self.space = space = LevelSpace.from_instance(instance)
        self.solver = Solver()
        self.num_solves = 0
        self.solve_time = 0.0
        self.deadline: float | None = None

        solver = self.solver
        self.value_lit: list[list[int]] = []
        for d in instance.domains:
            lits = [pos(solver.new_var()) for _ in range(d)]
            self.value_lit.append(lits)
            solver.add_clause(lits)
            for a in range(d):
                for b in range(a + 1, d):
                    solver.add_clause([lits[a] ^ 1, lits[b] ^ 1])

        for hc in instance.hard_constraints:
            for t in sorted(hc.forbidden):
                solver.add_clause(
                    [self.value_lit[x][a] ^ 1 for x, a in zip(hc.scope, t)]
                )

        self.sel: list[list[int]] = []
        for i, f in enumerate(instance.cost_functions):
            sels = [pos(solver.new_var()) for _ in f.levels]
            for j in range(len(sels) - 1):
                solver.add_clause([sels[j] ^ 1, sels[j + 1]])
            self.sel.append(sels)
            base = space.baseline[i]
            below = dict(zip(f.levels[1:], sels))  # level -> selector of the level below
            for t, c in sorted(f.explicit.items()):
                if c > base:
                    self._forbid(f.scope, t, below[c])
            ranges = [range(instance.domains[x]) for x in f.scope]
            # a full table has no unlisted tuple to enumerate
            if f.default_cost > base and len(f.explicit) < prod(map(len, ranges)):
                unlisted = [t for t in itertools.product(*ranges) if t not in f.explicit]
                j = space.index(i, f.default_cost)
                for t in unlisted:
                    self._forbid(f.scope, t, sels[j - 1])

    def _forbid(self, scope, t, sel_lit) -> None:
        value_lit = self.value_lit
        self.solver.add_clause([sel_lit ^ 1] + [value_lit[x][a] ^ 1 for x, a in zip(scope, t)])

    # -- queries ---------------------------------------------------------------

    @property
    def num_components(self) -> int:
        return len(self.sel)

    def assumptions_for(self, v: CostVector) -> list[int]:
        if len(v) != len(self.sel):
            raise ValueError("cost vector length does not match component count")
        return [self.sel[i][self.space.index(i, val)] for i, val in enumerate(v)]

    def solve_induced(self, v: CostVector) -> Satisfiable | Unsatisfiable:
        """Solve the CSP induced by bounding every component at ``v``.

        SAT answers carry the decoded assignment and its solution vector
        (componentwise <= v); UNSAT answers carry the lazy core read off the
        failed assumptions.  The call's time is added to ``solve_time``.
        """
        started = time.perf_counter()
        if self.deadline is not None and started > self.deadline:
            raise SolveDeadlineExceeded
        assumptions = self.assumptions_for(v)
        res = self.solver.solve(assumptions)
        self.num_solves += 1
        if res.sat:
            model = res.model
            a = tuple(
                next(k for k, lit in enumerate(lits) if model[lit >> 1])
                for lits in self.value_lit
            )
            _, sv, _ = evaluate(self.instance, a)
            out: Satisfiable | Unsatisfiable = Satisfiable(a, sv)
        else:
            failed = set(res.failed)
            maximum = self.space.maximum
            lazy = tuple(
                v[i] if lit in failed else maximum[i] for i, lit in enumerate(assumptions)
            )
            out = Unsatisfiable(lazy)
        self.solve_time += time.perf_counter() - started
        return out
