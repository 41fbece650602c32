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

from .model import Assignment, CostVector, WcspInstance, evaluate
from .sat import Solver, pos


@dataclass(frozen=True)
class Satisfiable:
    assignment: Assignment
    solution_vector: CostVector


@dataclass(frozen=True)
class Unsatisfiable:
    lazy_core: CostVector


class SolveDeadlineExceeded(RuntimeError):
    """Cooperative timeout: raised between oracle calls, never mid-search."""


class InducedCspEncoding:
    """One encoding (and one incremental SAT engine) per solver run.

    ``amo`` selects the at-most-one encoding for value literals: "pairwise"
    (default) or "sequential" for large domains.
    """

    def __init__(self, instance: WcspInstance, amo: str = "pairwise"):
        if amo not in ("pairwise", "sequential"):
            raise ValueError(f"unknown at-most-one encoding {amo!r}")
        self.instance = instance
        self.solver = Solver()
        self.num_solves = 0
        self.solve_time = 0.0
        self.deadline: float | None = None
        self._last: tuple[CostVector, Satisfiable | Unsatisfiable] | None = None

        solver = self.solver
        self.value_lit: list[list[int]] = []
        for d in instance.domains:
            lits = [pos(solver.new_var()) for _ in range(d)]
            self.value_lit.append(lits)
            solver.add_clause(lits)
            if amo == "pairwise":
                for a in range(d):
                    for b in range(a + 1, d):
                        solver.add_clause([lits[a] ^ 1, lits[b] ^ 1])
            else:
                self._sequential_amo(lits)

        for hc in instance.hard_constraints:
            for t in sorted(hc.forbidden):
                solver.add_clause(
                    [self.value_lit[x][a] ^ 1 for x, a in zip(hc.scope, t)]
                )

        self.sel: list[list[int]] = []
        self.level_index: list[dict[int, int]] = []
        for f in instance.cost_functions:
            sels = [pos(solver.new_var()) for _ in f.levels]
            for j in range(len(sels) - 1):
                solver.add_clause([sels[j] ^ 1, sels[j + 1]])
            self.sel.append(sels)
            index = {lv: j for j, lv in enumerate(f.levels)}
            self.level_index.append(index)
            base = f.levels[0]
            for t, c in sorted(f.explicit.items()):
                if c > base:
                    self._forbid(f.scope, t, sels[index[c] - 1])
            if f.default_cost > base:
                unlisted = [
                    t
                    for t in itertools.product(*(range(instance.domains[x]) for x in f.scope))
                    if t not in f.explicit
                ]
                if unlisted:
                    j = index[f.default_cost]
                    for t in unlisted:
                        self._forbid(f.scope, t, sels[j - 1])

    def _forbid(self, scope, t, sel_lit) -> None:
        clause = [sel_lit ^ 1]
        clause.extend(self.value_lit[x][a] ^ 1 for x, a in zip(scope, t))
        self.solver.add_clause(clause)

    def _sequential_amo(self, lits: list[int]) -> None:
        d = len(lits)
        if d <= 1:
            return
        s = [pos(self.solver.new_var()) for _ in range(d - 1)]
        for i in range(d - 1):
            self.solver.add_clause([lits[i] ^ 1, s[i]])
        for i in range(1, d - 1):
            self.solver.add_clause([s[i - 1] ^ 1, s[i]])
        for i in range(1, d):
            self.solver.add_clause([lits[i] ^ 1, s[i - 1] ^ 1])

    # -- queries ---------------------------------------------------------------

    @property
    def num_components(self) -> int:
        return len(self.sel)

    def max_vector(self) -> CostVector:
        return tuple(f.levels[-1] for f in self.instance.cost_functions)

    def baseline_vector(self) -> CostVector:
        return tuple(f.levels[0] for f in self.instance.cost_functions)

    def assumptions_for(self, v: CostVector) -> list[int]:
        if len(v) != len(self.sel):
            raise ValueError("cost vector length does not match component count")
        out = []
        for i, val in enumerate(v):
            j = self.level_index[i].get(val)
            if j is None:
                raise ValueError(f"value {val} is not a level of component {i}")
            out.append(self.sel[i][j])
        return out

    def solve_induced(self, v: CostVector) -> Satisfiable | Unsatisfiable:
        """Solve the CSP induced by bounding every component at ``v``.

        SAT answers carry the decoded assignment and its solution vector
        (componentwise <= v); UNSAT answers carry the lazy core read off the
        failed assumptions.  The call's time is added to ``solve_time``.
        """
        started = time.perf_counter()
        if self.deadline is not None and started > self.deadline:
            raise SolveDeadlineExceeded
        v = tuple(v)
        res = self.solver.solve(self.assumptions_for(v))
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
            funcs = self.instance.cost_functions
            lazy = tuple(
                v[i]
                if self.sel[i][self.level_index[i][v[i]]] in failed
                else funcs[i].levels[-1]
                for i in range(len(v))
            )
            out = Unsatisfiable(lazy)
        self._last = (v, out)
        self.solve_time += time.perf_counter() - started
        return out

    def lazy_core_of(self, h: CostVector) -> CostVector:
        """Lazy core for ``h``; reuses the most recent solve when it was for
        ``h`` itself, so the usual driver pattern costs no extra probe."""
        h = tuple(h)
        if self._last is not None and self._last[0] == h:
            out = self._last[1]
        else:
            out = self.solve_induced(h)
        if isinstance(out, Satisfiable):
            raise ValueError("lazy core requested for a satisfiable vector")
        return out.lazy_core
