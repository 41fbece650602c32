"""Hitting vectors over a core set: exact minimum-cost, cost-bounded decision,
and greedy ratio heuristic.

All three operate on the level grid: a vector hits a core iff some component
reaches that core's witness level (the smallest level strictly above the
core's entry).  The exact search is a depth-first branch and bound over cores
with a disjoint-residual lower bound; it replaces an external 0/1 IP solver.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .model import CostVector, LevelSpace


class Unhittable(RuntimeError):
    """A core sits at the all-max vector; no vector can hit it.  This cannot
    happen for cores produced by a sound run and signals an internal bug."""


class HittingProblem:
    """A level space plus the cores to hit, with per-core witness tables."""

    def __init__(self, space: LevelSpace, cores: Iterable[CostVector]):
        self.space = space
        self.cores = [tuple(k) for k in cores]
        self.witnesses: list[dict[int, int]] = []
        for k in self.cores:
            ws = {}
            for i in range(len(space.levels)):
                wl = space.above(i, k[i])
                if wl is not None:
                    ws[i] = wl
            self.witnesses.append(ws)

    def _check_hittable(self) -> None:
        for k, ws in zip(self.cores, self.witnesses):
            if not ws:
                raise Unhittable(f"core {k} is at the maximum level everywhere")

    def _unhit(self, h: list[int]) -> list[int]:
        out = []
        for idx, k in enumerate(self.cores):
            if all(h[i] <= k[i] for i in range(len(h))):
                out.append(idx)
        return out

    def _residual_bound(self, h: list[int], unhit: list[int]) -> int:
        """Admissible bound: cheapest witness increments of a greedily chosen
        set of unhit cores with pairwise-disjoint witness components."""
        items = []
        for idx in unhit:
            ws = self.witnesses[idx]
            delta = min(wl - h[i] for i, wl in ws.items())
            items.append((-delta, idx))
        items.sort()
        used: set[int] = set()
        bound = 0
        for neg_delta, idx in items:
            supp = self.witnesses[idx].keys()
            if used.isdisjoint(supp):
                bound -= neg_delta
                used.update(supp)
        return bound


def _search(problem: HittingProblem, limit: int | None, first: bool) -> CostVector | None:
    """Depth-first B&B for a hitting vector of cost at most ``limit`` (None
    means no bound).  With ``first`` it returns the first such leaf;
    otherwise each leaf tightens ``limit`` to its own cost and the result is
    the minimum-cost vector, ties broken toward the lexicographically
    smallest."""
    problem._check_hittable()
    h = list(problem.space.baseline)
    cores = problem.cores
    witnesses = problem.witnesses
    best: CostVector | None = None
    visited: set[CostVector] = set()

    def dfs(current_cost: int, unhit: list[int]) -> bool:
        """True when the search should stop."""
        nonlocal limit, best
        if not unhit:
            vec = tuple(h)
            if limit is None or current_cost < limit or (
                current_cost == limit and (best is None or vec < best)
            ):
                limit, best = current_cost, vec
                return first
            return False
        if limit is not None:
            if current_cost + problem._residual_bound(h, unhit) > limit:
                return False
        state = tuple(h)
        if state in visited:  # the same vector is reachable by permuted raises
            return False
        visited.add(state)
        pick = min(unhit, key=lambda idx: (len(witnesses[idx]), idx))
        branches = sorted((wl - h[i], i, wl) for i, wl in witnesses[pick].items())
        for _, i, wl in branches:
            old = h[i]
            h[i] = wl
            stop = dfs(current_cost + wl - old, [idx for idx in unhit if cores[idx][i] >= wl])
            h[i] = old
            if stop:
                return True
        return False

    dfs(sum(h), problem._unhit(h))
    return best


def min_cost_hv(problem: HittingProblem) -> CostVector:
    """Minimum-cost vector hitting every core; ties broken toward the
    lexicographically smallest vector."""
    best = _search(problem, None, first=False)
    assert best is not None
    return best


def cost_bounded_hv(problem: HittingProblem, ub: int | None) -> CostVector | None:
    """Any hitting vector of cost strictly below ``ub`` (None means no bound),
    or None when none exists; stops at the first feasible leaf."""
    return _search(problem, None if ub is None else ub - 1, first=True)


def greedy_hv(problem: HittingProblem) -> CostVector:
    """Ratio-greedy hitting vector: repeatedly raise the component/level pair
    minimizing (cost increase) / (newly hit cores).  Ties prefer the smaller
    increase, then the smaller component, then the smaller level.  Candidates
    are the witness levels of currently-unhit cores."""
    problem._check_hittable()
    h = list(problem.space.baseline)
    while True:
        unhit = problem._unhit(h)
        if not unhit:
            return tuple(h)
        candidates = sorted(
            {(i, problem.witnesses[idx][i]) for idx in unhit for i in problem.witnesses[idx]}
        )
        best_key = None
        best = None
        for i, wl in candidates:
            delta = wl - h[i]
            if delta <= 0:
                continue
            newly = sum(1 for idx in unhit if problem.cores[idx][i] < wl)
            key = (Fraction(delta, newly), delta, i, wl)
            if best_key is None or key < best_key:
                best_key, best = key, (i, wl)
        assert best is not None
        h[best[0]] = best[1]
