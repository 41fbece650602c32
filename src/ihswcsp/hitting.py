"""Hitting vectors over a core set: exact minimum-cost, cost-bounded decision,
and greedy ratio heuristic.

The core set is a ``HittingProblem``.  A run owns one, and ``add``, the only
way a core enters it, grows it by one core per step, keeping it an antichain
under domination: a core that a stored one dominates is refused, and one that
is stored drops the cores it dominates, in one pass over the stored cores.
``add`` checks each core once, before it changes anything: the core must be a
level vector (``LevelSpace.above`` refuses any other with ``ValueError``) and
below the maximum somewhere (else ``Unhittable``).  So every stored core can
be hit, and every search starts from the baseline with all unhit.  The
witness tables grow with the core set, so no call rebuilds them.

All three searches operate on the level grid: a vector hits a core iff some
component reaches that core's witness level (the smallest level strictly
above the core's entry).  The exact search, which replaces an external 0/1
IP solver, is a depth-first branch and bound over cores.  Its bound is a
greedy dual ascent on the covering LP of a node's unhit cores; being
admissible, it changes the node count, never the result.  The minimum-cost
search branches on the unhit core that is dearest to hit (the largest
cheapest raise, fail first); the cost-bounded search, whose answer is the
first leaf it reaches, branches on the unhit core with the fewest witness
components.  Neither rule changes the minimum-cost result (see ``_search``).

The branch and bound runs on an explicit stack, so its depth is not limited
by Python's recursion limit.  Each node carries, for every core it has not
hit yet, the cheapest increment that would hit it.  A child raises one
component, which changes only that component's term, so it updates these
deltas in the same pass that filters its parent's unhit cores.  Two screens
spare the ascent: that pass prunes the child at the first delta above its
slack (the limit minus its cost), and the ascent, which never exceeds the
sum of the deltas, runs only when that sum exceeds the slack.  The search
polls the deadline every 1024 nodes and raises ``SolveDeadlineExceeded``
once it has passed.
"""

from __future__ import annotations

import time
from bisect import insort
from collections import Counter
from itertools import chain
from math import inf
from operator import le

from .sat import SolveDeadlineExceeded
from .model import CostVector, LevelSpace

_POLL_MASK = 1023  # the deadline is read when the node count is a multiple of 1024


class Unhittable(RuntimeError):
    """``HittingProblem.add`` refuses a core at the all-max vector, which no
    vector can hit.  A sound run never finds one, so it signals a bug."""


class HittingProblem:
    """A level space plus the cores to hit, with per-core witness tables.

    A run owns one problem and grows it with ``add`` as it finds cores; every
    hitting-vector call reads that same object.  ``witnesses[c]`` holds a
    ``(component, level)`` pair for each component where core ``c`` is below
    its maximum, with the core's witness level there, by ascending component.
    ``columns[i][c]`` is the witness level of core ``c`` at component ``i``,
    or, where there is none, a value above every level whose distance to any
    level exceeds every increment.  ``deadline`` is a ``time.perf_counter()``
    reading (or ``inf``) after which the branch and bound gives up; ``nodes``
    counts the nodes it has visited.  A new problem holds no core."""

    def __init__(self, space: LevelSpace, deadline: float = inf):
        self.space = space
        self.deadline = deadline
        self.nodes = 0
        self.cores: list[CostVector] = []
        self.witnesses: list[tuple[tuple[int, int], ...]] = []
        self.columns: list[list[int]] = [[] for _ in space.levels]
        self._none = 2 * max(space.maximum, default=0) - min(space.baseline, default=0) + 1

    def add(self, k: CostVector) -> bool:
        """Store ``k`` unless a stored core dominates it, and drop the stored
        cores it dominates; the rest keep their order and ``k`` goes last.
        Returns whether ``k`` was stored.  A core of the wrong length or off
        the level grid raises ``ValueError``, and one at the maximum on every
        component ``Unhittable``; a refusal or a raise changes nothing."""
        k = tuple(k)
        if len(k) != len(self.space.levels):
            raise ValueError(f"core {k} has {len(k)} entries, not {len(self.space.levels)}")
        above = list(map(self.space.above, range(len(k)), k))
        if above.count(None) == len(k):
            raise Unhittable(f"core {k} is at the maximum level everywhere")
        keep = []
        for c, old in enumerate(self.cores):
            if all(map(le, k, old)):
                return False
            if not all(map(le, old, k)):
                keep.append(c)
        if len(keep) < len(self.cores):
            self.cores = [self.cores[c] for c in keep]
            self.witnesses = [self.witnesses[c] for c in keep]
            self.columns = [[column[c] for c in keep] for column in self.columns]
        for wl, column in zip(above, self.columns):
            column.append(self._none if wl is None else wl)
        self.cores.append(k)
        self.witnesses.append(tuple((i, wl) for i, wl in enumerate(above) if wl is not None))
        return True


def _dual_bound(
    cap: int,
    unhit: list[int],
    deltas: list[int],
    h: list[int],
    witnesses: list[tuple[tuple[int, int], ...]],
) -> int:
    """A lower bound on the increment that hits every core of ``unhit`` from
    ``h``, by greedy dual ascent on the covering LP; ``deltas[k]`` is the
    cheapest raise that hits core ``unhit[k]``.  It stops and returns as soon
    as the bound exceeds ``cap``.

    The cores get weights ``u_c >= 0`` in ``unhit``'s order, each charged at
    every witness ``(i, w)`` of its core, and the weights charged at
    component ``i`` at levels up to ``l`` never sum to more than ``l - h[i]``.
    A vector ``v >= h`` that hits every core hits each at some witness with
    ``v[i] >= w``, so the cores it hits at ``i`` weigh at most ``v[i] - h[i]``
    together, and ``sum(u_c)`` is at most ``cost(v) - cost(h)``.  Each core
    takes the most its witnesses leave: at witness ``(i, w)``, the smallest
    ``l - h[i] - load`` over ``l = w`` and the levels above ``w`` charged at
    ``i``, where ``load`` sums the charges at ``i`` up to ``l``.  Where
    nothing is charged that is ``w - h[i]``, so the weight is at most the
    core's delta, and the sum of the deltas bounds the ascent."""
    charged: list = [()] * len(h)  # per component, its (level, u) charges by ascending level
    bound = 0
    for c, u in zip(unhit, deltas):
        ws = witnesses[c]
        for i, w in ws:
            entries = charged[i]
            if entries:  # else the slack here is w - h[i], at least c's delta
                low = w
                load = 0
                for level, charge in entries:
                    load += charge
                    room = (level if level > w else w) - load
                    if room < low:
                        low = room
                low -= h[i]
                if low < u:
                    u = low
                    if u <= 0:
                        break
        if u > 0:
            bound += u
            if bound > cap:
                return bound
            for i, w in ws:
                if charged[i]:
                    insort(charged[i], (w, u))
                else:
                    charged[i] = [(w, u)]
    return bound


def _search(problem: HittingProblem, limit: float, first: bool) -> CostVector | None:
    """Depth-first B&B for a hitting vector of cost at most ``limit`` (or of
    any cost at ``inf``).  With ``first`` it returns the first such leaf;
    otherwise each leaf tightens ``limit`` to its own cost and the result is
    the minimum-cost vector, ties broken toward the lexicographically
    smallest.  Without ``first`` it branches on the unhit core with the
    largest delta, the cheapest raise that hits it (fail first: each child
    pays at least that delta, so the bound cuts the children soonest);
    with ``first`` on the unhit core with the fewest witness components.
    Ties go to the first core in (witness count, index) order, and a
    core's witness raises are tried by increasing increment, then
    component.  With ``first`` that order picks the leaf returned, so it is
    part of the result.

    Without ``first`` the branch core does not change the result.  Take an
    optimal ``v*`` and a node ``h <= v*``: ``v*`` hits the branch core at
    some witness ``(i, w)`` with ``w <= v*[i]``, so one child of ``h`` stays
    below ``v*``.  The bounds below are admissible, so every optimal vector
    is reached and the lexicographically smallest one is returned.  This
    holds for any branch core that is a function of ``h`` alone, as the
    ``visited`` set requires, and the deltas and the unhit order are.

    Once the limit is finite, a child is pruned while it is built if one unhit
    core's delta exceeds its slack below the limit; a node whose deltas sum
    to more than its slack is pruned if the dual ascent ``_dual_bound`` does
    too.  Both bounds are admissible: every node on the way to the result
    survives, and only the node count depends on them."""
    witnesses, columns = problem.witnesses, problem.columns
    deadline = problem.deadline
    h = list(problem.space.baseline)
    cost = sum(h)
    # unhit lists stay in (witness count, index) order: it breaks branch
    # core ties, and the dual ascent serves the narrowest cores first
    unhit: list[int] | None = sorted(range(len(witnesses)), key=lambda c: len(witnesses[c]))
    deltas = [min(wl - h[i] for i, wl in witnesses[c]) for c in unhit]
    best: CostVector | None = None
    visited: set[CostVector] = set()
    stack = []  # expanded nodes: (untried branches, cheapest last; cost; unhit; deltas; vector)
    nodes = 0
    try:
        while True:
            nodes += 1
            if not nodes & _POLL_MASK and time.perf_counter() > deadline:
                raise SolveDeadlineExceeded
            if unhit is None:  # pruned while built: a delta exceeded the slack
                pass
            elif not unhit:
                vec = tuple(h)
                if cost < limit or (cost == limit and (best is None or vec < best)):
                    limit, best = cost, vec
                    if first:
                        return best
            elif (
                sum(deltas) <= limit - cost
                or _dual_bound(limit - cost, unhit, deltas, h, witnesses) <= limit - cost
            ):
                state = tuple(h)
                if state not in visited:  # the same vector is reachable by permuted raises
                    visited.add(state)
                    c = unhit[0] if first else unhit[deltas.index(max(deltas))]
                    branches = sorted(((wl - h[i], i, wl) for i, wl in witnesses[c]), reverse=True)
                    stack.append((branches, cost, unhit, deltas, state))
            # Next, the cheapest untried branch of the deepest expanded node.  A
            # branch that raises the cost above the limit would give a rejected
            # leaf or fail the bound, and so would every later one of its node.
            while stack:
                branches, parent_cost, parent_unhit, parent_deltas, state = stack[-1]
                if branches and parent_cost + branches[-1][0] <= limit:
                    break
                stack.pop()
            else:
                return best
            step, i, wl = branches.pop()
            h[:] = state
            h[i] = wl
            cost = parent_cost + step
            slack = limit - cost
            column = columns[i]
            unhit = []
            deltas = []
            for c, d in zip(parent_unhit, parent_deltas):
                w = column[c]
                if w > wl:  # core c's entry at i is at least wl, so c stays unhit
                    w -= wl
                    if w < d:
                        d = w
                    if d > slack:
                        unhit = None
                        break
                    unhit.append(c)
                    deltas.append(d)
    finally:
        problem.nodes += nodes


def min_cost_hv(problem: HittingProblem) -> CostVector:
    """Minimum-cost vector hitting every core; ties broken toward the
    lexicographically smallest vector."""
    best = _search(problem, inf, first=False)
    assert best is not None
    return best


def cost_bounded_hv(problem: HittingProblem, ub: float) -> CostVector | None:
    """Any hitting vector of cost strictly below ``ub`` (any cost at ``inf``),
    or None when none exists; stops at the first feasible leaf."""
    return _search(problem, ub - 1, first=True)


def greedy_hv(problem: HittingProblem) -> CostVector:
    """Ratio-greedy hitting vector: repeatedly raise the component/level pair
    minimizing (cost increase) / (newly hit cores).  Ties prefer the smaller
    increase, then the smaller component, then the smaller level.  Candidates
    are the witness levels of currently-unhit cores."""
    witnesses, columns = problem.witnesses, problem.columns
    h = list(problem.space.baseline)
    unhit = list(range(len(witnesses)))
    while unhit:
        # raising component i to wl newly hits the unhit cores whose witness
        # level at i is at most wl
        counts = Counter(chain.from_iterable(witnesses[c] for c in unhit))
        best = None
        component = None
        for i, wl in sorted(counts):
            if i != component:
                component, newly = i, 0
            newly += counts[i, wl]
            delta = wl - h[i]
            # compare delta / newly with the best ratio by cross-multiplying;
            # candidates come in increasing (i, wl), so a full tie keeps the best
            if best is None or delta * best[1] < best[0] * newly or (
                delta * best[1] == best[0] * newly and delta < best[0]
            ):
                best = (delta, newly, i, wl)
        assert best is not None
        _, _, i, wl = best
        h[i] = wl
        column = columns[i]
        unhit = [c for c in unhit if column[c] > wl]
    return tuple(h)
