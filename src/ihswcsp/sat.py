"""Assumption-based CDCL SAT solver.

MiniSat-style architecture: two watched literals, first-UIP clause learning,
activity-driven branching with phase saving, geometric restarts, and
activity-based reduction of the learnt-clause database.  Assumptions are
enqueued as decisions in list order; on UNSAT the failed subset is extracted
by final-conflict analysis over the trail (sufficient, not minimized), unless
the caller asks for the yes-or-no answer alone.

Values live in a per-literal table, ``val[lit]``: 1 true, 0 false, 2
unassigned, so propagation reads a literal's value with one index and no
arithmetic.  The watch scheme follows MiniSat (Eén & Sörensson, SAT 2003).
Clause layout (literal order, watch lists) and the search (trail order,
reasons, learnt clauses) are pinned by seeded digests in the tests, and the
value table left them unchanged.

Warm calls are cheap: a call that meets no conflict returns with its
assumption levels still on the trail, and the next call backjumps only to the
longest prefix its assumptions share with them (Hickey & Bacchus, SAT 2019).
The decision heap holds at most one entry per variable at its current
activity, flagged in ``in_heap`` (as in MiniSat), so neither backjumps nor
activity bumps refill it.  Neither change alters the search.

The hot path keeps the same search with less Python work: ``propagate``
never scans a binary clause for a new watch, ``solve`` branches inline, and
conflict analysis reads reason clauses whole.  ``cancel_until`` leaves an
unassigned variable's reason stale, so a learnt clause is locked only while
its first literal is true.

A problem clause is a plain ``list`` of literals, so ``c[k]`` takes
CPython's exact-list subscript path; only a learnt clause is a ``Learnt``,
the list subclass that carries its activity.  As in MiniSat's interface,
each input has one way in: ``ensure_var`` creates variables, any number in
one step; ``add_clauses`` (MiniSat's ``addClause``) loads clauses, each
sorted on distinct, existing variables; ``solve`` takes assumptions on
existing variables.

Literal encoding: variable ``v`` yields literals ``2*v`` (positive) and
``2*v + 1`` (negative); ``lit ^ 1`` negates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import inf


class SolveDeadlineExceeded(RuntimeError):
    """Cooperative timeout, raised past a run's deadline by whatever polls
    it: merging, the encoder's clause loading, a SAT solve, the checks
    before each induced-CSP call and each hitting call, and the
    hitting-vector branch and bound."""


class Learnt(list):
    """A learnt clause with its activity; problem clauses are plain lists."""

    __slots__ = ("act",)


@dataclass
class SatResult:
    """SAT outcome: a full model, or a failed subset of the assumptions that
    is already sufficient for unsatisfiability (None when not asked for)."""

    sat: bool
    model: list[bool] | None = None
    failed: list[int] | None = None


class Solver:
    """Incremental CDCL solver; state (learnt clauses, activities, phases,
    the assumption-prefix trail and the heap flags) persists across solve()
    calls and never affects correctness.

    Between calls, trail level ``L`` (1-based) holds the assumption
    ``assumed[L-1]`` of the last call; adding clauses cancels every level
    above 0.  ``deadline``, a ``time.perf_counter()`` reading or ``inf``, is
    polled every 64 conflicts: past it, a solve cancels to level 0, which
    leaves the solver usable, and raises ``SolveDeadlineExceeded``.
    ``add_clauses`` polls it too, and raises the same past it."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self.learnts: list[Learnt] = []
        self.watches: list[list[list[int]]] = []
        self.val: list[int] = []  # per literal: 1 true, 0 false, 2 unassigned
        self.level: list[int] = []
        self.reason: list[list[int] | None] = []
        self.polarity: list[int] = []
        self.activity: list[float] = []
        self.heap: list[tuple[float, int]] = []
        self.in_heap = bytearray()  # 1: the heap holds (-activity[v], v)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.assumed: list[int] = []
        self.qhead = 0
        self.seen = bytearray()
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.ok = True
        self.conflicts = 0
        self.deadline = inf

    # -- variables and clauses ------------------------------------------------

    def ensure_var(self, v: int) -> None:
        """Create variables up to ``v`` in one step.  A new variable's heap
        entry ``(-0.0, v)`` is at least every entry already held (keys are
        never positive, and its index is the largest), so appending the new
        entries in order is what one ``heappush`` each would do."""
        first, n = self.num_vars, v + 1 - self.num_vars
        if n <= 0:
            return
        self.num_vars = v + 1
        self.watches += [[] for _ in range(2 * n)]
        self.val += [2] * (2 * n)
        self.level += [0] * n
        self.reason += [None] * n
        self.polarity += [0] * n
        self.activity += [0.0] * n
        self.seen += bytes(n)
        self.in_heap += b"\x01" * n
        self.heap += [(-0.0, u) for u in range(first, v + 1)]

    def add_clauses(self, clauses) -> None:
        """Add permanent clauses, each a list of sorted literals on distinct,
        existing variables, which the solver may keep (propagation reorders
        a stored clause in place).  Every level above 0 is cancelled first.
        While the solver is consistent and its root trail is empty, a clause
        of two or more literals is stored as given and watches its first
        two.  Otherwise root-false literals are dropped, a root-true clause
        is skipped, a unit is enqueued and propagated, and an empty clause
        makes the solver permanently UNSAT, which ignores later clauses.
        Polls ``deadline`` whenever the stored count is a multiple of 4096."""
        self.cancel_until(0)
        stored, watches, trail, val = self.clauses, self.watches, self.trail, self.val
        deadline = self.deadline
        for lits in clauses:
            if not len(stored) & 4095 and time.perf_counter() > deadline:
                raise SolveDeadlineExceeded
            if trail or len(lits) < 2 or not self.ok:
                if not self.ok:
                    continue
                if trail:
                    vals = [val[l] for l in lits]
                    if 1 in vals:
                        continue  # satisfied at root level
                    lits = [l for l, v in zip(lits, vals) if v == 2]  # drop false literals
                if not lits:
                    self.ok = False
                    continue
                if len(lits) == 1:
                    self._enqueue(lits[0], None)
                    if self.propagate() is not None:
                        self.ok = False
                    continue
            stored.append(lits)
            watches[lits[0] ^ 1].append(lits)
            watches[lits[1] ^ 1].append(lits)

    # -- assignment trail ------------------------------------------------------

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        v = lit >> 1
        self.val[lit] = 1
        self.val[lit ^ 1] = 0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        trail, val, in_heap = self.trail, self.val, self.in_heap
        polarity, heap, activity = self.polarity, self.heap, self.activity
        # any order will do: the heap pops its entries in an order that
        # depends only on which entries it holds; an unassigned variable's
        # reason is stale and never read
        for l in trail[bound:]:
            v = l >> 1
            polarity[v] = (l & 1) ^ 1
            val[l] = val[l ^ 1] = 2
            if not in_heap[v]:
                in_heap[v] = 1
                heappush(heap, (-activity[v], v))
        del trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = bound

    # -- propagation -----------------------------------------------------------

    def propagate(self) -> list[int] | None:
        val, watches, trail = self.val, self.watches, self.trail
        level, reason = self.level, self.reason
        level_now = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            ws = watches[p]
            j = moved = 0  # ws[:j] kept; moved clauses now watch another literal
            for c in ws:
                first = c[0]
                if first == false_lit:
                    first = c[0] = c[1]
                    c[1] = false_lit
                fv = val[first]
                if fv == 1:
                    ws[j] = c
                    j += 1
                    continue
                # look for a non-false replacement watch, at position 2 first;
                # it is never false_lit, so ws itself does not grow
                n = len(c)
                if n > 2:
                    k = 2
                    lk = c[2]
                    if not val[lk]:
                        k = 3
                        while k < n:
                            lk = c[k]
                            if val[lk]:
                                break
                            k += 1
                    if k < n:
                        c[1] = lk
                        c[k] = false_lit
                        watches[lk ^ 1].append(c)
                        moved += 1
                        continue
                ws[j] = c
                j += 1
                if fv == 0:  # conflict: keep the remaining watches intact
                    del ws[j : j + moved]
                    self.qhead = len(trail)
                    return c
                val[first] = 1
                val[first ^ 1] = 0
                v = first >> 1
                level[v] = level_now
                reason[v] = c
                trail.append(first)
            del ws[j:]
        self.qhead = qhead
        return None

    # -- conflict analysis -----------------------------------------------------

    def _rescale_var_activity(self) -> None:
        # in place, so that the lists a running solve or analyze holds stay current
        self.activity[:] = [a * 1e-100 for a in self.activity]
        self.var_inc *= 1e-100
        self.in_heap[:] = bytearray(x == 2 for x in self.val[::2])
        self.heap[:] = [(-self.activity[v], v) for v in range(self.num_vars) if self.in_heap[v]]
        heapify(self.heap)

    def _bump_cla(self, c: Learnt) -> None:
        c.act += self.cla_inc
        if c.act > 1e20:
            for lc in self.learnts:
                lc.act *= 1e-20
            self.cla_inc *= 1e-20

    def analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learning; returns the learnt clause (asserting literal
        first) and the backjump level.  A bumped variable is assigned, so it
        leaves the heap until ``cancel_until`` pushes its new activity.  A
        reason's first literal is the one it implied, already marked."""
        seen, level, trail, reason = self.seen, self.level, self.trail, self.reason
        activity, in_heap, var_inc = self.activity, self.in_heap, self.var_inc
        cur = len(self.trail_lim)
        learnt: list[int] = [0]
        to_clear: list[int] = []
        counter = 0
        index = len(trail) - 1
        while True:
            if confl.__class__ is Learnt:
                self._bump_cla(confl)
            for q in confl:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    to_clear.append(v)
                    act = activity[v] = activity[v] + var_inc
                    in_heap[v] = 0
                    if act > 1e100:
                        self._rescale_var_activity()
                        var_inc = self.var_inc
                    if level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            counter -= 1
            if counter == 0:
                break
            confl = reason[p >> 1]
        learnt[0] = p ^ 1
        if len(learnt) == 1:
            bt = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt = level[learnt[1] >> 1]
        for v in to_clear:
            seen[v] = 0
        return learnt, bt

    def _analyze_final(self, p: int) -> set[int]:
        """Collect the assumption literals that the falsified assumption
        ``p`` depends on: follow the reasons back from ``p``'s variable and
        keep the true literal of each variable reached above level 0 that
        has none (while this runs, only assumptions are decisions)."""
        seen, level, reason, val = self.seen, self.level, self.reason, self.val
        out = {p}
        marked = [p >> 1] if level[p >> 1] > 0 else []
        if marked:
            seen[p >> 1] = 1
        for v in marked:  # marked grows as the walk goes
            r = reason[v]
            if r is None:
                out.add((v << 1) | (val[v << 1] ^ 1))
                continue
            for q in r:
                u = q >> 1
                if level[u] > 0 and not seen[u]:
                    seen[u] = 1
                    marked.append(u)
        for v in marked:
            seen[v] = 0
        return out

    # -- learnt DB -------------------------------------------------------------

    def _record(self, learnt: list[int]) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        c = Learnt(learnt)
        c.act = self.cla_inc
        self.learnts.append(c)
        self.watches[c[0] ^ 1].append(c)
        self.watches[c[1] ^ 1].append(c)
        self._enqueue(c[0], c)

    def reduce_db(self) -> None:
        """Drop the less active half of the learnt clauses, but not a locked
        one: the reason of an assigned literal, not a stale reason."""
        self.learnts.sort(key=lambda c: c.act, reverse=True)
        keep = len(self.learnts) // 2
        kept: list[Learnt] = []
        for i, c in enumerate(self.learnts):
            locked = self.val[c[0]] == 1 and self.reason[c[0] >> 1] is c
            if i < keep or locked:
                kept.append(c)
            else:
                for wl in (c[0] ^ 1, c[1] ^ 1):
                    ws = self.watches[wl]
                    for k in range(len(ws)):
                        if ws[k] is c:
                            ws.pop(k)
                            break
        self.learnts = kept

    # -- main search -----------------------------------------------------------

    def solve(self, assumptions=(), failed: bool = True) -> SatResult:
        """Solve under ``assumptions``.  An UNSAT answer at a false assumption
        carries the failed subset of the assumptions, in assumption order;
        with ``failed=False`` it carries None and the final-conflict walk is
        skipped, which changes nothing else: the trail, learnt clauses,
        activities and phases end as they would with the walk."""
        assumptions = list(assumptions)
        if not self.ok:
            return SatResult(False, failed=[])
        trail, trail_lim, val, polarity = self.trail, self.trail_lim, self.val, self.polarity
        heap, activity, in_heap = self.heap, self.activity, self.in_heap
        keep, assumed = 0, self.assumed
        limit = min(len(trail_lim), len(assumptions))
        while keep < limit and assumed[keep] == assumptions[keep]:
            keep += 1
        self.cancel_until(keep)
        self.assumed = assumptions
        # Only a call without conflicts keeps its assumption levels: after a
        # conflict, a kept level may hold a learnt literal out of propagation
        # order, or a clause watching one of its false literals, and a descent
        # from level 0 would re-scan them and could propagate in another order.
        start = self.conflicts
        restart_limit = 100
        conflicts_here = 0
        while True:
            confl = self.propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not trail_lim:
                    self.ok = False
                    return SatResult(False, failed=[])
                if not self.conflicts & 63 and time.perf_counter() > self.deadline:
                    self.cancel_until(0)
                    raise SolveDeadlineExceeded
                learnt, bt = self.analyze(confl)
                self.cancel_until(bt)
                self._record(learnt)
                self.var_inc /= 0.95
                self.cla_inc /= 0.999
                if conflicts_here >= restart_limit:
                    conflicts_here = 0
                    restart_limit = restart_limit + (restart_limit >> 1) + 1
                    self.cancel_until(0)
                if len(self.learnts) > 500 + 2 * len(self.clauses):
                    self.reduce_db()
                continue
            dl = len(trail_lim)
            if dl < len(assumptions):
                lit = assumptions[dl]
                if val[lit] == 1:
                    trail_lim.append(len(trail))  # dummy level
                    continue
                if val[lit] == 0:
                    out = None
                    if failed:
                        subset = self._analyze_final(lit)
                        out = [a for a in assumptions if a in subset]
                    if self.conflicts != start:
                        self.cancel_until(0)
                    return SatResult(False, failed=out)
            else:
                # branch on the most active unassigned variable; an entry
                # whose key is not the variable's activity is a stale one
                while heap:
                    key, v = heappop(heap)
                    if key == -activity[v]:
                        in_heap[v] = 0
                    if val[v << 1] == 2:
                        break
                else:
                    model = list(map((1).__eq__, val[::2]))
                    self.cancel_until(len(assumptions) if self.conflicts == start else 0)
                    return SatResult(True, model=model)
                lit = (v << 1) | (polarity[v] ^ 1)
            trail_lim.append(len(trail))  # a decision level: an assumption or a branch
            self._enqueue(lit, None)
