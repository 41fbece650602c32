import hashlib
import itertools
import random
import time
from heapq import heappush

import pytest

from ihswcsp.sat import Learnt, SatResult, SolveDeadlineExceeded, Solver
from oracles import add_clause, neg, pos, random_cnf, truth_table, truth_table_sat


def test_ensure_var_in_one_step_matches_one_new_var_at_a_time():
    def bumped():
        # conflicts bump activities, so the heap holds keys below -0.0
        rng = random.Random(5)
        s = Solver()
        for _ in range(70):
            add_clause(s, [pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(16), 3)])
        s.ensure_var(15)
        for _ in range(10):
            s.solve([pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(16), 3)])
        assert s.conflicts and min(s.heap)[0] < 0
        return s

    for make in (Solver, bumped):
        batch, single = make(), make()
        heap = list(single.heap)
        batch.ensure_var(batch.num_vars + 6)
        for _ in range(7):
            heappush(heap, (-0.0, single.num_vars))
            single.ensure_var(single.num_vars)
        assert single.heap == heap
        for name in ("num_vars", "watches", "val", "level", "reason", "polarity", "activity",
                     "seen", "in_heap", "heap"):
            assert getattr(batch, name) == getattr(single, name), name


def test_empty_clause_is_permanent_unsat():
    s = Solver()
    add_clause(s, [])
    res = s.solve()
    assert not res.sat and res.failed == []
    assert not s.solve([pos(0)]).sat


def test_unit_contradiction():
    s = Solver()
    add_clause(s, [pos(0)])
    add_clause(s, [neg(0)])
    assert not s.solve().sat


def test_tautology_has_no_effect():
    s = Solver()
    add_clause(s, [pos(0), neg(0)])
    assert not s.clauses
    assert s.solve().sat


def test_assumption_respected():
    s = Solver()
    s.ensure_var(0)
    res = s.solve([pos(0)])
    assert res.sat and res.model[0] is True
    res = s.solve([neg(0)])
    assert res.sat and res.model[0] is False


def test_failed_assumption_contains_cause():
    s = Solver()
    add_clause(s, [neg(0)])
    res = s.solve([pos(0)])
    assert not res.sat
    assert pos(0) in res.failed


def test_failed_assumptions_narrow():
    # chain: a forces b, b conflicts with assumption !b; c is irrelevant
    s = Solver()
    add_clause(s, [neg(0), pos(1)])
    s.ensure_var(2)  # variable 2, unconstrained
    res = s.solve([pos(0), pos(2), neg(1)])
    assert not res.sat
    assert set(res.failed) <= {pos(0), pos(2), neg(1)}
    assert pos(2) not in res.failed
    # failed order follows the assumption list
    assert res.failed == [a for a in [pos(0), pos(2), neg(1)] if a in set(res.failed)]


def test_truth_table_bits_match_row_by_row_evaluation():
    # the oracle's literal masks checked against each row's own bits: row r
    # gives variable v the value of bit v of r
    rng = random.Random(11)
    masks = set()
    for num_vars in range(1, 9):
        for _ in range(40):
            _, clauses = random_cnf(rng, max_vars=8)
            # fold the variables onto range(num_vars), keeping each literal's
            # sign; a repeated literal or a tautology is fine for a truth table
            clauses = [[l % (2 * num_vars) for l in c] for c in clauses]
            mask = truth_table(num_vars, clauses)
            assert mask >> (1 << num_vars) == 0
            for r in range(1 << num_vars):
                row_sat = all(any((r >> (l >> 1) & 1) != l & 1 for l in c) for c in clauses)
                assert (mask >> r & 1) == row_sat
            masks.add(bool(mask))
    assert masks == {False, True}


def test_random_cnf_against_truth_table():
    rng = random.Random(77)
    for _ in range(250):
        n, clauses = random_cnf(rng, max_vars=12)
        assumptions = []
        if rng.random() < 0.6:
            for v in rng.sample(range(n), rng.randint(0, min(4, n))):
                assumptions.append(pos(v) if rng.random() < 0.5 else neg(v))
        s = Solver()
        for c in clauses:
            add_clause(s, c)
        s.ensure_var(n - 1)
        res = s.solve(assumptions)
        assert res.sat == truth_table_sat(n, clauses, assumptions)
        if res.sat:
            model = res.model
            for c in clauses:
                assert any(model[l >> 1] == (not l & 1) for l in c)
            for a in assumptions:
                assert model[a >> 1] == (not a & 1)
        else:
            assert set(res.failed) <= set(assumptions)


def test_failed_sets_reverify_on_fresh_solver():
    rng = random.Random(78)
    checked = 0
    while checked < 60:
        n, clauses = random_cnf(rng, max_vars=10)
        assumptions = [pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(n), min(4, n))]
        s = Solver()
        for c in clauses:
            add_clause(s, c)
        s.ensure_var(n - 1)
        res = s.solve(assumptions)
        if res.sat:
            continue
        fresh = Solver()
        for c in clauses:
            add_clause(fresh, c)
        for a in res.failed:
            add_clause(fresh, [a])
        assert not fresh.solve().sat
        checked += 1


def test_incremental_solving_stays_correct():
    rng = random.Random(79)
    s = Solver()
    clauses = []
    for round_no in range(30):
        n, extra = random_cnf(rng, max_vars=8)
        for c in extra:
            add_clause(s, c)
            clauses.append(c)
        nv = max(
            (max(l >> 1 for l in c) for c in clauses if c),
            default=0,
        ) + 1
        res = s.solve()
        assert res.sat == truth_table_sat(nv, clauses)
        if not res.sat:
            break


def test_determinism():
    rng = random.Random(80)
    n, clauses = random_cnf(rng, max_vars=12)
    assumptions = [pos(0), neg(1)]

    def run():
        s = Solver()
        for c in clauses:
            add_clause(s, c)
        s.ensure_var(n - 1)
        first = s.solve(assumptions)
        second = s.solve(assumptions)
        return first, second

    a1, a2 = run()
    b1, b2 = run()
    assert a1 == b1
    assert a2 == b2


def test_deadline_interrupts_solve_and_leaves_solver_usable():
    # 7 pigeons in 6 holes, every clause guarded by assuming variable 0: the
    # solve needs far more than 64 conflicts, all above the root level
    var = {(p, h): 1 + 6 * p + h for p in range(7) for h in range(6)}
    clauses = [[neg(0)] + [pos(var[p, h]) for h in range(6)] for p in range(7)]
    for h in range(6):
        for p, q in itertools.combinations(range(7), 2):
            clauses.append([neg(0), neg(var[p, h]), neg(var[q, h])])

    def loaded():
        s = Solver()
        for c in clauses:
            add_clause(s, c)
        return s

    s = loaded()
    s.deadline = time.perf_counter() - 1.0
    with pytest.raises(SolveDeadlineExceeded):
        s.solve([pos(0)])
    assert s.conflicts == 64 and s.trail_lim == []
    s.deadline = None
    assert s.solve([pos(0)]) == loaded().solve([pos(0)]) == SatResult(False, failed=[pos(0)])


def test_hard_random_formulas_near_phase_transition():
    rng = random.Random(82)
    for _ in range(15):
        n = 16
        clauses = [
            [pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(n), 3)]
            for _ in range(int(4.26 * n))
        ]
        s = Solver()
        for c in clauses:
            add_clause(s, c)
        assert s.solve().sat == truth_table_sat(n, clauses)


def test_warm_probe_sequence_matches_truth_table_and_recorded_search():
    # one solver answers a run of probes shaped like core improvement: a
    # shared assumption list with one literal changed, a fresh list now and
    # then, and an occasional new clause; the digest was recorded with a
    # solver that restarted every call from level 0, so it pins the search
    # that the kept assumption trail must not change
    rng = random.Random(102)  # keeping the trail after conflicts changes this search
    n = 16

    def literals(width):
        return [pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(n), width)]

    clauses = [literals(4) for _ in range(110)]
    s = Solver()
    for c in clauses:
        add_clause(s, c)
    base = literals(5)
    digest = hashlib.sha256()
    models = truth_table(n, clauses)
    for _ in range(300):
        if rng.random() < 0.03:
            clauses.append(literals(4))
            add_clause(s, clauses[-1])
            models = truth_table(n, clauses)
        if rng.random() < 0.05:
            base = literals(5)
        assumptions = list(base)
        assumptions[rng.randrange(len(base))] ^= 1
        if rng.random() < 0.2:
            base = assumptions
        res = s.solve(assumptions)
        assert res.sat == bool(models & truth_table(n, [[a] for a in assumptions]))
        if res.sat:
            for c in clauses:
                assert any(res.model[l >> 1] == (not l & 1) for l in c)
            for a in assumptions:
                assert res.model[a >> 1] == (not a & 1)
        else:
            fresh = Solver()
            for c in clauses + [[a] for a in res.failed]:
                add_clause(fresh, c)
            assert not fresh.solve().sat
        digest.update(repr((res.sat, res.model, res.failed)).encode())
    assert s.conflicts > 0
    assert digest.hexdigest() == "85e64fcf547cd676c3b102b9342ac92714651611df75d6d90c7a7172a870430a"


def test_solve_without_failed_set_keeps_the_search():
    # two solvers answer the same warm probe sequences, one asked for the
    # failed set and one not; skipping the final-conflict walk must leave
    # every answer and all the state the next call reads unchanged
    unsat = {"conflict_free": 0, "after_conflict": 0}
    for seed in range(100, 106):
        rng = random.Random(seed)
        n = 16

        def literals(width):
            return [pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(n), width)]

        with_walk, without = Solver(), Solver()
        for _ in range(110):
            c = literals(4)
            add_clause(with_walk, c)
            add_clause(without, c)
        base = literals(5)
        for _ in range(200):
            if rng.random() < 0.03:
                c = literals(4)
                add_clause(with_walk, c)
                add_clause(without, c)
            if rng.random() < 0.05:
                base = literals(5)
            assumptions = list(base)
            assumptions[rng.randrange(len(base))] ^= 1
            if rng.random() < 0.2:
                base = assumptions
            before = without.conflicts
            a = with_walk.solve(assumptions)
            b = without.solve(assumptions, failed=False)
            assert (a.sat, a.model) == (b.sat, b.model)
            if not b.sat and without.ok:
                assert a.failed and b.failed is None
                unsat["conflict_free" if without.conflicts == before else "after_conflict"] += 1
            assert with_walk.trail == without.trail
            assert with_walk.trail_lim == without.trail_lim
            assert with_walk.conflicts == without.conflicts
            assert with_walk.polarity == without.polarity
            assert with_walk.activity == without.activity
            assert [(list(c), c.act) for c in with_walk.learnts] == [
                (list(c), c.act) for c in without.learnts
            ]
    assert min(unsat.values()) > 0, unsat


def _add_clause_stream_digest():
    # seeded clause streams with duplicate literals, tautologies, unit clauses
    # (which leave true and false literals at the root), new variables, and
    # assumption solves in between, so that some clauses arrive while the
    # last solve's assumption levels are still on the trail
    digest = hashlib.sha256()
    seen = {"kept_levels": 0, "root_values": 0, "tautologies": 0}
    for seed in range(60):
        rng = random.Random(seed)
        s = Solver()
        for _ in range(50):
            width = 1 if rng.random() < 0.08 else rng.randint(2, 4)
            top = s.num_vars + (2 if rng.random() < 0.2 else 0)
            lits = [rng.randrange(2 * max(top, 3)) for _ in range(width)]
            if rng.random() < 0.1:
                lits.append(lits[0])
            if rng.random() < 0.05:
                lits.append(lits[-1] ^ 1)
                seen["tautologies"] += 1
            seen["kept_levels"] += bool(s.trail_lim)
            seen["root_values"] += bool(s.trail) and not s.trail_lim
            add_clause(s, lits)
            state = (s.ok, s.clauses, s.watches, s.trail)
            digest.update(repr(state).encode())
            if rng.random() < 0.4:
                picks = rng.sample(range(s.num_vars), min(3, s.num_vars))
                s.solve([pos(v) if rng.random() < 0.5 else neg(v) for v in picks])
    return digest.hexdigest(), seen


def test_add_clause_matches_recorded_clauses_watches_and_trail():
    # the digest was recorded with a solver that cancelled, deduplicated and
    # read every literal's root value on every add; it pins the stored
    # clauses, their literal order, every watch list and the trail
    digest, seen = _add_clause_stream_digest()
    assert all(seen.values()), seen
    assert digest == "7df50fcd8cfbfec7d9b54765d848d26d9f46d6caba9338f6080b1fc7eacd69f7"


def test_propagation_order_reasons_and_learnts_match_recorded_search():
    # a conflict-heavy run of assumption solves on random 3-SAT near the
    # phase transition; after every call the digest takes the trail order,
    # each assigned variable's reason (as its index in clauses or learnts)
    # and every learnt clause's literals; it was recorded with the solver
    # that kept an assignment per variable (-1/0/1) and cancelled the trail
    # from its top down, so it pins propagation order, reasons and learning
    rng = random.Random(103)
    n = 110
    s = Solver()
    for _ in range(int(4.2 * n)):
        add_clause(s, [pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(n), 3)])
    digest = hashlib.sha256()
    sat_calls = 0
    for _ in range(60):
        assumptions = [pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(n), 2)]
        res = s.solve(assumptions)
        sat_calls += res.sat
        index = {id(c): ("c", k) for k, c in enumerate(s.clauses)}
        index.update((id(c), ("l", k)) for k, c in enumerate(s.learnts))
        reasons = [None if (r := s.reason[l >> 1]) is None else index[id(r)] for l in s.trail]
        digest.update(repr((res.sat, s.trail, reasons, s.learnts)).encode())
    # both answers occur, and the learnt database has been reduced
    assert 0 < sat_calls < 60 and s.conflicts > 2 * len(s.learnts)
    assert digest.hexdigest() == "a1f51012473be9584491ba233f4c68be3a8be84f965a5c017a6b46280468c1f6"


def test_activity_rescale_rebuilds_heap_from_value_table():
    # a conflict-free solve keeps its assumption levels, so some variables
    # are assigned when the rescale runs; it must flag and push exactly the
    # unassigned ones, at their scaled activities
    rng = random.Random(104)
    n = 16
    clauses = [[pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(n), 3)] for _ in range(40)]
    s = Solver()
    for c in clauses:
        add_clause(s, c)
    for _ in range(50):
        assumptions = [pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(n), 3)]
        before = s.conflicts
        if s.solve(assumptions).sat and s.conflicts == before:
            break
    assert s.trail_lim
    s._rescale_var_activity()
    free = [v for v in range(n) if s.val[pos(v)] == 2]
    assert list(s.in_heap) == [int(v in free) for v in range(n)]
    assert sorted(s.heap) == sorted((-s.activity[v], v) for v in free)
    for _ in range(20):
        assumptions = [pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(n), 3)]
        assert s.solve(assumptions).sat == truth_table_sat(n, clauses, assumptions)


def test_activity_rescales_inside_search_keep_answers_and_heap(monkeypatch):
    # increments set just below the rescale thresholds before every call make
    # analyze rescale variable activities, and _bump_cla clause activities,
    # mid-search on a solver with history; random 3-SAT near the phase
    # transition has conflicts in most calls, where random_cnf's unit clauses
    # leave almost none
    fired = {"var": 0, "cla": 0}
    rescale_var, bump_cla = Solver._rescale_var_activity, Solver._bump_cla

    def counted_rescale_var(self):
        fired["var"] += 1
        rescale_var(self)

    def counted_bump_cla(self, c):
        before = self.cla_inc
        bump_cla(self, c)
        fired["cla"] += self.cla_inc < before

    monkeypatch.setattr(Solver, "_rescale_var_activity", counted_rescale_var)
    monkeypatch.setattr(Solver, "_bump_cla", counted_bump_cla)
    rng = random.Random(3)
    n = 16
    answers = set()
    for _ in range(30):
        clauses = [
            [pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(n), 3)]
            for _ in range(int(4.26 * n))
        ]
        s = Solver()
        for c in clauses:
            add_clause(s, c)
        s.ensure_var(n - 1)
        for _ in range(5):
            assumptions = [pos(v) if rng.random() < 0.5 else neg(v) for v in rng.sample(range(n), rng.randint(0, 4))]
            s.var_inc, s.cla_inc = 2e100, 2e20
            res = s.solve(assumptions)
            assert res.sat == truth_table_sat(n, clauses, assumptions)
            answers.add(res.sat)
            if res.sat:
                for c in clauses:
                    assert any(res.model[l >> 1] == (not l & 1) for l in c)
                for a in assumptions:
                    assert res.model[a >> 1] == (not a & 1)
            free = [v for v in range(n) if s.val[pos(v)] == 2]
            assert all(s.in_heap[v] for v in free)
            assert set(s.heap) >= {(-s.activity[v], v) for v in free}
    # both rescales fire more than once per formula on average
    assert answers == {False, True} and fired["var"] > 30 and fired["cla"] > 30


def test_reduce_db_drops_a_stale_reason_and_keeps_a_locked_clause():
    # cancel_until leaves an unassigned variable's reason in place; a learnt
    # clause that is only such a stale reason must not count as locked
    s = Solver()
    s.ensure_var(3)

    def learnt(lits, act):
        c = Learnt(lits)
        c.act = act
        s.learnts.append(c)
        s.watches[c[0] ^ 1].append(c)
        s.watches[c[1] ^ 1].append(c)
        return c

    active = [learnt([pos(0), pos(1)], 4.0), learnt([pos(2), pos(3)], 3.0)]
    locked = learnt([pos(0), neg(1)], 2.0)
    stale = learnt([pos(2), neg(3)], 1.0)
    s.trail_lim.append(len(s.trail))
    s._enqueue(pos(1), None)
    s._enqueue(pos(0), locked)
    s.trail_lim.append(len(s.trail))
    s._enqueue(pos(3), None)
    s._enqueue(pos(2), stale)
    s.cancel_until(1)
    assert s.val[pos(2)] == 2 and s.reason[2] is stale
    assert s.val[pos(0)] == 1 and s.reason[0] is locked
    s.reduce_db()  # keeps the more active half and every locked clause
    assert s.learnts == [*active, locked] and s.learnts[-1] is locked
    watched = [c for ws in s.watches for c in ws]
    assert sum(c is locked for c in watched) == 2 and all(c is not stale for c in watched)


def _state(s):
    # ok, the stored clauses, each watch list as clause indices, and the trail
    index = {id(c): k for k, c in enumerate(s.clauses)}
    return s.ok, s.clauses, [[index[id(c)] for c in ws] for ws in s.watches], s.trail


def test_add_clauses_in_one_call_matches_add_clause_one_at_a_time():
    # a clean stream: a unit at clause 10 and another at 20 put values on the
    # root trail, so later clauses are shortened or skipped; clause 30 is
    # false under both units, which makes the solver UNSAT, and the clauses
    # after it must be ignored
    n = 12
    for seed in range(20):
        rng = random.Random(seed)
        stream = []
        for k in range(45):
            if k in (10, 20, 30):
                stream.append({10: [pos(0)], 20: [neg(1)], 30: [neg(0), pos(1)]}[k])
                continue
            vs = sorted(rng.sample(range(n), rng.randint(2, 4)))
            stream.append([2 * v + rng.randrange(2) for v in vs])
        for cut in (30, len(stream)):
            single, batch = Solver(), Solver()
            for s in (single, batch):
                s.ensure_var(n - 1)
            for c in stream[:cut]:
                add_clause(single, c)
            batch.add_clauses([list(c) for c in stream[:cut]])
            assert _state(batch) == _state(single)
            # the units shorten or satisfy some later clauses; the solver
            # stays consistent until clause 30 and is UNSAT after it
            assert single.ok == (cut == 30)
            assert len(single.trail) >= 2 and len(single.clauses) < cut - 2
            if cut == 30:
                assert any(c not in stream for c in single.clauses)


def test_add_clauses_past_the_deadline_stores_nothing():
    rng = random.Random(7)
    for _ in range(10):
        n, clauses = random_cnf(rng, max_vars=12)
        clauses = [sorted(c) for c in clauses]
        s = Solver()
        s.ensure_var(n - 1)
        s.deadline = time.perf_counter() - 1.0
        with pytest.raises(SolveDeadlineExceeded):
            s.add_clauses([list(c) for c in clauses])
        assert s.ok and s.clauses == [] and s.trail == [] and not any(s.watches)
        s.deadline = None
        s.add_clauses([list(c) for c in clauses])
        res = s.solve()
        assert res.sat == truth_table_sat(n, clauses)
        if res.sat:
            assert all(any(res.model[l >> 1] == (not l & 1) for l in c) for c in clauses)
