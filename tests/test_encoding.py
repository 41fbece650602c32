import itertools
import random
import time
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihswcsp.encoding import InducedCspEncoding, Satisfiable, Unsatisfiable
from ihswcsp.model import (
    CostFunction,
    FullTable,
    HardConstraint,
    WcspInstance,
    evaluate,
    make_cost_function,
)
from ihswcsp.merge import build_merged
from ihswcsp.sat import SolveDeadlineExceeded
from ihswcsp.wcsp_io import GeneratorParams, gen_scale_free, gen_uniform, parse_wcsp
from oracles import dominates, enumerate_assignments, random_tiny_instance, reference_encoding_solver


def _induced_sat_by_enumeration(w, v):
    for a in enumerate_assignments(w):
        feasible, sv, _ = evaluate(w, a)
        if feasible and all(sv[i] <= v[i] for i in range(len(v))):
            return True
    return False


def _level_space(w):
    return itertools.product(*(f.levels for f in w.cost_functions))


def test_oversized_default_table_is_refused():
    # 2**21 - 1 unlisted tuples above the baseline would each need a clause
    f = make_cost_function(tuple(range(21)), 1, {(0,) * 21: 0}, (2,) * 21)
    w = WcspInstance("wide", (2,) * 21, (), (f,), 10)
    with pytest.raises(ValueError, match=r"cost function 0 .* 2097151 unlisted tuples"):
        InducedCspEncoding(w)


def test_single_var_bound_forces_value():
    f = make_cost_function((0,), 0, {(1,): 1}, (2,))
    w = WcspInstance("unary", (2,), (), (f,), 10)
    enc = InducedCspEncoding(w)
    res = enc.solve_induced((0,))
    assert isinstance(res, Satisfiable)
    assert res.assignment == (0,)
    res = enc.solve_induced((1,))
    assert isinstance(res, Satisfiable)
    assert res.solution_vector <= (1,)


def test_min_level_vector_with_nonzero_minimum():
    f = make_cost_function((0,), 1, {(0,): 1, (1,): 2}, (2,))
    assert f.levels == (1, 2)
    w = WcspInstance("minlev", (2,), (), (f,), 10)
    enc = InducedCspEncoding(w)
    assert enc.space.baseline == (1,)
    res = enc.solve_induced((1,))
    assert isinstance(res, Satisfiable)
    assert res.assignment == (0,)
    assert res.solution_vector == (1,)


def test_hard_constraint_only_binds_without_selectors():
    hc = HardConstraint((0, 1), frozenset({(0, 0)}))
    f = make_cost_function((0,), 0, {(1,): 1}, (2, 2))
    w = WcspInstance("hard", (2, 2), (hc,), (f,), 10)
    enc = InducedCspEncoding(w)
    res = enc.solve_induced((0,))
    assert isinstance(res, Satisfiable)
    assert res.assignment[0] == 0 and res.assignment[1] == 1


def test_three_level_chain_example():
    # one function with levels {0,3,7} over two values; its cost-7 tuple must
    # be forbidden under both the <=0 and <=3 bounds through the chain
    f = make_cost_function((0,), 0, {(0,): 3, (1,): 7}, (3,))
    assert f.levels == (0, 3, 7)
    w = WcspInstance("chain", (3,), (), (f,), 20)
    enc = InducedCspEncoding(w)
    for v in _level_space(w):
        res = enc.solve_induced(v)
        assert isinstance(res, Satisfiable) == _induced_sat_by_enumeration(w, v)


def test_lazy_core_localizes_single_function_conflict():
    # f1 forces a positive cost on x, f2 is independent on y
    f1 = make_cost_function((0,), 0, {(0,): 1, (1,): 1}, (2, 2))
    f2 = make_cost_function((1,), 0, {(1,): 5}, (2, 2))
    assert f1.levels == (0, 1)
    w = WcspInstance("loc", (2, 2), (), (f1, f2), 10)
    enc = InducedCspEncoding(w)
    res = enc.solve_induced((0, 0))
    assert isinstance(res, Unsatisfiable)
    assert res.lazy_core == (0, 5)  # f2 released to its max level


def test_rejects_off_level_values():
    f = make_cost_function((0,), 0, {(1,): 2}, (2,))
    w = WcspInstance("lvl", (2,), (), (f,), 10)
    enc = InducedCspEncoding(w)
    with pytest.raises(ValueError, match=r"^cost vector \(1,\) is not a level vector$"):
        enc.solve_induced((1,))
    for v in ((), (0, 2)):
        with pytest.raises(ValueError, match="^cost vector length does not match component count$"):
            enc.solve_induced(v)


def test_exhaustive_equivalence_on_tiny_instances():
    rng = random.Random(42)
    for _ in range(25):
        w = random_tiny_instance(rng)
        enc = InducedCspEncoding(w)
        for v in _level_space(w):
            res = enc.solve_induced(v)
            expected = _induced_sat_by_enumeration(w, v)
            assert isinstance(res, Satisfiable) == expected
            if isinstance(res, Satisfiable):
                feasible, sv, _ = evaluate(w, res.assignment)
                assert feasible
                assert sv == res.solution_vector
                assert dominates(v, sv)


def test_lazy_cores_are_sound_and_dominating():
    rng = random.Random(43)
    checked = 0
    while checked < 40:
        w = random_tiny_instance(rng)
        enc = InducedCspEncoding(w)
        for v in _level_space(w):
            res = enc.solve_induced(v)
            if isinstance(res, Satisfiable):
                continue
            lazy = res.lazy_core
            assert dominates(lazy, v)
            fresh = InducedCspEncoding(w)
            assert isinstance(fresh.solve_induced(lazy), Unsatisfiable)
            checked += 1
            break


def test_monotonicity_under_looser_bounds():
    rng = random.Random(44)
    for _ in range(20):
        w = random_tiny_instance(rng)
        enc = InducedCspEncoding(w)
        space = list(_level_space(w))
        sat = {v: isinstance(enc.solve_induced(v), Satisfiable) for v in space}
        for v in space:
            if not sat[v]:
                continue
            for u in space:
                if dominates(u, v):
                    assert sat[u], f"SAT at {v} but UNSAT at looser {u}"


def test_encoding_scales_to_wide_domains():
    # one domains-class instance: 25 vars over 30 values, 50 dense functions
    from ihswcsp.wcsp_io import GeneratorParams, gen_uniform

    w = gen_uniform(GeneratorParams(25, 30, 50, 5, 750, seed=1))
    enc = InducedCspEncoding(w)
    res = enc.solve_induced(enc.space.maximum)
    assert isinstance(res, Satisfiable)
    res = enc.solve_induced(enc.space.baseline)
    # 750 of 900 tuples are nonzero per function; a zero-cost assignment
    # may or may not exist, but the query itself must decode cleanly
    if isinstance(res, Satisfiable):
        assert res.solution_vector == tuple([0] * 50)


def test_full_table_encodes_without_its_default():
    # a table listing every tuple never uses its default, so a default above
    # the minimum (here not even a level) adds no clause; with one tuple
    # unlisted, the default's clause takes that tuple's place
    table = {t: (t[0] + 2 * t[1]) % 3 for t in itertools.product(range(2), range(3))}

    def clauses(default, explicit):
        f = CostFunction((1, 0), default, explicit, (0, 1, 2, 3))
        enc = InducedCspEncoding(WcspInstance("full", (3, 2), (), (f,), 10))
        return [list(c) for c in enc.solver.clauses]

    assert clauses(9, table) == clauses(0, table)
    partial = {t: c for t, c in table.items() if t != (1, 2)}  # the last tuple in order
    assert clauses(3, partial) == clauses(0, {**partial, (1, 2): 3})


def _watch_indices(solver):
    index = {id(c): k for k, c in enumerate(solver.clauses)}
    return [[index[id(c)] for c in ws] for ws in solver.watches]


def _parsed_full_table(rng, domains, scope, root_value=False):
    """A parsed instance of one full table over ``scope`` with its tuples
    listed in a shuffled order and a default (50) above every cost; with
    ``root_value``, a hard unary function forbids value 0 of ``scope[0]``,
    which falsifies its literal at the root."""
    tuples = list(itertools.product(*(range(domains[x]) for x in scope)))
    rng.shuffle(tuples)
    lines = [f"full {len(domains)} {max(domains)} {1 + root_value} 100", " ".join(map(str, domains)),
             f"{len(scope)} {' '.join(map(str, scope))} 50 {len(tuples)}"]
    lines += [" ".join(map(str, (*t, rng.choice((0, 0, 3, 7, 20))))) for t in tuples]
    if root_value:
        lines += [f"1 {scope[0]} 0 1", "0 100"]
    return parse_wcsp("\n".join(lines) + "\n")


def test_clauses_watches_and_trail_match_add_clause_encoder(monkeypatch):
    # the encoding stores clean clauses without add_clause's checks; the
    # reference passes every clause through the oracles' add_clause, so the
    # stored clauses (with literal order), every watch list (as clause
    # indices) and the root trail must be the same
    rng = random.Random(45)
    seen = {"unit_domain": 0, "unary_hard": 0, "binary_hard": 0, "unsorted_scope": 0,
            "unlisted": 0, "merged": 0, "rows": 0, "rows_unsorted_scope": 0,
            "rows_after_root": 0, "full_table_unsorted_scope": 0}
    rows = InducedCspEncoding._forbidding_full

    def counted(self, f, sels):
        seen["rows"] += 1
        seen["rows_unsorted_scope"] += list(f.scope) != sorted(f.scope)
        seen["rows_after_root"] += bool(self.solver.trail)
        seen["full_table_unsorted_scope"] += (isinstance(f.explicit, FullTable)
                                              and list(f.scope) != sorted(f.scope))
        return rows(self, f, sels)

    monkeypatch.setattr(InducedCspEncoding, "_forbidding_full", counted)
    instances = []
    for k in range(150):
        w = random_tiny_instance(rng, max_vars=5, max_funcs=4)
        instances.append(w)
        if k % 3 == 0:
            instances.append(build_merged(w).view)
            seen["merged"] += 1
    # parsed full tables of 63, 64 and 65 tuples, and one of more than 4096
    # tuples, over scopes that do not ascend
    for domains, scope in [((9, 7), (1, 0)), ((8, 8), (1, 0)), ((13, 5), (1, 0)),
                           ((4, 4, 4), (2, 0, 1)), ((3, 3, 7), (0, 2, 1)),
                           ((9, 8, 9, 8), (3, 1, 0, 2))]:
        for root_value in (False, True):
            instances.append(_parsed_full_table(rng, domains, scope, root_value))
    # a library-built FullTable over a scope that does not ascend, alone and
    # behind a unary hard constraint that falsifies a value at the root
    costs = [rng.choice((0, 0, 3, 7, 20)) for _ in range(5 * 3 * 4)]
    f = CostFunction((2, 0, 1), 50, FullTable((5, 3, 4), costs), tuple(sorted(set(costs))))
    for hard in ((), (HardConstraint((2,), frozenset({(0,)})),)):
        instances.append(WcspInstance("full", (3, 4, 5), hard, (f,), 100))
    # the ingest workload's merged views: full tables of up to 4096 tuples,
    # tens of thousands of clauses each
    ingest = [(gen_uniform, (120, 6, 240, 6, 12), 1), (gen_scale_free, (150, 5, 2, 6, 10), 2),
              (gen_uniform, (60, 8, 120, 8, 24), 2)]
    instances += [build_merged(gen(GeneratorParams(*p, seed=s))).view for gen, p, s in ingest]
    for w in instances:
        seen["unit_domain"] += 1 in w.domains
        for scope in [hc.scope for hc in w.hard_constraints] + [f.scope for f in w.cost_functions]:
            seen["unsorted_scope"] += list(scope) != sorted(scope)
        for hc in w.hard_constraints:
            seen["unary_hard" if len(hc.scope) == 1 else "binary_hard"] += 1
        enc = InducedCspEncoding(w)
        for i, f in enumerate(w.cost_functions):
            table = prod(w.domains[x] for x in f.scope)
            seen["unlisted"] += f.default_cost > enc.space.baseline[i] and len(f.explicit) < table
        got, want = enc.solver, reference_encoding_solver(w)
        assert (got.ok, got.num_vars, got.trail) == (want.ok, want.num_vars, want.trail)
        assert got.clauses == want.clauses
        assert _watch_indices(got) == _watch_indices(want)
    assert all(seen.values()), seen


def test_deadline_interrupts_a_full_table_between_row_batches():
    # the rows of one 2**18-tuple table take about a quarter second to build
    # whole; built and stored 4096 tuples at a time, with a poll between
    # batches, the build ends soon after the deadline
    domains = (16, 16, 32, 32)
    table = dict.fromkeys(itertools.product(*map(range, domains)), 1)
    table[(0,) * 4] = 0
    w = WcspInstance("full", domains, (), (CostFunction((0, 1, 2, 3), 1, table, (0, 1)),), 10)
    started = time.perf_counter()
    with pytest.raises(SolveDeadlineExceeded):
        InducedCspEncoding(w, deadline=started + 0.05)
    assert time.perf_counter() - started < 0.05 + 0.1


def test_literal_table_is_never_a_stored_clause():
    # propagation reorders a stored clause in place: at the root after the
    # unary hard constraint, and in every search; a variable's at-least-one
    # clause that were value_lit's own list would reorder the table that
    # later clauses and the decoding read
    hard = HardConstraint((1,), frozenset({(0,)}))
    f = make_cost_function((0, 1), 4, {(0, 1): 2, (1, 1): 1, (2, 1): 3, (0, 2): 0}, (3, 3, 2))
    g = make_cost_function((1, 2), 1, {(1, 0): 0, (2, 1): 2}, (3, 3, 2))
    w = WcspInstance("alias", (3, 3, 2), (hard,), (f, g), 20)
    enc = InducedCspEncoding(w)
    assert enc.solver.trail  # root propagation happened
    table = [list(range(0, 6, 2)), list(range(6, 12, 2)), list(range(12, 16, 2))]
    vectors = list(_level_space(w))
    sat = 0
    for v in vectors:
        res = enc.solve_induced(v)
        assert isinstance(res, Satisfiable) == _induced_sat_by_enumeration(w, v)
        if isinstance(res, Satisfiable):
            sat += 1
            assert evaluate(w, res.assignment)[:2] == (True, res.solution_vector)
    assert 0 < sat < len(vectors)
    assert enc.value_lit == table
    kept = {id(lits) for lits in enc.value_lit}
    assert not any(id(c) in kept for c in enc.solver.clauses + enc.solver.learnts)


def _check_sat_answers_decode_their_models(w, vectors):
    """Solve every vector; each satisfiable answer must carry the one-hot
    decoding of the SAT model and ``evaluate``'s solution vector of it.
    Returns the number of satisfiable answers."""
    enc = InducedCspEncoding(w)
    models = []
    inner = enc.solver.solve

    def solve(assumptions, failed=True):
        res = inner(assumptions, failed=failed)
        models.append(res.model)
        return res

    enc.solver.solve = solve
    sat = 0
    for v in vectors:
        res = enc.solve_induced(v)
        if isinstance(res, Satisfiable):
            sat += 1
            model = models[-1]
            decoded = [[k for k, lit in enumerate(lits) if model[lit >> 1]] for lits in enc.value_lit]
            assert decoded == [[a] for a in res.assignment]
            assert res.solution_vector == evaluate(w, res.assignment)[1]
    return sat


@st.composite
def generated_instances(draw):
    n = draw(st.integers(3, 7))
    d = draw(st.integers(2, 3))
    if draw(st.booleans()):
        gen, m = gen_uniform, draw(st.integers(1, min(8, n * (n - 1) // 2)))
    else:
        gen, m = gen_scale_free, draw(st.integers(1, n - 1))
    p = GeneratorParams(n, d, m, draw(st.integers(1, 4)), draw(st.integers(1, d * d)),
                        draw(st.integers(0, 2**32)))
    w = gen(p)
    return build_merged(w).view if draw(st.booleans()) else w


@settings(max_examples=40, deadline=None)
@given(generated_instances(), st.randoms(use_true_random=False))
def test_sat_answers_carry_the_model_decoding_and_its_solution_vector(w, rng):
    levels = [f.levels for f in w.cost_functions]
    vectors = [tuple(ls[-1] for ls in levels), tuple(ls[0] for ls in levels)]
    vectors += [tuple(rng.choice(ls) for ls in levels) for _ in range(8)]
    assert _check_sat_answers_decode_their_models(w, vectors) > 0


def test_decode_of_unary_and_empty_scopes_and_of_no_variables():
    unary = make_cost_function((1,), 0, {(0,): 2, (2,): 1}, (2, 3))
    binary = make_cost_function((0, 1), 1, {(0, 0): 0, (1, 2): 3}, (2, 3))
    empty = CostFunction((), 0, {(): 5}, (0, 5))
    w = WcspInstance("edges", (2, 3), (), (unary, binary, empty), 10)
    vectors = list(_level_space(w))
    assert _check_sat_answers_decode_their_models(w, vectors) == sum(
        _induced_sat_by_enumeration(w, v) for v in vectors
    )
    bare = WcspInstance("z", (), (), (empty,), 10)
    assert _check_sat_answers_decode_their_models(bare, [(0,), (5,)]) == 1
    assert InducedCspEncoding(bare).solve_induced((5,)) == Satisfiable((), (5,))
