import hashlib
import inspect
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grown

from ihswcsp import SolverConfig, solve
from ihswcsp.encoding import SolveDeadlineExceeded
from ihswcsp.hitting import (
    LevelSpace,
    Unhittable,
    _dual_bound,
    cost_bounded_hv,
    greedy_hv,
    min_cost_hv,
)
from ihswcsp.wcsp_io import GeneratorParams, gen_scale_free, gen_uniform
from oracles import enumerate_hitting, hits, random_cores, random_level_space


def _problem(levels, cores, deadline=None):
    return grown(LevelSpace(tuple(tuple(ls) for ls in levels)), cores, deadline)


def test_min_cost_empty_core_set_returns_baseline():
    p = _problem([(0, 1, 2), (0, 1, 2)], [])
    assert min_cost_hv(p) == (0, 0)


def test_min_cost_antichain_needs_cost_two():
    p = _problem([(0, 1, 2), (0, 1, 2)], [(1, 0), (0, 1)])
    h = min_cost_hv(p)
    assert sum(h) == 2
    assert hits(h, p.cores)
    assert h == (0, 2)  # lexicographically smallest among the cost-2 hitters


def test_min_cost_chain_hits_through_second_component():
    p = _problem([(0, 1, 2, 3), (0, 1, 2, 3)], [(1, 0), (2, 0)])
    assert min_cost_hv(p) == (0, 1)


def test_min_cost_unhittable():
    with pytest.raises(Unhittable):
        _problem([(0, 1), (0, 2)], [(1, 2)])


def test_core_off_the_level_grid_is_refused():
    # 1 is not a level of component 1, so the core is refused with no change
    with pytest.raises(ValueError, match="not a level of component 1"):
        _problem([(0, 2), (0, 2)], [(0, 1)])
    p = _problem([(0, 2), (0, 2)], [(2, 0)])
    with pytest.raises(ValueError, match="not a level of component 1"):
        p.add((0, 1))
    assert p.cores == [(2, 0)] and p.witnesses == [((1, 2),)]
    assert min_cost_hv(p) == (0, 2)


def test_core_of_the_wrong_length_is_refused():
    for k in [(0,), (0, 1, 1)]:
        with pytest.raises(ValueError, match="entries"):
            _problem([(0, 1)] * 2, [k])
        p = _problem([(0, 1)] * 2, [(1, 0)])
        with pytest.raises(ValueError, match="entries"):
            p.add(k)
        assert p.cores == [(1, 0)] and p.columns == [[p._none], [1]]


def test_cost_bounded_trivial_and_nul():
    p = _problem([(0, 1, 2), (0, 1, 2)], [])
    assert cost_bounded_hv(p, None) == (0, 0)
    p = _problem([(0, 1, 2), (0, 1, 2)], [(1, 0), (0, 1)])
    assert cost_bounded_hv(p, 2) is None
    h = cost_bounded_hv(p, 3)
    assert h is not None and sum(h) == 2 and hits(h, p.cores)


def test_greedy_trivial():
    p = _problem([(0, 1, 2)], [])
    assert greedy_hv(p) == (0,)


def test_greedy_prefers_better_ratio():
    # raising component 2 to level 1 is cheaper per hit core than raising
    # component 1 to level 2
    p = _problem([(0, 1, 2), (0, 1, 2)], [(1, 0)])
    assert greedy_hv(p) == (0, 1)


def test_greedy_three_core_example():
    p = _problem([(0, 1, 2, 3), (0, 1, 2, 3)], [(1, 0), (1, 1), (0, 2)])
    h = greedy_hv(p)
    assert h == (2, 0)
    assert hits(h, p.cores)


def test_nonzero_baseline_levels():
    p = _problem([(2, 5), (1, 4)], [])
    assert min_cost_hv(p) == (2, 1)
    p = _problem([(2, 5), (1, 4)], [(2, 1)])
    assert min_cost_hv(p) == (2, 4)  # cost 6 beats (5,1) cost 6? no: lex tie-break
    # both (5,1) and (2,4) cost 6; lex-min is (2,4)


# sha256 of the cost-bounded and greedy vectors below, over the antichains
# that add keeps of the random cores.  The driver's traces depend on which
# leaf the cost-bounded search finds first and on greedy's tie-breaks, so a
# faster search must still return exactly these vectors.
PINNED_VECTORS = "a2e7ca00b75bfd559057472ca9d79b76db05b4d726c7de62e142911fd1169746"


def test_randomized_against_enumeration():
    rng = random.Random(99)
    pinned = []
    for _ in range(200):
        levels = random_level_space(rng)
        cores = random_cores(rng, levels)
        expected_cost, expected_vec = enumerate_hitting(levels, cores)
        if expected_cost is None:
            with pytest.raises(Unhittable):
                _problem(levels, cores)
            continue
        problem = _problem(levels, cores)
        h = min_cost_hv(problem)
        assert sum(h) == expected_cost
        assert h == expected_vec
        assert hits(h, cores)

        for ub_delta in (-1, 0, 1, 3):
            ub = expected_cost + ub_delta
            got = cost_bounded_hv(problem, ub)
            pinned.append(got)
            if expected_cost >= ub:
                assert got is None
            else:
                assert got is not None
                assert sum(got) < ub
                assert hits(got, cores)

        g = greedy_hv(problem)
        pinned.append(g)
        assert hits(g, cores)
        assert sum(g) >= expected_cost
    assert hashlib.sha256(repr(pinned).encode()).hexdigest() == PINNED_VECTORS


def test_min_cost_tie_break_on_many_cores():
    # few small levels make equal costs common (about half of these problems
    # have several optimal vectors), and 15-40 cores leave the branch core
    # rules many unhit cores to choose from; the result must still be the
    # lexicographically smallest optimum
    rng = random.Random(7)
    for _ in range(60):
        levels = tuple(
            tuple(sorted(rng.sample(range(6), rng.randint(2, 4))))
            for _ in range(rng.randint(7, 9))
        )
        cores = [tuple(rng.choice(ls) for ls in levels) for _ in range(rng.randint(15, 40))]
        expected_cost, expected_vec = enumerate_hitting(levels, cores)
        if expected_cost is None:
            continue
        assert min_cost_hv(_problem(levels, cores)) == expected_vec


def test_dual_bound_is_admissible():
    # at a vector h that leaves cores unhit, the dual value never exceeds
    # the cheapest raise of h that hits them all, in any core order
    rng = random.Random(12)
    checked = tight = 0
    for _ in range(1000):
        levels = random_level_space(rng)
        cores = random_cores(rng, levels)
        h = [rng.choice(ls) for ls in levels]
        above = [tuple(v for v in ls if v >= hi) for ls, hi in zip(levels, h)]
        best, _ = enumerate_hitting(above, cores)
        if best is None:
            continue
        problem = _problem(levels, cores)
        unhit = [c for c, k in enumerate(problem.cores) if all(a <= b for a, b in zip(h, k))]
        if not unhit:
            continue
        rng.shuffle(unhit)
        witnesses = problem.witnesses
        deltas = [min(w - h[i] for i, w in witnesses[c]) for c in unhit]
        bound = _dual_bound(1 << 30, unhit, deltas, h, witnesses)
        assert max(deltas) <= best - sum(h)
        assert deltas[0] <= bound <= best - sum(h)
        # capped below its value, it stops early but still reads above the cap
        assert _dual_bound(bound - 1, unhit, deltas, h, witnesses) > bound - 1
        checked += 1
        tight += bound == best - sum(h)
    assert checked > 250 and 0 < tight < checked


def test_branch_and_bound_node_ceiling():
    # the dual-ascent bound, branching on the unhit core with the largest
    # cheapest raise, needs 3,003 nodes here; branching on the core with the
    # fewest witness components takes 6,524, and a greedy packing of cores
    # with disjoint witness components in place of the ascent 14,420, so a
    # bound or a branching rule that silently weakens fails this
    w = gen_uniform(GeneratorParams(9, 3, 18, 4, 6, seed=1))
    report = solve(w, SolverConfig(hv="lb", core="maximal"))
    assert report.optimum == 103
    assert report.hv_nodes < 4_500


def test_branch_and_bound_node_ceiling_scale_free():
    # 6,919 nodes; branching on the core with the fewest witness components
    # takes 21,867
    w = gen_scale_free(GeneratorParams(16, 3, 2, 3, 6, seed=1))
    report = solve(w, SolverConfig(hv="lb", core="maximal", merge=False))
    assert report.optimum == 86
    assert report.hv_nodes < 10_000


def test_add_keeps_an_ordered_antichain_equal_to_a_rebuild():
    levels = [(0, 1, 2, 3)] * 3
    p = _problem(levels, [])
    for k in [(1, 0, 3), (0, 2, 0), (2, 1, 0)]:
        assert p.add(k)
    assert not p.add((1, 1, 0))  # (2, 1, 0) dominates it
    assert not p.add((2, 1, 0))  # a duplicate
    assert p.add((1, 2, 0))  # evicts (0, 2, 0) only
    assert p.cores == [(1, 0, 3), (2, 1, 0), (1, 2, 0)]
    rebuilt = _problem(levels, p.cores)
    for table in ("cores", "witnesses", "columns"):
        assert getattr(p, table) == getattr(rebuilt, table)
    assert min_cost_hv(p) == min_cost_hv(rebuilt) == enumerate_hitting(levels, p.cores)[1]


def test_add_refuses_an_unhittable_core_and_changes_nothing():
    # (3, 3, 3) would dominate, and so evict, every stored core
    p = _problem([(0, 1, 2, 3)] * 3, [(1, 0, 3), (0, 2, 0)])
    tables = {t: repr(getattr(p, t)) for t in ("cores", "witnesses", "columns")}
    with pytest.raises(Unhittable, match=r"core \(3, 3, 3\) is at the maximum level everywhere"):
        p.add((3, 3, 3))
    assert {t: repr(getattr(p, t)) for t in tables} == tables
    assert min_cost_hv(p) == (0, 1, 1)


def test_deep_search_needs_no_recursion():
    # core j is 0 at component j and at the maximum 1 elsewhere, so the only
    # hitting vector raises every component: a search 300 raises deep, under
    # a recursion limit 150 frames above this test's own depth
    n = 300
    p = _problem([(0, 1)] * n, [tuple(0 if i == j else 1 for i in range(n)) for j in range(n)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        assert min_cost_hv(p) == (1,) * n
    finally:
        sys.setrecursionlimit(limit)
    assert p.nodes == n + 1


def test_search_polls_deadline():
    # a sparse antichain whose minimum-cost search takes 3,610 nodes
    rng = random.Random(3)
    cores = []
    for _ in range(90):
        k = [3] * 30
        for i in rng.sample(range(30), rng.randint(2, 4)):
            k[i] = rng.randrange(3)
        cores.append(tuple(k))
    p = _problem([(0, 1, 2, 3)] * 30, cores, deadline=time.perf_counter() - 1.0)
    with pytest.raises(SolveDeadlineExceeded):
        min_cost_hv(p)
    assert p.nodes == 1024


@st.composite
def hitting_problems(draw):
    m = draw(st.integers(1, 4))
    levels = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=4))))
        for _ in range(m)
    )
    cores = draw(
        st.lists(
            st.tuples(*(st.sampled_from(ls) for ls in levels)),
            max_size=5,
        )
    )
    return levels, cores


@settings(max_examples=80, deadline=None)
@given(hitting_problems())
def test_min_cost_matches_enumeration_property(data):
    levels, cores = data
    expected_cost, expected_vec = enumerate_hitting(levels, cores)
    if expected_cost is None:
        with pytest.raises(Unhittable):
            _problem(levels, cores)
        return
    problem = _problem(levels, cores)
    h = min_cost_hv(problem)
    assert h == expected_vec
    g = greedy_hv(problem)
    assert hits(g, cores) and sum(g) >= expected_cost
    assert (cost_bounded_hv(problem, expected_cost) is None)
    assert cost_bounded_hv(problem, expected_cost + 1) is not None


def test_deterministic():
    rng = random.Random(100)
    levels = random_level_space(rng)
    cores = random_cores(rng, levels, max_cores=6)
    p1, p2 = _problem(levels, cores), _problem(levels, cores)
    assert min_cost_hv(p1) == min_cost_hv(p2)
    assert cost_bounded_hv(p1, 7) == cost_bounded_hv(p2, 7)
    assert greedy_hv(p1) == greedy_hv(p2)
