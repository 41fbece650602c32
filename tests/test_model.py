import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ihswcsp.hitting import HittingProblem
from ihswcsp.model import (
    CostFunction,
    FullTable,
    HardConstraint,
    LevelSpace,
    WcspInstance,
    evaluate,
    make_cost_function,
)
from oracles import dominates, hits, maximal_subset


def test_dominates():
    assert dominates((1, 1), (1, 0))
    assert not dominates((1, 0), (0, 1))
    assert dominates((2, 2), (2, 2))


def test_dominates_length_mismatch():
    with pytest.raises(ValueError):
        dominates((1,), (1, 2))


def test_hits():
    assert hits((0, 0), [])
    assert hits((1, 1), [(1, 0), (0, 1)])
    assert not hits((1, 0), [(1, 0)])


def test_maximal_subset():
    assert maximal_subset([]) == set()
    assert maximal_subset([(1, 0), (2, 0)]) == {(2, 0)}
    assert maximal_subset([(1, 0), (0, 1)]) == {(1, 0), (0, 1)}
    assert maximal_subset([(1, 1), (1, 1)]) == {(1, 1)}


@st.composite
def vector_pairs(draw, max_len=5, max_val=4):
    m = draw(st.integers(1, max_len))
    vec = st.tuples(*([st.integers(0, max_val)] * m))
    return draw(vec), draw(vec), draw(vec)


@given(vector_pairs())
def test_domination_partial_order(vecs):
    u, v, w = vecs
    assert dominates(u, u)
    if dominates(u, v) and dominates(v, u):
        assert u == v
    if dominates(v, u) and dominates(w, v):
        assert dominates(w, u)


@given(st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.tuples(*([st.integers(0, 3)] * m)),
        st.lists(st.tuples(*([st.integers(0, 3)] * m)), max_size=6),
    )
))
def test_hits_matches_domination_definition(data):
    h, cores = data
    expected = all(any(h[i] > k[i] for i in range(len(h))) for k in cores)
    assert hits(h, cores) == expected


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12))
def test_core_set_is_maximal_antichain(vectors):
    # a level above the vectors' range keeps every vector hittable
    cs = HittingProblem(LevelSpace([(0, 1, 2, 3, 4)] * 2))
    for v in vectors:
        cs.add(v)
    stored = list(cs.cores)
    assert set(stored) == maximal_subset(vectors)
    for a in stored:
        for b in stored:
            if a != b:
                assert not dominates(a, b)


def test_core_set_insert_rules():
    cs = HittingProblem(LevelSpace([(0, 1, 2, 3)] * 2))
    assert cs.add((1, 1))
    assert not cs.add((1, 1))  # duplicate
    assert not cs.add((0, 1))  # dominated
    assert cs.add((2, 2))  # dominates and evicts (1, 1)
    assert cs.cores == [(2, 2)]


def _single_cell_instance():
    f = make_cost_function((0,), 0, {(0,): 1}, (1,))
    return WcspInstance("one", (1,), (), (f,), 10)


def test_level_space():
    # component 0 starts above zero, component 1 has a single level
    space = LevelSpace([(2, 5, 9), (4,)])
    assert space.baseline == (2, 4)
    assert space.maximum == (9, 4)
    for k, i, v in (((3, 4), 0, 3), ((0, 4), 0, 0), ((2, 5), 1, 5)):
        with pytest.raises(ValueError, match=rf"value {v} is not a level of component {i}"):
            HittingProblem(space).add(k)
    assert space.above(0, 2) == 5
    assert space.above(0, 5) == 9
    assert space.above(0, 9) is None
    assert space.above(1, 4) is None


def test_above_refuses_a_value_that_is_not_a_level():
    space = LevelSpace([(2, 5, 9), (4,)])
    for i, v in ((0, 0), (0, 6), (0, 10), (1, 3), (1, 5)):
        with pytest.raises(ValueError, match=rf"^value {v} is not a level of component {i}$"):
            space.above(i, v)


def test_evaluate_single_cell():
    w = _single_cell_instance()
    assert evaluate(w, (0,)) == (True, (1,), 1)


def test_evaluate_forbidden_tuple():
    hc = HardConstraint((0, 1), frozenset({(0, 0)}))
    f = make_cost_function((0,), 0, {(1,): 1}, (2, 2))
    w = WcspInstance("hard", (2, 2), (hc,), (f,), 10)
    feasible, _, _ = evaluate(w, (0, 0))
    assert not feasible
    assert evaluate(w, (1, 0))[0]


def test_evaluate_refuses_values_outside_the_domains():
    hc = HardConstraint((0, 1), frozenset({(0, 0)}))
    f = make_cost_function((0, 1), 0, {(0, 1): 2, (1, 1): 3}, (2, 2))
    w = WcspInstance("binary", (2, 2), (hc,), (f,), 10)
    for assignment, x, a in (((7, 9), 0, 7), ((-1, -1), 0, -1), ((1, 2), 1, 2)):
        with pytest.raises(ValueError, match=rf"value {a} of variable {x} is outside its domain"):
            evaluate(w, assignment)
    assert evaluate(w, (1, 1)) == (True, (3,), 3)


def test_evaluate_two_functions():
    f1 = make_cost_function((0,), 0, {(1,): 1}, (2, 2))
    f2 = make_cost_function((1,), 0, {(1,): 2}, (2, 2))
    w = WcspInstance("two", (2, 2), (), (f1, f2), 10)
    assert evaluate(w, (1, 1)) == (True, (1, 2), 3)


@given(st.lists(st.integers(0, 1), min_size=2, max_size=2))
def test_evaluate_total_is_vector_cost(values):
    f1 = make_cost_function((0,), 0, {(1,): 1}, (2, 2))
    f2 = make_cost_function((1,), 0, {(1,): 2}, (2, 2))
    w = WcspInstance("two", (2, 2), (), (f1, f2), 10)
    feasible, sv, total = evaluate(w, tuple(values))
    assert feasible
    assert total == sum(sv)


def test_make_cost_function_levels():
    # default reachable: included
    f = make_cost_function((0,), 3, {(0,): 5}, (3,))
    assert f.levels == (3, 5)
    # full coverage hides a nonzero default
    f = make_cost_function((0,), 3, {(0,): 5, (1,): 7}, (2,))
    assert f.levels == (5, 7)
    # a zero default is a level even when covered
    f = make_cost_function((0,), 0, {(0,): 5, (1,): 7}, (2,))
    assert f.levels == (0, 5, 7)
    # blocked tuples do not contribute levels
    f = make_cost_function((0,), None, {(0,): 4}, (2,), blocked=frozenset({(1,)}))
    assert f.levels == (4,)
    # nothing left: pure hard constraint
    assert make_cost_function((0,), None, {}, (1,), blocked=frozenset({(0,)})) is None


def test_instance_validation():
    f = make_cost_function((0,), 0, {(0,): 1}, (1,))
    with pytest.raises(ValueError):
        WcspInstance("bad", (1,), (), (f,), 0)  # top < 1
    with pytest.raises(ValueError):
        WcspInstance("bad", (1,), (), (f,), 1)  # cost 1 not < top
    bad_scope = make_cost_function((0, 0), 0, {(0, 0): 1}, (1, 1))
    with pytest.raises(ValueError):
        WcspInstance("bad", (1, 1), (), (bad_scope,), 10)
    cases = [
        (((2, 0), (f,)), "every domain must be nonempty"),
        (((2,), (CostFunction((0,), 0, {(0,): 1}, (0, 1, 1)),)), "levels must be strictly increasing"),
        (((2,), (CostFunction((0,), 0, {}, ()),)), "cost function without levels"),
        (((2, 2), (CostFunction((0, 2), 0, {}, (0,)),)), "scope (0, 2) out of range for 2 variables"),
    ]
    for (domains, functions), message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WcspInstance("bad", domains, (), functions, 10)


@pytest.mark.parametrize(
    "bad, cost",
    [((25, 3), 1), ((-1, 3), 1), ((4, 3, 0), 1), ((4, 3), 7)],
    ids=["outside-domain", "negative", "wrong-arity", "cost-not-a-level"],
)
def test_validation_names_a_bad_tuple_among_many_good(bad, cost):
    # the scope (1, 0) lists variable 1 (20 values) first and variable 0
    # (30 values) second, so 25 fits the second column's domain only
    good = [(a, b) for a in range(20) for b in range(20) if (a, b) != bad[:2]]
    explicit = {t: sum(t) % 3 for t in good[:200]}
    explicit[bad] = cost
    explicit.update((t, sum(t) % 3) for t in good[200:])
    f = CostFunction((1, 0), 0, explicit, (0, 1, 2))
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        WcspInstance("bad", (30, 20), (), (f,), 10)
    if cost == 1:  # the same tuple among a hard constraint's forbidden tuples
        hc = HardConstraint((1, 0), frozenset([*good, bad]))
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            WcspInstance("bad", (30, 20), (hc,), (), 10)
    del explicit[bad]
    WcspInstance("good", (30, 20), (), (CostFunction((1, 0), 0, explicit, (0, 1, 2)),), 10)


def test_full_table_validation():
    # scope (1, 0) over domains (2, 3): shape (3, 2), costs in product order
    def instance(shape, costs, domains=(2, 3)):
        f = CostFunction((1, 0), 0, FullTable(shape, costs), (0, 1, 2))
        return WcspInstance("full", domains, (), (f,), 10)

    w = instance((3, 2), [0, 1, 2, 0, 1, 2])
    assert w.cost_functions[0].value((1, 2)) == 2
    with pytest.raises(ValueError, match=re.escape("table shape (3, 2) is not (2, 3)")):
        instance((3, 2), [0, 1, 2, 0, 1, 2], domains=(3, 2))
    missing = re.escape("explicit cost 7 of tuple (2, 0) missing from levels")
    with pytest.raises(ValueError, match=missing):
        instance((3, 2), [0, 1, 2, 0, 7, 2])
    with pytest.raises(ValueError, match="5 costs for a table of shape"):
        FullTable((3, 2), [0] * 5)
