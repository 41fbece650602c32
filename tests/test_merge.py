import itertools
import random
import time

import pytest

from ihswcsp.encoding import SolveDeadlineExceeded
from ihswcsp.merge import _group_by_cluster, _merge_group, build_merged, min_fill_order
from ihswcsp.model import CostFunction, FullTable, WcspInstance, evaluate, make_cost_function
from ihswcsp.wcsp_io import (
    GeneratorParams,
    brute_force_optimum,
    gen_scale_free,
    gen_uniform,
    parse_wcsp,
    write_wcsp,
)
from oracles import (
    group_by_cluster_slow,
    merge_group_slow,
    merged_groups_slow,
    min_fill_order_slow,
    random_tiny_instance,
)


def test_min_fill_triangle():
    order, clusters = min_fill_order(3, [(0, 1), (1, 2), (0, 2)])
    assert order[0] == 0  # already chordal, ties break to the lowest index
    assert clusters[0] == (0, 1, 2)


def test_min_fill_star():
    # center 4: eliminating it first would cost C(4,2)=6 fill edges
    edges = [(4, leaf) for leaf in (0, 1, 2, 3)]
    order, clusters = min_fill_order(5, edges)
    assert order == [0, 1, 2, 3, 4]
    assert clusters == [(0, 4), (1, 4), (2, 4), (3, 4), (4,)]


def test_min_fill_empty_graph():
    order, clusters = min_fill_order(3, [])
    assert order == [0, 1, 2]
    assert clusters == [(0,), (1,), (2,)]


def test_merging_polls_its_deadline(monkeypatch):
    import ihswcsp.merge as merge

    w = gen_uniform(GeneratorParams(12, 3, 20, 2, 3, seed=1))
    edges = [f.scope for f in w.cost_functions]
    past = time.perf_counter()
    with pytest.raises(SolveDeadlineExceeded):
        min_fill_order(w.num_vars, edges, past)
    with pytest.raises(SolveDeadlineExceeded):
        build_merged(w, past)
    assert min_fill_order(w.num_vars, edges, past + 60) == min_fill_order(w.num_vars, edges)
    assert build_merged(w, past + 60) == build_merged(w)
    # a deadline that passes after the decomposition stops the group loop
    inner = merge.min_fill_order

    def slow(num_vertices, edges, deadline):
        result = inner(num_vertices, edges)
        time.sleep(0.05)
        return result

    monkeypatch.setattr(merge, "min_fill_order", slow)
    with pytest.raises(SolveDeadlineExceeded):
        build_merged(w, time.perf_counter() + 0.02)


def test_min_fill_matches_quadratic_reference():
    rng = random.Random(22)
    graphs = []
    for _ in range(300):
        n = rng.randint(0, 40)
        density = rng.random()
        # u == v gives self-loops; low densities give empty and path-like graphs
        edges = [(u, v) for u in range(n) for v in range(u, n) if rng.random() < density]
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(edges)
        graphs.append((n, edges))
    # complete graphs tie at zero fill throughout; cycles, a grid and cliques
    # joined by paths tie on many vertices at once
    graphs += [(n, [(u, v) for u in range(n) for v in range(u + 1, n)]) for n in (1, 2, 5, 17, 40)]
    graphs += [(n, [(v, (v + 1) % n) for v in range(n)]) for n in (3, 4, 9, 32)]
    grid = [(v, v + 1) for v in range(36) if v % 6 < 5] + [(v, v + 6) for v in range(30)]
    graphs.append((36, grid))
    cliques = [(u + k, v + k) for k in (0, 10, 20) for u in range(8) for v in range(u + 1, 8)]
    graphs.append((30, cliques + [(7, 8), (8, 9), (9, 10), (17, 18), (18, 19), (19, 20)]))
    # the scope graphs of ingest's families, scaled down to 30-60 variables
    for seed in (1, 2, 3):
        for w in (
            gen_uniform(GeneratorParams(30, 6, 60, 6, 12, seed)),
            gen_uniform(GeneratorParams(60, 6, 120, 6, 12, seed)),
            gen_uniform(GeneratorParams(60, 8, 120, 8, 24, seed)),
            gen_scale_free(GeneratorParams(50, 5, 2, 6, 10, seed)),
            gen_scale_free(GeneratorParams(40, 3, 4, 3, 6, seed)),
        ):
            graphs.append((w.num_vars, _scope_edges(w)))
    for n, edges in graphs:
        assert min_fill_order(n, edges) == min_fill_order_slow(n, edges)


def test_min_fill_polls_its_deadline_once_per_elimination(monkeypatch):
    import ihswcsp.merge as merge

    polls = []
    monkeypatch.setattr(merge, "_poll", polls.append)
    w = gen_uniform(GeneratorParams(40, 3, 80, 2, 3, seed=4))
    order, _ = min_fill_order(w.num_vars, _scope_edges(w), 123.0)
    assert len(order) == w.num_vars
    assert polls == [123.0] * w.num_vars


def _scope_edges(w):
    return [(a, b) for f in w.cost_functions for a in f.scope for b in f.scope if a < b]


def test_group_by_cluster_matches_all_clusters_scan():
    rng = random.Random(31)
    constant = CostFunction((), 2, {}, (2,))  # an empty scope fits every cluster
    for trial in range(120):
        if trial % 3 == 0:
            w = random_tiny_instance(rng, max_vars=6, max_funcs=6)
        else:
            gen = gen_uniform if trial % 3 == 1 else gen_scale_free
            n = rng.randint(4, 30)
            p = GeneratorParams(n, 2, rng.randint(1, min(40, n - 1)), 1, 1, trial)
            w = gen(p)
        if trial % 5 == 0:
            funcs = list(w.cost_functions)
            funcs.insert(rng.randint(0, len(funcs)), constant)
            w = WcspInstance(w.name, w.domains, (), tuple(funcs), w.top)
        # extra edges widen and overlap the clusters beyond the scopes
        extra = [tuple(rng.sample(range(w.num_vars), 2)) for _ in range(w.num_vars // 4)]
        edges = _scope_edges(w) + [e for e in extra if e[0] != e[1]]
        _, clusters = min_fill_order(w.num_vars, edges)
        assert _group_by_cluster(w, clusters) == group_by_cluster_slow(w, clusters)


def test_group_by_cluster_without_clusters_fails_like_the_scan():
    w = WcspInstance("none", (), (), (CostFunction((), 2, {}, (2,)),), 10)
    with pytest.raises(ValueError):
        group_by_cluster_slow(w, [])
    with pytest.raises(ValueError):
        _group_by_cluster(w, [])


def test_merge_two_functions_on_same_scope():
    f1 = make_cost_function((0, 1), 0, {(0, 0): 1, (1, 1): 2}, (2, 2))
    f2 = make_cost_function((0, 1), 0, {(0, 1): 3, (1, 1): 1}, (2, 2))
    w = WcspInstance("pair", (2, 2), (), (f1, f2), 20)
    merged = build_merged(w)
    assert merged.view.cost_functions == (merge_group_slow(w, (0, 1)),)
    assert len(merged.view.cost_functions) == 1
    f = merged.view.cost_functions[0]
    # achievable sums over the four assignments: 1, 3, 0, 3
    assert f.levels == (0, 1, 3)
    assert merged_groups_slow(w) == [(0, 1)]


def test_disjoint_scopes_stay_singletons():
    f1 = make_cost_function((0,), 0, {(1,): 1}, (2, 2))
    f2 = make_cost_function((1,), 0, {(1,): 2}, (2, 2))
    w = WcspInstance("disjoint", (2, 2), (), (f1, f2), 10)
    merged = build_merged(w)
    assert merged_groups_slow(w) == [(0,), (1,)]
    assert merged.view.cost_functions == w.cost_functions


def test_cap_fallback_counts_splits():
    f1 = make_cost_function((0, 1), 0, {(0, 0): 1}, (17, 17, 17))
    f2 = make_cost_function((1, 2), 0, {(0, 0): 2}, (17, 17, 17))
    f3 = make_cost_function((0, 2), 0, {(0, 0): 3}, (17, 17, 17))
    w = WcspInstance("tri", (17, 17, 17), (), (f1, f2, f3), 10)
    merged = build_merged(w)  # union scope needs 4913 > MERGE_CAP assignments
    assert merged_groups_slow(w) == [(0,), (1,), (2,)]
    assert merged.view.cost_functions == w.cost_functions


def test_merge_group_matches_enumeration():
    # unsorted and unary scopes and nonzero defaults exercise the transpose
    # of each member into the union scope's axis order
    rng = random.Random(21)
    for _ in range(300):
        w = random_tiny_instance(rng, max_vars=5, max_funcs=5)
        k = len(w.cost_functions)
        group = tuple(sorted(rng.sample(range(k), rng.randint(1, k))))
        fast, slow = _merge_group(w, group), merge_group_slow(w, group)
        assert fast == slow
        assert list(fast.explicit) == list(slow.explicit)


def test_full_table_reads_as_the_dict_it_replaces():
    # each merged table is a FullTable; it must read as the reference
    # merge's dict in every way the library and its users read a table
    rng = random.Random(33)
    tables = 0
    for _ in range(150):
        w = random_tiny_instance(rng, max_vars=5, max_funcs=5)
        merged = build_merged(w)
        groups = merged_groups_slow(w)
        assert len(groups) == len(merged.view.cost_functions)
        as_dicts = []
        for group, f in zip(groups, merged.view.cost_functions):
            if len(group) == 1:
                as_dicts.append(f)
                continue
            table, ref = f.explicit, merge_group_slow(w, group).explicit
            assert type(table) is FullTable
            tables += 1
            assert table == ref and ref == table
            assert list(table) == list(ref) and list(table.items()) == list(ref.items())
            assert len(table) == len(ref)
            k = len(table.shape)
            # wrong arities, out of domain, negative, not tuples
            bad = [(0,) * (k + 1), (0,) * (k - 1), table.shape, (-1,) + (0,) * (k - 1),
                   0, "ab", None]
            for key in [*ref, *bad]:
                assert table.get(key, "none") == ref.get(key, "none")
                assert (key in table) == (key in ref)
            for key in bad:
                with pytest.raises(KeyError):
                    table[key]
            as_dicts.append(CostFunction(f.scope, f.default_cost, ref, f.levels))
        dict_view = WcspInstance(w.name, w.domains, w.hard_constraints, tuple(as_dicts),
                                 merged.view.top)
        for a in itertools.product(*map(range, w.domains)):
            assert evaluate(merged.view, a) == evaluate(dict_view, a)
        # the parser folds a function of one level into the offset
        text = write_wcsp(merged.view)
        assert text == write_wcsp(dict_view)
        again = parse_wcsp(text)
        assert again.cost_functions == tuple(f for f in as_dicts if len(f.levels) > 1)
    assert tables > 50


def test_merging_and_validating_a_view_read_no_table_tuple(monkeypatch):
    # a merged table is built and checked as its cost list: reading any of
    # its tuples, as a tuple-keyed dict or a per-tuple check would, fails
    def refuse(self, *args):
        raise AssertionError("a merged table was read tuple by tuple")

    monkeypatch.setattr(FullTable, "__iter__", refuse)
    monkeypatch.setattr(FullTable, "__getitem__", refuse)
    w = gen_uniform(GeneratorParams(60, 8, 120, 8, 24, seed=2))
    merged = build_merged(w)
    groups = merged_groups_slow(w)
    assert sum(len(g) > 1 for g in groups) > 10
    assert len(groups) == len(merged.view.cost_functions)
    for group, f in zip(groups, merged.view.cost_functions):
        assert type(f.explicit) is (FullTable if len(group) > 1 else dict)


def test_merge_group_sums_past_int64_exactly():
    big = 2**62 + 3
    f1 = make_cost_function((1, 0), 0, {(0, 1): big, (1, 1): 1}, (2, 2))
    f2 = make_cost_function((0, 1), 1, {(1, 0): big}, (2, 2))
    w = WcspInstance("big", (2, 2), (), (f1, f2), 2**64)
    merged = _merge_group(w, (0, 1))
    assert merged == merge_group_slow(w, (0, 1))
    assert merged.explicit[(1, 0)] == 2 * big


def test_sum_decomposition_invariant():
    rng = random.Random(12)
    for _ in range(25):
        w = random_tiny_instance(rng)
        merged = build_merged(w)
        for _ in range(40):
            a = tuple(rng.randrange(d) for d in w.domains)
            base_total = evaluate(w, a)[2]
            merged_total = evaluate(merged.view, a)[2]
            assert base_total == merged_total


def test_materialized_levels_contain_sampled_costs():
    rng = random.Random(13)
    for _ in range(15):
        w = random_tiny_instance(rng, max_vars=3)
        merged = build_merged(w)
        for f in merged.view.cost_functions:
            for a in itertools.product(*(range(w.domains[x]) for x in f.scope)):
                full = [0] * w.num_vars
                for x, val in zip(f.scope, a):
                    full[x] = val
                assert f.value(tuple(full)) in f.levels


def test_merge_preserves_optimum():
    rng = random.Random(14)
    for _ in range(30):
        w = random_tiny_instance(rng)
        merged = build_merged(w)
        assert brute_force_optimum(merged.view) == brute_force_optimum(w)
        assert len(merged.view.cost_functions) <= len(w.cost_functions)


def test_merged_top_covers_summed_costs():
    # two functions whose sum exceeds the base top must stay representable
    f1 = make_cost_function((0, 1), 0, {(1, 1): 6}, (2, 2))
    f2 = make_cost_function((0, 1), 0, {(1, 1): 6}, (2, 2))
    w = WcspInstance("sum", (2, 2), (), (f1, f2), 7)
    merged = build_merged(w)
    f = merged.view.cost_functions[0]
    assert f.levels == (0, 12)
    assert merged.view.top > 12
    assert brute_force_optimum(merged.view) == 0
