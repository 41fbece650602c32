import itertools
import random

import pytest

from ihswcsp.encoding import InducedCspEncoding, Satisfiable, Unsatisfiable
from ihswcsp.improve import improve_core
from ihswcsp.model import CostFunction, WcspInstance, evaluate, make_cost_function
from ihswcsp.wcsp_io import GeneratorParams, gen_uniform
from oracles import dominates, random_tiny_instance


def _forced_instance():
    # one variable, one value costing 2, level grid stipulated as (0, 1, 2)
    f = CostFunction((0,), 0, {(0,): 2}, (0, 1, 2))
    return WcspInstance("forced", (1,), (), (f,), 10)


def _two_function_instance():
    # neither bound alone is contradictory, but (f1<=0, f2<=0) forces the
    # hard-forbidden pair (x=0, y=0); x=1 is hard-forbidden outright
    from ihswcsp.model import HardConstraint

    f1 = make_cost_function((0,), 0, {(1,): 1, (2,): 5}, (3, 2))
    f2 = make_cost_function((1,), 0, {(1,): 1}, (3, 2))
    hards = (
        HardConstraint((0,), frozenset({(1,)})),
        HardConstraint((0, 1), frozenset({(0, 0)})),
    )
    return WcspInstance("duo", (3, 2), hards, (f1, f2), 20)


def _improve(strategy, lazy_core, ub, enc):
    """``improve_core``'s core and best answer, and the probes it spent."""
    before = enc.num_solves
    core, best = improve_core(strategy, lazy_core, ub, enc)
    return core, best, enc.num_solves - before


def _check_best(w, best):
    feasible, sv, total = evaluate(w, best.assignment)
    assert feasible and sv == best.solution_vector
    return total


def test_maximal_on_forced_instance():
    w = _forced_instance()
    enc = InducedCspEncoding(w)
    res = enc.solve_induced((0,))
    assert isinstance(res, Unsatisfiable)
    core, best, probes = _improve("maximal", res.lazy_core, None, enc)
    assert core == (1,)
    assert probes == 2  # raise to 1 (unsat), raise to 2 (sat)
    assert _check_best(w, best) == 2


def test_unknown_strategy_is_refused():
    enc = InducedCspEncoding(_forced_instance())
    with pytest.raises(ValueError, match="^unknown core strategy 'greedy'$"):
        improve_core("greedy", (0,), None, enc)
    assert enc.num_solves == 0


def test_lazy_is_free_and_deterministic():
    w = _forced_instance()
    enc = InducedCspEncoding(w)
    core1, best1, probes1 = _improve("lazy", enc.solve_induced((0,)).lazy_core, None, enc)
    assert probes1 == 0
    core2, _, _ = _improve("lazy", enc.solve_induced((0,)).lazy_core, None, enc)
    assert core1 == core2
    assert best1 is None


def test_cost_bounded_stops_at_entry():
    w = _forced_instance()
    enc = InducedCspEncoding(w)
    core, _, probes = _improve("cost-bounded", enc.solve_induced((0,)).lazy_core, 0, enc)
    assert core == (0,)
    assert probes == 0


def test_cost_bounded_with_infinite_bound_equals_maximal():
    rng = random.Random(7)
    checked = 0
    while checked < 25:
        w = random_tiny_instance(rng)
        enc = InducedCspEncoding(w)
        baseline = enc.space.baseline
        res = enc.solve_induced(baseline)
        if isinstance(res, Satisfiable):
            continue
        a = _improve("cost-bounded", res.lazy_core, None, enc)
        enc2 = InducedCspEncoding(w)
        b = _improve("maximal", enc2.solve_induced(baseline).lazy_core, None, enc2)
        assert a == b
        checked += 1


def test_partial_maximal_stops_on_first_sat_probe():
    w = _two_function_instance()
    enc = InducedCspEncoding(w)
    res = enc.solve_induced(enc.space.baseline)
    assert isinstance(res, Unsatisfiable)
    assert res.lazy_core == (0, 0)  # both bounds are needed for the conflict
    core, _, probes = _improve("partial-max", res.lazy_core, None, enc)
    # scripted trace: raise f1 0->1 keeps the conflict (x=1 is hard-forbidden),
    # raise f2 0->1 frees y=1 and stops the loop
    assert core == (1, 0)
    assert probes == 2


def test_maximal_continues_past_sat_components():
    w = _two_function_instance()
    enc = InducedCspEncoding(w)
    core, best, probes = _improve("maximal", enc.solve_induced(enc.space.baseline).lazy_core, None, enc)
    assert core == (1, 0)
    assert probes == 3
    assert _check_best(w, best) == 1
    fresh = InducedCspEncoding(w)
    assert isinstance(fresh.solve_induced(core), Unsatisfiable)


def test_strategy_invariants_on_random_instances():
    rng = random.Random(8)
    checked = 0
    while checked < 30:
        w = random_tiny_instance(rng)
        enc = InducedCspEncoding(w)
        space = list(itertools.product(*(f.levels for f in w.cost_functions)))
        start = None
        for v in space:
            if isinstance(enc.solve_induced(v), Unsatisfiable):
                start = v
                break
        if start is None:
            continue
        probes = {}
        for strategy in ("lazy", "cost-bounded", "partial-max", "maximal"):
            enc_s = InducedCspEncoding(w)
            core, best, probes[strategy] = _improve(strategy, enc_s.solve_induced(start).lazy_core, None, enc_s)
            assert dominates(core, start)
            fresh = InducedCspEncoding(w)
            assert isinstance(fresh.solve_induced(core), Unsatisfiable)
            if best is not None:
                _check_best(w, best)
        assert probes["lazy"] <= probes["cost-bounded"] <= probes["maximal"]
        assert probes["lazy"] <= probes["partial-max"] <= probes["maximal"]
        checked += 1


def test_maximal_output_is_maximal():
    rng = random.Random(9)
    checked = 0
    while checked < 25:
        w = random_tiny_instance(rng)
        enc = InducedCspEncoding(w)
        res = enc.solve_induced(enc.space.baseline)
        if isinstance(res, Satisfiable):
            continue
        k, _ = improve_core("maximal", res.lazy_core, None, enc)
        fresh = InducedCspEncoding(w)
        for i, f in enumerate(w.cost_functions):
            if k[i] >= f.levels[-1]:
                continue
            raised = list(k)
            raised[i] = f.levels[f.levels.index(k[i]) + 1]
            assert isinstance(fresh.solve_induced(tuple(raised)), Satisfiable)
        checked += 1


def test_raise_probes_skip_the_failed_set_walk(monkeypatch):
    # a raise probe reads only whether the vector is still a core, so the
    # solver never walks for a failed set; forcing the walk back on must
    # give the same core and best answer
    from ihswcsp.sat import Solver

    walks = [0]
    inner_walk, inner_solve = Solver._analyze_final, InducedCspEncoding.solve_induced

    def counted_walk(self, p):
        walks[0] += 1
        return inner_walk(self, p)

    def forced_walk(self, v, core=True):
        return inner_solve(self, v)

    def improve(strategy, w, ub):
        # the oracle's answer on the baseline, then its improvement
        enc = InducedCspEncoding(w)
        start = enc.solve_induced(enc.space.baseline).lazy_core
        walks[0] = 0
        return improve_core(strategy, start, ub, enc)

    monkeypatch.setattr(Solver, "_analyze_final", counted_walk)
    rng = random.Random(12)
    instances = [random_tiny_instance(rng) for _ in range(40)]
    instances += [gen_uniform(GeneratorParams(8, 3, 12, 4, 6, seed=seed)) for seed in (3, 4, 5)]
    forced_walks = unsat_starts = 0
    for w in instances:
        enc = InducedCspEncoding(w)
        walks[0] = 0
        res = enc.solve_induced(enc.space.baseline)
        if isinstance(res, Satisfiable):
            assert walks[0] == 0
            continue
        # a plain call still walks and returns its lazy core
        assert walks[0] == 1 and len(res.lazy_core) == len(enc.space.maximum)
        unsat_starts += 1
        bounded = sum(res.lazy_core) + 2
        for strategy, ub in (("maximal", None), ("partial-max", None), ("cost-bounded", bounded)):
            lean = improve(strategy, w, ub)
            assert walks[0] == 0, strategy
            with monkeypatch.context() as m:
                m.setattr(InducedCspEncoding, "solve_induced", forced_walk)
                assert improve(strategy, w, ub) == lean, strategy
            forced_walks += walks[0]
    assert unsat_starts > 10 and forced_walks > 0
