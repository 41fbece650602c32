import itertools
import random

from ihswcsp.encoding import InducedCspEncoding, Satisfiable, Unsatisfiable
from ihswcsp.improve import improve_core
from ihswcsp.model import CostFunction, WcspInstance, dominates, evaluate, make_cost_function
from oracles import random_tiny_instance


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


def test_maximal_on_forced_instance():
    w = _forced_instance()
    enc = InducedCspEncoding(w)
    res = enc.solve_induced((0,))
    assert isinstance(res, Unsatisfiable)
    out = improve_core("maximal", res.lazy_core, None, enc)
    assert out.core == (1,)
    assert out.probes == 2  # raise to 1 (unsat), raise to 2 (sat)
    assert out.new_ub == 2
    feasible, _, total = evaluate(w, out.new_ub_assignment)
    assert feasible and total == out.new_ub


def test_lazy_is_free_and_deterministic():
    w = _forced_instance()
    enc = InducedCspEncoding(w)
    out1 = improve_core("lazy", enc.solve_induced((0,)).lazy_core, None, enc)
    assert out1.probes == 0
    out2 = improve_core("lazy", enc.solve_induced((0,)).lazy_core, None, enc)
    assert out1.core == out2.core
    assert out1.new_ub is None


def test_cost_bounded_stops_at_entry():
    w = _forced_instance()
    enc = InducedCspEncoding(w)
    out = improve_core("cost-bounded", enc.solve_induced((0,)).lazy_core, 0, enc)
    assert out.core == (0,)
    assert out.probes == 0


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
        a = improve_core("cost-bounded", res.lazy_core, None, enc)
        enc2 = InducedCspEncoding(w)
        b = improve_core("maximal", enc2.solve_induced(baseline).lazy_core, None, enc2)
        assert a.core == b.core
        assert a.probes == b.probes
        checked += 1


def test_partial_maximal_stops_on_first_sat_probe():
    w = _two_function_instance()
    enc = InducedCspEncoding(w)
    res = enc.solve_induced(enc.space.baseline)
    assert isinstance(res, Unsatisfiable)
    assert res.lazy_core == (0, 0)  # both bounds are needed for the conflict
    out = improve_core("partial-max", res.lazy_core, None, enc)
    # scripted trace: raise f1 0->1 keeps the conflict (x=1 is hard-forbidden),
    # raise f2 0->1 frees y=1 and stops the loop
    assert out.core == (1, 0)
    assert out.probes == 2


def test_maximal_continues_past_sat_components():
    w = _two_function_instance()
    enc = InducedCspEncoding(w)
    out = improve_core("maximal", enc.solve_induced(enc.space.baseline).lazy_core, None, enc)
    assert out.core == (1, 0)
    assert out.probes == 3
    assert out.new_ub == 1
    fresh = InducedCspEncoding(w)
    assert isinstance(fresh.solve_induced(out.core), Unsatisfiable)


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
            out = improve_core(strategy, enc_s.solve_induced(start).lazy_core, None, enc_s)
            assert dominates(out.core, start)
            fresh = InducedCspEncoding(w)
            assert isinstance(fresh.solve_induced(out.core), Unsatisfiable)
            if out.new_ub is not None:
                feasible, _, total = evaluate(w, out.new_ub_assignment)
                assert feasible and total == out.new_ub
            probes[strategy] = out.probes
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
        out = improve_core("maximal", res.lazy_core, None, enc)
        k = out.core
        fresh = InducedCspEncoding(w)
        for i, f in enumerate(w.cost_functions):
            if k[i] >= f.levels[-1]:
                continue
            raised = list(k)
            raised[i] = f.levels[f.levels.index(k[i]) + 1]
            assert isinstance(fresh.solve_induced(tuple(raised)), Satisfiable)
        checked += 1
