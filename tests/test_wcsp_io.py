import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihswcsp.driver import SolverConfig, solve
from ihswcsp.model import HardConstraint, WcspInstance, make_cost_function
from ihswcsp.wcsp_io import (
    EnumerationCapExceeded,
    GeneratorParams,
    WcspParseError,
    brute_force_optimum,
    gen_scale_free,
    gen_uniform,
    parse_wcsp,
    write_wcsp,
)
from oracles import brute_force_optimum_slow, random_tiny_instance

SMALLEST = "ex 1 1 1 10\n1\n1 0 0 1\n0 1\n"
# two cost functions that merge into one over scopes in opposite orders, a
# hard tuple and a constant 1
TWO_OVER_ONE_SCOPE = (
    "pair 3 2 4 100\n2 2 2\n"
    "2 0 1 1 2\n0 0 5\n1 1 0\n"
    "2 1 0 2 1\n1 0 3\n"
    "2 0 1 0 1\n1 1 100\n"
    "0 1 0\n"
)


def test_parse_smallest_file():
    w = parse_wcsp(SMALLEST)
    assert w.num_vars == 1
    assert w.domains == (1,)
    assert len(w.cost_functions) == 1
    assert w.cost_functions[0].levels == (0, 1)
    assert w.constant_offset == 0


def test_parse_top_default_becomes_hard_constraint():
    text = "ex 2 2 1 10\n2 2\n2 0 1 10 1\n0 0 0\n"
    w = parse_wcsp(text)
    assert len(w.cost_functions) == 0
    assert w.constant_offset == 0
    assert len(w.hard_constraints) == 1
    assert w.hard_constraints[0].forbidden == frozenset({(0, 1), (1, 0), (1, 1)})


def test_parse_top_default_over_a_huge_scope_fails_fast():
    # seven variables of domain 10: 10**7 unlisted tuples would be forbidden
    text = "big 7 10 1 5\n" + " ".join(["10"] * 7) + "\n7 0 1 2 3 4 5 6 5 0\n"
    started = time.perf_counter()
    with pytest.raises(WcspParseError, match="^line 3: "):
        parse_wcsp(text)
    assert time.perf_counter() - started < 1.0


def test_parse_single_level_folds_to_offset():
    text = "ex 1 2 1 10\n2\n1 0 3 0\n"
    w = parse_wcsp(text)
    assert len(w.cost_functions) == 0
    assert w.constant_offset == 3
    assert brute_force_optimum(w) == 3


def test_parse_mixed_function_splits():
    # default 0, one costed tuple, one hard tuple
    text = "ex 2 2 1 10\n2 2\n2 0 1 0 2\n0 0 10\n1 1 4\n"
    w = parse_wcsp(text)
    assert len(w.hard_constraints) == 1
    assert w.hard_constraints[0].forbidden == frozenset({(0, 0)})
    assert len(w.cost_functions) == 1
    assert w.cost_functions[0].levels == (0, 4)


def test_parse_refuses_a_repeated_tuple():
    # the header promises two tuples; keeping the last cost would let the
    # repeat override the first, and a tuple at top (10) stop being forbidden
    for first, second in ((3, 5), (3, 10), (10, 3)):
        text = f"x 2 2 1 10\n2 2\n2 0 1 0 2\n0 0 {first}\n0 0 {second}\n"
        with pytest.raises(WcspParseError, match=r"^line 5: tuple \(0, 0\) listed twice$"):
            parse_wcsp(text)


def test_write_empty_instance():
    w = WcspInstance("empty", (2, 3), (), (), 5)
    assert write_wcsp(w) == "empty 2 3 0 5\n2 3\n"


def test_zero_variable_instance_roundtrips():
    w = WcspInstance("z", (), (), (), 10, 3)
    assert write_wcsp(w) == "z 0 1 1 10\n0 3 0\n"
    assert parse_wcsp(write_wcsp(w)) == w
    # whitespace in a name would split the header
    tabbed = WcspInstance("my\tinst  x", (), (), (), 10, 3)
    assert write_wcsp(tabbed) == "my-inst-x 0 1 1 10\n0 3 0\n"
    assert parse_wcsp(write_wcsp(tabbed)) == WcspInstance("my-inst-x", (), (), (), 10, 3)


def test_an_offset_at_or_above_top_raises_the_written_top():
    # two constant functions fold into offset 12, above top 10
    w = parse_wcsp("t 1 2 3 10\n2\n0 6 0\n0 6 0\n1 0 0 1\n1 3\n")
    assert (w.constant_offset, w.top) == (12, 10)
    hard = WcspInstance("h", (2,), (HardConstraint((0,), frozenset({(1,)})),), w.cost_functions, 10, 12)
    assert write_wcsp(hard) == "h 1 2 3 13\n2\n1 0 0 1\n1 3\n1 0 0 1\n1 13\n0 12 0\n"
    for inst in (w, hard):
        again = parse_wcsp(write_wcsp(inst))
        assert again.constant_offset == 12 and again.top == 13
        assert again.hard_constraints == inst.hard_constraints
        assert solve(again).optimum == solve(inst).optimum == brute_force_optimum(again) == 12


def test_write_parse_identity_on_smallest():
    w = parse_wcsp(SMALLEST)
    again = parse_wcsp(write_wcsp(w))
    assert write_wcsp(again) == write_wcsp(w)


# the line each refused text below is refused at; blank lines count
ERROR_LINES = {"header": 1, "domain_range": 2, "arity": 4, "scope_var": 3, "value_range": 4,
               "truncated": 4, "non_integer": 3, "header_values": 1, "domain_count": 2,
               "function_header": 3, "repeated_scope": 3, "negative_default": 4,
               "negative_count": 3, "negative_cost": 4, "trailing": 6}


@pytest.mark.parametrize("case,text", [
    ("header", "ex 1 1 1\n"),
    ("domain_range", "ex 1 2 1 10\n3\n1 0 0 0\n"),
    ("arity", "ex 2 2 1 10\n2 2\n2 0 1 0 1\n0 0\n"),
    ("scope_var", "ex 1 2 1 10\n2\n1 5 0 0\n"),
    ("value_range", "ex 1 2 1 10\n2\n1 0 0 1\n7 1\n"),
    ("truncated", "ex 1 2 2 10\n2\n1 0 0 0\n"),
    ("non_integer", "ex 1 2 1 10\n2\n1 0 x 0\n"),
    ("header_values", "ex 1 0 1 10\n1\n1 0 0 0\n"),
    ("domain_count", "ex 2 2 1 10\n2\n1 0 0 0\n"),
    ("function_header", "ex 1 2 1 10\n2\n1 0 0\n"),
    ("repeated_scope", "ex 2 2 1 10\n2 2\n2 1 1 0 0\n"),
    ("negative_default", "ex 1 2 1 10\n2\n\n1 0 -1 0\n"),
    ("negative_count", "ex 1 2 1 10\n2\n1 0 0 -1\n"),
    ("negative_cost", "ex 1 2 1 10\n2\n1 0 0 1\n0 -3\n"),
    ("trailing", "ex 1 2 1 10\n\n2\n1 0 0 0\n\n5 5\n"),
])
def test_parse_errors_carry_line_numbers(case, text):
    with pytest.raises(WcspParseError) as err:
        parse_wcsp(text)
    assert str(err.value).startswith(f"line {ERROR_LINES[case]}: ")
    assert err.value.line_no == ERROR_LINES[case]


def test_roundtrip_preserves_optimum():
    rng = random.Random(5)
    for _ in range(30):
        w = random_tiny_instance(rng)
        text = write_wcsp(w)
        again = parse_wcsp(text)
        assert brute_force_optimum(again) == brute_force_optimum(w)
        assert write_wcsp(parse_wcsp(write_wcsp(again))) == write_wcsp(again)


def test_gen_uniform_domains_class_shape():
    w = gen_uniform(GeneratorParams(25, 30, 50, 5, 750, seed=3))
    assert w.num_vars == 25
    assert set(w.domains) == {30}
    assert len(w.cost_functions) == 50
    for f in w.cost_functions:
        assert len(f.scope) == 2
        assert len(f.explicit) == 750
        assert all(c > 0 for c in f.explicit.values())
        assert len(set(f.explicit.values())) <= 5


def test_gen_uniform_weights_class_shape():
    w = gen_uniform(GeneratorParams(25, 5, 50, 10000, 20, seed=3))
    assert len(w.cost_functions) == 50
    for f in w.cost_functions:
        assert len(f.explicit) == 20
        assert len(set(f.explicit.values())) <= 20
        assert all(1 <= c <= 100000 for c in f.explicit.values())


def test_gen_uniform_sparse_class_shape():
    w = gen_uniform(GeneratorParams(50, 5, 100, 5, 20, seed=3))
    assert w.num_vars == 50
    assert len(w.cost_functions) == 100
    assert len({f.scope for f in w.cost_functions}) == 100
    assert all(len(f.explicit) == 20 for f in w.cost_functions)


@st.composite
def generator_params(draw):
    n = draw(st.integers(4, 8))
    d = draw(st.integers(2, 3))
    m = draw(st.integers(1, min(10, n * (n - 1) // 2)))
    w = draw(st.integers(1, 4))
    t = draw(st.integers(1, d * d))
    seed = draw(st.integers(0, 2**32))
    return GeneratorParams(n, d, m, w, t, seed)


@settings(max_examples=30, deadline=None)
@given(generator_params())
def test_generated_instances_roundtrip_and_optimum(p):
    w = gen_uniform(p)
    again = parse_wcsp(write_wcsp(w))
    assert brute_force_optimum(again) == brute_force_optimum(w)
    assert write_wcsp(again) == write_wcsp(w)


def test_gen_uniform_full_tuple_coverage():
    w = gen_uniform(GeneratorParams(5, 2, 4, 2, 4, seed=9))
    for f in w.cost_functions:
        assert len(f.explicit) == 4
        assert all(c > 0 for c in f.explicit.values())


def test_gen_uniform_distinct_scopes():
    w = gen_uniform(GeneratorParams(6, 2, 15, 1, 1, seed=11))
    assert len({f.scope for f in w.cost_functions}) == 15


def test_gen_uniform_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_uniform(GeneratorParams(4, 2, 7, 1, 1))  # m > n(n-1)/2
    with pytest.raises(ValueError):
        gen_uniform(GeneratorParams(4, 2, 3, 1, 5))  # t > d*d
    with pytest.raises(ValueError):
        gen_uniform(GeneratorParams(4, 2, 3, 0, 1))  # w < 1


def test_gen_scale_free_edge_count():
    for n, m in [(25, 4), (25, 5)]:
        w = gen_scale_free(GeneratorParams(n, 5, m, 5, 20, seed=1))
        expected = m * (m + 1) // 2 + (n - m - 1) * m
        assert len(w.cost_functions) == expected
        assert all(len(f.scope) == 2 for f in w.cost_functions)
        assert all(len(f.explicit) == 20 for f in w.cost_functions)


def test_gen_scale_free_seed_clique_only():
    w = gen_scale_free(GeneratorParams(4, 2, 3, 1, 2, seed=1))
    assert {f.scope for f in w.cost_functions} == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_gen_scale_free_rejects_m_ge_n():
    with pytest.raises(ValueError):
        gen_scale_free(GeneratorParams(4, 2, 4, 1, 1))


def test_gen_scale_free_heavy_tail_smoke():
    # hubs should clearly exceed the attachment parameter on most seeds
    m = 3
    good = 0
    for seed in range(40):
        w = gen_scale_free(GeneratorParams(25, 2, m, 1, 1, seed=seed))
        degree = [0] * 25
        for f in w.cost_functions:
            for x in f.scope:
                degree[x] += 1
        if max(degree) >= 2 * m:
            good += 1
    assert good >= 38


def test_generators_deterministic():
    p = GeneratorParams(8, 3, 6, 2, 4, seed=123)
    assert write_wcsp(gen_uniform(p)) == write_wcsp(gen_uniform(p))
    q = GeneratorParams(8, 3, 3, 2, 4, seed=123)
    assert write_wcsp(gen_scale_free(q)) == write_wcsp(gen_scale_free(q))
    assert write_wcsp(gen_uniform(p)) != write_wcsp(
        gen_uniform(GeneratorParams(8, 3, 6, 2, 4, seed=124))
    )


# (family, GeneratorParams fields, sha256 of write_wcsp's output); the
# benchmark's instances come from these generators, so any drift in the PRNG
# draw order or the output shows up here
PINNED_FILES = [
    ("uniform", (6, 2, 5, 2, 3, 11), "4c31c1681438420d486331aab12d2da52eeb7f72a85021cc62f161853ea216fa"),
    ("uniform", (12, 3, 24, 4, 6, 3), "2bae756900baa3a9ae798e8f852c111af7b81f8c19a1135645f0562f390623a0"),
    ("uniform", (10, 4, 20, 6, 10, 7), "45144a4b786394789ca3eff28210873a3d466148ba5aa53da9d6eb4b1d0f0ed7"),
    ("scale-free", (6, 2, 2, 1, 2, 0), "ef6085399845002214da1966bdd09d2d9abc7e3d6431b0804ce63c63191aaeb5"),
    ("scale-free", (15, 5, 2, 6, 10, 2), "7f0a3a9ea4355b237b46819d6a311db28f2526f692b8828ba7b4ce1d7488201d"),
    ("scale-free", (30, 3, 3, 2, 9, 5), "728783f480d551bfa2456fc88dc1d5f81eebf4d4b5428d1b1d43193793c27db4"),
]


@pytest.mark.parametrize("family, params, digest", PINNED_FILES)
def test_generated_files_are_pinned(family, params, digest):
    gen = gen_uniform if family == "uniform" else gen_scale_free
    text = write_wcsp(gen(GeneratorParams(*params)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_brute_force_trivia():
    f = make_cost_function((0,), 0, {(0,): 1}, (1,))
    w = WcspInstance("one", (1,), (), (f,), 10)
    assert brute_force_optimum(w) == 1
    assert brute_force_optimum_slow(w) == 1
    # costs whose sum, or which alone, is past int64 are summed exactly
    big = 2**62 + 3
    f = make_cost_function((0,), 0, {(0,): big, (1,): big + 1}, (2,))
    g = make_cost_function((0,), 0, {(0,): big, (1,): big}, (2,))
    h = make_cost_function((0,), 0, {(0,): 2**63}, (1,))
    for w, optimum in (
        (WcspInstance("int64", (2,), (), (f, g), 2**64), 2 * big),
        (WcspInstance("2**63", (1,), (), (h,), 2**63 + 1), 2**63),
    ):
        assert brute_force_optimum(w) == optimum
        assert brute_force_optimum_slow(w) == optimum
        for merge in (False, True):
            assert solve(w, SolverConfig(merge=merge)).optimum == optimum


def test_library_runs_without_numpy():
    # the library imports no numpy: a run with it blocked parses, solves
    # merged and enumerates
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from ihswcsp import SolverConfig, brute_force_optimum, parse_wcsp, solve\n"
        f"w = parse_wcsp({TWO_OVER_ONE_SCOPE!r})\n"
        "print(solve(w, SolverConfig(merge=True)).optimum, brute_force_optimum(w))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["4", "4"]


def test_brute_force_infeasible():
    from ihswcsp.model import HardConstraint

    hc = HardConstraint((0, 1), frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    f = make_cost_function((0,), 0, {(1,): 1}, (2, 2))
    w = WcspInstance("dead", (2, 2), (hc,), (f,), 10)
    assert brute_force_optimum(w) is None
    assert brute_force_optimum_slow(w) is None


def test_brute_force_cap():
    # 2^21 assignments exceed ENUMERATION_CAP (2^20): raised before enumerating
    domains = (2,) * 21
    f = make_cost_function((0,), 0, {(1,): 1}, domains)
    w = WcspInstance("big", domains, (), (f,), 10)
    with pytest.raises(EnumerationCapExceeded):
        brute_force_optimum(w)


def test_brute_force_enumerators_agree():
    rng = random.Random(17)
    for _ in range(40):
        w = random_tiny_instance(rng)
        assert brute_force_optimum(w) == brute_force_optimum_slow(w)
