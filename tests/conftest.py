import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ihswcsp.driver import HV_STRATEGIES, SolverConfig, solve
from ihswcsp.hitting import HittingProblem
from ihswcsp.improve import STRATEGIES
from ihswcsp.wcsp_io import GeneratorParams, brute_force_optimum, gen_scale_free, gen_uniform


def grown(space, cores, deadline=None) -> HittingProblem:
    """A ``HittingProblem`` on ``space`` that ``add`` has given ``cores``, in order."""
    problem = HittingProblem(space, deadline)
    for k in cores:
        problem.add(k)
    return problem


SUITE1_SEED = 90210
SUITE1_COUNT = 200


def make_suite1(count: int = SUITE1_COUNT, base_seed: int = SUITE1_SEED):
    """The acceptance benchmark: generated families within n<=10, d<=3,
    m<=15, w<=4, t<=6, mixing sparse and dense uniform and scale-free
    instances so that most optima are nonzero but stay small."""
    rng = random.Random(base_seed)
    out = []
    for i in range(count):
        kind = i % 10
        if kind < 3:  # sparse uniform
            n = rng.randint(5, 10)
            d = rng.randint(2, 3)
            m = rng.randint(4, min(15, n * (n - 1) // 2))
            t = rng.randint(1, min(5, d * d - 1))
            ww = rng.randint(1, 4)
            inst = gen_uniform(GeneratorParams(n, d, m, ww, t, seed=base_seed + 7 * i))
        elif kind < 7:  # dense low-weight uniform
            n = rng.randint(4, 7)
            d = rng.randint(2, 3)
            m = rng.randint(3, min(8, n * (n - 1) // 2))
            t = rng.randint(d * d - 1, d * d)
            ww = rng.randint(1, 2)
            inst = gen_uniform(GeneratorParams(n, d, m, ww, t, seed=base_seed + 7 * i))
        elif kind < 9:  # sparse scale-free
            n = rng.randint(5, 8)
            m = rng.randint(1, 3)
            d = rng.randint(2, 3)
            t = rng.randint(1, min(5, d * d - 1))
            ww = rng.randint(1, 4)
            inst = gen_scale_free(GeneratorParams(n, d, m, ww, t, seed=base_seed + 7 * i))
        else:  # dense boolean scale-free
            n = rng.randint(5, 7)
            m = rng.randint(1, 2)
            t = rng.randint(3, 4)
            inst = gen_scale_free(GeneratorParams(n, 2, m, 1, t, seed=base_seed + 7 * i))
        out.append((f"suite1_{i:03d}", inst))
    return out


@pytest.fixture(scope="session")
def suite1():
    return make_suite1()


@pytest.fixture(scope="session")
def suite1_oracle(suite1):
    return {name: brute_force_optimum(inst) for name, inst in suite1}


@pytest.fixture(scope="session")
def suite1_runs(suite1):
    """Every instance solved by the full 4 x 4 x 2 configuration matrix."""
    runs = {}
    for name, inst in suite1:
        for hv in HV_STRATEGIES:
            for core in STRATEGIES:
                for merge in (False, True):
                    cfg = SolverConfig(hv=hv, core=core, merge=merge)
                    runs[(name, hv, core, merge)] = solve(inst, cfg)
    return runs
