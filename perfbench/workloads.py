"""The benchmark's workloads and how a seed turns them into solver inputs.

Each workload is a fixed list of generated instances (generator, its five
parameters and its seed) and the solver configurations run on each.  The
``--seed`` of a run picks a cost scale and a constant offset that are
applied to every instance: the instance text, the optimum and the reported
bounds change with the seed, while the search the solver performs does not
(every decision of the solver compares costs, and a positive scale preserves
each comparison).  So runs with different seeds do the same work and their
timings are comparable, and an answer recorded for one seed cannot pass for
another.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

HV_ALL = ("lb", "ub", "grd-lb", "grd-ub")
CORE_ALL = ("lazy", "cost-bounded", "partial-max", "maximal")

# Each solve gets this wall-clock limit; a solve that reaches it fails the gate.
TIME_LIMIT_S = 30.0


@dataclass(frozen=True)
class InstanceSpec:
    generator: str  # "uniform" or "scale-free"
    params: tuple[int, int, int, int, int]  # n, d, m, w, t
    gen_seed: int

    @property
    def key(self) -> str:
        return f"{self.generator}({','.join(map(str, self.params))})#{self.gen_seed}"


@dataclass(frozen=True)
class Config:
    hv: str
    core: str
    merge: bool
    disjoint: bool = False

    @property
    def key(self) -> str:
        merge = "on" if self.merge else "off"
        disjoint = "/disjoint" if self.disjoint else ""
        return f"{self.hv}/{self.core}/merge-{merge}{disjoint}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple[InstanceSpec, ...]
    configs: tuple[Config, ...]
    # A second configuration whose optimum must agree when references are recorded.
    cross_check: Config | None
    # Whether the gate also checks every optimum against brute_force_optimum.
    brute_force: bool = False


def _specs(generator: str, params, seeds) -> tuple[InstanceSpec, ...]:
    return tuple(InstanceSpec(generator, tuple(params), s) for s in seeds)


# One instance of each of the five miniature families of
# scripts/run_desk_benchmark.py, as (generator, parameters, seed).
DESK_FAMILIES = (
    ("uniform", (8, 3, 10, 2, 6), 3),
    ("uniform", (8, 2, 10, 8, 3), 2),
    ("uniform", (12, 2, 14, 2, 2), 1),
    ("scale-free", (8, 2, 2, 2, 3), 2),
    ("scale-free", (8, 2, 3, 1, 3), 2),
)

MATRIX_CONFIGS = tuple(
    Config(hv, core, merge, disjoint)
    for disjoint in (False, True)
    for hv, core, merge in itertools.product(HV_ALL, CORE_ALL, (False, True))
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hitting-deep",
            "uniform(12,3,24,4,6) #3 #8, lb/maximal/merge-off: most time in "
            "hitting.min_s, an eighth in SAT; hitting changes move it, SAT changes "
            "should not",
            _specs("uniform", (12, 3, 24, 4, 6), (3, 8)),
            (Config("lb", "maximal", False),),
            Config("ub", "maximal", True),
        ),
        Workload(
            "probe-heavy",
            "uniform(10,4,20,6,10) #2 #3 #7, ub/maximal/merge-on: nearly all time in "
            "improve's warm incremental SAT probes; SAT changes move it, hitting "
            "changes should not",
            _specs("uniform", (10, 4, 20, 6, 10), (2, 3, 7)),
            (Config("ub", "maximal", True),),
            Config("lb", "maximal", True),
        ),
        Workload(
            "ingest",
            "uniform(120,6,240,6,12)#1, scale-free(150,5,2,6,10)#2, "
            "uniform(60,8,120,8,24)#2, lb/lazy/merge-on: merge, encoding build and "
            "a few large cold SAT calls",
            _specs("uniform", (120, 6, 240, 6, 12), (1,))
            + _specs("scale-free", (150, 5, 2, 6, 10), (2,))
            + _specs("uniform", (60, 8, 120, 8, 24), (2,)),
            (Config("lb", "lazy", True),),
            Config("lb", "maximal", False),
        ),
        Workload(
            "matrix",
            "the five desk families, one instance each, under all 64 "
            "hv/core/merge/disjoint configurations: the only workload on greedy "
            "hitting, cost-bounded and partial-max improvement and the disjoint phase",
            tuple(
                itertools.chain.from_iterable(_specs(g, p, (s,)) for g, p, s in DESK_FAMILIES)
            ),
            MATRIX_CONFIGS,
            None,
            brute_force=True,
        ),
    )
}


@dataclass(frozen=True)
class Transform:
    """Cost scale and constant offset a seed applies to every instance."""

    scale: int
    offset: int

    @classmethod
    def from_seed(cls, seed: int) -> "Transform":
        rng = random.Random(f"perfbench-{seed}")
        return cls(rng.randint(1, 9), rng.randint(0, 999))

    def cost(self, base: int) -> int:
        return self.scale * base + self.offset

    def base(self, value: int | None) -> int | None:
        """Map a reported bound back to the unscaled instance, or return it
        unchanged when it is not the image of an unscaled cost."""
        if value is None or (value - self.offset) % self.scale:
            return value
        return (value - self.offset) // self.scale


def base_instance(lib, spec: InstanceSpec):
    params = lib.GeneratorParams(*spec.params, seed=spec.gen_seed)
    if spec.generator == "uniform":
        return lib.gen_uniform(params)
    return lib.gen_scale_free(params)


def instance_text(lib, spec: InstanceSpec, tf: Transform) -> str:
    """The WCSP text of ``spec`` with every cost scaled and the offset added."""
    w = base_instance(lib, spec)
    c = tf.scale
    funcs = tuple(
        lib.CostFunction(
            f.scope,
            c * f.default_cost,
            {t: c * v for t, v in f.explicit.items()},
            tuple(c * lv for lv in f.levels),
        )
        for f in w.cost_functions
    )
    scaled = lib.WcspInstance(
        w.name,
        w.domains,
        w.hard_constraints,
        funcs,
        c * w.top + tf.offset,  # the offset is a constant function, which must cost below top
        c * w.constant_offset + tf.offset,
    )
    return lib.write_wcsp(scaled)


@dataclass
class Job:
    """One timed operation: parse an instance's text and solve it."""

    spec: InstanceSpec
    config: Config
    text: str
    solver_config: object
    expected_optimum: int

    @property
    def key(self) -> str:
        return f"{self.spec.key} {self.config.key}"


def solver_config(lib, config: Config):
    return lib.SolverConfig(
        hv=config.hv,
        core=config.core,
        merge=config.merge,
        disjoint=config.disjoint,
        time_limit=TIME_LIMIT_S,
    )


def build_jobs(lib, workload: Workload, tf: Transform, optima: dict[str, int]) -> list[Job]:
    """Every (instance, configuration) job of ``workload`` under ``tf``;
    ``optima`` maps instance keys to recorded unscaled optima."""
    jobs = []
    for spec in workload.instances:
        text = instance_text(lib, spec, tf)
        expected = tf.cost(optima[spec.key])
        for config in workload.configs:
            jobs.append(Job(spec, config, text, solver_config(lib, config), expected))
    return jobs
