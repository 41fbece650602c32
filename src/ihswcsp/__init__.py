"""Implicit-hitting-set solving for weighted CSPs."""

from .driver import RunReport, SolverConfig, solve
from .encoding import InducedCspEncoding, Satisfiable, Unsatisfiable
from .hitting import HittingProblem, cost_bounded_hv, greedy_hv, min_cost_hv
from .improve import improve_core
from .merge import MergedProblem, build_merged, min_fill_order
from .model import (
    Assignment,
    CostFunction,
    CostVector,
    FullTable,
    HardConstraint,
    LevelSpace,
    WcspInstance,
    evaluate,
    make_cost_function,
)
from .wcsp_io import (
    EnumerationCapExceeded,
    GeneratorParams,
    WcspParseError,
    brute_force_optimum,
    gen_scale_free,
    gen_uniform,
    parse_wcsp,
    write_wcsp,
)

__all__ = [
    "Assignment",
    "CostFunction",
    "CostVector",
    "EnumerationCapExceeded",
    "FullTable",
    "GeneratorParams",
    "HardConstraint",
    "HittingProblem",
    "InducedCspEncoding",
    "LevelSpace",
    "MergedProblem",
    "RunReport",
    "Satisfiable",
    "SolverConfig",
    "Unsatisfiable",
    "WcspInstance",
    "WcspParseError",
    "brute_force_optimum",
    "build_merged",
    "cost_bounded_hv",
    "evaluate",
    "gen_scale_free",
    "gen_uniform",
    "greedy_hv",
    "improve_core",
    "make_cost_function",
    "min_cost_hv",
    "min_fill_order",
    "parse_wcsp",
    "solve",
    "write_wcsp",
]
