"""Posted-price policies for Bayesian online selection under production
and laminar capacity constraints.

Main entry points:

- model: instance types, validation, conversion, state spaces
- dp: exact finite-horizon dynamic programs and concavity checks
- lp: the exact/ex-ante/hierarchy linear programs and solvers
- rounding: LP solutions to pricing policies, marking, composition
- ptas: near-optimal policy construction with capacity scaling
- harness: simulation, exact evaluation, benchmarks, dependency checks
- myerson: ironed virtual values for the revenue objective
- cli: the ``binprice`` command
"""

from .model import (
    DEFAULT_STATE_CAP,
    DiscreteDistribution,
    InstanceError,
    LaminarInstance,
    Marking,
    ProductionInstance,
    SizingError,
    as_laminar,
    load_instance,
    parse_instance,
    production_to_laminar,
    serialize_instance,
    validate,
)
from .dp import ValueTable, concavity_check, solve_full_dp, solve_subproblem_dp
from .lp import (
    LpError,
    LpModel,
    LpSolution,
    build_lp_exante,
    build_lp_hierarchy,
    build_lp_optimal,
    solve,
    solve_optimal,
)
from .rounding import (
    ComposedPolicy,
    PricingPolicy,
    RoundingError,
    compose_policies,
    extract_pricing,
    mark_laminar,
    policy_from_json,
    policy_to_json,
)
from .ptas import PtasConfig, PtasResult, delta_of, ptas_laminar, ptas_production
from .harness import (
    CoverageError,
    SimulationReport,
    check_negative_cylinder,
    check_summed_cylinder,
    evaluate_exact,
    search_dependency_counterexample,
    simulate,
)
from .myerson import IronedTransform, iron, iron_distribution, revenue_transform

__version__ = "0.1.0"
