"""Near-optimal policy construction with capacity scaling.

Both schemes trade a ``(1 - eps)`` haircut on the relaxed capacities for
concentration slack.  The accuracy knob ``eps`` fixes the granularity
``delta = eps^2 / ln(1/eps)`` (natural log; overridable for desk-scale
experiments that want the expectation-constrained branch at modest
capacities).

Small branch: when the shipping capacity is at most ``1/delta`` (production)
or the depth marking leaves no bin large (laminar), the whole instance is
one point-wise sub-problem and is priced exactly.  Its policy is the
optimal threshold policy of the root's DP (``dp.unit_table``, shared with
``dp.solve_full_dp``), and its objective the DP optimum; no LP is built.  The
exact policy LP, whose value equals the DP's, stays the cross-check of
``solve --alg lp-opt`` and ``verify``.  A laminar policy keeps the composed
shape, with the root as its only block and no counters.

Large branch, one path for both instance kinds (``_large_branch``): the
relaxation keeps each unit of ``model.small_units`` (a type's chain, or a
maximal small bin or lone element of a laminar instance) exact and holds
only the rows of ``model.large_rows`` (the shipping capacity, or the
large bins), scaled by ``1 - eps``, in expectation.  The units are
coupled only through those rows.  Dropping the rows (the Lagrangian at
multiplier 0) bounds the relaxation by the sum of the units' DP optima,
and the units' optimal threshold policies (``dp.threshold_policy``)
attain that sum.  So when those policies already keep every row within
its scaled capacity (checked on the pick probabilities of each unit's
``dp.forward``), they are an optimal solution of the relaxation: the
branch returns them with ``lp_kind="dp"`` and builds no LP.  When a row
would be exceeded it falls back to the LP: the ex-ante LP (production)
or the hierarchy LP (laminar), built over the units' levels those DPs
enumerated (the instance keeps both) and rounded block by block.  Either way
``compose_policies`` runs the per-unit pricings behind hard counters at
the rows' *original* capacities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    DEFAULT_STATE_CAP,
    LaminarInstance,
    Marking,
    ProductionInstance,
    large_rows,
    small_bins,
    small_units,
)
from . import dp
from . import lp as lpmod
from .rounding import compose_policies, extract_all, mark_laminar

EPSILON_MAX = 0.99


def delta_of(epsilon: float) -> float:
    """Granularity schedule ``eps^2 / ln(1/eps)``.  It leaves (0, 1) from
    about ``eps = 0.653`` up, and at tiny ``eps`` where ``eps^2``
    underflows; there ``delta`` must be given explicitly."""
    if not (0.0 < epsilon < EPSILON_MAX):
        raise ValueError(f"epsilon must be in (0, {EPSILON_MAX})")
    delta = epsilon ** 2 / math.log(1.0 / epsilon)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"{epsilon!r} gives delta = {delta!r}, not in "
                         "(0, 1); set delta explicitly")
    return delta


@dataclass(frozen=True)
class PtasConfig:
    """Accuracy knob plus optional granularity override."""

    epsilon: float
    delta: float | None = None

    def __post_init__(self):
        if not (0.0 < self.epsilon < EPSILON_MAX):
            raise ValueError(f"epsilon must be in (0, {EPSILON_MAX})")
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise ValueError("delta override must be in (0, 1)")

    @property
    def resolved_delta(self) -> float:
        return self.delta if self.delta is not None else delta_of(self.epsilon)

    @property
    def capacity_scale(self) -> float:
        return 1.0 - self.epsilon


@dataclass
class PtasResult:
    policy: object
    branch: str  # "small" (exact) or "large" (scaled ex-ante)
    objective: float
    lp_kind: str  # "dp" when no LP was solved, else the LP solved
    marking: Marking | None = None

    def marking_summary(self, inst: LaminarInstance) -> dict:
        maximal, small = small_bins(inst, self.marking)
        return {"large": sorted(self.marking.large),
                "small_maximal": sorted(maximal),
                "small_all": sorted(small)}


def _large_branch(inst, cfg: PtasConfig, state_cap, engine,
                  mk: Marking | None = None) -> PtasResult:
    """The relaxation of ``model.small_units`` under ``model.large_rows``
    scaled by ``cfg.capacity_scale``, composed behind the counters.  The
    units' DP threshold policies when they keep every row in expectation,
    else the rounded LP: ex-ante (production) or hierarchy (laminar)."""
    tables = [dp.unit_table(inst, key, state_cap=state_cap)
              for key in small_units(inst, mk)]
    policies = {table.scope: dp.threshold_policy(table) for table in tables}
    _, passes = dp.forward_all(list(policies.values()), inst.dists)
    picked = {}
    for table, (_, _, picks) in zip(tables, passes):
        picked.update(zip(table.positions[:-1], picks))
    if all(sum(picked[e] for e in elements) <= cfg.capacity_scale * cap
           for _, elements, cap in large_rows(inst, mk)):
        objective, lp_kind = sum(table.optimal for table in tables), "dp"
    else:
        # the relaxation of ``build_lp_exante`` or ``build_lp_hierarchy``
        # (``mk`` is valid by construction), over the units' levels above
        built = lpmod._build(inst, mk, cfg.capacity_scale, state_cap)
        lp_kind = "exante" if mk is None else "hierarchy"
        # the DP point overfills the row just seen: skip its certificate
        built.model.dp_point = None
        sol = lpmod.solve_optimal(built.model, engine)
        policies, objective = extract_all(sol, built), sol.objective
    return PtasResult(policy=compose_policies(inst, policies, mk),
                      branch="large", objective=objective, lp_kind=lp_kind,
                      marking=mk)


def ptas_production(p: ProductionInstance, cfg: PtasConfig, *,
                    state_cap=DEFAULT_STATE_CAP, engine="auto") -> PtasResult:
    if p.shipping <= 1.0 / cfg.resolved_delta:
        table = dp.unit_table(p, "root", state_cap=state_cap)
        return PtasResult(policy=dp.threshold_policy(table), branch="small",
                          objective=table.optimal, lp_kind="dp")
    return _large_branch(p, cfg, state_cap, engine)


def ptas_laminar(inst: LaminarInstance, cfg: PtasConfig, *,
                 state_cap=DEFAULT_STATE_CAP, engine="auto") -> PtasResult:
    mk = mark_laminar(inst, cfg.resolved_delta)
    if not mk.large:
        table = dp.unit_table(inst, "root", state_cap=state_cap)
        policy = dp.threshold_policy(table)
        return PtasResult(policy=compose_policies(inst, {"root": policy}, mk),
                          branch="small", objective=table.optimal,
                          lp_kind="dp", marking=mk)
    return _large_branch(inst, cfg, state_cap, engine, mk)
