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
shape: the relaxation below with no row, the root its only unit.

Large branch, one path for both instance kinds (``_relaxation``): the
relaxation keeps each unit of ``model.small_units`` (a type's chain, or a
maximal small bin or lone element of a laminar instance) exact and holds
only the rows of ``model.large_rows`` (the shipping capacity, or the
large bins), scaled by ``1 - eps``, in expectation.  The units are
coupled only through those rows.  Dropping the rows (the Lagrangian at
multiplier 0) bounds the relaxation by the sum of the units' DP optima,
and the units' optimal threshold policies (``dp.threshold_policy``)
attain that sum.  So when no row's units can make more picks than its
scaled capacity (``dp.coupled``, the rule the LPs read too), those
policies keep every row and are an optimal solution of the relaxation:
the branch returns them with ``lp_kind="dp"`` and builds no LP.

When a row's units could overfill it, the branch solves the relaxation's
dual over the units' DPs (``dp.relax``): one Kelley search per row from
one carried sweep per unit at 0, which stops there where those sweeps
keep every row.  It mixes each unit's policies that accept and that
reject the ties at its shift so that every row is kept, and met where
its multiplier is positive.  The mixture attains the dual value, so it
is optimal; each state is priced at its acceptance rate
(``rounding.price_rates``), as an LP point is, and the branch returns
``lp_kind="lagrangian"`` with no LP.  Every route runs the per-unit
pricings behind hard counters at the rows' *original* capacities
(``compose_policies``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_STATE_CAP,
    LaminarInstance,
    Marking,
    ProductionInstance,
    bind_dynamics,
    large_rows,
    level_atoms,
    small_bins,
    small_units,
    state_levels,
)
from . import dp
from .rounding import compose_policies, mark_laminar, price_rates

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
    branch: str  # "small" (exact) or "large" (scaled relaxation)
    objective: float
    lp_kind: str  # "dp" (the units' DP policies) or "lagrangian" (the dual)
    marking: Marking | None = None

    def marking_summary(self, inst: LaminarInstance) -> dict:
        maximal, small = small_bins(inst, self.marking)
        return {"large": sorted(self.marking.large),
                "small_maximal": sorted(maximal),
                "small_all": sorted(small)}


def _relaxation(inst, cfg: PtasConfig, state_cap,
                mk: Marking | None = None) -> PtasResult:
    """The relaxation of ``model.small_units`` under ``model.large_rows``
    scaled by ``cfg.capacity_scale``, composed behind the counters: the
    units' DP threshold policies where ``dp.coupled`` finds that no row
    can bind (``branch="small"`` with no row); else the mixed policies of
    its dual (``dp.relax``), from one carried sweep per unit at 0."""
    keys, rows = small_units(inst, mk), large_rows(inst, mk)
    units = [state_levels(bind_dynamics(key, inst), state_cap)
             for key in keys] if rows else ()
    if dp.coupled(units, rows, cfg.capacity_scale):
        relaxed = dp.relax(inst.dists, units, rows, cfg.capacity_scale)
        policies = _mixed(inst.dists, units, relaxed)
        objective, lp_kind = relaxed.objective, "lagrangian"
    else:
        tables = [dp.unit_table(inst, key, state_cap=state_cap)
                  for key in keys]
        policies = {table.scope: dp.threshold_policy(table)
                    for table in tables}
        objective, lp_kind = sum(table.optimal for table in tables), "dp"
    return PtasResult(policy=compose_policies(inst, policies, mk),
                      branch="large" if rows else "small",
                      objective=objective, lp_kind=lp_kind, marking=mk)


def _mixed(dists, units, relaxed) -> dict:
    """The units' pricings of ``relaxed``'s mixture (``dp.mixture``), each
    state at its accepted mass over its probability."""
    decided, passes = dp.mixture(dists, units, relaxed)
    y = np.concatenate([occupancy for _, occupied, _ in passes
                        for occupancy in occupied[:-1]])
    x = y * decided.rates
    runs = [codes for lv in units for codes in lv.codes[:-1]]
    theta = np.repeat(relaxed.thetas, [sum(map(len, lv.codes[:-1]))
                                       for lv in units])
    half = len(y) // 2
    y = theta * y[:half] + (1.0 - theta) * y[half:]
    x = theta * x[:half] + (1.0 - theta) * x[half:]
    priced = y > 0.0
    values, probs = level_atoms(
        dists, [e for lv in units for e in lv.dyn.elements],
        list(map(len, runs)))
    return price_rates(units, values, probs,
                       x / np.where(priced, y, 1.0), priced)


def ptas_production(p: ProductionInstance, cfg: PtasConfig, *,
                    state_cap=DEFAULT_STATE_CAP) -> PtasResult:
    if p.shipping <= 1.0 / cfg.resolved_delta:
        table = dp.unit_table(p, "root", state_cap=state_cap)
        return PtasResult(policy=dp.threshold_policy(table), branch="small",
                          objective=table.optimal, lp_kind="dp")
    return _relaxation(p, cfg, state_cap)


def ptas_laminar(inst: LaminarInstance, cfg: PtasConfig, *,
                 state_cap=DEFAULT_STATE_CAP) -> PtasResult:
    return _relaxation(inst, cfg, state_cap,
                       mark_laminar(inst, cfg.resolved_delta))
