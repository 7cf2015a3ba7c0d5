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
attain that sum.  So when the expected picks that one sweep per unit at
multiplier 0 (``dp.sweep``, accepting the ties) carries keep every row
within its scaled capacity, those policies are an optimal solution of
the relaxation: the branch returns them with ``lp_kind="dp"`` and builds
no LP.

When a row would be exceeded and it is the only one (the shipping row, or
a root that is the only large bin), the branch solves the relaxation's
dual ``min over lam >= 0 of lam * cap + sum_u V_u(lam)``, ``V_u`` the
unit's DP optimum with every value lowered by ``lam`` (the weakly coupled
DP of Adelman and Mersereau, 2008).  Kelley's cutting plane finds
``lam*`` from one such sweep per unit and multiplier, starting from
those at 0, each giving the unit's expected picks under its policies
that accept and that reject the ties at ``lam``.  At ``lam*`` the two
policy sets bracket the row; the mixture that meets it attains the dual
value, so it is optimal, and each state is priced at the mixture's
acceptance rate (``rounding.price_rates``), as an LP point is.  The
branch returns ``lp_kind="lagrangian"`` and builds no LP.  With several
large rows, where the sweeps' policies that reject the ties keep every
row, those are optimal at multiplier 0 and the branch returns them, also
as ``lp_kind="lagrangian"``; else it falls back to the hierarchy LP
(``auto`` engine), built over the units' levels those DPs enumerated
(the instance keeps both) and rounded block by block.  Every route runs
the per-unit pricings behind hard counters at the rows' *original*
capacities (``compose_policies``).
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
    large_rows,
    level_atoms,
    small_bins,
    small_units,
)
from . import dp
from . import lp as lpmod
from .rounding import (
    PricingPolicy,
    compose_policies,
    extract_all,
    mark_laminar,
    price_rates,
)

EPSILON_MAX = 0.99

# The dual search: a value within TIE_TOL times the search's top multiplier
# of its threshold is a tie, which a float multiplier would miss; a row
# within ROW_TOL times its scaled capacity (at least 1) is met; and past
# DUAL_ITERATIONS cutting-plane steps the search gives up.
TIE_TOL = 1e-9
ROW_TOL = 1e-12
DUAL_ITERATIONS = 100


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
    lp_kind: str  # "dp" or "lagrangian" when no LP was solved, else the LP
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
    units' DP threshold policies when their sweeps at 0 keep every row in
    expectation (``branch="small"`` with no row); else, under one row, the
    mixed policies of its dual (``_dual``); else, where the sweeps'
    tie-rejecting policies keep every row, those; else the rounded
    hierarchy LP (a production instance has one row)."""
    tables = [dp.unit_table(inst, key, state_cap=state_cap)
              for key in small_units(inst, mk)]
    rows = large_rows(inst, mk)
    lp_kind = "dp"
    if rows:
        # no value reaches top, the dual search's bound on the multiplier
        top = 1.0 + max([0.0, *(v for table in tables
                                for e in table.positions[:-1]
                                for v in inst.dists[e].values)])
        sweeps = [dp.sweep(table.levels, inst.dists, 0.0, TIE_TOL * top)
                  for table in tables]

        def overfilled(side):
            """Whether the sweeps' policies that accept (``side`` 0) or
            reject (1) their ties overfill some row in expectation.  A unit
            lies wholly under or wholly outside each row, so its first
            position places its picks."""
            return any(sum(picks[side] for table, (_, _, picks)
                           in zip(tables, sweeps)
                           if table.positions[0] in elements)
                       > cfg.capacity_scale * cap
                       for _, elements, cap in rows)

        if overfilled(0):
            lp_kind = ("lagrangian" if len(rows) == 1 or not overfilled(1)
                       else "hierarchy")
    if lp_kind == "dp":
        policies = {table.scope: dp.threshold_policy(table)
                    for table in tables}
        objective = sum(table.optimal for table in tables)
    elif lp_kind == "lagrangian" and len(rows) == 1:
        # the shipping row, or a root that is the only large bin: either
        # way every unit lies under it
        policies, objective = _dual(inst.dists,
                                    [table.levels for table in tables],
                                    cfg.capacity_scale * rows[0][2], top,
                                    sweeps)
    elif lp_kind == "lagrangian":
        # at multiplier 0 the tie-rejecting policies attain every unit's
        # optimum too, and they keep every row
        policies = _mixed(inst.dists, [table.levels for table in tables],
                          sweeps, 0.0, TIE_TOL * top, 0.0)
        objective = sum(table.optimal for table in tables)
    else:
        # the relaxation of ``build_lp_hierarchy`` (``mk`` is valid by
        # construction), over the units' levels above
        built = lpmod._build(inst, mk, cfg.capacity_scale, state_cap)
        # the DP point overfills a row just seen: skip its certificate
        built.model.dp_point = None
        sol = lpmod.solve_optimal(built.model)
        policies, objective = extract_all(sol, built), sol.objective
    return PtasResult(policy=compose_policies(inst, policies, mk),
                      branch="large" if rows else "small",
                      objective=objective, lp_kind=lp_kind, marking=mk)


def _dual(dists, units, cap, top, sweeps) -> tuple[dict, float]:
    """``(policies, objective)`` of the relaxation of ``units``, each
    unit's ``StateLevels``, under one row of capacity ``cap`` over all of
    them, solved through its dual
    ``L(lam) = lam * cap + sum_u V_u(lam)``, ``V_u`` the unit's DP optimum
    with every value shifted by ``-lam``.

    ``L`` is convex and piecewise linear, and at ``lam`` its slope lies
    between ``cap - more`` and ``cap - fewer``: the expected picks of the
    units' optimal policies that accept and that reject their ties
    (``dp.sweep``).  Kelley's cutting plane runs on ``[0, top]``, past
    every value, from the cut of each side's last point to where they
    meet, until ``fewer <= cap <= more``.  It starts from ``sweeps``, the
    units' sweeps at 0 (ties within ``TIE_TOL * top``), where ``more``
    exceeds ``cap``.  Both policy sets attain ``L(lam*)``, so the mixture
    that takes the first with probability ``theta`` and meets the row
    attains it too: it is optimal, and ``price_rates`` prices each state
    at the mixture's acceptance rate."""
    tie, slack = TIE_TOL * top, ROW_TOL * max(1.0, cap)
    # no value reaches top, so nothing is picked there: L(top) = top * cap
    left, right, lam = None, (top, top * cap, cap), 0.0
    for step in range(DUAL_ITERATIONS):
        if step:
            sweeps = [dp.sweep(lv, dists, lam, tie) for lv in units]
        value = lam * cap + sum(float(values[0][0]) for values, _, _ in sweeps)
        more = sum(picks[0] for _, _, picks in sweeps)
        fewer = sum(picks[1] for _, _, picks in sweeps)
        if fewer > cap + slack:
            left = (lam, value, cap - fewer)
        elif more < cap - slack:
            right = (lam, value, cap - more)
        else:
            break
        (a, va, ga), (b, vb, gb) = left, right
        lam = (vb - va + ga * a - gb * b) / (ga - gb)
    else:
        raise lpmod.LpError(f"dual search: no multiplier within "
                            f"{DUAL_ITERATIONS} cutting-plane steps "
                            f"(last {lam!r})")
    theta = 0.0 if more <= fewer else min(max(
        (cap - fewer) / (more - fewer), 0.0), 1.0)
    return _mixed(dists, units, sweeps, lam, tie, theta), value


def _mixed(dists, units, sweeps, lam, tie, theta) -> dict:
    """The units' pricings of the mixture that runs, with probability
    ``theta``, the policies that accept the ties of ``sweeps`` (at shift
    ``lam``, within ``tie``) and otherwise those that reject them: each
    state's rate is the mixture's accepted mass over its probability."""
    def policies(offset, p):
        return [PricingPolicy(lv.dyn.key, levels=lv, elements=lv.dyn.elements,
                              tau=[np.add(thr, offset) for thr in thresholds],
                              p=[np.full(len(thr), p) for thr in thresholds])
                for lv, (_, thresholds, _) in zip(units, sweeps)]

    decided, passes = dp.forward_all(policies(-tie, 1.0) + policies(tie, 0.0),
                                     dists, lam)
    y = np.concatenate([occupancy for _, occupied, _ in passes
                        for occupancy in occupied[:-1]])
    x = y * decided.rates
    half = len(y) // 2
    y = theta * y[:half] + (1.0 - theta) * y[half:]
    x = theta * x[:half] + (1.0 - theta) * x[half:]
    priced = y > 0.0
    runs = [codes for lv in units for codes in lv.codes[:-1]]
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
