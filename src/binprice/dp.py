"""Exact finite-horizon dynamic programs over capacity states.

``backward`` is the one backward-induction kernel.  It runs over the
levels ``model.state_levels`` enumerates, arrival by arrival, and computes
the optimal expected (shifted) welfare of every state together with its
threshold: the marginal continuation value of one pick,
``V[t+1](s) - V[t+1](s after pick)``, with acceptance at equality.  It
gathers through each state's position after a skip and after a pick and
sums the atoms in their order, on the levels' lists or arrays alike, so
values and thresholds equal a scalar loop over the states bit for bit.
Tuples are decoded only when ``ValueTable.entries`` or the rules of a
table's ``threshold_policy`` are first read; a caller that needs only the
optimum, such as the exactness chain, decodes none.  ``forward`` is the
one forward-occupancy kernel: it runs a table's threshold policy over the
same levels and returns each state's acceptance rate and probability and
each arrival's pick probability.

``solve_full_dp`` runs the kernel over the full remaining-capacity state
space of a laminar instance and reads off the optimal threshold policy;
states where the arriving element cannot be picked quote an infinite
price.  ``solve_subproblem_dp`` runs it on one per-type chain of a
production instance (the sold count), optionally with every value shifted
by a constant; the checkpoint guard skips buyers whose day's cumulative
production is already sold out.  ``concavity_check`` tests the discrete
concavity of such a table in the sold count, which is what makes the
chain's prices monotone in past sales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    DEFAULT_STATE_CAP,
    BinSubproblem,
    LaminarInstance,
    ProductionInstance,
    StateLevels,
    TypeSubproblem,
    state_levels,
)
from .rounding import PricingPolicy


@dataclass(eq=False)
class ValueTable:
    """Expected-future-welfare table of one sub-problem.

    ``levels`` are the sub-problem's ``model.StateLevels``: level ``i``
    holds the states reachable just before the ``i``-th arrival (the last
    level is the post-horizon point).  ``values[i]`` holds their optimal
    expected (shifted) welfare from that arrival on, in code order, and,
    below the last level, ``thresholds[i]`` their price on shifted values
    (``inf`` where the arrival cannot be picked).  ``positions[i]`` is the
    level's global arrival index.  ``entries`` maps ``(level, state)`` to
    the value, built on first access; a missing key is the infeasible
    sentinel.
    """

    scope: str
    positions: tuple
    levels: StateLevels
    values: list
    thresholds: list
    shift: float = 0.0

    def tagged_states(self, tags):
        """``(tags[lvl], state)`` over levels ``len(tags) - 1`` down to 0,
        each level's states ascending: the order of ``np.concatenate`` over
        the levels' arrays reversed."""
        levels = self.levels.tuples()
        return ((tags[lvl], s) for lvl in range(len(tags) - 1, -1, -1)
                for s in levels[lvl])

    @cached_property
    def entries(self) -> dict:
        values = np.concatenate(self.values[::-1]).tolist()
        return dict(zip(self.tagged_states(range(len(self.positions))),
                        values))

    def value(self, level, state):
        return self.entries.get((level, state))

    @property
    def optimal(self) -> float:
        return float(self.values[0].max())

    def to_json_dict(self) -> dict:
        return {
            "scope": self.scope,
            "shift": self.shift,
            "values": {f"{self.positions[lvl]},{list(s)}": v
                       for (lvl, s), v in sorted(self.entries.items())},
        }


def backward(dyn, dists, shift: float = 0.0, *,
             state_cap=DEFAULT_STATE_CAP, levels=None) -> ValueTable:
    """Backward induction over ``model.state_levels(dyn, state_cap)``, or
    over ``levels`` when a caller already holds them, every value shifted
    by ``shift``."""
    lv = state_levels(dyn, state_cap) if levels is None else levels
    lists = isinstance(lv.codes[-1], list)
    level = _level_lists if lists else _level_arrays
    n = len(dyn.elements)
    width = len(lv.codes[-1])
    values = [None] * n + [[0.0] * width if lists else np.zeros(width)]
    thresholds = [None] * n
    for i in range(n - 1, -1, -1):
        atoms = [(v - shift, p) for v, p in dists[dyn.elements[i]].atoms]
        values[i], thresholds[i] = level(values[i + 1], lv.skips[i],
                                         lv.picks[i], atoms)
    return ValueTable(scope=dyn.key,
                      positions=tuple(dyn.elements) + (len(dyn.elements),),
                      levels=lv, values=[np.asarray(v) for v in values],
                      thresholds=[np.asarray(t) for t in thresholds],
                      shift=shift)


def threshold_policy(table: ValueTable) -> PricingPolicy:
    """The optimal threshold policy of an unshifted ``table``: price the
    threshold, accept at equality (``p = 1``), and quote infinity
    (``p = 0``) where the arrival cannot be picked.  The rules are decoded
    from the thresholds the first time they are read."""

    def rules():
        thr = np.concatenate(table.thresholds[::-1])
        bias = (thr < math.inf) * 1.0
        return dict(zip(table.tagged_states(table.positions[:-1]),
                        zip(thr.tolist(), bias.tolist())))

    return PricingPolicy(scope=table.scope, rules=rules)


def forward(table: ValueTable, dists) -> tuple[list, list, list]:
    """Run ``table``'s threshold policy forward over its levels.

    Arrival values are shifted by ``table.shift``, as in ``backward``, and
    accepted at equality.  Returns ``(rates, occupancy, picks)``:
    ``rates[i]`` holds each level-``i`` state's acceptance rate (0 where
    the arrival cannot be picked), ``occupancy[i]`` each level-``i`` state's
    probability for ``i = 0 .. n``, and ``picks[i]`` the probability that
    the ``i``-th arrival is picked.  Levels stay lists or arrays, as the
    table's levels are."""
    lv = table.levels
    lists = isinstance(lv.codes[-1], list)
    step = _forward_lists if lists else _forward_arrays
    occupancy = [[1.0] if lists else np.ones(1)]
    rates, picks = [], []
    for i, e in enumerate(table.positions[:-1]):
        atoms = [(v - table.shift, p) for v, p in dists[e].atoms]
        rate, occ, picked = step(occupancy[-1], table.thresholds[i],
                                 lv.skips[i], lv.picks[i], atoms,
                                 len(lv.codes[i + 1]))
        rates.append(rate)
        occupancy.append(occ)
        picks.append(picked)
    return rates, occupancy, picks


def unit_passes(dyns, dists, *, state_cap=DEFAULT_STATE_CAP,
                levels=None) -> list:
    """``(table, forward(table, dists))`` for each of ``dyns``: the units'
    optimal value tables and their threshold policies' forward passes,
    over ``levels[k]`` for the ``k``-th unit when given."""
    levels = [None] * len(dyns) if levels is None else levels
    tables = (backward(dyn, dists, state_cap=state_cap, levels=lv)
              for dyn, lv in zip(dyns, levels))
    return [(table, forward(table, dists)) for table in tables]


def _forward_arrays(occ, thr, skips, picks, atoms, width):
    """The acceptance rates of one level, the next level's state
    probabilities and the arrival's pick probability, on arrays."""
    rate = sum(p * (thr <= x) for x, p in atoms)
    accept = rate * occ
    ok = picks >= 0
    nxt = (np.bincount(skips, occ - accept, width)
           + np.bincount(picks[ok], accept[ok], width))
    return rate, nxt, float(accept.sum())


def _forward_lists(occ, thr, skips, picks, atoms, width):
    """``_forward_arrays`` one state at a time."""
    rates = []
    nxt = [0.0] * width
    picked = 0.0
    for w, tau, a, b in zip(occ, thr.tolist(), skips, picks):
        rate = sum(p for x, p in atoms if x >= tau)
        take = w * rate
        nxt[a] += w - take
        if b >= 0:
            nxt[b] += take
        picked += take
        rates.append(rate)
    return rates, nxt, picked


def _level_arrays(after, skips, picks, atoms):
    """Values and thresholds of one level from those of the next, on
    arrays."""
    ok = picks >= 0
    val = after[skips]
    stay = val[ok]
    cont = after[picks[ok]]
    tau = stay - cont
    ev = 0.0
    for x, p in atoms:
        ev += p * np.where(x >= tau, x + cont, stay)
    val[ok] = ev
    thr = np.full(len(val), math.inf)
    thr[ok] = tau
    return val, thr


def _level_lists(after, skips, picks, atoms):
    """``_level_arrays`` one state at a time: the same sums in the same
    order."""
    val, thr = [], []
    for a, b in zip(skips, picks):
        stay = after[a]
        if b < 0:
            val.append(stay)
            thr.append(math.inf)
            continue
        cont = after[b]
        tau = stay - cont
        ev = 0.0
        for x, p in atoms:
            ev += p * ((x + cont) if x >= tau else stay)
        val.append(ev)
        thr.append(tau)
    return val, thr


def solve_full_dp(inst: LaminarInstance, *,
                  state_cap=DEFAULT_STATE_CAP) -> tuple[ValueTable, PricingPolicy]:
    """Backward induction over the full remaining-capacity state space.

    Returns the value table and the extracted pricing policy (accept at
    equality).  States where the arriving element cannot be picked quote an
    infinite price.  The policy is the table's ``threshold_policy``.
    """
    table = backward(BinSubproblem(inst, 0), inst.dists, state_cap=state_cap)
    return table, threshold_policy(table)


def solve_subproblem_dp(p: ProductionInstance, type_index: int,
                        shift: float = 0.0, *,
                        state_cap=DEFAULT_STATE_CAP) -> ValueTable:
    """Chain DP for one type with all values shifted by ``shift``.

    The skip option keeps values non-increasing over time; a buyer whose
    day cap is exhausted (checkpoint guard) is passed over unchanged.
    """
    return backward(TypeSubproblem(p, type_index), p.dists, shift,
                    state_cap=state_cap)


def concavity_check(table: ValueTable):
    """Check ``D(s) + D(s+2) <= 2 D(s+1) + 1e-9`` at every level of a chain table.

    Returns ``(ok, worst)`` where ``worst`` is ``(position, sold, gap)`` for
    the largest violation, or ``None`` when every triple passes.
    """
    worst = None
    worst_gap = 1e-9
    entries = table.entries
    for (lvl, s), v in entries.items():
        if len(s) != 1:
            raise ValueError("concavity check applies to chain tables only")
        mid = entries.get((lvl, (s[0] + 1,)))
        hi = entries.get((lvl, (s[0] + 2,)))
        if mid is None or hi is None:
            continue
        gap = v + hi - 2.0 * mid
        if gap > worst_gap:
            worst_gap = gap
            worst = (table.positions[lvl], s[0], gap)
    return worst is None, worst
