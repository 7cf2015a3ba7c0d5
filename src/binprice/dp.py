"""Exact finite-horizon dynamic programs over capacity states.

``backward`` is the one backward-induction kernel.  It runs over the
levels ``model.state_levels`` enumerates, arrival by arrival, and computes
the optimal expected (shifted) welfare of every state together with its
threshold: the marginal continuation value of one pick,
``V[t+1](s) - V[t+1](s after pick)``, with acceptance at equality.  It
gathers through each state's position after a skip and after a pick and
sums the atoms in their order, on the levels' lists or arrays alike, so
values and thresholds equal a scalar loop over the states bit for bit.
Tuples are decoded only when the rules of a table's ``threshold_policy``
(a ``PricingPolicy`` holding the thresholds as arrays over the levels) are
first read; a caller that needs only the optimum, such as the exactness
chain, decodes none.  ``sweep`` runs it without a table; given a tie
tolerance, each level also carries every state's expected picks under the
optimal policies that accept and that reject the values within it of their
threshold, which the PTAS reads at multiplier 0 to pick its route and
``relax``, the dual over a relaxation's units that the PTAS and the LPs'
DP points share, at every multiplier it tries (``mixture`` runs its
policies forward; an ordinary call carries nothing).

``forward_all`` is the one forward-occupancy kernel.  It runs any array
policy, tie coins included, over its levels: ``Decisions`` computes every
state's acceptance rate (and, when read, each atom's acceptance bias and
each state's expected gain) for all the policies' states at once, and one
pass per level moves each state's probability to its pick and its skip.
It returns each level's rates, each state's probability and each
arrival's pick probability.  Exact evaluation, the simulate tables, the
PTAS's mixed pricing, the LP's DP point and the chain checks all read it.

``unit_table`` runs it once per instance on a unit at shift 0.
``solve_full_dp`` reads the root's table (the full remaining-capacity state
space of a laminar instance) and its optimal threshold policy; states where
the arriving element cannot be picked quote an infinite price.
``solve_subproblem_dp`` reads a type's chain table (the sold count), or runs
the kernel with every value shifted by a nonzero constant; the checkpoint
guard skips buyers whose day's cumulative production is already sold out.
``concavity_check`` tests the discrete concavity of such a table in the sold
count, which is what makes the chain's prices monotone in past sales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    DEFAULT_STATE_CAP,
    LaminarInstance,
    LpError,
    ProductionInstance,
    StateLevels,
    atom_sums,
    bind_dynamics,
    derived,
    level_atoms,
    read_only,
    split_like,
    state_levels,
)
from .rounding import PricingPolicy

# The dual search (``relax``): a value within TIE_TOL times the search's
# top multiplier of its threshold is a tie, which a float multiplier would
# miss; a row within ROW_TOL times its capacity (at least 1) is met; and
# past DUAL_ITERATIONS cutting-plane steps on one row the search gives up.
TIE_TOL = 1e-9
ROW_TOL = 1e-12
DUAL_ITERATIONS = 100


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Expected-future-welfare table of one sub-problem.

    ``levels`` are the sub-problem's ``model.StateLevels``: level ``i``
    holds the states reachable just before the ``i``-th arrival (the last
    level is the post-horizon point).  ``values[i]`` holds their optimal
    expected (shifted) welfare from that arrival on, in code order, and,
    below the last level, ``thresholds[i]`` their price on shifted values
    (``inf`` where the arrival cannot be picked), both ``read_only``.
    ``positions[i]`` is the level's global arrival index; the last level's
    is the instance's element count, which no arrival has.
    """

    scope: str
    positions: tuple
    levels: StateLevels
    values: tuple
    thresholds: tuple
    shift: float = 0.0

    @property
    def optimal(self) -> float:
        return float(self.values[0].max())


def backward(dyn, dists, shift: float = 0.0, *,
             state_cap=DEFAULT_STATE_CAP) -> ValueTable:
    """Backward induction over ``model.state_levels(dyn, state_cap)``,
    every value shifted by ``shift``."""
    lv = state_levels(dyn, state_cap)
    values, thresholds, _ = sweep(lv, dists, shift)
    return ValueTable(scope=dyn.key,
                      positions=tuple(dyn.elements) + (len(dists),),
                      levels=lv, values=read_only(values),
                      thresholds=read_only(thresholds),
                      shift=shift)


def sweep(lv, dists, shift: float = 0.0, tie=None):
    """``(values, thresholds, picks)`` of ``backward`` over the levels
    ``lv``, as lists over the levels, with no ``ValueTable``.  Given a tie
    tolerance ``tie``, ``picks`` is the initial state's expected picks under
    the policy that accepts every value within ``tie`` of its threshold and
    under the one that rejects them, ``(more, fewer)``; else ``None``."""
    dyn = lv.dyn
    lists = isinstance(lv.codes[-1], tuple)
    level = _level_lists if lists else _level_arrays
    n = len(dyn.elements)
    width = len(lv.codes[-1])
    values = [None] * n + [[0.0] * width if lists else np.zeros(width)]
    thresholds = [None] * n
    picks = None if tie is None else (values[-1], values[-1])
    for i in range(n - 1, -1, -1):
        atoms = [(v - shift, p) for v, p in dists[dyn.elements[i]].atoms]
        values[i], thresholds[i], picks = level(
            values[i + 1], lv.skips[i], lv.picks[i], atoms, picks, tie)
    if picks is not None:
        picks = float(picks[0][0]), float(picks[1][0])
    return values, thresholds, picks


def unit_table(inst, scope, *, state_cap=DEFAULT_STATE_CAP) -> ValueTable:
    """Unit ``scope``'s value table at shift 0, solved once and kept in the
    store of the instance its dynamics reads (``model.bind_dynamics``)."""
    dyn = bind_dynamics(scope, inst)
    return derived(dyn.instance(), ("table", scope, state_cap), backward,
                   dyn, inst.dists, state_cap=state_cap)


def threshold_policy(table: ValueTable) -> PricingPolicy:
    """The threshold policy of ``table``, on values minus ``table.shift``:
    price the threshold, accept at equality (``p = 1``), and quote infinity
    (``p = 0``) where the arrival cannot be picked, as arrays over the
    table's levels."""
    thr = table.thresholds
    bias = (np.concatenate(thr) < math.inf) * 1.0 if thr else ()
    return PricingPolicy(table.scope, levels=table.levels,
                         elements=table.positions[:-1], tau=thr,
                         p=split_like(bias, thr))


class Decisions:
    """Array policies' decisions, state by state, over the states of each
    policy's levels ``0 .. n - 1``, level after level and policy after
    policy.

    ``values`` and ``probs`` (atoms by states) hold each state's arrival
    distribution, values minus ``shift`` (``model.level_atoms``; a list
    holds one per level of every policy), and
    ``above`` and ``tie`` where they lie above and at the price of its
    rule ``(tau, p)``, infinite where the arrival cannot be picked.  Read
    on first use: ``bias``, each atom's acceptance probability (1 above,
    ``p`` at the price, 0 below); ``rates``, each state's acceptance rate
    ``tail_above(tau) + p * prob_at(tau)``; ``gains``, its expected
    accepted value ``sum(pa * v * bias)`` in atom order.
    """

    def __init__(self, policies, dists, shift=0.0):
        runs = [(e, codes, tau, p, picks) for pol in policies
                for e, codes, tau, p, picks in zip(
                    pol.elements, pol.levels.codes, pol.tau, pol.p,
                    pol.levels.picks)]
        elements, codes, tau, p, picks = zip(*runs)
        self.values, self.probs = level_atoms(
            dists, elements, list(map(len, codes)), shift)
        tau = np.where(np.concatenate(picks) < 0, math.inf,
                       np.concatenate(tau))
        self.p = np.concatenate(p)
        self.above, self.tie = self.values > tau, self.values == tau

    @cached_property
    def bias(self):
        return np.where(self.above, 1.0, np.where(self.tie, self.p, 0.0))

    @cached_property
    def rates(self):
        tail = atom_sums(np.where(self.above, self.probs, 0.0))
        return tail + self.p * np.where(self.tie, self.probs, 0.0).sum(axis=0)

    @cached_property
    def gains(self):
        return atom_sums(self.probs * self.values * self.bias)


def forward_all(policies, dists, shift=0.0):
    """Run array policies forward over their levels, on values minus
    ``shift`` (or a list, one per level): the one forward kernel.

    A state takes ``mass * rate`` to its pick and, where the rate is below
    1, ``mass * (1.0 - rate)`` to its skip (a state whose arrival cannot be
    picked has rate 0, so it keeps its mass).  A state has at most these
    two sources, a skip from itself and a pick from its one predecessor (a
    pick moves every state by one vector), so its probability does not
    depend on the order of the sums.  Returns ``(decided, passes)``: the
    policies' ``Decisions``, and per policy ``(rates, occupancy, picks)``:
    each level's acceptance rates, each state's probability at levels
    ``0 .. n``, and each arrival's pick probability, the sum over its level
    in state order."""
    passes = [([], [np.ones(1)], []) for _ in policies]
    if not any(pol.elements for pol in policies):
        return None, passes
    decided = Decisions(policies, dists, shift)
    rates = decided.rates
    skips = np.concatenate([s for pol in policies
                            for s in pol.levels.skips])
    picks = np.concatenate([s for pol in policies
                            for s in pol.levels.picks])
    # per state: where its skip and its pick take it, and what share goes
    moves = np.array([skips, np.where(picks < 0, skips, picks)]).T.copy()
    shares = np.array([np.maximum(1.0 - rates, 0.0), rates]).T.copy()
    b = 0
    for pol, (level_rates, occupancy, picked) in zip(policies, passes):
        for width in map(len, pol.levels.codes[1:]):
            a, b = b, b + len(occupancy[-1])
            flow = occupancy[-1][:, None] * shares[a:b]
            occupancy.append(np.bincount(moves[a:b].ravel(), flow.ravel(),
                                         width))
            picked.append(float(flow[:, 1].cumsum()[-1]))
            level_rates.append(rates[a:b])
    return decided, passes


def zero_sweeps(dists, units):
    """``(top, sweeps)`` of ``units``, their ``StateLevels``: a multiplier
    past every value (and 0) of their arrivals, where no unit picks, and
    each one's ``sweep`` at 0 with ties within ``TIE_TOL * top``."""
    top = 1.0 + max([0.0, *(v for lv in units for e in lv.dyn.elements
                            for v in dists[e].values)])
    return top, [sweep(lv, dists, 0.0, TIE_TOL * top) for lv in units]


@dataclass(frozen=True, eq=False)
class Relaxed:
    """``relax``'s solution: per unit its shift, its ``sweep`` there (ties
    within ``tie``) and the weight ``theta`` of its tie-accepting policies
    in its mixture; per row its multiplier; and the dual optimum."""

    shifts: list
    sweeps: list
    thetas: list
    multipliers: list
    objective: float
    tie: float


def relax(dists, units, rows, scale, top, sweeps) -> Relaxed:
    """The relaxation of ``units`` (their ``StateLevels``) under ``rows``
    (``model.large_rows``: laminar, ancestors first, the first holding
    every unit) held in expectation at ``scale`` times their capacities,
    solved through its dual over the units' DPs (``notes/decisions.md``,
    "Nested duals"); ``top`` and ``sweeps`` are ``zero_sweeps``.  A unit's
    values are lowered by its shift, the sum of its rows' multipliers.  A
    row binds below a point ``mu`` that the shift above it does not move,
    so one Kelley search per row, children first, finds ``mu`` (``LpError``
    past ``DUAL_ITERATIONS`` steps).  A row's shift is the largest ``mu``
    on its path, where each unit mixes its two policies so that every row
    is kept, and met where its multiplier is positive."""
    tie = TIE_TOL * top
    caps = [scale * cap for _, _, cap in rows]

    def last_holding(e, end):
        return max(i for i in range(end) if e in rows[i][1])

    kids = [[] for _ in rows]  # each row's child rows
    for j in range(1, len(rows)):
        kids[last_holding(min(rows[j][1]), j)].append(j)
    row_of = [last_holding(lv.dyn.elements[0], len(rows)) for lv in units]
    members = [[u for u, r in enumerate(row_of) if r == j]
               for j in range(len(rows))]
    memo = [{0.0: s} for s in sweeps]

    def swept(u, lam):
        if lam not in memo[u]:
            memo[u][lam] = sweep(units[u], dists, lam, tie)
        return memo[u][lam]

    opt = [None] * len(rows)  # per row: (mu, its value there)

    def inner(j, lam):
        """Value and picks (ties accepted, rejected) under row ``j``."""
        under = [swept(u, lam) for u in members[j]]
        value = sum(float(values[0][0]) for values, _, _ in under)
        more = sum(picks[0] for _, _, picks in under)
        fewer = sum(picks[1] for _, _, picks in under)
        for c in kids[j]:
            mu, h = opt[c]
            if lam < mu - tie:
                terms = h - lam * caps[c], caps[c], caps[c]
            else:
                terms = inner(c, lam)
            value, more, fewer = (value + terms[0],
                                  more + min(terms[1], caps[c]),
                                  fewer + terms[2])
        return value, more, fewer

    for j in reversed(range(len(rows))):
        cap = caps[j]
        slack = ROW_TOL * max(1.0, cap)
        # no value reaches top, so nothing is picked there
        left, right, lam = None, (top, top * cap, cap), 0.0
        for step in range(DUAL_ITERATIONS):
            g, more, fewer = inner(j, lam)
            value = lam * cap + g
            if fewer > cap + slack:
                left = (lam, value, cap - fewer)
            elif more < cap - slack and step:
                right = (lam, value, cap - more)
            else:
                break
            (a, va, ga), (b, vb, gb) = left, right
            lam = (vb - va + ga * a - gb * b) / (ga - gb)
        else:
            raise LpError(f"dual search: no multiplier within "
                          f"{DUAL_ITERATIONS} cutting-plane steps "
                          f"(last {lam!r})")
        opt[j] = (lam, value)

    shift, multipliers, span, phi = ([0.0] * len(rows) for _ in range(4))

    def fix(j, above):
        """Row ``j``'s shift (its ``mu`` unless within the tie tolerance
        of ``above``, its parent's) and multiplier; its picks' range."""
        shift[j] = opt[j][0] if not j or opt[j][0] > above + tie else above
        multipliers[j] = shift[j] - above
        under = [swept(u, shift[j])[2] for u in members[j]]
        lo, hi = sum(p[1] for p in under), sum(p[0] for p in under)
        for c in kids[j]:
            low, high = fix(c, shift[j])
            if shift[c] > shift[j]:
                low = high = caps[c]
            lo, hi = lo + low, hi + min(high, caps[c])
        span[j] = lo, hi
        return span[j]

    fix(0, 0.0)

    def meet(j, aim):
        """Row ``j``'s units' weight meeting ``aim``; then its child rows'
        aims: capacity where their multiplier is positive, else a share."""
        lo, hi = span[j]
        phi[j] = 0.0 if hi <= lo else min(max((aim - lo) / (hi - lo), 0.0),
                                          1.0)
        for c in kids[j]:
            meet(c, caps[c] if shift[c] > shift[j] else span[c][0] + phi[j]
                 * (min(span[c][1], caps[c]) - span[c][0]))

    meet(0, caps[0])
    return Relaxed(shifts=[shift[r] for r in row_of],
                   sweeps=[swept(u, shift[r]) for u, r in enumerate(row_of)],
                   thetas=[phi[r] for r in row_of], multipliers=multipliers,
                   objective=opt[0][1], tie=tie)


def mixture(dists, units, relaxed: Relaxed):
    """``forward_all`` over ``relaxed``'s mixture: each unit's policy that
    accepts the ties of its sweep (within the tie tolerance), then each
    one's that rejects them, at its shift."""
    def policies(offset, p):
        return [PricingPolicy(lv.dyn.key, levels=lv, elements=lv.dyn.elements,
                              tau=[np.add(thr, offset) for thr in thresholds],
                              p=[np.full(len(thr), p) for thr in thresholds])
                for lv, (_, thresholds, _) in zip(units, relaxed.sweeps)]

    shifts = relaxed.shifts  # one, or one per level
    shift = shifts[0] if len(set(shifts)) == 1 else [
        s for lv, s in zip(units, shifts) for _ in lv.dyn.elements] * 2
    return forward_all(policies(-relaxed.tie, 1.0)
                       + policies(relaxed.tie, 0.0), dists, shift)


def _level_arrays(after, skips, picks, atoms, carry=None, tie=0.0):
    """Values and thresholds of one level from those of the next, on
    arrays; and, given the next level's ``carry`` of expected picks
    ``(more, fewer)``, this level's, accepting values from ``tau - tie`` on
    and above ``tau + tie`` alone."""
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
    if carry is None:
        return val, thr, None
    more, fewer = (count[skips] for count in carry)
    up, down = more[ok], fewer[ok]
    go_up, go_down = (1.0 + count[picks[ok]] for count in carry)
    low, high = tau - tie, tau + tie
    up_ev = down_ev = 0.0
    for x, p in atoms:
        up_ev += p * np.where(x >= low, go_up, up)
        down_ev += p * np.where(x > high, go_down, down)
    more[ok], fewer[ok] = up_ev, down_ev
    return val, thr, (more, fewer)


def _level_lists(after, skips, picks, atoms, carry=None, tie=0.0):
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
    if carry is None:
        return val, thr, None
    more, fewer = carry
    up, down = [], []
    for a, b, tau in zip(skips, picks, thr):
        if b < 0:
            up.append(more[a])
            down.append(fewer[a])
            continue
        low, high = tau - tie, tau + tie
        ev = 0.0
        for x, p in atoms:
            ev += p * ((1.0 + more[b]) if x >= low else more[a])
        up.append(ev)
        ev = 0.0
        for x, p in atoms:
            ev += p * ((1.0 + fewer[b]) if x > high else fewer[a])
        down.append(ev)
    return val, thr, (up, down)


def solve_full_dp(inst: LaminarInstance, *,
                  state_cap=DEFAULT_STATE_CAP) -> tuple[ValueTable, PricingPolicy]:
    """Backward induction over the full remaining-capacity state space.

    Returns the value table and the extracted pricing policy (accept at
    equality).  States where the arriving element cannot be picked quote an
    infinite price.  The policy is the table's ``threshold_policy``.
    """
    table = unit_table(inst, "root", state_cap=state_cap)
    return table, threshold_policy(table)


def solve_subproblem_dp(p: ProductionInstance, type_index: int,
                        shift: float = 0.0, *,
                        state_cap=DEFAULT_STATE_CAP) -> ValueTable:
    """Chain DP for one type with all values shifted by ``shift``.

    The skip option keeps values non-increasing over time; a buyer whose
    day cap is exhausted (checkpoint guard) is passed over unchanged.
    """
    if shift == 0.0:
        return unit_table(p, f"type:{type_index}", state_cap=state_cap)
    return backward(bind_dynamics(f"type:{type_index}", p), p.dists, shift,
                    state_cap=state_cap)


def concavity_check(table: ValueTable):
    """Check ``D(s) + D(s+2) <= 2 D(s+1) + 1e-9`` at every level of a chain table.

    Returns ``(ok, worst)`` where ``worst`` is ``(position, sold, gap)`` for
    the largest violation, the first of a tie with the levels taken last
    to first and each level's states ascending, or ``None`` when every
    triple passes.
    """
    lows = table.levels.coding.lows
    if len(lows) != 1:
        raise ValueError("concavity check applies to chain tables only")
    order = range(len(table.values) - 1, -1, -1)
    v = np.concatenate([table.values[lvl] for lvl in order])
    sold = np.concatenate([table.levels.codes[lvl] for lvl in order]) + lows[0]
    level = np.repeat(order, [len(table.values[lvl]) for lvl in order])
    gaps = v[:-2] + v[2:] - 2.0 * v[1:-1]
    # consecutive sold counts; each level starts at 0 sold, so none span two
    gaps[sold[2:] - sold[:-2] != 2] = np.nan
    if not (gaps > 1e-9).any():
        return True, None
    k = int(np.nanargmax(gaps))  # the first of the largest
    return False, (table.positions[level[k]], int(sold[k]), float(gaps[k]))
