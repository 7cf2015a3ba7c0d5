"""Exact finite-horizon dynamic programs over capacity states.

``backward`` is the one backward-induction kernel.  It runs over the
reachable states of a sub-problem's dynamics, arrival by arrival, and
computes the optimal expected (shifted) welfare of every state together
with its threshold: the marginal continuation value of one pick,
``V[t+1](s) - V[t+1](s after pick)``, with acceptance at equality.

States are held as integers.  Coordinate ``k`` of a state ranges over
``dyn.ranges[k] = (lo, hi)`` and is the digit ``s[k] - lo`` of radix
``hi - lo + 1``, first coordinate most significant, so numeric order of
the codes is the lexicographic order of the state tuples (a chain's code
is its sold count).  Codes are ``int64`` when the product of the radices
fits in it; otherwise they are Python ints in an ``object`` array, the
same codes by the same arithmetic, chosen per instance.  The forward pass
builds each level as a sorted code array: the states of the previous
level (a skip) merged with those a pick reaches, with every state's
position after a skip and after a pick.  Levels are therefore nested, and
the last one holds every state.  The backward pass gathers through those
positions and sums the atoms in their order, so values and thresholds
equal a scalar loop over the states bit for bit.  A state space of at most
``SMALL_CODES`` codes is swept the same way on Python lists, one state at
a time, since there numpy's cost per call exceeds the work.  Tuples are
decoded only when ``ValueTable.entries`` or the rules of the policy
``solve_full_dp`` returns are first read; a caller that needs only the
optimum, such as the exactness chain, decodes none.

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
from itertools import chain, repeat

import numpy as np

from .model import (
    DEFAULT_STATE_CAP,
    BinSubproblem,
    LaminarInstance,
    ProductionInstance,
    SizingError,
    TypeSubproblem,
)
from .rounding import PricingPolicy


class StateCoding:
    """Mixed-radix integer codes of one dynamics' states."""

    def __init__(self, dyn):
        self.lows = tuple(lo for lo, _ in dyn.ranges)
        self.radices = tuple(hi - lo + 1 for lo, hi in dyn.ranges)
        strides = []
        self.size = 1
        for r in reversed(self.radices):
            strides.append(self.size)
            self.size *= r
        self.strides = tuple(reversed(strides))
        self.dtype = np.int64 if self.size <= 2 ** 63 else object

    def encode(self, state) -> int:
        return sum((s - lo) * st
                   for s, lo, st in zip(state, self.lows, self.strides))

    def windows(self, coords, delta, limits):
        """``(modulus, low, high)`` per coordinate a pick of ``dyn.step``
        moves: the pick is allowed iff ``low <= code % modulus < high`` for
        each, that is iff every moved coordinate lands in ``[0, limit]``."""
        out = []
        for k, limit in zip(coords, limits):
            stride, radix, lo = self.strides[k], self.radices[k], self.lows[k]
            # code % (stride * radix) is digit k times its stride plus the
            # less significant digits
            first, last = -delta - lo, limit - delta - lo  # allowed digits
            out.append((stride * radix, max(first, 0) * stride,
                        min(last + 1, radix) * stride))
        return out

    def move(self, coords, delta) -> int:
        return delta * sum(self.strides[k] for k in coords)

    def decode(self, codes) -> list:
        strides = np.array(self.strides, dtype=self.dtype)
        radices = np.array(self.radices, dtype=self.dtype)
        digits = codes[:, None] // strides % radices + self.lows
        return list(map(tuple, digits.tolist()))


@dataclass(eq=False)
class ValueTable:
    """Expected-future-welfare table of one sub-problem.

    Level ``i`` holds the states reachable just before the ``i``-th arrival
    (the last level is the post-horizon point): ``codes[i]`` ascending,
    ``values[i]`` their optimal expected (shifted) welfare from that arrival
    on and, below the last level, ``thresholds[i]`` their price on shifted
    values (``inf`` where the arrival cannot be picked).
    ``positions[i]`` is the level's global arrival index.  ``entries`` maps
    ``(level, state)`` to the value, built on first access; a missing key is
    the infeasible sentinel.
    """

    scope: str
    positions: tuple
    coding: StateCoding
    codes: list
    values: list
    thresholds: list
    shift: float = 0.0

    @property
    def num_levels(self) -> int:
        return len(self.positions)

    @cached_property
    def _last_states(self) -> list:
        return self.coding.decode(self.codes[-1])

    def tagged_states(self, tags):
        """``(tags[lvl], state)`` over levels ``len(tags) - 1`` down to 0,
        each level's states ascending: the order of ``np.concatenate`` over
        the levels' arrays reversed.  Levels are nested (a skip keeps the
        state), so every state is decoded once, from the last level."""
        levels = range(len(tags) - 1, -1, -1)
        at = self.codes[-1].searchsorted(
            np.concatenate([self.codes[lvl] for lvl in levels]))
        last = self._last_states
        tagged = chain.from_iterable(repeat(tags[lvl], len(self.codes[lvl]))
                                     for lvl in levels)
        return zip(tagged, [last[j] for j in at.tolist()])

    @cached_property
    def entries(self) -> dict:
        values = np.concatenate(self.values[::-1]).tolist()
        return dict(zip(self.tagged_states(range(self.num_levels)), values))

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


# Product of the radices (a bound on every level's width) up to which the
# levels are swept as Python lists.  Below it numpy's fixed cost per call
# exceeds the work: a level of about 40 states costs the same either way.
SMALL_CODES = 64


def backward(dyn, dists, shift: float = 0.0, *,
             state_cap=DEFAULT_STATE_CAP) -> ValueTable:
    """Backward induction over the reachable states of ``dyn``, every
    value shifted by ``shift``; raises ``SizingError`` where
    ``model.reachable_profile`` would."""
    coding = StateCoding(dyn)
    sweep = _sweep_lists if coding.size <= SMALL_CODES else _sweep_arrays
    codes, values, thresholds = sweep(dyn, dists, shift, coding, state_cap)
    return ValueTable(scope=dyn.key,
                      positions=tuple(dyn.elements) + (len(dyn.elements),),
                      coding=coding, codes=codes, values=values,
                      thresholds=thresholds, shift=shift)


def _sweep_arrays(dyn, dists, shift, coding, state_cap):
    cur = np.array([coding.encode(dyn.initial)], dtype=coding.dtype)
    codes, moves = [cur], []
    for e in dyn.elements:
        coords, delta, limits = dyn.step(e)
        ok = np.ones(len(cur), dtype=bool)
        for m, low, high in coding.windows(coords, delta, limits):
            rem = cur % m if m < coding.size else cur
            if low > 0:
                ok &= rem >= low
            if high < m:
                ok &= rem < high
        picked = cur[ok] + coding.move(coords, delta)
        # both runs are sorted, so a stable sort merges them
        both = np.concatenate((cur, picked))
        both.sort(kind="stable")
        nxt = both[np.concatenate(([True], both[1:] != both[:-1]))]
        # levels are nested, so the last one holds every state seen so far
        if len(nxt) > state_cap:
            raise SizingError(dyn.key, len(nxt), state_cap)
        moves.append((ok, nxt.searchsorted(cur), nxt.searchsorted(picked)))
        codes.append(nxt)
        cur = nxt
    n = len(dyn.elements)
    values = [None] * n + [np.zeros(len(cur))]
    thresholds = [None] * n
    for i in range(n - 1, -1, -1):
        ok, stay_at, pick_at = moves[i]
        val = values[i + 1][stay_at]
        stay = val[ok]
        cont = values[i + 1][pick_at]
        tau = stay - cont
        ev = 0.0
        for v, p in dists[dyn.elements[i]].atoms:
            x = v - shift
            ev += p * np.where(x >= tau, x + cont, stay)
        val[ok] = ev
        thr = np.full(len(val), math.inf)
        thr[ok] = tau
        values[i] = val
        thresholds[i] = thr
    return codes, values, thresholds


def _sweep_lists(dyn, dists, shift, coding, state_cap):
    """``_sweep_arrays`` one state at a time: the same levels, positions
    and sums in the same order."""
    cur = [coding.encode(dyn.initial)]
    codes, moves = [cur], []
    for e in dyn.elements:
        coords, delta, limits = dyn.step(e)
        windows = coding.windows(coords, delta, limits)
        move = coding.move(coords, delta)
        picks = [c + move
                 if all(low <= c % m < high for m, low, high in windows)
                 else None for c in cur]
        nxt = sorted(set(cur).union(c for c in picks if c is not None))
        if len(nxt) > state_cap:
            raise SizingError(dyn.key, len(nxt), state_cap)
        at = {c: j for j, c in enumerate(nxt)}
        moves.append([(at[c], None if c2 is None else at[c2])
                      for c, c2 in zip(cur, picks)])
        codes.append(nxt)
        cur = nxt
    n = len(dyn.elements)
    values = [None] * n + [[0.0] * len(cur)]
    thresholds = [None] * n
    for i in range(n - 1, -1, -1):
        atoms = [(v - shift, p) for v, p in dists[dyn.elements[i]].atoms]
        after = values[i + 1]
        val, thr = [], []
        for a, b in moves[i]:
            stay = after[a]
            if b is None:
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
        values[i] = val
        thresholds[i] = thr
    return ([np.array(c, dtype=coding.dtype) for c in codes],
            [np.array(v) for v in values],
            [np.array(t) for t in thresholds])


def solve_full_dp(inst: LaminarInstance, *,
                  state_cap=DEFAULT_STATE_CAP) -> tuple[ValueTable, PricingPolicy]:
    """Backward induction over the full remaining-capacity state space.

    Returns the value table and the extracted pricing policy (accept at
    equality).  States where the arriving element cannot be picked quote an
    infinite price.  The policy's rules are decoded from the table's
    thresholds the first time they are read.
    """
    dyn = BinSubproblem(inst, 0)
    table = backward(dyn, inst.dists, state_cap=state_cap)

    def rules():
        thr = np.concatenate(table.thresholds[::-1])
        bias = (thr < math.inf) * 1.0
        return dict(zip(table.tagged_states(dyn.elements),
                        zip(thr.tolist(), bias.tolist())))

    return table, PricingPolicy(scope=dyn.key, rules=rules)


def solve_subproblem_dp(p: ProductionInstance, type_index: int,
                        shift: float = 0.0, *,
                        state_cap=DEFAULT_STATE_CAP) -> ValueTable:
    """Chain DP for one type with all values shifted by ``shift``.

    The skip option keeps values non-increasing over time; a buyer whose
    day cap is exhausted (checkpoint guard) is passed over unchanged.
    """
    return backward(TypeSubproblem(p, type_index), p.dists, shift,
                    state_cap=state_cap)


def concavity_check(table: ValueTable, tol: float = 1e-9):
    """Check ``D(s) + D(s+2) <= 2 D(s+1) + tol`` at every level of a chain table.

    Returns ``(ok, worst)`` where ``worst`` is ``(position, sold, gap)`` for
    the largest violation, or ``None`` when every triple passes.
    """
    worst = None
    worst_gap = tol
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
