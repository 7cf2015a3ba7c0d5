"""Linear programs over policy state/allocation variables, and their solver.

One body builds every relaxation from ``model.small_units`` and
``model.large_rows``: a point-wise block per small unit, and an expectation
row, at a capacity scale, per large capacity.  Three builders call it:

* ``build_lp_hierarchy`` -- one block per maximal small bin of a marking
  (and per element under no small bin) plus a row per large bin.
* ``build_lp_optimal``   -- the exact program of the optimal online policy:
  the hierarchy at the marking with no large bin, one block over the full
  remaining-capacity state space.
* ``build_lp_exante``    -- per-type chain blocks under one expected
  shipping row, which sums every buyer's marginals as a large bin's row
  sums its elements'.

Each block tracks state probabilities ``Y(t,state)`` over the reachable
states and conditional allocations ``X(t,state,atom)`` with ``X <= Y``
rows, per-arrival state update equalities, and marginal allocation
variables ``X(t,atom)`` carrying the objective.  Where an arrival cannot
be picked in a state (an over-pick), its ``X(t,state,atom)`` enter only
their marginal rows and their ``X <= Y`` rows, which take no ``Y`` and so
read ``X <= 0`` (``notes/decisions.md``).  State tracking extends one
step past the block's last arrival, the level the rounding replay
compares.

Everything is integer-indexed from build to extraction.  The blocks are
emitted as arrays over the positions of their ``model.StateLevels``
(``_emit_blocks``): no state tuple is formed.  A block's variables are
contiguous runs whose first indices its ``BlockInfo`` holds: ``y[lvl]``
(the level's states), ``xc[lvl]`` (state major, atom minor) and
``xm[lvl]`` (one per atom).  ``LpModel`` stores its rows once, as
compressed arrays with columns ascending within a row, and a solution is
an array ``x`` over the variable indices.  Variable names and state tuples
are produced only on request -- ``to_text``, ``LpModel.names``/``index``,
``LpSolution.assignment`` and ``BlockInfo.levels``.

Solver: the blocks' DP point, returned once ``certify`` proves it optimal
(engine ``"certificate"``); a point it rejects is an ``LpError``.  The
point is the units' threshold policies where no large row (shipping,
large bin) can bind, since its units' most picks fit under it; else the
mixture of the dual over the units' DPs (``dp.relax``), which attains the
relaxation; it is scattered through the emitter's layout in one pass.

Text interchange format (``LpModel.to_text``), one token per name, all
variables non-negative::

    maximize
      + <coef> <var> ...
    subject to
      <name> : + <coef> <var> ... <=|= <rhs>
    bounds
      0 <= <var> <= inf
    end
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, chain

import numpy as np

from . import dp
from .model import (
    DEFAULT_STATE_CAP,
    LaminarInstance,
    Marking,
    ProductionInstance,
    InstanceError,
    LpError,
    StateLevels,
    bind_dynamics,
    large_rows,
    marking_violations,
    small_units,
    state_levels,
)

# a DP point is accepted at this primal residual, and at CERT_TOL dual
# residual and gap, relative to 1 + max |dual| and 1 + |objective|: the
# duals are value functions, as large as the welfare, so their round-off
# scales with it
CERT_PRIMAL_TOL = 1e-7
CERT_TOL = 1e-9
# check_solution reports a row residual above CHECK_ROW_TOL and a variable
# below -CHECK_BOUND_TOL
CHECK_ROW_TOL = 1e-7
CHECK_BOUND_TOL = 1e-9


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------


class LpModel:
    """Sparse maximize-form LP over non-negative variables ``0..num_vars-1``.

    Row ``i`` holds the entries ``cols[ptr[i]:ptr[i+1]]`` with coefficients
    ``coefs[ptr[i]:ptr[i+1]]``, columns strictly ascending; ``le_rows()``
    marks its ``<=`` rows (the others are ``=``) and ``rhs`` holds the
    right-hand sides.  All five are arrays, joined from the appended rows
    the first time one is read, as are ``coo``'s row ids.  ``objective``
    maps a column to its coefficient in the order the terms were added,
    which is the order the objective value is summed in.  ``_build`` sets
    ``dp_point``, computing the blocks' DP point ``(x, u)``, and
    ``coupled``, whether some large row can bind: whether the most picks
    its units can make exceed its capacity.
    """

    def __init__(self):
        self.num_vars = 0
        self.num_rows = 0
        self.objective: dict[int, float] = {}
        self._ptr = np.zeros(1, dtype=np.intp)
        self._cols = np.zeros(0, dtype=np.intp)
        self._coefs = np.zeros(0)
        self._le = np.zeros(0, dtype=bool)
        self._rhs = np.zeros(0)
        self._parts: list = []  # appended (lengths, cols, coefs, le, rhs)
        self._namers: list = []  # (count, namer(k) -> name of the k-th)
        self._names: list[str] | None = None
        self._index: dict[str, int] | None = None
        self._row_ids = np.zeros(0, dtype=np.intp)
        self.dp_point = None
        self.coupled = True

    # -- integer interface ----------------------------------------------

    def add_vars(self, count: int, namer) -> int:
        """Append ``count`` variables; returns the first index.  ``namer(k)``
        names the k-th of them when names are asked for."""
        start = self.num_vars
        self.num_vars += count
        self._namers.append((count, namer))
        self._names = self._index = None
        return start

    def add_objective_term(self, j: int, coef: float):
        self.objective[j] = self.objective.get(j, 0.0) + coef

    def append_rows(self, lengths, cols, coefs, le, rhs):
        """Append ``len(lengths)`` rows: row ``k`` takes the next
        ``lengths[k]`` of ``cols`` (strictly ascending) and ``coefs``, is
        ``<=`` where ``le[k]`` and ``=`` elsewhere, and has right-hand side
        ``rhs[k]``."""
        self._parts.append((lengths, cols, coefs, le, rhs))
        self.num_rows += len(lengths)

    def append_row(self, cols, coefs, rel: str, rhs):
        """Append a row whose ``cols`` are already strictly ascending."""
        if rel not in ("<=", "="):
            raise ValueError(f"unsupported relation {rel!r}")
        self.append_rows([len(cols)], cols, coefs, [rel == "<="], [rhs])

    def _joined(self):
        if self._parts:
            lengths, cols, coefs, le, rhs = zip(*self._parts)
            self._parts = []
            ends = self._ptr[-1] + np.cumsum(np.concatenate(lengths),
                                             dtype=np.intp)
            ptr = self._ptr = np.concatenate((self._ptr, ends))
            self._row_ids = np.repeat(np.arange(self.num_rows), np.diff(ptr))
            self._cols = _extended(self._cols, cols, np.intp)
            self._coefs = _extended(self._coefs, coefs, float)
            self._le = _extended(self._le, le, bool)
            self._rhs = _extended(self._rhs, rhs, float)
        return self

    @property
    def ptr(self) -> np.ndarray:
        return self._joined()._ptr

    @property
    def cols(self) -> np.ndarray:
        return self._joined()._cols

    @property
    def coefs(self) -> np.ndarray:
        return self._joined()._coefs

    @property
    def rhs(self) -> np.ndarray:
        return self._joined()._rhs

    def le_rows(self) -> np.ndarray:
        """Mask of the ``<=`` rows."""
        return self._joined()._le

    def coo(self):
        """Row ids, columns and coefficients of every entry, as arrays."""
        return self._joined()._row_ids, self._cols, self._coefs

    def objective_value(self, x) -> float:
        xs = x.tolist()
        return sum(coef * xs[j] for j, coef in self.objective.items())

    # -- names, generated on request --------------------------------------

    @property
    def names(self) -> list[str]:
        if self._names is None:
            self._names = [namer(k) for count, namer in self._namers
                           for k in range(count)]
        return self._names

    @property
    def index(self) -> dict[str, int]:
        if self._index is None:
            self._index = {name: j for j, name in enumerate(self.names)}
        return self._index

    @property
    def rows(self) -> list:
        """Rows as ``([(col, coef), ...], rel, rhs)`` tuples, built on request."""
        p = self.ptr.tolist()
        cols, coefs = self.cols.tolist(), self.coefs.tolist()
        return [(list(zip(cols[p[i]:p[i + 1]], coefs[p[i]:p[i + 1]])),
                 "<=" if le else "=", rhs)
                for i, (le, rhs) in enumerate(zip(self.le_rows().tolist(),
                                                  self.rhs.tolist()))]

    def to_text(self) -> str:
        names = self.names
        out = ["maximize"]
        terms = []
        for idx in sorted(self.objective):
            terms.append(f"{'+' if self.objective[idx] >= 0 else '-'} "
                         f"{abs(self.objective[idx])!r} {names[idx]}")
        out.append("  " + " ".join(terms) if terms else "  + 0.0")
        out.append("subject to")
        for i, (coeffs, rel, rhs) in enumerate(self.rows):
            terms = [f"{'+' if c >= 0 else '-'} {abs(c)!r} {names[j]}"
                     for j, c in coeffs]
            out.append(f"  c{i} : " + " ".join(terms) + f" {rel} {rhs!r}")
        out.append("bounds")
        for name in names:
            out.append(f"  0 <= {name} <= inf")
        out.append("end")
        return "\n".join(out) + "\n"


def _extended(have, parts, dtype) -> np.ndarray:
    """``have`` followed by ``parts``, as one array of ``dtype``; a lone
    part is taken as it is."""
    if len(have):
        parts = (have, *parts)
    joined = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return np.asarray(joined).astype(dtype, copy=False)


@dataclass(eq=False)
class LpSolution:
    """``x`` holds the value of every variable by index when optimal and
    is empty otherwise; ``model`` supplies the names ``assignment``
    reads."""

    status: str  # optimal | infeasible | unbounded
    objective: float | None
    x: np.ndarray
    engine: str
    iterations: int = 0
    model: LpModel | None = field(default=None, repr=False)

    @property
    def assignment(self) -> dict[str, float]:
        if self.model is None or not len(self.x):
            return {}
        return dict(zip(self.model.names, self.x.tolist()))


def check_solution(model: LpModel, sol: LpSolution) -> list[str]:
    """Non-finite values, and row residuals beyond ``CHECK_ROW_TOL`` and
    bound residuals beyond ``CHECK_BOUND_TOL``, as messages."""
    if sol.status != "optimal":
        return [f"status {sol.status}"]
    x = sol.x
    out = []
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        j = int(bad[0])
        out.append(f"{bad.size} variables not finite, first "
                   f"{model.names[j]}: {float(x[j])!r}")
    if (x < -CHECK_BOUND_TOL).any():
        j = int(np.nanargmin(x))
        out.append(f"variable {model.names[j]} below bound: {float(x[j])!r}")
    rows, cols, coefs = model.coo()
    # bincount adds each row's terms in column order, as a loop would
    lhs = np.bincount(rows, weights=coefs * x[cols], minlength=model.num_rows)
    resid = lhs - model.rhs
    le = model.le_rows()
    # written as "not within tolerance" so that a NaN residual is reported
    off = np.where(le, ~(resid <= CHECK_ROW_TOL),
                   ~(np.abs(resid) <= CHECK_ROW_TOL))
    for i in np.flatnonzero(off).tolist():
        what = "violated by" if le[i] else "off by"
        out.append(f"row c{i} {what} {float(resid[i])!r}")
    return out


def certify(model: LpModel, x, u, obj=None) -> tuple[float, float, float]:
    """``(primal residual, dual residual, gap)`` of a point ``x`` and row
    duals ``u``: the largest bound or row violation of ``x``; the largest
    violation of ``A^T u >= c`` or of ``u >= 0`` on a ``<=`` row; and
    ``|c x - b u|``, ``c x`` being ``obj`` where given.  All three zero
    prove ``x`` optimal; a NaN anywhere leaves a residual no tolerance
    accepts."""
    rows, cols, coefs = model.coo()
    b = model.rhs
    le = model.le_rows()
    lhs = np.bincount(rows, weights=coefs * x[cols], minlength=model.num_rows)
    resid = lhs - b
    primal = np.maximum(np.where(le, resid, np.abs(resid)).max(initial=0.0),
                        -x.min(initial=0.0))
    c = np.zeros(model.num_vars)
    c[list(model.objective)] = list(model.objective.values())
    slack = np.bincount(cols, weights=coefs * u[rows],
                        minlength=model.num_vars) - c
    dual = np.maximum(-slack.min(initial=0.0), -u[le].min(initial=0.0))
    obj = model.objective_value(x) if obj is None else obj
    gap = abs(obj - float(b @ u))
    return float(primal), float(dual), gap


def solve(model: LpModel) -> LpSolution:
    """The model's optimal solution: ``trivial`` with no variable, else its
    ``dp_point`` once ``certify`` proves it optimal (engine
    ``certificate``).  Raises ``LpError`` naming the point's primal and
    dual residuals and gap where they exceed the tolerances, or naming the
    missing point on a model with none."""
    if model.num_vars == 0:
        return LpSolution("optimal", 0.0, np.zeros(0), "trivial", 0, model)
    if not model.dp_point:
        raise LpError("no DP point to certify")
    x, u = model.dp_point()
    obj = model.objective_value(x)
    primal, dual, gap = certify(model, x, u, obj)
    if not (primal <= CERT_PRIMAL_TOL
            and dual <= CERT_TOL * (1.0 + np.abs(u).max(initial=0.0))
            and gap <= CERT_TOL * (1.0 + abs(obj))):
        raise LpError(f"DP point not certified: primal residual {primal!r}, "
                      f"dual residual {dual!r}, gap {gap!r}")
    return LpSolution("optimal", obj, x, "certificate", 0, model)


def solve_optimal(model: LpModel) -> LpSolution:
    """``solve``, under the name the benchmark calls."""
    return solve(model)


# ---------------------------------------------------------------------------
# Variable naming, for the text format and name lookups
# ---------------------------------------------------------------------------


def fmt_state(state) -> str:
    return "(" + ",".join(str(int(x)) for x in state) + ")"


def y_name(key, t, state) -> str:
    return f"Y[{key}]({t},{fmt_state(state)})"


def xc_name(key, t, state, atom) -> str:
    return f"X[{key}]({t},{fmt_state(state)},{atom})"


def xm_name(t, atom) -> str:
    return f"X({t},{atom})"


END = "end"


# ---------------------------------------------------------------------------
# Block emission
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BlockInfo:
    """One block's state levels ``states`` (a ``model.StateLevels``) and
    the first index of each of its runs of variables: ``y[lvl]`` for levels
    ``0..L``, ``xc[lvl]`` and ``xm[lvl]`` for the arrivals ``0..L-1``; and
    of its rows: ``init_row``, and per arrival ``rows[lvl]``, the first of
    its marginal rows (per atom), ``X <= Y`` rows (as ``xc``) and update
    rows (per state of level ``lvl+1``).  ``levels`` is the levels' tuple
    view, decoded the first time it is read; ``forbidden``, the states an
    over-pick would reach, has no variables and is read only by the
    bench."""

    key: str
    dyn: object
    states: StateLevels
    y: list = field(default_factory=list)
    xc: list = field(default_factory=list)
    xm: list = field(default_factory=list)
    init_row: int = 0
    rows: list = field(default_factory=list)

    @cached_property
    def levels(self) -> list:
        return self.states.tuples()

    @cached_property
    def forbidden(self) -> list:
        return self.states.forbidden(self.dyn, self.levels)

    @property
    def elements(self):
        return self.dyn.elements

    def time_label(self, level):
        return self.dyn.elements[level] if level < len(self.dyn.elements) else END


@dataclass
class BuiltLp:
    """An LP plus the per-block state bookkeeping needed downstream."""

    model: LpModel
    instance: object
    blocks: dict = field(default_factory=dict)
    marking: Marking | None = None

    def block(self, key) -> BlockInfo:
        return self.blocks[key]


def _namer(info: BlockInfo, dists):
    """``namer(k)`` of a block's variables: their names, listed in index
    order on the first call."""
    names = []

    def namer(k):
        if not names:
            key = info.key
            for lvl, states in enumerate(info.levels):
                tlab = info.time_label(lvl)
                names.extend(y_name(key, tlab, s) for s in states)
            for states, t in zip(info.levels, info.elements):
                atoms = range(len(dists[t].atoms))
                names.extend(xc_name(key, t, s, a) for s in states
                             for a in atoms)
                names.extend(xm_name(t, a) for a in atoms)
        return names[k]

    return namer


def _flat(runs, count) -> np.ndarray:
    """The levels' tuples or arrays ``runs``, ``count`` entries in all, as
    one array."""
    if all(isinstance(run, tuple) for run in runs):
        return np.fromiter(chain.from_iterable(runs), np.int64, count)
    return np.concatenate(runs)


def _emit_blocks(model: LpModel, dists, blocks: list):
    """Append the blocks' variables and rows to ``model``, block after
    block, and return their layout: ``_block_entries`` makes every entry
    with its row, and one sort by row and column lays the rows out."""
    (rows, cols, coefs, le, rhs), layout = _block_entries(model, dists, blocks)
    key = rows * model.num_vars
    key += cols
    order = key.argsort(kind="stable")
    del key
    model.append_rows(np.bincount(rows, minlength=len(le)), cols[order],
                      coefs[order], le, rhs)
    return layout


def _block_entries(model: LpModel, dists, blocks: list):
    """Add the blocks' variables to ``model`` and lay out their rows, as
    arrays over the positions of their ``StateLevels``: returns each
    entry's row (counted from the first new one), column and coefficient,
    and per row whether it is ``<=`` and its right-hand side; and the
    index arrays ``_dp_point`` scatters through, its ``layout``.

    A state's skip and pick name the update rows that its ``Y`` and its
    picks enter.  Where its pick is -1 (an over-pick) its ``X(t,state,atom)``
    enter only their marginal rows and their ``X <= Y`` rows, which take no
    ``Y`` and so read ``X <= 0``."""
    levels = [info.states for info in blocks]
    reach = [len(c) for lv in levels for c in lv.codes[:-1]]
    after = [len(c) for lv in levels for c in lv.codes[1:]]
    na = [len(dists[t].atoms) for info in blocks for t in info.elements]
    starts = list(accumulate(reach, initial=0))
    skips = _flat([s for lv in levels for s in lv.skips], starts[-1])
    picks = _flat([p for lv in levels for p in lv.picks], starts[-1])
    ncap = [w * k for w, k in zip(reach, na)]

    # the layout, block by block: per level its Y, then per arrival its
    # X(t,state,atom) and X(t,atom); the initial row, then per arrival its
    # marginal (per atom), X <= Y and update (per state of the next level)
    # rows
    v = model.num_vars
    r0 = r = model.num_rows
    inits, y_at, y_next, xc_at, xm_at, first_at = [], [], [], [], [], []
    moves, sizes = [], []  # whether a pick moves; the layout's counts
    a = 0
    for info, lv in zip(blocks, levels):
        L = len(lv.skips)
        k, c, u = na[a:a + L], ncap[a:a + L], after[a:a + L]
        y = list(accumulate(reach[a:a + L] + u[-1:], initial=v))
        xc = list(accumulate([x + n for x, n in zip(c, k)], initial=y[-1]))
        xm = [x + n for x, n in zip(xc, c)]
        first = list(accumulate([n + x + w for n, x, w in zip(k, c, u)],
                                initial=r + 1))
        model.add_vars(xc[-1] - v, _namer(info, dists))
        info.y, info.xc, info.xm = y[:-1], xc[:-1], xm
        info.init_row = r
        info.rows = [(q, q + n, q + n + x) for q, n, x in zip(first, k, c)]
        inits.append((r, v))
        y_at += y[:L]
        y_next += y[1:L + 1]
        xc_at += xc[:L]
        xm_at += xm
        first_at += first[:L]
        moves += [d != 0 and coords != ()
                  for coords, d, _ in map(info.dyn.step, info.elements)]
        sizes.append((sum(reach[a:a + L]), sum(u), sum(k)))
        v, r = xc[-1], first[-1]
        a += L
    # X(t,state,atom), X(t,atom) and update rows before each arrival
    cat = list(accumulate(ncap, initial=0))
    aat = list(accumulate(na, initial=0))
    uat = list(accumulate(after, initial=0))
    upd0 = [q + n + x for q, n, x in zip(first_at, na, ncap)]
    per = np.array([
        # per state (0-1): its Y (less its index) and the arrival's first
        # update row
        (y - s, u,
         # per X(t,state,atom) (2-8): X <= Y row and column (less their
         # index), atoms, the arrival's first state and X(t,state,atom)
         # and its marginal rows and probabilities
         q + m - c0, x - c0, m, s, c0, q, a0,
         # per X(t,atom) (9-10), per update row (11-12): column less
         # index, row less column
         xm - a0, q - xm, yn - u0, u - yn)
        for y, s, u, yn, q, m, x, c0, a0, xm, u0 in zip(
            y_at, starts, upd0, y_next, first_at, na, xc_at, cat, aat,
            xm_at, uat)], dtype=np.int64)

    # per state: its Y and the update rows of its skip and its pick
    by_state = per[:, :2].repeat(reach, axis=0)
    ycol = by_state[:, 0] + np.arange(starts[-1])
    skip_row = by_state[:, 1] + skips
    pick_row = by_state[:, 1] + picks

    # per X(t,state,atom): its X <= Y row, its column, its state, its
    # marginal row and its atom's probability
    by_x = per[:, 2:9].repeat(ncap, axis=0)
    at = np.arange(cat[-1])
    cap_row = by_x[:, 0] + at
    xcol = by_x[:, 1] + at
    state, atom = np.divmod(at - by_x[:, 4], by_x[:, 2])
    state += by_x[:, 3]
    marg_row = by_x[:, 5] + atom
    gatom = by_x[:, 6] + atom
    atoms = np.array([a for info in blocks for t in info.elements
                      for a in dists[t].atoms]).T
    prob = atoms[1][gatom]
    # the picks a state can make: each leaves it (+p) and arrives from its
    # source (-p); an arrival that moves no coordinate picks into the state
    # it leaves, so there the two fall on the same variables and cancel to 0
    held = (picks[state] >= 0).nonzero()[0]
    moving = np.array(moves).repeat(ncap)[held]
    come = held[moving]

    # each X(t,atom) ends its marginal row; each update row carries +Y of
    # its target state
    by_atom = per[:, 9:11].repeat(na, axis=0)
    xm_col = by_atom[:, 0] + np.arange(aat[-1])
    by_upd = per[:, 11:13].repeat(after, axis=0)
    there = by_upd[:, 0] + np.arange(uat[-1])

    atom_row = by_atom[:, 1] + xm_col
    upd_row = there + by_upd[:, 1]
    rows = [[r for r, _ in inits], marg_row, atom_row, cap_row[held],
            cap_row, upd_row, skip_row]
    cols = [[v for _, v in inits], xcol, xm_col, ycol[state[held]], xcol,
            there, ycol]
    signs = [1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0]
    coefs = [np.array(signs).repeat([len(c) for c in cols]),
             prob[held] * moving, -prob[come]]
    rows += [skip_row[state[held]], pick_row[state[come]]]
    cols += [xcol[held], xcol[come]]
    rows = np.concatenate(rows)
    rows -= r0
    le = np.zeros(r - r0, dtype=bool)
    le[cap_row - r0] = True
    rhs = np.zeros(r - r0)
    rhs[rows[:len(inits)]] = 1.0
    return (rows, np.concatenate(cols), np.concatenate(coefs), le, rhs), (
        ycol, xcol, cap_row, state, atom, gatom, xm_col, atom_row, there,
        upd_row, atoms, np.array(sizes).T)


def _dp_point(num_vars, num_rows, inst, state_cap, blocks, rows, scale,
              layout):
    """``(x, u)``: each block's policy run forward (``Y``, the accepted
    mass ``X(t,state,atom)`` and ``X(t,atom)`` their sums) and its duals
    (``V`` on the initial and update rows, ``p*(v - s)`` on the marginal
    rows and ``p*max(v - s - tau, 0)`` on the ``X <= Y`` rows, ``tau`` read
    as 0 on an over-pick's), scattered through the emitter's ``layout``.
    With no ``rows`` the policies are the units' threshold policies at
    shift ``s = 0``; else ``dp.relax``'s mixture over ``rows`` at
    ``scale``, the model's last rows, each taking its multiplier: a unit's
    tie-accepting policy at weight ``theta``, its tie-rejecting one at
    ``1 - theta``.  Given no model, ``dp_point`` makes no reference cycle."""
    (ycol, xcol, cap_row, state, atom, gatom, xm_col, atom_row, there,
     upd_row, (atom_values, probs), (reach, after, widths)) = layout
    dists = inst.dists
    u = np.zeros(num_rows)
    units = [dp.unit_table(inst, key, state_cap=state_cap) for key in blocks]

    def flat(passes, lo, hi):
        return np.concatenate([y for _, occupancy, _ in passes
                               for y in occupancy[lo:hi]])

    if rows:
        levels = [table.levels for table in units]
        relaxed = dp.relax(dists, levels, rows, scale,
                           *dp.zero_sweeps(dists, levels))
        u[num_rows - len(rows):] = relaxed.multipliers
        sweeps = relaxed.sweeps
        v = atom_values - np.repeat(relaxed.shifts, widths)
        decided, passes = dp.mixture(dists, levels, relaxed)
        n, theta = len(units), np.array(relaxed.thetas)
        (ya, la), (yb, lb) = [
            (np.repeat(w, reach) * flat(half, 0, -1),
             np.repeat(w, after) * flat(half, 1, None))
            for w, half in ((theta, passes[:n]), (1.0 - theta, passes[n:]))]
        y, last, bias = ya + yb, la + lb, decided.bias
        xc = (ya[state] * bias[atom, state]
              + yb[state] * bias[atom, state + len(y)])
    else:
        sweeps = [(table.values, table.thresholds, None) for table in units]
        decided, passes = dp.forward_all(
            list(map(dp.threshold_policy, units)), dists)
        v, y, last = atom_values, flat(passes, 0, -1), flat(passes, 1, None)
        xc = y[state] * decided.bias[atom, state]
    thr = np.concatenate([t for _, taus, _ in sweeps for t in taus])
    x = np.zeros(num_vars)
    x[ycol], x[there], x[xcol] = y, last, xc
    # bincount adds each atom's terms in state order, as a sum over the
    # states does, and none is -0.0
    x[xm_col] = np.bincount(gatom, xc, len(v))
    u[[info.init_row for info in blocks.values()]] = [
        values[0][0] for values, _, _ in sweeps]
    u[atom_row] = probs * v
    # an over-pick's threshold is infinite, and its X <= 0 row takes
    # p*max(v - s, 0)
    u[cap_row] = probs[gatom] * np.maximum(
        v[gatom] - np.where(thr < np.inf, thr, 0.0)[state], 0.0)
    u[upd_row] = np.concatenate([level for values, _, _ in sweeps
                                 for level in values[1:]])
    return x, u


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _most_picks(lv: StateLevels) -> int:
    """The most picks a unit can make: the span of its first coordinate,
    which each pick moves one way by 1, over its last level (a chain's
    largest sold count, a small bin's drop in its own remaining capacity);
    1 for a lone element, which has no coordinate."""
    if not lv.coding.strides:
        return 1
    codes, stride = lv.codes[-1], lv.coding.strides[0]
    return int(codes[-1] // stride - codes[0] // stride)


def _build(inst, mk: Marking | None, capacity_scale: float,
           state_cap) -> BuiltLp:
    """The relaxation of ``inst`` under ``mk``: a point-wise block per unit
    of ``small_units``, then each of ``large_rows`` held in expectation at
    ``capacity_scale`` times its cap, a row summing its elements'
    marginals at their probabilities.  A block takes its unit's levels
    from the instance's store, as its DP does."""
    if not (0.0 < capacity_scale <= 1.0):
        raise ValueError("capacity_scale must be in (0, 1]")
    dists = inst.dists
    model = LpModel()
    blocks = {}
    for key in small_units(inst, mk):
        dyn = bind_dynamics(key, inst)
        blocks[key] = BlockInfo(key, dyn, state_levels(dyn, state_cap))
    layout = _emit_blocks(model, dists, list(blocks.values()))
    xm = {t: info.xm[lvl] for info in blocks.values()
          for lvl, t in enumerate(info.elements)}
    unit = {t: key for key, info in blocks.items() for t in info.elements}
    model.coupled = False
    rows = large_rows(inst, mk)
    for _, elements, cap in rows:
        # a row's elements may sit in different blocks: order by column
        terms = sorted((xm[t] + a, pa) for t in elements
                       for a, pa in enumerate(dists[t].probs))
        model.append_row([i for i, _ in terms], [pa for _, pa in terms],
                         "<=", capacity_scale * cap)
        # an expected count never exceeds the most picks: a row its units
        # cannot fill never binds
        most = sum(_most_picks(blocks[key].states)
                   for key in {unit[t] for t in elements})
        model.coupled |= most > capacity_scale * cap
    for t, dist in enumerate(dists):
        for a, (v, pa) in enumerate(dist.atoms):
            model.add_objective_term(xm[t] + a, pa * v)
    model.dp_point = partial(_dp_point, model.num_vars, model.num_rows,
                             inst, state_cap, blocks,
                             rows if model.coupled else (), capacity_scale,
                             layout)
    return BuiltLp(model=model, instance=inst, blocks=blocks, marking=mk)


def build_lp_optimal(inst: LaminarInstance, *,
                     state_cap=DEFAULT_STATE_CAP) -> BuiltLp:
    """Exact LP of the optimal online policy: the relaxation with no large
    bin, one point-wise block over the full remaining-capacity state space."""
    return _build(inst, Marking(), 1.0, state_cap)


def build_lp_exante(p: ProductionInstance, capacity_scale: float = 1.0, *,
                    state_cap=DEFAULT_STATE_CAP) -> BuiltLp:
    """Per-type point-wise blocks with the shipping capacity in expectation."""
    return _build(p, None, capacity_scale, state_cap)


def build_lp_hierarchy(inst: LaminarInstance, mk: Marking,
                       capacity_scale: float = 1.0, *,
                       state_cap=DEFAULT_STATE_CAP) -> BuiltLp:
    """Marking-parametrized relaxation: point-wise inside each maximal
    small bin of ``model.small_bins``, expected capacity (scaled) for each
    large bin."""
    errs = marking_violations(inst, mk)
    if errs:
        raise InstanceError(errs)
    return _build(inst, mk, capacity_scale, state_cap)
