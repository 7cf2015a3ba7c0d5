"""Linear programs over policy state/allocation variables, and solvers.

One body builds every relaxation from ``model.small_units`` and
``model.large_rows``: a point-wise block per small unit, and an expectation
row, at a capacity scale, per large capacity.  Three builders call it:

* ``build_lp_hierarchy`` -- one block per maximal small bin of a marking
  (and per element under no small bin) plus a row per large bin.
* ``build_lp_optimal``   -- the exact program of the optimal online policy:
  the hierarchy at the marking with no large bin, one block over the full
  remaining-capacity state space.
* ``build_lp_exante``    -- per-type chain blocks coupled through expected
  served counts ``N(j)`` and an expected shipping capacity.

Each block tracks state probabilities ``Y(t,state)`` and conditional
allocations ``X(t,state,atom)`` with ``X <= Y`` rows, per-arrival state
update equalities, pinned-to-zero forbidden states, and marginal allocation
variables ``X(t,atom)`` carrying the objective.  State tracking extends one
step past the block's last arrival so that an over-acceptance at the final
step is pinned like any other.

Everything is integer-indexed from build to extraction.  A block's
variables are contiguous runs whose first indices its ``BlockInfo`` holds:
``y[lvl]`` (the level's reachable states, then its forbidden ones),
``xc[lvl]`` (reachable state major, atom minor) and ``xm[lvl]`` (one per
atom).  ``LpModel`` stores its rows once, in compressed form with columns
ascending within a row, and a solution is an array ``x`` over the variable
indices.  Variable names are produced only on request -- ``to_text``,
``LpModel.names``/``index`` and ``LpSolution.value``/``assignment`` -- from
a namer each run of variables registers.

Solvers: an in-repo dense-tableau two-phase primal simplex with Bland's
anti-cycling rule (deterministic, used at desk scale) and, for models past
a size threshold, the blocks' DP point when ``certify`` proves it optimal
(engine ``"certificate"``), else a scipy/HiGHS bridge.  The DP point holds
every coupling row (``N(j)``, shipping, large bins) at multiplier 0, so a
binding row goes to HiGHS; ``notes/decisions.md`` derives its dual.
``solve`` picks by model size unless an engine is forced.

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
from functools import partial

import numpy as np

from . import dp
from .model import (
    DEFAULT_STATE_CAP,
    LaminarInstance,
    Marking,
    ProductionInstance,
    InstanceError,
    bind_dynamics,
    large_rows,
    marking_violations,
    reachable_profile,
    small_units,
)

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_CAP = 10 ** 6
DENSE_CELL_LIMIT = 60_000
# a DP point is accepted at this primal residual, and at CERT_TOL dual
# residual and gap (relative to 1 + |objective|)
CERT_PRIMAL_TOL = 1e-7
CERT_TOL = 1e-9
# check_solution reports a row residual above CHECK_ROW_TOL and a variable
# below -CHECK_BOUND_TOL
CHECK_ROW_TOL = 1e-7
CHECK_BOUND_TOL = 1e-9


class LpError(RuntimeError):
    """Solver failure: iteration cap, tolerance blow-up, or engine error."""


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------


class LpModel:
    """Sparse maximize-form LP over non-negative variables ``0..num_vars-1``.

    Row ``i`` holds the entries ``cols[ptr[i]:ptr[i+1]]`` with coefficients
    ``coefs[ptr[i]:ptr[i+1]]``, columns strictly ascending.  ``objective``
    maps a column to its coefficient in the order the terms were added,
    which is the order the objective value is summed in.  ``dp_point``,
    set by the builders, computes the blocks' DP point ``(x, u)`` on
    request.
    """

    def __init__(self):
        self.num_vars = 0
        self.objective: dict[int, float] = {}
        self.ptr: list[int] = [0]
        self.cols: list[int] = []
        self.coefs: list[float] = []
        self.rels: list[str] = []
        self.rhs: list = []
        self._namers: list = []  # (count, namer(k) -> name of the k-th)
        self._names: list[str] | None = None
        self._index: dict[str, int] | None = None
        self.dp_point = None

    @property
    def num_rows(self) -> int:
        return len(self.rels)

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

    def append_row(self, cols, coefs, rel: str, rhs):
        """Append a row whose ``cols`` are already strictly ascending."""
        if rel not in ("<=", "="):
            raise ValueError(f"unsupported relation {rel!r}")
        self.cols.extend(cols)
        self.coefs.extend(coefs)
        self.ptr.append(len(self.cols))
        self.rels.append(rel)
        self.rhs.append(rhs)

    def coo(self):
        """Row ids, columns and coefficients of every entry, as arrays."""
        rows = np.repeat(np.arange(self.num_rows), np.diff(self.ptr))
        return (rows, np.array(self.cols, dtype=np.intp),
                np.array(self.coefs, dtype=float))

    def le_rows(self) -> np.ndarray:
        """Mask of the ``<=`` rows."""
        return np.array([rel == "<=" for rel in self.rels], dtype=bool)

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
        p = self.ptr
        return [(list(zip(self.cols[p[i]:p[i + 1]], self.coefs[p[i]:p[i + 1]])),
                 self.rels[i], self.rhs[i]) for i in range(self.num_rows)]

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


@dataclass(eq=False)
class LpSolution:
    """``x`` holds the value of every variable by index when optimal and
    is empty otherwise; ``model`` supplies the names ``value`` and
    ``assignment`` look up."""

    status: str  # optimal | infeasible | unbounded
    objective: float | None
    x: np.ndarray
    engine: str
    iterations: int = 0
    model: LpModel | None = field(default=None, repr=False)

    def value(self, name: str, default: float = 0.0) -> float:
        j = self.model.index.get(name) if self.model is not None else None
        return default if j is None or j >= len(self.x) else float(self.x[j])

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
    resid = lhs - np.array(model.rhs, dtype=float)
    le = model.le_rows()
    # written as "not within tolerance" so that a NaN residual is reported
    off = np.where(le, ~(resid <= CHECK_ROW_TOL),
                   ~(np.abs(resid) <= CHECK_ROW_TOL))
    for i in np.flatnonzero(off).tolist():
        what = "violated by" if le[i] else "off by"
        out.append(f"row c{i} {what} {float(resid[i])!r}")
    return out


def certify(model: LpModel, x, u) -> tuple[float, float, float]:
    """``(primal residual, dual residual, gap)`` of a point ``x`` and row
    duals ``u``: the largest bound or row violation of ``x``; the largest
    violation of ``A^T u >= c`` or of ``u >= 0`` on a ``<=`` row; and
    ``|c x - b u|``.  All three zero prove ``x`` optimal.  A NaN anywhere
    makes its residual NaN, which no tolerance accepts."""
    rows, cols, coefs = model.coo()
    b = np.array(model.rhs, dtype=float)
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
    gap = abs(model.objective_value(x) - float(b @ u))
    return float(primal), float(dual), gap


# ---------------------------------------------------------------------------
# Dense tableau simplex (Bland's rule, two phases)
# ---------------------------------------------------------------------------


def _pivot(T, basis, row, col):
    """Make ``col`` basic in ``row``: one rank-1 update over every row of
    the tableau, objective rows included."""
    r = T[row]
    r /= r[col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= f[:, None] * r
    basis[row] = col


def _run_phase(T, basis, obj, pivots):
    """Bland pivots on objective row ``obj`` over every variable column.

    The constraint rows are ``T[:-2]``; entering is the lowest column with
    reduced cost above ``OPT_TOL``, leaving the lowest basic index among
    the minimum-ratio ties.  Returns the status and the pivot count.
    """
    cost, A, rhs = T[obj, :-1], T[:-2], T[:-2, -1]  # views; T changes in place
    while True:
        if pivots >= PIVOT_CAP:
            raise LpError(f"simplex pivot cap {PIVOT_CAP} exceeded")
        improving = cost > OPT_TOL
        enter = improving.argmax()
        if not improving[enter]:
            return "optimal", pivots
        col = A[:, enter]
        rows = (col > FEAS_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded", pivots
        ratios = rhs[rows] / col[rows]
        best = float(ratios.min())
        ties = rows[ratios <= best + FEAS_TOL * (1.0 + abs(best))]
        leave = ties[0] if ties.size == 1 else ties[basis[ties].argmin()]
        _pivot(T, basis, leave, enter)
        pivots += 1


def _solve_dense(model: LpModel) -> LpSolution:
    nv = model.num_vars
    m = model.num_rows
    rows, cols, coefs = model.coo()
    le = model.le_rows()
    slack_rows = np.flatnonzero(le)
    art_start = nv + slack_rows.size
    b = np.array(model.rhs, dtype=float)
    # sign-normalize so b >= 0; flipped <= rows lose their natural basis slot
    flip = b < 0
    art_rows = np.flatnonzero(~le | flip)
    # rows 0..m-1 constrain; row -2 is the phase-1 objective, row -1 the
    # phase-2 one (c_j - z_j convention: entering where > tol).  The
    # artificial variables get basis indices from ``art_start`` on but no
    # columns: they never enter, and nothing reads their entries.
    T = np.zeros((m + 2, art_start + 1))
    T[rows, cols] = coefs
    T[slack_rows, nv + np.arange(slack_rows.size)] = 1.0
    T[:m, -1] = b
    flipped = np.flatnonzero(flip)
    T[flipped, :art_start] *= -1.0
    T[flipped, -1] *= -1.0
    basis = np.empty(m, dtype=np.intp)
    basis[slack_rows] = nv + np.arange(slack_rows.size)
    basis[art_rows] = art_start + np.arange(art_rows.size)
    T[-1, list(model.objective)] = list(model.objective.values())
    # phase 1 maximizes -(sum of artificials), expressed through the rows
    T[-2] = T[art_rows].sum(axis=0, initial=0.0)

    pivots = 0
    if art_rows.size:
        status, pivots = _run_phase(T, basis, -2, pivots)
        if status == "unbounded":
            raise LpError("phase-1 unbounded; model is inconsistent")
        if T[-2, -1] > 1e-7:
            return LpSolution("infeasible", None, np.zeros(0), "simplex",
                              pivots, model)
        # drive surviving artificials out of the basis or drop dead rows
        dead = []
        for i in np.flatnonzero(basis >= art_start).tolist():
            live = np.flatnonzero(np.abs(T[i, :art_start]) > FEAS_TOL)
            if live.size:
                _pivot(T, basis, i, int(live[0]))
                pivots += 1
            else:
                dead.append(i)
        if dead:
            keep = np.setdiff1d(np.arange(m), dead)
            T = T[np.concatenate([keep, [m, m + 1]])]
            basis = basis[keep]

    status, pivots = _run_phase(T, basis, -1, pivots)
    if status == "unbounded":
        return LpSolution("unbounded", None, np.zeros(0), "simplex", pivots,
                          model)
    x = np.zeros(art_start)
    x[basis] = T[:-2, -1]
    x = x[:nv].copy()
    return LpSolution("optimal", model.objective_value(x), x, "simplex",
                      pivots, model)


# ---------------------------------------------------------------------------
# HiGHS bridge
# ---------------------------------------------------------------------------


def _solve_highs(model: LpModel) -> LpSolution:
    import scipy.optimize
    import scipy.sparse as sp

    nv = model.num_vars
    c = np.zeros(nv)
    c[list(model.objective)] = [-coef for coef in model.objective.values()]
    rows, cols, coefs = model.coo()
    le = model.le_rows()
    # each relation's rows numbered in order among themselves
    rank = np.where(le, np.cumsum(le) - 1, np.cumsum(~le) - 1)
    parts = []
    for mask in (le, ~le):
        sel = mask[rows]
        n = int(mask.sum())
        parts.append((sp.csr_matrix((coefs[sel], (rank[rows[sel]], cols[sel])),
                                    shape=(n, nv)),
                       np.array([r for r, k in zip(model.rhs, mask) if k]))
                      if n else (None, None))
    (A_ub, b_ub), (A_eq, b_eq) = parts
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-9,
                 "dual_feasibility_tolerance": 1e-9},
    )
    iters = int(getattr(res, "nit", 0) or 0)
    if res.status == 2:
        return LpSolution("infeasible", None, np.zeros(0), "highs", iters,
                          model)
    if res.status == 3:
        return LpSolution("unbounded", None, np.zeros(0), "highs", iters,
                          model)
    if res.status != 0:
        raise LpError(f"highs failed: {res.message}")
    x = np.array(res.x[:nv], dtype=float)
    return LpSolution("optimal", model.objective_value(x), x, "highs", iters,
                      model)


def solve(model: LpModel, engine: str = "auto") -> LpSolution:
    """Solve to an optimal solution, or report infeasible/unbounded.

    ``auto`` uses the in-repo simplex up to ``DENSE_CELL_LIMIT`` tableau
    cells.  Beyond it, it returns the builders' DP point when ``certify``
    accepts it, and otherwise calls HiGHS.  Each is deterministic for a
    fixed model; the simplex and HiGHS end on a basic solution.
    """
    if model.num_vars == 0:
        return LpSolution("optimal", 0.0, np.zeros(0), "trivial", 0, model)
    if engine == "auto":
        cells = (model.num_rows + 2) * (model.num_vars + model.num_rows + 1)
        engine = "simplex" if cells <= DENSE_CELL_LIMIT else "highs"
        if engine == "highs" and model.dp_point is not None:
            x, u = model.dp_point()
            primal, dual, gap = certify(model, x, u)
            obj = model.objective_value(x)
            if (primal <= CERT_PRIMAL_TOL and dual <= CERT_TOL
                    and gap <= CERT_TOL * (1.0 + abs(obj))):
                return LpSolution("optimal", obj, x, "certificate", 0, model)
    if engine == "simplex":
        return _solve_dense(model)
    if engine == "highs":
        return _solve_highs(model)
    raise ValueError(f"unknown engine {engine!r}")


def solve_optimal(model: LpModel, engine: str = "auto") -> LpSolution:
    sol = solve(model, engine)
    if sol.status != "optimal":
        raise LpError(f"LP not optimal: {sol.status}")
    return sol


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


def n_name(j) -> str:
    return f"N({j})"


END = "end"


# ---------------------------------------------------------------------------
# Block emission
# ---------------------------------------------------------------------------


@dataclass
class BlockInfo:
    """One block's state levels and the first index of each of its runs of
    variables: ``y[lvl]`` for levels ``0..L``, ``xc[lvl]`` and ``xm[lvl]``
    for the arrivals ``0..L-1``; and of its rows: ``init_row``, and per
    arrival ``rows[lvl]``, the first of its marginal rows (per atom),
    ``X <= Y`` rows (as ``xc``), update rows (per state of level ``lvl+1``,
    reachable then forbidden) and pin rows (per forbidden state)."""

    key: str
    dyn: object
    levels: list
    forbidden: list
    y: list = field(default_factory=list)
    xc: list = field(default_factory=list)
    xm: list = field(default_factory=list)
    init_row: int = 0
    rows: list = field(default_factory=list)

    @property
    def elements(self):
        return self.dyn.elements

    def time_label(self, level):
        return self.dyn.elements[level] if level < len(self.dyn.elements) else END

    def y_values(self, x, lvl) -> list:
        """``Y`` of level ``lvl``'s reachable states, in ``levels[lvl]`` order."""
        return x[self.y[lvl]:self.y[lvl] + len(self.levels[lvl])].tolist()

    def xc_values(self, x, lvl) -> list:
        """``X(t,state,atom)`` of arrival ``lvl``, state major, atom minor."""
        return x[self.xc[lvl]:self.xm[lvl]].tolist()


@dataclass
class BuiltLp:
    """An LP plus the per-block state bookkeeping needed downstream."""

    model: LpModel
    instance: object
    blocks: dict = field(default_factory=dict)
    marking: Marking | None = None

    def block(self, key) -> BlockInfo:
        return self.blocks[key]


def _emit_block(model: LpModel, dists, info: BlockInfo):
    dyn = info.dyn
    key = info.key
    elems = dyn.elements
    L = len(elems)
    ypos = []  # per level: state -> index of its Y variable
    for lvl in range(L + 1):
        states = list(info.levels[lvl]) + list(info.forbidden[lvl])
        tlab = info.time_label(lvl)
        start = model.add_vars(
            len(states), lambda k, tlab=tlab, states=states:
            y_name(key, tlab, states[k]))
        info.y.append(start)
        ypos.append({s: start + k for k, s in enumerate(states)})
    for lvl, t in enumerate(elems):
        na = len(dists[t].atoms)
        states = info.levels[lvl]
        info.xc.append(model.add_vars(
            len(states) * na, lambda k, t=t, states=states, na=na:
            xc_name(key, t, states[k // na], k % na)))
        info.xm.append(model.add_vars(na, lambda k, t=t: xm_name(t, k)))

    info.init_row = model.num_rows
    model.append_row([ypos[0][dyn.initial]], [1.0], "=", 1.0)
    for lvl, t in enumerate(elems):
        probs = list(dists[t].probs)
        negs = [-pa for pa in probs]
        na = len(probs)
        states = info.levels[lvl]
        n = len(states)
        y0, xc0, xm0 = info.y[lvl], info.xc[lvl], info.xm[lvl]
        starts = [model.num_rows]
        # marginal definition and conditional caps
        marginal = [-1.0] * n + [1.0]
        for a in range(na):
            model.append_row(list(range(xc0 + a, xc0 + n * na, na)) + [xm0 + a],
                             marginal, "=", 0.0)
        starts.append(model.num_rows)
        for i in range(n):
            for a in range(na):
                model.append_row([y0 + i, xc0 + i * na + a], [-1.0, 1.0],
                                 "<=", 0.0)
        starts.append(model.num_rows)
        # state updates into level lvl+1 (forbidden targets pin the picks)
        here, there = ypos[lvl], ypos[lvl + 1]
        first_xc = {s: xc0 + i * na for i, s in enumerate(states)}
        for s in list(info.levels[lvl + 1]) + list(info.forbidden[lvl + 1]):
            cols, vals = [], []
            if s in here:
                cols.append(here[s])
                vals.append(-1.0)
            cols.append(there[s])
            vals.append(1.0)
            runs = []  # the picks leaving s (+p) and those arriving (-p)
            src = dyn.unpick(s, t)
            if src == s:
                # an arrival using none of the block's capacity: +p and -p
                # fall on the same variables and cancel
                if s in first_xc:
                    runs.append((first_xc[s], [0.0] * na))
            else:
                if s in first_xc:
                    runs.append((first_xc[s], probs))
                if src in first_xc:
                    runs.append((first_xc[src], negs))
            for c0, coefs in sorted(runs, key=lambda run: run[0]):
                cols.extend(range(c0, c0 + na))
                vals.extend(coefs)
            model.append_row(cols, vals, "=", 0.0)
        starts.append(model.num_rows)
        info.rows.append(tuple(starts))
        for s in info.forbidden[lvl + 1]:
            model.append_row([there[s]], [1.0], "=", 0.0)


def _dp_point(num_vars, num_rows, dists, blocks, state_cap, counts):
    """``(x, u)``: each block's optimal threshold policy run forward
    (``Y``, ``X = Y * 1[v >= tau]``, ``X(t,a)`` their sums) and its duals
    (``V`` on the initial and update rows, ``p*v`` on the marginal rows,
    ``p*max(0, v - tau)`` on the ``X <= Y`` rows, ``-M`` and ``2M`` on the
    update and pin rows of forbidden states), placed by position: the
    levels of ``dp.unit_passes`` are the blocks' runs, in order.  Each
    ``N(j)`` of ``counts`` is the sum of its row's terms; every coupling
    row keeps dual 0.  Given sizes, not the model, ``dp_point`` makes no
    reference cycle."""
    x = np.zeros(num_vars)
    u = np.zeros(num_rows)
    passes = dp.unit_passes([info.dyn for info in blocks.values()], dists,
                            state_cap=state_cap)
    for info, (table, (_, occupancy, _)) in zip(blocks.values(), passes):
        values = table.values
        big = 1.0 + max(float(np.abs(v).max()) for v in values) + max(
            abs(v) for t in info.elements for v in dists[t].values)
        u[info.init_row] = values[0][0]
        for lvl, t in enumerate(info.elements):
            v, p = np.array(dists[t].values), np.array(dists[t].probs)
            y = np.asarray(occupancy[lvl], dtype=float)
            thr = table.thresholds[lvl][:, None]
            xc = y[:, None] * (v >= thr)
            x[info.y[lvl]:info.y[lvl] + len(y)] = y
            x[info.xc[lvl]:info.xm[lvl]] = xc.ravel()
            x[info.xm[lvl]:info.xm[lvl] + len(v)] = xc.sum(axis=0)
            marginal, caps, updates, pins = info.rows[lvl]
            u[marginal:caps] = p * v
            u[caps:updates] = (p * np.maximum(v - thr, 0.0)).ravel()
            reach = updates + len(values[lvl + 1])
            u[updates:reach] = values[lvl + 1]
            u[reach:pins] = -big
            u[pins:pins + len(info.forbidden[lvl + 1])] = 2.0 * big
        last = np.asarray(occupancy[-1], dtype=float)
        x[info.y[-1]:info.y[-1] + len(last)] = last
    for j, terms in counts:
        x[j] = sum(pa * x[i] for i, pa in terms)
    return x, u


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _build(inst, mk: Marking | None, capacity_scale: float,
           state_cap) -> BuiltLp:
    """The relaxation of ``inst`` under ``mk``: a point-wise block per unit
    of ``small_units``, then each of ``large_rows`` held in expectation at
    ``capacity_scale`` times its cap.  A large bin's row sums its elements'
    marginals; a production instance's shipping row sums one ``N(j)`` per
    type, each at least its type's expected served count."""
    if not (0.0 < capacity_scale <= 1.0):
        raise ValueError("capacity_scale must be in (0, 1]")
    dists = inst.dists
    model = LpModel()
    blocks = {}
    for key in small_units(inst, mk):
        dyn = bind_dynamics(key, inst)
        blocks[key] = BlockInfo(key, dyn, *reachable_profile(dyn, state_cap))
        _emit_block(model, dists, blocks[key])
    xm = {t: info.xm[lvl] for info in blocks.values()
          for lvl, t in enumerate(info.elements)}

    def served(elements):
        """The expected served count of ``elements``, as ``(column, p)``."""
        return [(xm[t] + a, pa) for t in elements
                for a, pa in enumerate(dists[t].probs)]

    production = isinstance(inst, ProductionInstance)
    counts = []  # (N(j), the terms it bounds)
    if production:
        types = [key.partition(":")[2] for key in blocks]  # "type:j" -> j
        n0 = model.add_vars(len(types), lambda k: n_name(types[k]))
        # a type's marginals ascend along its elements, all below N(j)
        counts = [(n0 + k, served(info.elements))
                  for k, info in enumerate(blocks.values())]
        for j, terms in counts:
            model.append_row([i for i, _ in terms] + [j],
                             [pa for _, pa in terms] + [-1.0], "<=", 0.0)
    for _, elements, cap in large_rows(inst, mk):
        # a bin's elements may sit in different blocks: order by column
        terms = ([(j, 1.0) for j, _ in counts] if production
                 else sorted(served(elements)))
        model.append_row([i for i, _ in terms], [c for _, c in terms],
                         "<=", capacity_scale * cap)
    for t, dist in enumerate(dists):
        for a, (v, pa) in enumerate(dist.atoms):
            model.add_objective_term(xm[t] + a, pa * v)
    model.dp_point = partial(_dp_point, model.num_vars, model.num_rows,
                             dists, blocks, state_cap, counts)
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
