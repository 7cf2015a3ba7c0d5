"""Shared corpus generators and independent oracles.

Expected values in the tests come from the oracles here (brute-force
enumeration, hand recursions, chord-maximum hulls, vertex enumeration),
never from the code paths they check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from binprice import (
    DEFAULT_STATE_CAP,
    DiscreteDistribution,
    LaminarInstance,
    ProductionInstance,
    PtasConfig,
    as_laminar,
    mark_laminar,
    production_to_laminar,
    ptas_laminar,
    ptas_production,
)
from binprice import dp, lp
from binprice.harness import CoverageError, trial_generator
from binprice.model import (
    BinSubproblem,
    SizingError,
    TypeSubproblem,
    bind_dynamics,
    large_rows,
    small_units,
    state_levels,
)

VALUE_GRID = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]


def expectation(dist: DiscreteDistribution) -> float:
    """The mean of ``dist``, its atoms summed in order."""
    return sum(v * p for v, p in dist.atoms)


def table_entries(table) -> dict:
    """``table``'s values keyed by ``(level, state)``, levels last to first
    and each level's states ascending (the order of ``np.concatenate`` over
    the levels' arrays reversed); a missing key is the infeasible
    sentinel."""
    levels = table.levels.tuples()
    keys = ((lvl, s) for lvl in range(len(levels) - 1, -1, -1)
            for s in levels[lvl])
    return dict(zip(keys, np.concatenate(table.values[::-1]).tolist()))


def table_value(table, level, state):
    """``table``'s value of ``state`` at ``level``; ``None`` where the state
    is not reachable there."""
    return table_entries(table).get((level, state))


def table_json_dict(table) -> dict:
    """``table`` as a JSON document: its scope, its shift and its values
    keyed by ``"<position>,<state as a list>"``."""
    return {
        "scope": table.scope,
        "shift": table.shift,
        "values": {f"{table.positions[lvl]},{list(s)}": v
                   for (lvl, s), v in sorted(table_entries(table).items())},
    }


def solution_value(sol, name: str) -> float:
    """The value ``sol`` gives the variable ``name`` of its model."""
    return float(sol.x[sol.model.index[name]])


def random_distribution(rng: random.Random, max_atoms=3,
                        grid=VALUE_GRID) -> DiscreteDistribution:
    k = rng.randint(1, max_atoms)
    vals = sorted(rng.sample(grid, k))
    cuts = sorted(rng.sample(range(1, 8), k - 1))
    probs, last = [], 0
    for c in cuts + [8]:
        probs.append((c - last) / 8.0)  # eighths sum to 1 exactly
        last = c
    return DiscreteDistribution.of(zip(vals, probs))


def random_production(rng: random.Random, n_max=6, m_max=3, cap_max=3,
                      days_max=1) -> ProductionInstance:
    n = rng.choices(range(1, n_max + 1), weights=[1, 2, 3, 3, 2, 2][:n_max])[0]
    m = rng.randint(1, m_max)
    types = tuple(rng.randrange(m) for _ in range(n))
    T = rng.randint(1, days_max)
    day_list = sorted(rng.randrange(T) for _ in range(n))
    prod = []
    for _ in range(m):
        col = [rng.randint(0, cap_max)]
        for _ in range(T - 1):
            col.append(min(cap_max, col[-1] + rng.randint(0, 2)))
        prod.append(tuple(col))
    return ProductionInstance(
        dists=tuple(random_distribution(rng) for _ in range(n)),
        types=types, days=tuple(day_list),
        production=tuple(prod), shipping=rng.randint(1, cap_max))


def random_laminar(rng: random.Random, n_max=6, cap_max=3) -> LaminarInstance:
    n = rng.choices(range(2, n_max + 1), weights=[2, 3, 3, 2, 2][:n_max - 1])[0]
    elems = list(range(n))
    rng.shuffle(elems)
    n_bins = rng.randint(0, min(3, n // 2))
    children = []
    pos = 0
    for _ in range(n_bins):
        size = rng.randint(1, max(1, (n - pos) // 2))
        group = elems[pos:pos + size]
        pos += size
        if group:
            children.append({"cap": rng.randint(0, cap_max),
                             "children": [{"element": e} for e in group]})
    children += [{"element": e} for e in elems[pos:]]
    tree = {"cap": rng.randint(1, cap_max), "children": children}
    return LaminarInstance.build(
        tuple(random_distribution(rng) for _ in range(n)), tree)


def criterion_6_production() -> ProductionInstance:
    """200 buyers of three types, each produced 10 to 14, under shipping
    capacity 30."""
    rng = random.Random(606)
    n, m = 200, 3
    types = tuple(rng.randrange(m) for _ in range(n))
    dists = tuple(
        DiscreteDistribution.of([(0.0, 0.25),
                                 (round(rng.uniform(0.5, 2.0), 2), 0.5),
                                 (3.0, 0.25)])
        for _ in range(n))
    return ProductionInstance(dists=dists, types=types, days=tuple([0] * n),
                              production=tuple((rng.randint(10, 14),)
                                               for _ in range(m)),
                              shipping=30)


def criterion_7_laminar() -> LaminarInstance:
    """Four bins of 25 two-point buyers, capacity 8 each, under a root of
    capacity 101 (161,541 reachable states over the 101 levels)."""
    rng = random.Random(707)
    kids, dists = [], []
    n = 0
    for _ in range(4):
        kids.append({"cap": 8,
                     "children": [{"element": n + i} for i in range(25)]})
        n += 25
        for _ in range(25):
            v = round(rng.uniform(0.5, 3.0), 2)
            dists.append(DiscreteDistribution.of([(0.0, 0.5), (v, 0.5)]))
    return LaminarInstance.build(tuple(dists), {"cap": 101, "children": kids})


@dataclass
class CorpusEntry:
    name: str
    laminar: LaminarInstance
    production: ProductionInstance | None


def build_corpus(seed=202408, size=200) -> list[CorpusEntry]:
    rng = random.Random(seed)
    entries = []
    for i in range(size):
        if i % 5 < 3:
            p = random_production(rng)
            entries.append(CorpusEntry(f"prod{i}", production_to_laminar(p), p))
        else:
            entries.append(CorpusEntry(f"lam{i}", random_laminar(rng), None))
    return entries


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


# the PTAS settings of the bench's corpus workload; the last one's delta
# marks the laminar relaxation bound of the exact chain
BENCH_SETTINGS = {"eps0.2": PtasConfig(epsilon=0.2),
                  "eps0.2_delta0.6": PtasConfig(epsilon=0.2, delta=0.6)}


def run_ptas(entry: CorpusEntry, cfg: PtasConfig):
    if entry.production is not None:
        return ptas_production(entry.production, cfg)
    return ptas_laminar(entry.laminar, cfg)


def relaxation(inst, cfg: PtasConfig) -> "lp.BuiltLp":
    """The PTAS large branch's relaxation LP: ex-ante for a production
    instance, hierarchy under the depth marking for a laminar one, with
    large capacities scaled by ``cfg.capacity_scale``."""
    if isinstance(inst, ProductionInstance):
        return lp.build_lp_exante(inst, cfg.capacity_scale)
    return lp.build_lp_hierarchy(
        inst, mark_laminar(inst, cfg.resolved_delta), cfg.capacity_scale)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def oracle_states(inst: LaminarInstance, b: int):
    """Reachable local states by brute force: remaining-capacity vectors of
    every independent subset of the bin's elements."""
    bins = inst.subtree_bins(b)
    index = {x: i for i, x in enumerate(bins)}
    elems = sorted(inst.bin_elements(b))
    caps = [inst.bin_caps[x] for x in bins]
    coords = {e: [index[x] for x in inst.elem_ancestors(e) if x in index]
              for e in elems}
    out = set()
    for r in range(len(elems) + 1):
        for sub in itertools.combinations(elems, r):
            rem = caps.copy()
            ok = True
            for e in sub:
                for i in coords[e]:
                    rem[i] -= 1
                    if rem[i] < 0:
                        ok = False
            if ok:
                out.add(tuple(rem))
    return out


def oracle_chain_joint(p: ProductionInstance, type_index: int, taus):
    """Joint acceptance distribution of a chain threshold policy by walking
    every value path.  ``taus[i]`` is the (threshold, accept-at-equality)
    price faced at position i given the current sold count s: taus[i][s].

    Returns dict bitmask -> probability.
    """
    buyers = p.buyers_of_type(type_index)
    joint = {}

    def walk(i, sold, mask, prob):
        if i == len(buyers):
            joint[mask] = joint.get(mask, 0.0) + prob
            return
        t = buyers[i]
        cap = p.available(type_index, p.days[t])
        for v, pa in p.dists[t].atoms:
            tau = taus[i].get(sold)
            if tau is not None and sold < cap and v >= tau:
                walk(i + 1, sold + 1, mask | (1 << i), prob * pa)
            else:
                walk(i + 1, sold, mask, prob * pa)

    walk(0, 0, 0, 1.0)
    return joint


def oracle_hull_slopes(points):
    """Upper concave envelope by chord maxima: R(q) = max over point pairs of
    the chord through them evaluated at q."""

    def envelope(q):
        best = -float("inf")
        for (x0, y0), (x1, y1) in itertools.combinations(points, 2):
            if min(x0, x1) <= q <= max(x0, x1) and x0 != x1:
                lam = (q - x0) / (x1 - x0)
                best = max(best, y0 + lam * (y1 - y0))
        for (x, y) in points:
            if x == q:
                best = max(best, y)
        return best

    return envelope


def model_from_arrays(c, a_ub, b_ub, a_eq=(), b_eq=()):
    """A named LP ``max c x`` over ``x0..`` with the given rows; zero
    coefficients are left out."""
    m = lp.LpModel()
    m.add_vars(len(c), "x{}".format)
    for j, v in enumerate(c):
        if v:
            m.add_objective_term(j, v)
    for rows, rel, rhs in ((a_ub, "<=", b_ub), (a_eq, "=", b_eq)):
        for row, b in zip(rows, rhs):
            cols = [j for j, v in enumerate(row) if v]
            m.append_row(cols, [float(row[j]) for j in cols], rel, b)
    return m


def oracle_lp_vertices(c, a_ub, b_ub, a_eq, b_eq):
    """Best vertex of {A_ub x <= b_ub, A_eq x = b_eq, x >= 0} by enumerating
    basic solutions; assumes a bounded feasible region."""
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    for row, b in zip(a_ub, b_ub):
        rows.append(np.asarray(row, dtype=float))
        rhs.append((b, "<="))
    for row, b in zip(a_eq, b_eq):
        rows.append(np.asarray(row, dtype=float))
        rhs.append((b, "="))
    for i in range(n):
        e = np.zeros(n)
        e[i] = -1.0
        rows.append(e)
        rhs.append((0.0, "<="))
    best = None
    m = len(rows)
    for combo in itertools.combinations(range(m), n):
        A = np.array([rows[i] for i in combo])
        b = np.array([rhs[i][0] for i in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        ok = (x >= -1e-9).all()
        for row, (bb, rel) in zip(rows, rhs):
            v = row @ x
            if rel == "<=" and v > bb + 1e-9:
                ok = False
            if rel == "=" and abs(v - bb) > 1e-9:
                ok = False
            if not ok:
                break
        if ok:
            val = c @ x
            if best is None or val > best:
                best = val
    return best


# The dense-tableau Bland simplex that ``lp.solve`` ran on coupled LPs up
# to DENSE_CELL_LIMIT tableau cells (HiGHS beyond) until the dual over the
# units' DPs certified them: its tolerances and pivot cap, read at call time
FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_CAP = 10 ** 6
DENSE_CELL_LIMIT = 60_000


def desk_scale(model) -> bool:
    """Whether ``model``'s tableau fits ``DENSE_CELL_LIMIT``."""
    cells = (model.num_rows + 2) * (model.num_vars + model.num_rows + 1)
    return cells <= DENSE_CELL_LIMIT


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
            raise lp.LpError(f"simplex pivot cap {PIVOT_CAP} exceeded")
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


def reference_dense_simplex(model) -> "lp.LpSolution":
    """The two-phase dense-tableau Bland simplex, whole-array: the oracle
    whose vertices the pins of simplex roundings were recorded from, and
    the fingerprints of ``SIMPLEX_SHA256`` (``test_kernels``)."""
    nv = model.num_vars
    m = model.num_rows
    rows, cols, coefs = model.coo()
    le = model.le_rows()
    slack_rows = np.flatnonzero(le)
    art_start = nv + slack_rows.size
    b = model.rhs
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
            raise lp.LpError("phase-1 unbounded; model is inconsistent")
        if T[-2, -1] > 1e-7:
            return lp.LpSolution("infeasible", None, np.zeros(0), "simplex",
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
        return lp.LpSolution("unbounded", None, np.zeros(0), "simplex",
                             pivots, model)
    x = np.zeros(art_start)
    x[basis] = T[:-2, -1]
    x = x[:nv].copy()
    return lp.LpSolution("optimal", model.objective_value(x), x, "simplex",
                         pivots, model)


def reference_highs(model) -> "lp.LpSolution":
    """HiGHS's vertex of ``model`` through scipy, the bridge ``lp.solve``
    fell back to before it certified every LP it builds: the cross-check
    of the certified objectives and the oracle of the pins of HiGHS
    roundings."""
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
                       model.rhs[mask])
                      if n else (None, None))
    (A_ub, b_ub), (A_eq, b_eq) = parts
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-9,
                 "dual_feasibility_tolerance": 1e-9},
    )
    iters = int(getattr(res, "nit", 0) or 0)
    if res.status in (2, 3):
        status = "infeasible" if res.status == 2 else "unbounded"
        return lp.LpSolution(status, None, np.zeros(0), "highs", iters, model)
    if res.status != 0:
        raise lp.LpError(f"highs failed: {res.message}")
    x = np.array(res.x[:nv], dtype=float)
    return lp.LpSolution("optimal", model.objective_value(x), x, "highs",
                         iters, model)


def solve_with(model, engine="auto") -> "lp.LpSolution":
    """``model`` solved by ``engine``: ``simplex`` is
    ``reference_dense_simplex``, ``highs`` is ``reference_highs`` and
    ``auto`` is ``lp.solve``."""
    if engine == "simplex":
        return reference_dense_simplex(model)
    if engine == "highs":
        return reference_highs(model)
    return lp.solve(model)


# A reference vertex carries solver round-off near zero, where X/Y would
# be noise and could fall outside [0, 1]: the program's extraction floored
# it, quoting infinity at every state with Y <= Y_FLOOR, until every LP it
# solves was certified
Y_FLOOR = 1e-9


def floored(sol, built) -> "lp.LpSolution":
    """``sol`` with every ``Y`` that extraction reads at most ``Y_FLOOR``
    set to 0, in a copy, where a reference solver (not the certificate)
    found it.  Extraction prices a state where ``Y > 0`` and reads its
    ``X`` and ``Y`` only there, so it prices the copy as it priced ``sol``
    under the floor."""
    if sol.engine not in ("simplex", "highs"):
        return sol
    x = sol.x.copy()
    for info in built.blocks.values():
        for lvl in range(len(info.elements)):
            y = info.y_values(x, lvl)  # a view into the copy
            y[y <= Y_FLOOR] = 0.0
    return dataclasses.replace(sol, x=x)


def perturbed_dp_points(monkeypatch):
    """Every DP point of an LP that ``lp._build`` builds from here on has its
    first row's dual (the first block's initial row) raised by 1e-3: a gap
    of 1e-3, which the certificate rejects."""
    dp_point = lp._dp_point

    def raised(*args):
        x, u = dp_point(*args)
        u[0] += 1e-3
        return x, u

    monkeypatch.setattr(lp, "_dp_point", raised)


def reference_prophet_samples(inst, trials: int, seed: int) -> np.ndarray:
    """Offline optimum one trial at a time: draw the trial's own substream,
    then take elements by (-value, index) while every ancestor has room."""
    lam = as_laminar(inst)
    n = lam.num_elements
    values = [np.array(d.values) for d in lam.dists]
    cums = [np.cumsum(np.array(d.probs)) for d in lam.dists]
    anc = [lam.elem_ancestors(e) for e in range(n)]
    caps0 = list(lam.bin_caps)
    out = np.empty(trials)
    for trial in range(trials):
        u = trial_generator(seed, trial).random(n)
        vals = [values[e][min(np.searchsorted(cums[e], u[e], side="right"),
                              len(values[e]) - 1)] for e in range(n)]
        order = sorted(range(n), key=lambda e: (-vals[e], e))
        rem = caps0.copy()
        total = 0.0
        for e in order:
            if vals[e] <= 0.0:
                break
            if all(rem[b] > 0 for b in anc[e]):
                for b in anc[e]:
                    rem[b] -= 1
                total += vals[e]
        out[trial] = total
    return out


def reference_policy_json(policy) -> str:
    """The policy document as written through ``json.dumps``."""
    return json.dumps(policy.to_json_dict(), indent=2, sort_keys=True) + "\n"


def local_state_space(inst: LaminarInstance, b: int,
                      state_cap=DEFAULT_STATE_CAP) -> set:
    """All local states of sub-problem ``b`` reachable by some feasible
    policy: the last level ``model.state_levels`` enumerates."""
    return set(state_levels(BinSubproblem(inst, b), state_cap).tuples()[-1])


def can_pick(dyn, state, e) -> bool:
    """Whether ``dyn`` allows a pick of ``e`` in ``state``: every
    coordinate the pick moves lands in ``[0, limit]``."""
    coords, delta, limits = dyn.step(e)
    return all(0 <= state[k] + delta <= limit
               for k, limit in zip(coords, limits))


def unpick(dyn, state, e):
    """``state`` before a pick of ``e`` that led to it."""
    coords, delta, _ = dyn.step(e)
    s = list(state)
    for k in coords:
        s[k] -= delta
    return tuple(s)


def reference_full_dp(inst: LaminarInstance):
    """Full-state backward induction one state at a time over
    ``reference_profile``'s levels.  Returns ``(entries, rules)``:
    ``(level, state) -> value`` and ``(element, state) -> (tau, p)``."""
    dyn = BinSubproblem(inst, 0)
    levels, _ = reference_profile(dyn)
    n = len(dyn.elements)
    entries = {(n, s): 0.0 for s in levels[n]}
    rules = {}
    for i in range(n - 1, -1, -1):
        t = dyn.elements[i]
        atoms = inst.dists[t].atoms
        for s in levels[i]:
            stay = entries[(i + 1, s)]
            if can_pick(dyn, s, t):
                cont = entries[(i + 1, dyn.pick(s, t))]
                tau = stay - cont
                ev = 0.0
                for v, p in atoms:
                    ev += p * ((v + cont) if v >= tau else stay)
                entries[(i, s)] = ev
                rules[(t, s)] = (tau, 1.0)
            else:
                entries[(i, s)] = stay
                rules[(t, s)] = (math.inf, 0.0)
    return entries, rules


def reference_subproblem_dp(p: ProductionInstance, type_index: int,
                            shift: float = 0.0):
    """Shifted chain backward induction one state at a time; returns the
    ``(level, (sold,)) -> value`` entries."""
    dyn = TypeSubproblem(p, type_index)
    levels, _ = reference_profile(dyn)
    l = len(dyn.elements)
    entries = {(l, s): 0.0 for s in levels[l]}
    for i in range(l - 1, -1, -1):
        t = dyn.elements[i]
        atoms = p.dists[t].atoms
        for s in levels[i]:
            stay = entries[(i + 1, s)]
            if can_pick(dyn, s, t):
                cont = entries[(i + 1, dyn.pick(s, t))]
                tau = stay - cont
                ev = 0.0
                for v, prob in atoms:
                    shifted = v - shift
                    ev += prob * ((shifted + cont) if shifted >= tau else stay)
                entries[(i, s)] = ev
            else:
                entries[(i, s)] = stay
    return entries


def reference_concavity_check(table):
    """``dp.concavity_check`` as a walk over ``table_entries`` (levels last
    to first, states ascending): every ``(s, s+1, s+2)`` held at a level,
    the first strictly largest gap above 1e-9 winning."""
    worst = None
    worst_gap = 1e-9
    entries = table_entries(table)
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


def reference_profile(dyn, state_cap=DEFAULT_STATE_CAP):
    """Per-arrival reachable state sets and forbidden one-over-pick targets
    as a loop over state tuples: the oracle ``model.reachable_profile``
    must equal, ``SizingError`` included."""
    levels = [[dyn.initial]]
    forbidden = [[]]
    cur = {dyn.initial}
    total = {dyn.initial}
    for e in dyn.elements:
        nxt = set(cur)
        bad = set()
        for s in cur:
            target = dyn.pick(s, e)
            if can_pick(dyn, s, e):
                nxt.add(target)
            else:
                bad.add(target)
        total |= nxt
        if len(total) > state_cap:
            raise SizingError(dyn.key, len(total), state_cap)
        levels.append(sorted(nxt))
        forbidden.append(sorted(bad))
        cur = nxt
    return levels, forbidden


def reference_emit_block(model, dists, info, forbidden=False, aliases=False):
    """One LP block as a loop over state tuples, keyed by tuple from
    ``reference_profile``: the oracle ``lp._emit_blocks`` must equal, rows,
    variables and names.  A target state takes ``-Y`` of the previous
    level's state of the same tuple where that state is reachable.  An
    over-pick's ``X(t,state,atom)`` enter only their marginal rows and
    their ``X <= Y`` rows, which take no ``Y``.

    With ``forbidden``, the block the emitter wrote until the over-picks'
    target states were dropped: each forbidden state has a ``Y`` with an
    update row, into which its over-picks enter as a pick enters its
    target's, and a pin row fixing it at 0; the over-picks leave their
    state's update row as every pick does, and their ``X <= Y`` rows take
    its ``Y``.  ``info.rows`` then holds four first rows per arrival, the
    fourth its pin rows', and ``info.num_forbidden`` the forbidden counts.
    With ``aliases`` (which implies ``forbidden``), also where the
    previous level's state is forbidden, a term on a ``Y`` pinned to zero
    that the emitter wrote until it was dropped."""
    forbidden = forbidden or aliases
    dyn = info.dyn
    key = info.key
    levels, bad = reference_profile(dyn)
    if not forbidden:
        bad = [[] for _ in bad]
    elems = dyn.elements
    L = len(elems)
    ypos = []  # per level: state -> index of its Y variable
    for lvl in range(L + 1):
        states = list(levels[lvl]) + list(bad[lvl])
        tlab = info.time_label(lvl)
        start = model.add_vars(
            len(states), lambda k, tlab=tlab, states=states:
            lp.y_name(key, tlab, states[k]))
        info.y.append(start)
        ypos.append({s: start + k for k, s in enumerate(states)})
    for lvl, t in enumerate(elems):
        na = len(dists[t].atoms)
        states = levels[lvl]
        info.xc.append(model.add_vars(
            len(states) * na, lambda k, t=t, states=states, na=na:
            lp.xc_name(key, t, states[k // na], k % na)))
        info.xm.append(model.add_vars(na, lambda k, t=t: lp.xm_name(t, k)))

    info.init_row = model.num_rows
    model.append_row([ypos[0][dyn.initial]], [1.0], "=", 1.0)
    for lvl, t in enumerate(elems):
        probs = list(dists[t].probs)
        negs = [-pa for pa in probs]
        na = len(probs)
        states = levels[lvl]
        n = len(states)
        y0, xc0, xm0 = info.y[lvl], info.xc[lvl], info.xm[lvl]
        starts = [model.num_rows]
        # marginal definition and conditional caps
        marginal = [-1.0] * n + [1.0]
        for a in range(na):
            model.append_row(list(range(xc0 + a, xc0 + n * na, na)) + [xm0 + a],
                             marginal, "=", 0.0)
        starts.append(model.num_rows)
        # the states whose picks the rows take
        held = {s for s in states if forbidden or can_pick(dyn, s, t)}
        for i, s in enumerate(states):
            for a in range(na):
                x = xc0 + i * na + a
                model.append_row([y0 + i, x] if s in held else [x],
                                 [-1.0, 1.0] if s in held else [1.0],
                                 "<=", 0.0)
        starts.append(model.num_rows)
        # state updates into level lvl+1
        here, there = ypos[lvl], ypos[lvl + 1]
        if not aliases:
            here = {s: here[s] for s in states}
        first_xc = {s: xc0 + i * na for i, s in enumerate(states)
                    if s in held}
        for s in list(levels[lvl + 1]) + list(bad[lvl + 1]):
            cols, vals = [], []
            if s in here:
                cols.append(here[s])
                vals.append(-1.0)
            cols.append(there[s])
            vals.append(1.0)
            runs = []  # the picks leaving s (+p) and those arriving (-p)
            src = unpick(dyn, s, t)
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
        if forbidden:
            starts.append(model.num_rows)
            for s in bad[lvl + 1]:
                model.append_row([there[s]], [1.0], "=", 0.0)
        info.rows.append(tuple(starts))
    if forbidden:
        info.num_forbidden = [len(b) for b in bad]


def reference_build(inst, mk, capacity_scale, state_cap):
    """``lp._build`` as it was while a production instance's shipping row
    summed one served count ``N(j)`` per type, each at least its type's
    expected sold count: the oracle of the former LP, with its blocks from
    ``lp._emit_blocks`` (``reference_emit_block`` with ``forbidden``) and
    its DP point from ``reference_dp_point``."""
    if not (0.0 < capacity_scale <= 1.0):
        raise ValueError("capacity_scale must be in (0, 1]")
    dists = inst.dists
    model = lp.LpModel()
    blocks = {}
    for key in small_units(inst, mk):
        dyn = bind_dynamics(key, inst)
        blocks[key] = lp.BlockInfo(key, dyn, state_levels(dyn, state_cap))
    lp._emit_blocks(model, dists, list(blocks.values()))
    xm = {t: info.xm[lvl] for info in blocks.values()
          for lvl, t in enumerate(info.elements)}

    def served(elements):
        return [(xm[t] + a, pa) for t in elements
                for a, pa in enumerate(dists[t].probs)]

    production = isinstance(inst, ProductionInstance)
    counts = []  # (N(j), the terms it bounds)
    if production:
        types = [info.dyn.type_index for info in blocks.values()]
        n0 = model.add_vars(len(types), lambda k: f"N({types[k]})")
        counts = [(n0 + k, served(info.elements))
                  for k, info in enumerate(blocks.values())]
        for j, terms in counts:
            model.append_row([i for i, _ in terms] + [j],
                             [pa for _, pa in terms] + [-1.0], "<=", 0.0)
    unit = {t: key for key, info in blocks.items() for t in info.elements}
    model.coupled = False
    for _, elements, cap in large_rows(inst, mk):
        terms = ([(j, 1.0) for j, _ in counts] if production
                 else sorted(served(elements)))
        model.append_row([i for i, _ in terms], [c for _, c in terms],
                         "<=", capacity_scale * cap)
        most = sum(lp._most_picks(blocks[key].states)
                   for key in {unit[t] for t in elements})
        model.coupled |= most > capacity_scale * cap
    for t, dist in enumerate(dists):
        for a, (v, pa) in enumerate(dist.atoms):
            model.add_objective_term(xm[t] + a, pa * v)
    model.dp_point = functools.partial(
        reference_dp_point, model.num_vars, model.num_rows, inst, state_cap,
        blocks, counts)
    return lp.BuiltLp(model=model, instance=inst, blocks=blocks, marking=mk)


def reference_dp_point(num_vars, num_rows, inst, state_cap, blocks, counts):
    """The DP point of a ``reference_build`` LP, as ``lp._dp_point``
    placed it there: the duals ``-M`` and ``2M`` on the update and pin rows
    of forbidden states, ``M = 1 + max |V| + max |v|`` over the block, 0
    on the over-picks' ``X <= Y`` rows, and each ``N(j)`` the sum of its
    row's terms."""
    dists = inst.dists
    x = np.zeros(num_vars)
    u = np.zeros(num_rows)
    units = [dp.unit_table(inst, key, state_cap=state_cap) for key in blocks]
    _, passes = dp.forward_all(list(map(dp.threshold_policy, units)), dists)
    for info, table, (_, occupancy, _) in zip(blocks.values(), units, passes):
        values = table.values
        big = 1.0 + max(float(np.abs(v).max()) for v in values) + max(
            abs(v) for t in info.elements for v in dists[t].values)
        u[info.init_row] = values[0][0]
        for lvl, t in enumerate(info.elements):
            v, p = np.array(dists[t].values), np.array(dists[t].probs)
            y = occupancy[lvl]
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
            u[pins:pins + info.num_forbidden[lvl + 1]] = 2.0 * big
        last = occupancy[-1]
        x[info.y[-1]:info.y[-1] + len(last)] = last
    for j, terms in counts:
        x[j] = sum(pa * x[i] for i, pa in terms)
    return x, u


@contextlib.contextmanager
def reference_emitter(forbidden=False, aliases=False):
    """Within: ``lp._emit_blocks`` is ``reference_emit_block``.  With
    ``forbidden`` or ``aliases``, its blocks hold the forbidden states (and
    the alias terms where ``aliases``), and ``lp._build`` is
    ``reference_build``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_emit_blocks", lambda model, dists, blocks: [
            reference_emit_block(model, dists, info, forbidden, aliases)
            for info in blocks])
        if forbidden or aliases:
            mp.setattr(lp, "_build", reference_build)
        yield


def reference_evaluate_block(policy, inst):
    """Exact forward evaluation of one policy block as a walk over a dict
    keyed by state tuple: the oracle ``harness.evaluate_exact`` must equal
    bit for bit, each reached state's mass and ``CoverageError`` included."""
    dyn = bind_dynamics(policy.scope, inst)
    work = as_laminar(inst) if not policy.scope.startswith("type:") else inst
    n_total = (work.num_buyers if isinstance(work, ProductionInstance)
               else work.num_elements)
    cur = {dyn.initial: 1.0}
    welfare = 0.0
    trace = {}
    for e in dyn.elements:
        d = work.dists[e]
        nxt = {}
        for s, mass in cur.items():
            trace[(e, s)] = mass
            rule = policy.rule(e, s)
            if rule is None:
                raise CoverageError(f"no rule for arrival {e} in state {s}")
            tau, p = rule
            if not can_pick(dyn, s, e):
                nxt[s] = nxt.get(s, 0.0) + mass
                continue
            acc = d.tail_above(tau) + p * d.prob_at(tau)
            gain = sum(pa * v * (1.0 if v > tau else (p if v == tau else 0.0))
                       for v, pa in d.atoms)
            welfare += mass * gain
            if acc > 0.0:
                target = dyn.pick(s, e)
                nxt[target] = nxt.get(target, 0.0) + mass * acc
            if acc < 1.0:
                nxt[s] = nxt.get(s, 0.0) + mass * (1.0 - acc)
        cur = nxt
    for s, mass in cur.items():
        trace[(n_total, s)] = mass
    return welfare, trace


def reference_pick_probabilities(policy, inst) -> dict:
    """Each arrival's pick probability under one policy block: its
    acceptance rate in every state of ``reference_evaluate_block``'s trace,
    weighted by the state's probability."""
    dyn = bind_dynamics(policy.scope, inst)
    _, trace = reference_evaluate_block(policy, inst)
    picks = dict.fromkeys(dyn.elements, 0.0)
    for (e, s), mass in trace.items():
        if e in picks and can_pick(dyn, s, e):
            tau, p = policy.rule(e, s)
            d = inst.dists[e]
            picks[e] += mass * (d.tail_above(tau) + p * d.prob_at(tau))
    return picks
