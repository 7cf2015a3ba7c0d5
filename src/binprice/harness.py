"""Verification harness: simulation, exact evaluation, benchmarks, checks.

Randomness contract (reproducible across thread counts): all Monte Carlo
draws come from numpy's Philox counter-based generator, one substream per
trial keyed by ``seed * 2^64 + trial``.  A Philox stream depends only on
its key and counter, so ``trial_uniforms`` draws a chunk of trials at once:
rows of at most ``ARRAY_MAX_WIDTH`` uniforms as Philox blocks computed on
uint64 arrays, wider rows from one generator re-keyed per trial.  Either
way each row equals what a fresh ``trial_generator(seed, trial)`` would
draw.  Within a trial the draw layout is fixed: ``simulate`` consumes
``2n`` uniforms (value draw then tie coin per arrival, whether or not a tie
occurs); ``prophet_samples`` consumes ``n`` (one value draw per element).
Trials are processed in fixed-size chunks, threads only distribute chunks,
and every reduction is either exact integer arithmetic or a single
fixed-order pass over a preallocated per-trial array, so reports are
byte-identical for any ``--threads``.

The simulate kernel: ``Plan`` compiles a policy once per ``simulate``
call into one ``_Arrival`` per arrival, which holds tables keyed by (block
state, atom, blocked): may the rule accept, the value it adds, the state
after, cut from ``dp.Decisions`` over every block's states at once.  A
block state is a position in the ``model.state_levels`` level of the
block's next arrival (0 before its first), so each table is as wide as
its own arrival's level.  ``_run_chunk`` keeps a chunk's block
states and meter counts as rows contiguous over its trials, and per
arrival compares the value draw against the inverse CDF's cut points,
gathers the three table entries, and adds one row per meter an accept
counts on.  It touches the tie coin only where some key ties at a bias
strictly between 0 and 1, checks coverage only where the arrival's level
has an uncovered state, and checks a counter or a meter only once enough
earlier accepts could have filled it.  Each trial's welfare still adds
its accepted values in arrival order, and counts stay integers, so the
reports equal those of a per-trial loop.

``prophet_samples`` runs the offline greedy of the laminar matroid on a
chunk of trials at once.  Each drawn atom becomes one int64 key, the rank
of its value (descending) shifted above the element index, so ascending
keys are the greedy's order, decreasing value with ties by index.  Within
a bin the greedy keeps the first ``cap`` keys of the bin's direct
elements and of what its child bins kept, so the bins are walked children
first and each keeps its ``cap`` smallest keys (``np.partition``).  The
root's kept keys, sorted, give each trial's accepted values in the
per-trial greedy's order, and the total adds the positive ones in that
order, so it keeps that greedy's bits.

``evaluate_exact`` binds each policy block to its levels and runs it
through ``dp.forward_all``; its trace is the list of each level's state
probabilities (one list per block of a composed policy, evaluated with
the hard counters off, which is the quantity the LP accounts for).

``check_negative_cylinder`` computes, exactly, every joint acceptance
moment ``E[prod_{t in S} X_t]`` of the optimal shifted chain policy with a
forward pass over (subset, sold count), on the threshold policy's
acceptance rates (``dp.Decisions``), and compares it against the product
of marginals; optimal chains can fail this per-subset form.
``check_summed_cylinder`` checks the form summed over subsets of each
size, ``E[binom(C, k)] <= e_k(p)`` for the sold count ``C``, from the
exact count distribution that
``dp.forward`` carries to the chain's last level; that is what the
Chernoff upper tail on ``C`` needs.
``search_dependency_counterexample`` sweeps small laminar
structures for a later element whose optimal price drops after an earlier
acceptance.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_STATE_CAP,
    InstanceError,
    LaminarInstance,
    ProductionInstance,
    BinSubproblem,
    SizingError,
    TypeSubproblem,
    as_laminar,
    bind_dynamics,
    levels_of,
)
from .dp import (
    Decisions,
    forward,
    forward_all,
    solve_full_dp,
    solve_subproblem_dp,
    threshold_policy,
)
from .rounding import ComposedPolicy

CHUNK = 4096
# widest row drawn as whole-array Philox blocks (see ``trial_uniforms``);
# set from the crossover measured in notes/decisions.md
ARRAY_MAX_WIDTH = 24
_MASK64 = (1 << 64) - 1
# the per-subset cylinder check enumerates 2^l subsets of a type's l buyers
PER_SUBSET_MAX_BUYERS = 12


class CoverageError(RuntimeError):
    """A simulated or evaluated run reached a state the policy does not cover."""


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Philox substream for one trial; key = seed * 2^64 + trial."""
    key = ((seed & _MASK64) << 64) | (trial & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def trial_uniforms(seed: int, lo: int, hi: int, k: int) -> np.ndarray:
    """``k`` uniforms for each trial in ``[lo, hi)``, one row per trial.

    Row ``r`` equals ``trial_generator(seed, lo + r).random(k)``.  Rows of
    at most ``ARRAY_MAX_WIDTH`` uniforms are computed as whole-array Philox
    blocks for every trial at once, where keying a generator would cost
    more than the draws; wider rows re-key one Philox per trial, whose C
    loop outruns the array arithmetic once a trial needs many blocks.
    """
    if k <= ARRAY_MAX_WIDTH:
        return _philox_rows(seed, lo, hi, k)
    return _rekeyed_rows(seed, lo, hi, k)


def _rekeyed_rows(seed: int, lo: int, hi: int, k: int) -> np.ndarray:
    """One Philox re-keyed per trial (counter 0, empty buffer) instead of a
    generator built per trial.  The state dict is local, so threads share
    nothing."""
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    key = [0, seed & _MASK64]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    out = np.empty((hi - lo, k))
    for trial, row in zip(range(lo, hi), out):
        key[0] = trial & _MASK64
        bitgen.state = state
        gen.random(out=row)
    return out


# Philox4x64-10 multipliers and Weyl key increments (Random123, as numpy)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_U11 = np.uint64(11)


def _multiplier(m: np.ndarray):
    return m, m & _LOW32, m >> _U32


# (M0, M1) against the stacked (x0, x2) words, and M0 against a trial vector
_PAIR_M = _multiplier(np.array(_PHILOX_M, dtype=np.uint64).reshape(2, 1, 1))
_TRIAL_M0 = _multiplier(np.array(_PHILOX_M[0], dtype=np.uint64))
_WEYL = np.array(_PHILOX_W, dtype=np.uint64).reshape(2, 1, 1)


def _mulhilo(x, mult, mult_lo, mult_hi):
    """High and low words of the 128-bit products ``mult * x`` on uint64
    arrays, from the 32-bit halves of both factors."""
    x_lo = x & _LOW32
    x_hi = x >> _U32
    mid = mult_hi * x_lo
    mid += (mult_lo * x_lo) >> _U32
    cross = mult_lo * x_hi
    cross += mid & _LOW32
    high = mult_hi * x_hi
    high += mid >> _U32
    high += cross >> _U32
    return high, x * mult


def _philox_rows(seed: int, lo: int, hi: int, k: int) -> np.ndarray:
    """numpy's Philox4x64-10 output for keys ``(trial, seed)``, computed on
    arrays.

    A fresh generator increments its counter before each block, so block
    ``b`` of a row uses counter ``(b, 0, 0, 0)`` for ``b = 1, 2, ...``, and
    its four words are the row's uniforms ``4(b-1)`` to ``4b - 1``, each
    ``(word >> 11) * 2^-53``.  The state is held as ``x = (x0, x2)`` and
    ``c = (x1, x3)``, each of shape ``(2, blocks, trials)``; a round maps it
    to ``x = (hi1 ^ x1 ^ key0, hi0 ^ x3 ^ key1)``, ``c = (lo1, lo0)`` with
    ``(hi0, lo0) = M0 * x0`` and ``(hi1, lo1) = M1 * x2``, and the key takes
    its Weyl bump between rounds.  Round 1 sees a counter that varies only
    by block and a key word that varies only by trial, so rounds 1 and 2
    are computed on per-block integers and per-trial vectors.
    """
    m = hi - lo
    blocks = -(-k // 4)
    s = seed & _MASK64
    trial = np.arange(lo, hi, dtype=np.uint64)
    # round 1: x = (trial, hi(M0 * b) ^ seed), c = (0, lo(M0 * b))
    prod0 = [_PHILOX_M[0] * b for b in range(1, blocks + 1)]
    # round 2, key (trial + W0, seed + W1): M1 times the block's x2, and M0
    # times the trial
    prod1 = [_PHILOX_M[1] * ((p >> 64) ^ s) for p in prod0]
    t_hi, t_lo = _mulhilo(trial, *_TRIAL_M0)
    key = np.empty((2, 1, m), dtype=np.uint64)
    key[0, 0] = trial
    key[1] = s
    key += _WEYL
    x = np.empty((2, blocks, m), dtype=np.uint64)
    c = np.empty((2, blocks, m), dtype=np.uint64)
    np.bitwise_xor(key[0], _column([p >> 64 for p in prod1]), out=x[0])
    np.bitwise_xor(t_hi ^ key[1], _column([p & _MASK64 for p in prod0]),
                   out=x[1])
    c[0] = _column([p & _MASK64 for p in prod1])
    c[1] = t_lo
    for _ in range(8):
        key += _WEYL
        high, low = _mulhilo(x, *_PAIR_M)
        x = high[::-1] ^ c
        x ^= key
        c = low[::-1]
    words = np.stack((x[0], c[0], x[1], c[1]))
    words >>= _U11
    u = words * 2.0 ** -53
    # (word, block, trial) -> (trial, 4 * block + word)
    return u.transpose(2, 1, 0).reshape(m, 4 * blocks)[:, :k]


def _column(ints) -> np.ndarray:
    return np.array(ints, dtype=np.uint64)[:, None]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class SimulationReport:
    trials: int
    seed: int
    mean: float
    stderr: float
    violations: dict
    ignored_fraction: float
    ignored_stderr: float
    acceptance_frequency: tuple

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "welfare_mean": self.mean,
            "welfare_stderr": self.stderr,
            "violations": dict(sorted(self.violations.items())),
            "violations_total": self.total_violations,
            "ignored_fraction": self.ignored_fraction,
            "ignored_stderr": self.ignored_stderr,
            "acceptance_frequency": list(self.acceptance_frequency),
        }

    def to_csv_rows(self) -> list[tuple]:
        rows = [("welfare_mean", self.mean, self.stderr, self.trials, self.seed),
                ("ignored_fraction", self.ignored_fraction, self.ignored_stderr,
                 self.trials, self.seed),
                ("violations_total", self.total_violations, "", self.trials,
                 self.seed)]
        for key in sorted(self.violations):
            rows.append((f"violations[{key}]", self.violations[key], "",
                         self.trials, self.seed))
        for t, f in enumerate(self.acceptance_frequency):
            rows.append((f"accept_freq[{t}]", f, "", self.trials, self.seed))
        return rows


def _csv_cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def report_to_csv(rows) -> str:
    out = ["metric,value,stderr,trials,seed"]
    for metric, value, stderr, trials, seed in rows:
        out.append(",".join([metric, _csv_cell(value), _csv_cell(stderr),
                             _csv_cell(trials), _csv_cell(seed)]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Compiled execution plan
# ---------------------------------------------------------------------------


@dataclass
class PolicyFit:
    """How a policy binds to an instance: the instance its scopes read
    (``work``, laminar unless every scope is a type chain), its blocks and
    their dynamics by scope key, the block of each element, and its
    counters (``counter_caps``, ``counter_keys``)."""

    work: object
    blocks: dict
    dyns: dict
    block_of: dict
    counter_caps: dict
    counter_keys: dict
    counter_meter: dict  # counter key -> its index in Plan.meter_names


def fit_policy(policy, inst) -> PolicyFit:
    """Check that ``policy`` fits ``inst`` without compiling it: each
    element in exactly one block, a composed policy's ``element_block`` and
    ``counter_keys`` naming exactly the elements and dispatching each to
    its block, and every counter a capacity of the instance.  Raises
    ``InstanceError`` when it does not fit."""
    if isinstance(policy, ComposedPolicy):
        blocks = dict(policy.blocks)
        element_block = dict(policy.element_block)
        counter_caps = dict(policy.counter_caps)
        counter_keys = dict(policy.counter_keys)
    else:
        blocks = {policy.scope: policy}
        element_block = None
        counter_caps = {}
        counter_keys = {}
    needs_laminar = any(k == "root" or k.startswith(("bin:", "elem:"))
                        for k in blocks)
    if needs_laminar:
        work = as_laminar(inst)
    else:
        if not isinstance(inst, ProductionInstance):
            raise InstanceError("policy scopes require a production instance")
        work = inst
    n = len(work.dists)

    dyns = {}
    block_of = {}
    for bi, key in enumerate(sorted(blocks)):
        dyns[key] = dyn = bind_dynamics(key, work)
        for e in dyn.elements:
            if e in block_of:
                raise InstanceError(f"policy: element {e} covered twice")
            block_of[e] = (bi, key)
    missing = [e for e in range(n) if e not in block_of]
    if missing:
        raise InstanceError([f"policy: element {e} not covered"
                             for e in missing])
    if element_block is not None:
        # both maps name every element once, as composition writes them
        for field, keyed in (("element_block", element_block),
                             ("counter_keys", counter_keys)):
            off = sorted(keyed.keys() ^ set(range(n)))
            if off:
                raise InstanceError(
                    f"policy: {field} must name exactly elements "
                    f"0..{n - 1} (differs at {off})")
        for e, key in element_block.items():
            if block_of[e][1] != key:
                raise InstanceError(f"policy: dispatch mismatch at element {e}")

    if isinstance(work, LaminarInstance):
        counter_meter = {f"bin:{b}": b for b in range(work.num_bins)}
    else:
        counter_meter = {"shipping": work.num_types}
    foreign = ({k for ks in counter_keys.values() for k in ks}
               - counter_meter.keys())
    if foreign:
        raise InstanceError(f"policy: counters {sorted(foreign)} are not "
                            "capacities of the instance")
    return PolicyFit(work, blocks, dyns, block_of, counter_caps,
                     counter_keys, counter_meter)


class Plan:
    """A policy compiled against an instance for ``_run_chunk``: one
    ``_Arrival`` per arrival.  Raises ``InstanceError`` when the policy
    does not fit the instance (``fit_policy``)."""

    def __init__(self, policy, inst, state_cap):
        fit = fit_policy(policy, inst)
        work = fit.work
        self.n = len(work.dists)
        self.num_blocks = len(fit.blocks)
        bound = []
        for key, dyn in fit.dyns.items():
            block = fit.blocks[key]
            bound.append(block.bind(dyn, levels_of(dyn, state_cap,
                                                   block.levels)))
        # every block's decision tables at once, atoms by states
        decided = Decisions([pol for pol, _ in bound], work.dists)
        values, bias = decided.values, decided.bias
        accept = bias > 0.0
        levels = [pol.levels for pol, _ in bound]
        skips = np.concatenate([s for lv in levels for s in lv.skips])
        picks = np.concatenate([s for lv in levels for s in lv.picks])
        block = (accept, np.where(accept, values, 0.0),
                 np.where(accept, picks, skips), bias)
        tables = {}  # element -> its arrival's part of the tables
        end = 0
        for pol, holes in bound:
            for i, e in enumerate(pol.elements):
                start, end = end, end + len(pol.levels.skips[i])
                k = len(work.dists[e].atoms)
                tables[e] = ([t[:k, start:end] for t in block],
                             skips[start:end], None if holes[i] is None
                             else (holes[i], pol.levels, i))

        # constraint meters: every real capacity, checked on accept
        if isinstance(work, ProductionInstance):
            self.meter_names = [f"type:{j}" for j in range(work.num_types)]
            self.meter_names.append("shipping")
        else:
            self.meter_names = [("root" if b == 0 else f"bin:{b}")
                                for b in range(work.num_bins)]
        self.num_meters = len(self.meter_names)

        self.arrivals = []
        # accepts so far that can have counted on each meter
        seen = [0] * self.num_meters
        for e in range(self.n):
            bi, key = fit.block_of[e]
            if isinstance(work, ProductionInstance):
                j = work.types[e]
                meters = [j, work.num_types]
                caps = [work.available(j, work.days[e]), work.shipping]
            else:
                meters = list(work.elem_ancestors(e))
                caps = [work.bin_caps[b] for b in meters]
            # a meter never counts past n, so a larger cap acts as n (and n
            # fits in int64 where a cap from a document may not).  A meter
            # has counted at most ``seen`` accepts, so a counter below its
            # cap until then never blocks and a meter whose cap ``seen``
            # cannot pass is never overfilled: neither is checked.
            counters = [(fit.counter_meter[k], min(fit.counter_caps[k], self.n))
                        for k in fit.counter_keys.get(e, ())]
            counters = [(mi, cap) for mi, cap in counters if seen[mi] >= cap]
            for mi in meters:
                seen[mi] += 1
            checks = [(mi, min(cap, self.n)) for mi, cap in zip(meters, caps)]
            checks = [(mi, cap) for mi, cap in checks if seen[mi] > cap]
            self.arrivals.append(_Arrival(e, bi, work.dists[e], tables[e],
                                          counters, meters, checks))
        # a meter's count is read by its checks and, one arrival on, by its
        # counters; an accept after its last read need not count on it
        live = set()
        for arr in reversed(self.arrivals):
            live.update(mi for mi, _ in arr.checks)
            arr.meters = [mi for mi in arr.meters if mi in live]
            live.update(mi for mi, _ in arr.counters)


class _Arrival:
    """One arrival's decisions, compiled for ``_run_chunk``.

    A trial's decision depends only on its block state ``s``, its position
    in the arrival's level, the atom ``a`` its value draw lands on and
    whether a counter blocks it, so the arrival keeps one table entry per
    key ``s + ns * a (+ ns * k if blocked)`` over its ``k`` atoms and the
    level's ``ns`` states: ``accept`` (the rule may accept), ``gain`` (the
    atom's value where it may accept, else 0) and ``next`` (the position in
    the next level after that accept, else ``skip[s]``, after a skip).
    ``prob`` is ``None`` unless some key ties at a bias strictly between 0
    and 1; it then holds each key's acceptance bias (1 above the
    threshold, 0 below), which the tie coin is compared against.  A bias
    of 1 or 0 needs no coin: coins lie in ``[0, 1)``.

    ``cut`` turns the value draw into the atom index ``searchsorted(
    cumsum(probs), u, "right")`` clipped to the last atom, which counts the
    cumulative probabilities at or below ``u`` among all but the last: no
    cut for one atom, one comparison against a Python float for two, and
    ``searchsorted`` over the cut points for more.

    ``holes`` is ``None`` when the rules cover every state of the arrival's
    level, else ``(uncovered, levels, i)``: the mask of the uncovered
    positions of level ``i`` of ``levels``.  ``counters`` and ``checks``
    are ``(meter, cap)`` pairs: an arrival is blocked once a counter's
    meter reaches its cap, and an accept that takes a checked meter past
    its cap is a violation.  ``meters`` are the meters an accept counts on.
    """

    def __init__(self, e, block, dist, tables, counters, meters, checks):
        (accept, gain, nxt, bias), skips, self.holes = tables
        cuts = list(itertools.accumulate(float(q) for q in dist.probs))[:-1]
        self.cut = (None if not cuts else cuts[0] if len(cuts) == 1
                    else np.array(cuts))
        ns = self.stride = len(skips)
        self.blocked_offset = ns * len(accept)
        coin = (accept & (bias < 1.0)).any()
        if counters:  # the blocked keys, after the others, never accept
            accept, gain, bias = (np.vstack((a, np.zeros_like(a)))
                                  for a in (accept, gain, bias))
            nxt = np.vstack((nxt, np.broadcast_to(skips, nxt.shape)))
        self.accept = accept.ravel()
        self.gain = gain.ravel()
        self.next = nxt.ravel()
        self.skip = skips
        self.prob = bias.ravel() if coin else None
        self.block = block
        self.counters = counters
        self.meters = meters
        self.checks = checks


def _run_chunk(plan: Plan, seed, lo, hi, welfare_out, ignored_out,
               accept_out, viol_out):
    """Run trials ``[lo, hi)``: states are one row per block and counts one
    row per meter, each contiguous over the chunk's trials."""
    m = hi - lo
    draws = trial_uniforms(seed, lo, hi, 2 * plan.n)
    states = np.zeros((plan.num_blocks, m), dtype=np.int64)
    counts = np.zeros((plan.num_meters, m), dtype=np.int64)
    welfare = np.zeros(m)
    ignored = np.zeros(m, dtype=np.int64)
    for e, arr in enumerate(plan.arrivals):
        si = states[arr.block]
        if arr.holes is not None:
            uncovered, lv, i = arr.holes
            hit = np.flatnonzero(uncovered[si])
            if hit.size:
                state = lv.state(i, int(si[hit[0]]))
                raise CoverageError(f"no rule for arrival {e} in state {state}")
        key = si
        if arr.cut is not None:
            u = draws[:, 2 * e]
            if isinstance(arr.cut, float):
                atom = u >= arr.cut
            else:
                atom = np.searchsorted(arr.cut, u, side="right")
            key = si + arr.stride * atom
        if arr.counters:
            mi, cap = arr.counters[0]
            blocked = counts[mi] >= cap
            for mi, cap in arr.counters[1:]:
                blocked |= counts[mi] >= cap
            ignored += blocked
            key = key + arr.blocked_offset * blocked
        if arr.prob is None:
            acc = arr.accept[key]
            welfare += arr.gain[key]
            states[arr.block] = arr.next[key]
        else:
            acc = draws[:, 2 * e + 1] < arr.prob[key]
            welfare += arr.gain[key] * acc
            states[arr.block] = np.where(acc, arr.next[key], arr.skip[si])
        for mi in arr.meters:
            counts[mi] += acc
        for mi, cap in arr.checks:
            viol_out[mi] += np.count_nonzero((counts[mi] > cap) & acc)
        accept_out[e] += np.count_nonzero(acc)
    welfare_out[lo:hi] = welfare
    ignored_out[lo:hi] = ignored


def simulate(policy, inst, trials: int, seed: int, *, threads: int = 1,
             state_cap=DEFAULT_STATE_CAP) -> SimulationReport:
    """Seeded Monte Carlo run of a policy; deterministic given the seed.

    A value is accepted iff it exceeds the quoted threshold, or equals it
    and an independent coin of the rule's bias lands heads.  Violation
    counts tally accepts that push any real capacity past its limit (always
    zero for well-formed policies); the ignored fraction counts arrivals
    quoted infinity by a hard counter.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    plan = Plan(policy, inst, state_cap)
    welfare = np.zeros(trials)
    ignored = np.zeros(trials, dtype=np.int64)
    bounds = [(lo, min(lo + CHUNK, trials)) for lo in range(0, trials, CHUNK)]
    accepts = [np.zeros(plan.n, dtype=np.int64) for _ in bounds]
    viols = [np.zeros(plan.num_meters, dtype=np.int64) for _ in bounds]

    def work(ci):
        lo, hi = bounds[ci]
        _run_chunk(plan, seed, lo, hi, welfare, ignored, accepts[ci], viols[ci])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(len(bounds))))
    else:
        for ci in range(len(bounds)):
            work(ci)
    accept_total = np.sum(accepts, axis=0)
    viol_total = np.sum(viols, axis=0)
    mean = float(welfare.mean())
    stderr = (float(welfare.std(ddof=1) / math.sqrt(trials))
              if trials > 1 else 0.0)
    frac = ignored / plan.n
    ignored_mean = float(frac.mean())
    ignored_stderr = (float(frac.std(ddof=1) / math.sqrt(trials))
                      if trials > 1 else 0.0)
    return SimulationReport(
        trials=trials, seed=seed, mean=mean, stderr=stderr,
        violations={plan.meter_names[i]: int(viol_total[i])
                    for i in range(plan.num_meters)},
        ignored_fraction=ignored_mean, ignored_stderr=ignored_stderr,
        acceptance_frequency=tuple(float(c) / trials for c in accept_total),
    )


# ---------------------------------------------------------------------------
# Exact forward evaluation
# ---------------------------------------------------------------------------


def evaluate_exact(policy, inst, *, state_cap=DEFAULT_STATE_CAP):
    """Exact expected welfare and state-probability trace of a policy.

    Each block is bound to its levels and run through ``dp.forward_all``.
    Composed policies are evaluated block by block with the hard counters
    off; that is exactly the value the relaxation objective accounts for.
    A composed policy must fit ``inst`` (``fit_policy``), as in ``simulate``.
    Returns ``(welfare, trace)``: ``trace`` holds the probability of each
    state of the block's ``model.state_levels``, level by level (the last
    one after the block's last arrival), and for a composed policy maps
    each block's key to that list.  Raises ``CoverageError`` at the first
    state without a rule that the policy reaches.

    The welfare adds each reached state's ``mass * gain`` in the order a
    walk over the reached states would visit them: level by level, each
    state's pick target before its skip target, a state first reached
    first.  That order is carried as a position array per level and summed
    with one cumulative sum, so the sum keeps the walk's bits.
    """
    if isinstance(policy, ComposedPolicy):
        fit = fit_policy(policy, inst)
        blocks = {key: (fit.blocks[key], fit.dyns[key])
                  for key in sorted(fit.blocks)}
    else:
        blocks = {policy.scope: (policy, bind_dynamics(policy.scope, inst))}
    total = 0.0
    trace = {}
    for key, (block, dyn) in blocks.items():
        lv = levels_of(dyn, state_cap, block.levels)
        bound, holes = block.bind(dyn, lv)
        decided, [(_, occupancy, _)] = forward_all([bound], inst.dists)
        trace[key] = occupancy
        if decided is None:
            continue
        rate = decided.rates
        mass = np.concatenate(occupancy[:-1]) * decided.gains
        skips, picks = np.concatenate(lv.skips), np.concatenate(lv.picks)
        # the walk goes from a state to its pick target, then to its skip
        # target, where either takes any mass (-1 where not)
        goes = np.array([np.where(rate > 0.0, picks, -1),
                         np.where(rate < 1.0, skips, -1)]).T.copy()
        seen = np.zeros(1, dtype=np.int64)  # the reached states, in order
        order = []
        start = 0
        for i, e in enumerate(dyn.elements):
            if holes[i] is not None and holes[i][seen].any():
                j = int(seen[holes[i][seen].argmax()])
                raise CoverageError(
                    f"no rule for arrival {e} in state {lv.state(i, j)}")
            order.append(seen + start)
            start += len(lv.skips[i])
            targets = goes[order[-1]].ravel()
            targets = targets[targets >= 0]
            # a target comes at most twice; keep where it first comes
            by = targets.argsort(kind="stable")
            keep = np.ones(len(targets), dtype=bool)
            keep[by[1:][targets[by[1:]] == targets[by[:-1]]]] = False
            seen = targets[keep]
        terms = mass[np.concatenate(order)]
        total += float(np.concatenate(([0.0], terms)).cumsum()[-1])
    if isinstance(policy, ComposedPolicy):
        return total, trace
    return total, trace[policy.scope]


# ---------------------------------------------------------------------------
# Prophet (offline) benchmark
# ---------------------------------------------------------------------------


def prophet_samples(inst, trials: int, seed: int) -> np.ndarray:
    """Per-trial offline optimum via greedy in the laminar matroid.

    Each trial takes elements by decreasing value (ties by index) while
    the value is positive and every ancestor bin has room.  Within a bin
    that greedy keeps the first ``cap`` elements, in greedy order, of the
    bin's direct elements and what its child bins kept.  So a chunk of
    trials runs it bin by bin, children before parents, on one int64 key
    per drawn atom, ``(rank of the value, descending) << bits | element``,
    whose ascending order is the greedy order: each bin keeps its ``cap``
    smallest keys.  Each trial's total adds the root's kept positive
    values in ascending key order, the order the per-trial greedy adds
    them in.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lam = as_laminar(inst)
    n = lam.num_elements
    sizes = np.array([len(d.atoms) for d in lam.dists])
    width = int(sizes.max())
    # element e's atoms fill the first sizes[e] columns of row e
    real = np.arange(width) < sizes[:, None]
    probs = np.zeros((n, width))
    probs[real] = [q for d in lam.dists for _, q in d.atoms]
    # a value's rank is its position among the negated atom values,
    # ascending; a value gains only where it is positive
    neg, rank = np.unique([-v for d in lam.dists for v, _ in d.atoms],
                          return_inverse=True)
    gain = np.where(neg < 0.0, -neg, 0.0)
    bits = n.bit_length()
    keys = np.zeros((n, width), dtype=np.int64)
    keys[real] = rank << bits | np.repeat(np.arange(n), sizes)
    # element e draws atom a when a of its cut points are <= u, which is
    # ``searchsorted(cumsum, u, "right")`` clipped to its last atom (the
    # row cumsum adds in order, as the 1-D one does); padding cut points
    # are infinite, so padding atoms are never drawn
    cuts = np.where(real[:, 1:], np.cumsum(probs, axis=1)[:, :-1], np.inf).T
    steps = np.diff(keys, axis=1).T
    direct = [np.array(es, dtype=np.int64) for es in lam.bin_child_elems]
    out = np.empty(trials)
    for lo in range(0, trials, CHUNK):
        hi = min(lo + CHUNK, trials)
        u = trial_uniforms(seed, lo, hi, n)
        # atom 0's key plus the step to the next atom's key at every cut
        # point at or below the draw
        drawn = np.repeat(keys[None, :, 0], hi - lo, axis=0)
        for cut, step in zip(cuts, steps):
            drawn += (u >= cut) * step
        # bins are numbered in pre-order, so walking them backwards
        # reaches every child before its parent
        kept = [None] * lam.num_bins
        for b in range(lam.num_bins - 1, -1, -1):
            parts = [drawn[:, direct[b]]]
            parts += [kept[c] for c in lam.bin_child_bins[b]]
            k = np.concatenate(parts, axis=1)
            cap = lam.bin_caps[b]
            if cap == 0:
                k = k[:, :0]
            elif cap < k.shape[1]:
                k = np.partition(k, cap - 1, axis=1)[:, :cap]
            kept[b] = k
        total = np.zeros(hi - lo)
        for col in gain[np.sort(kept[0], axis=1) >> bits].T:
            total += col
        out[lo:hi] = total
    return out


# ---------------------------------------------------------------------------
# Negative cylinder dependency
# ---------------------------------------------------------------------------


def check_negative_cylinder(p: ProductionInstance, type_index: int,
                            shift: float = 0.0, tol: float = 1e-9, *,
                            table=None):
    """Exact all-subset check of E[prod X] <= prod E[X] for the optimal
    shifted chain policy.

    Acceptance indicators follow the subproblem table's thresholds with
    acceptance at equality.  Returns ``(ok, worst_subset, worst_gap)``;
    the gap is the largest ``E[prod] - prod E`` over all subsets.  Optimal
    chain policies can fail this per-subset form (see notes/decisions.md);
    ``check_summed_cylinder`` checks the form the concentration bound uses.
    Raises ``SizingError`` above ``PER_SUBSET_MAX_BUYERS`` buyers.
    ``table`` is the type's ``solve_subproblem_dp`` table at ``shift``,
    solved here when not given.
    """
    dyn = TypeSubproblem(p, type_index)
    l = len(dyn.elements)
    if l == 0:
        return True, (), 0.0
    if l > PER_SUBSET_MAX_BUYERS:
        raise SizingError(dyn.key, 2 ** l, 2 ** PER_SUBSET_MAX_BUYERS)
    if table is None:
        table = solve_subproblem_dp(p, type_index, shift)
    rates = Decisions([threshold_policy(table)], p.dists, table.shift).rates
    # acc[i, s]: the i-th buyer's acceptance rate with s units sold; a
    # chain state's code is its sold count, and the last level holds them all
    codes = table.levels.codes
    acc = np.zeros((l, int(codes[-1][-1]) + 1))
    acc[np.repeat(np.arange(l), [len(c) for c in codes[:-1]]),
        np.concatenate(codes[:-1])] = rates
    smax = acc.shape[1] - 1
    ids = np.arange(2 ** l, dtype=np.int64)
    f = np.zeros((2 ** l, smax + 1))
    f[:, 0] = 1.0
    for i in range(l):
        taken = f[:, :smax] * acc[i, :smax]
        shifted = np.zeros_like(f)
        shifted[:, 1:] = taken
        stay = f * (1.0 - acc[i])
        has = ((ids >> i) & 1).astype(bool)
        f = np.where(has[:, None], shifted, stay + shifted)
    moments = f.sum(axis=1)
    marg = np.array([moments[1 << i] for i in range(l)])
    prod = np.ones(2 ** l)
    for mask in range(1, 2 ** l):
        low = mask & (-mask)
        prod[mask] = prod[mask ^ low] * marg[low.bit_length() - 1]
    gaps = moments - prod
    worst = int(np.argmax(gaps))
    subset = tuple(t for i, t in enumerate(dyn.elements) if (worst >> i) & 1)
    gap = float(gaps[worst])
    return gap <= tol, subset, gap


def chain_count_distribution(p: ProductionInstance, type_index: int,
                             shift: float = 0.0, *, table=None):
    """Exact sold-count distribution and acceptance marginals of the
    optimal shifted chain policy, read off ``dp.forward``.

    Returns ``(counts, marginals)``: ``counts[c] = Pr[C = c]`` and
    ``marginals[i] = E[X_i]`` for the ``i``-th buyer of the type.
    ``table`` is the type's ``solve_subproblem_dp`` table at ``shift``,
    solved here when not given.
    """
    if table is None:
        table = solve_subproblem_dp(p, type_index, shift)
    _, occupancy, picks = forward(threshold_policy(table), p.dists,
                                  table.shift)
    # the last level holds every sold count, each coded as itself
    return occupancy[-1], np.array(picks)


def binomial_moments(counts) -> np.ndarray:
    """``E[binom(C, k)]`` for ``k = 0 .. len(counts) - 1``, where
    ``counts[c] = Pr[C = c]``."""
    c = len(counts)
    pascal = np.array([[math.comb(i, k) for k in range(c)] for i in range(c)],
                      dtype=float)
    return np.asarray(counts, dtype=float) @ pascal


def summed_cylinder_gaps(counts, marginals) -> np.ndarray:
    """``gaps[k] = E[binom(C, k)] - e_k(marginals)`` for ``k = 0 .. l``.

    ``e_k`` is the k-th elementary symmetric polynomial of the marginals,
    i.e. the sum over size-k subsets of the product of marginals, and
    ``E[binom(C, k)]`` is the same sum over the joint moments, so a
    non-positive gap at every k is the per-subset inequality summed by size.
    """
    l = len(marginals)
    e = np.zeros(l + 1)
    e[0] = 1.0
    for q in marginals:
        e[1:] = e[1:] + q * e[:-1]
    mom = np.zeros(l + 1)
    bm = binomial_moments(counts)[:l + 1]
    mom[:len(bm)] = bm
    return mom - e


def check_summed_cylinder(p: ProductionInstance, type_index: int,
                          shift: float = 0.0, tol: float = 1e-9, *,
                          table=None):
    """Exact check of ``E[binom(C, k)] <= e_k(p)`` at every k for the optimal
    shifted chain policy, with ``C`` its sold count and ``p`` its acceptance
    marginals.

    This summed form gives ``E[exp(lam C)] <= prod(1 - p_t + p_t e^lam)``
    for every ``lam >= 0``, the Chernoff upper tail the concentration
    argument needs.  Returns ``(ok, worst_k, worst_gap)``; an empty chain
    returns ``(True, 0, 0.0)``.  ``table`` is as for
    ``chain_count_distribution``.
    """
    counts, marginals = chain_count_distribution(p, type_index, shift,
                                                 table=table)
    gaps = summed_cylinder_gaps(counts, marginals)
    if len(gaps) == 1:
        return True, 0, 0.0
    worst = int(np.argmax(gaps[1:])) + 1
    gap = float(gaps[worst])
    return gap <= tol, worst, gap


# ---------------------------------------------------------------------------
# Counterexample search: price drops after an earlier acceptance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DependencyHit:
    tree: dict
    price_after_pick: float
    price_after_skip: float


# The sweep: families of at most two inner bins with capacities up to
# SEARCH_MAX_CAP under a root of capacity up to SEARCH_MAX_ROOT_CAP, and
# the prices to elements 0 and 1, a drop counting past SEARCH_MARGIN.
SEARCH_MAX_CAP = 3
SEARCH_MAX_ROOT_CAP = 5
SEARCH_MARGIN = 1e-9


def search_dependency_counterexample(
        dists, *, chains_only: bool = False) -> list[DependencyHit]:
    """Sweep laminar structures over the given ordered element distributions
    for a structure where the optimal price to element 1 is strictly lower
    after element 0 is accepted than after it is skipped.

    Chains (nested prefix bins, the production shape) never produce a hit
    and serve as the negative control (``chains_only``).  Returns every hit
    found.
    """
    n = len(dists)
    if chains_only:
        candidates = [frozenset(range(i + 1)) for i in range(1, n - 1)]
    else:
        candidates = [frozenset(c)
                      for size in range(2, n)
                      for c in itertools.combinations(range(n), size)]
    families = [()]
    families += [(s,) for s in candidates]
    for a, b in itertools.combinations(candidates, 2):
        if a <= b or b <= a or not (a & b):
            families.append((a, b))
    hits = []
    for family in families:
        for caps in itertools.product(
                *[range(1, min(len(s), SEARCH_MAX_CAP + 1)) for s in family]):
            for root_cap in range(1, SEARCH_MAX_ROOT_CAP + 1):
                tree = _family_tree(n, family, caps, root_cap)
                inst = LaminarInstance.build(dists, tree)
                hit = _conditional_price_drop(inst, 0, 1, SEARCH_MARGIN)
                if hit is not None:
                    hits.append(DependencyHit(tree=inst.to_tree(),
                                              price_after_pick=hit[0],
                                              price_after_skip=hit[1]))
    return hits


def _family_tree(n, family, caps, root_cap):
    order = sorted(range(len(family)), key=lambda i: -len(family[i]))
    nodes = {i: {"cap": caps[i], "children": []} for i in range(len(family))}
    placed_elem = {}
    placed_bin = {}
    for i in order:  # largest first so nesting lands on the tightest parent
        holder = None
        for j in order:
            if j == i or not (family[i] < family[j]):
                continue
            if holder is None or len(family[j]) < len(family[holder]):
                holder = j
        placed_bin[i] = holder
    root = {"cap": root_cap, "children": []}
    for i in order:
        target = root if placed_bin[i] is None else nodes[placed_bin[i]]
        target["children"].append(nodes[i])
    for e in range(n):
        holder = None
        for i in range(len(family)):
            if e in family[i]:
                if holder is None or len(family[i]) < len(family[holder]):
                    holder = i
        target = root if holder is None else nodes[holder]
        target["children"].append({"element": e})
    return root


def _conditional_price_drop(inst, first, second, margin):
    _, policy = solve_full_dp(inst)
    dyn = BinSubproblem(inst, 0)
    s0 = dyn.initial
    tau1, p1 = policy.rule(first, s0)
    acc = inst.dists[first].tail_above(tau1) + p1 * inst.dists[first].prob_at(tau1)
    if not (0.0 < acc < 1.0):
        return None  # conditioning on both outcomes needs both possible
    s_pick = dyn.pick(s0, first)
    tau_pick = policy.rule(second, s_pick)[0]
    tau_skip = policy.rule(second, s0)[0]
    if tau_pick < tau_skip - margin:
        return tau_pick, tau_skip
    return None
