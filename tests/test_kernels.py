"""Vectorized kernels against their scalar references.

``trial_uniforms`` must reproduce each trial's own Philox substream,
``prophet_samples`` must equal the per-trial greedy of
``conftest.reference_prophet_samples`` bit for bit, and ``simulate`` reports
must hash to the values recorded when every trial built its own generator.
The backward-induction kernel behind ``solve_full_dp`` and
``solve_subproblem_dp`` must give the values, thresholds and entry order of
``conftest.reference_full_dp`` / ``reference_subproblem_dp`` exactly.
"""

import hashlib
import json

import numpy as np
import pytest

from binprice import (
    DiscreteDistribution,
    LaminarInstance,
    ProductionInstance,
    SizingError,
    as_laminar,
    simulate,
    solve_full_dp,
    solve_subproblem_dp,
)
from binprice import dp
from binprice.harness import (
    CHUNK,
    _chain_acceptance,
    prophet_samples,
    trial_generator,
    trial_uniforms,
)
from binprice.model import BinSubproblem, TypeSubproblem, reachable_profile

from conftest import (
    criterion_7_laminar,
    reference_full_dp,
    reference_prophet_samples,
    reference_subproblem_dp,
)

SEEDS = (0, 7, 2 ** 63 + 5)

D = DiscreteDistribution.of


def multi_day_production() -> ProductionInstance:
    # three days, tied values across buyers, zero-valued atoms, and a type
    # with nothing produced on day 0 (a cap-0 bin once made laminar)
    return ProductionInstance(
        dists=(D([(0.0, 0.25), (1.0, 0.5), (3.0, 0.25)]),
               D([(1.0, 0.5), (2.0, 0.5)]),
               DiscreteDistribution.point(2.0),
               D([(0.0, 0.5), (2.0, 0.5)]),
               D([(0.5, 0.5), (3.0, 0.5)]),
               D([(0.0, 0.75), (1.0, 0.25)]),
               D([(1.0, 0.5), (2.0, 0.5)])),
        types=(0, 1, 0, 1, 0, 1, 0), days=(0, 0, 0, 1, 1, 2, 2),
        production=((1, 2, 2), (0, 1, 2)), shipping=3)


def deep_laminar() -> LaminarInstance:
    # depth 2 below the root, a cap-0 bin, ties and zero-valued atoms
    dists = (D([(0.0, 0.5), (2.0, 0.5)]),
             D([(1.0, 0.5), (2.0, 0.5)]),
             DiscreteDistribution.point(2.0),
             D([(0.0, 0.25), (1.5, 0.5), (3.0, 0.25)]),
             D([(1.0, 0.5), (3.0, 0.5)]),
             D([(0.0, 0.5), (2.0, 0.5)]),
             D([(0.5, 0.5), (2.0, 0.5)]),
             DiscreteDistribution.point(0.0))
    tree = {"cap": 3, "children": [
        {"cap": 2, "children": [
            {"cap": 1, "children": [{"element": 0}, {"element": 1},
                                    {"element": 2}]},
            {"element": 3}]},
        {"cap": 0, "children": [{"element": 4}, {"element": 5}]},
        {"element": 6}, {"element": 7}]}
    return LaminarInstance.build(dists, tree)


def signed_laminar() -> LaminarInstance:
    # negative values, which the greedy never takes, next to positive ones
    return LaminarInstance.build(
        (D([(-1.0, 0.5), (1.0, 0.5)]), D([(-1.0, 0.5), (0.0, 0.5)]),
         DiscreteDistribution.point(-0.5), D([(0.0, 0.5), (2.0, 0.5)])),
        {"cap": 3, "children": [{"element": e} for e in range(4)]})


INSTANCES = {"production": multi_day_production, "laminar": deep_laminar,
             "signed": signed_laminar}

# sha256 of the sorted-key JSON of ``simulate(DP policy, CHUNK + 3 trials,
# seed 11)``, recorded when every trial built its own generator
SIMULATE_SHA256 = {
    "production": "437147d49d75a04dabe9717d099dd5056cdb2aed35edb22dcb98b6c381c1c1a6",
    "laminar": "4c49023227670878a667be8c1221063f377346fbb2290424dd71365cda9f3c2f",
}


def test_instance_shapes():
    lam = as_laminar(multi_day_production())
    assert 0 in lam.bin_caps
    deep = deep_laminar()
    assert 0 in deep.bin_caps
    assert max(len(deep.elem_ancestors(e)) for e in range(8)) >= 3


@pytest.mark.parametrize("seed", SEEDS + (-1,))
def test_trial_uniforms_rows_are_trial_substreams(seed):
    for lo, hi, k in ((0, 1, 1), (5, 40, 3), (CHUNK - 2, CHUNK + 2, 16)):
        got = trial_uniforms(seed, lo, hi, k)
        assert got.shape == (hi - lo, k)
        for r, t in enumerate(range(lo, hi)):
            assert np.array_equal(got[r], trial_generator(seed, t).random(k))


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("seed", SEEDS)
def test_prophet_samples_match_per_trial_reference(name, seed):
    inst = INSTANCES[name]()
    ref = reference_prophet_samples(inst, CHUNK + 3, seed)
    for trials in (1, CHUNK, CHUNK + 3):
        # each trial depends on its index only, so a prefix of the
        # reference is the reference at fewer trials
        assert np.array_equal(prophet_samples(inst, trials, seed),
                              ref[:trials])


@pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
def test_simulate_report_is_pinned(name):
    inst = INSTANCES[name]()
    _, policy = solve_full_dp(as_laminar(inst))
    for threads in (1, 2):
        rep = simulate(policy, inst, CHUNK + 3, seed=11, threads=threads)
        doc = json.dumps(rep.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == \
            SIMULATE_SHA256[name]


# ---------------------------------------------------------------------------
# Backward induction
# ---------------------------------------------------------------------------

CHAIN_SHIFTS = (0.0, 0.7, -1.0, 2.5)


@pytest.fixture(params=["lists", "arrays"])
def sweep(request, monkeypatch):
    """Send every state space through the named sweep of the kernel."""
    monkeypatch.setattr(dp, "SMALL_CODES",
                        2 ** 80 if request.param == "lists" else 0)
    return request.param


def assert_full_dp_matches_reference(inst):
    tbl, pol = solve_full_dp(inst)
    entries, rules = reference_full_dp(inst)
    # same keys, values and insertion order (concavity_check reports the
    # first worst triple in entry order)
    assert list(tbl.entries.items()) == list(entries.items())
    assert list(pol.rules.items()) == list(rules.items())
    assert tbl.optimal == entries[(0, BinSubproblem(inst, 0).initial)]
    return tbl


def reference_acceptance(p, type_index, shift):
    """The acceptance table as read off the scalar chain entries."""
    entries = reference_subproblem_dp(p, type_index, shift)
    dyn = TypeSubproblem(p, type_index)
    smax = max(s[0] for (_, s) in entries)
    acc = np.zeros((len(dyn.elements), smax + 1))
    for i, t in enumerate(dyn.elements):
        for s in range(smax + 1):
            if (i, (s,)) not in entries or not dyn.can_pick((s,), t):
                continue
            tau = entries[(i + 1, (s,))] - entries[(i + 1, (s + 1,))]
            acc[i, s] = sum(pa for v, pa in p.dists[t].atoms
                            if v - shift >= tau)
    return acc


def test_full_dp_matches_reference_on_corpus(corpus, sweep):
    for entry in corpus:
        assert_full_dp_matches_reference(entry.laminar)


def test_full_dp_matches_reference_on_criterion_7():
    tbl = assert_full_dp_matches_reference(criterion_7_laminar())
    assert tbl.coding.dtype == np.int64 and tbl.coding.size > dp.SMALL_CODES
    assert sum(len(c) for c in tbl.codes) == 161_541


def test_full_dp_matches_reference_with_object_codes(sweep):
    # 64 unit bins under a root of capacity 2: the radices multiply to
    # 3 * 2^64, beyond int64, so the codes are Python ints
    dists = [DiscreteDistribution.of([(0.0, 0.5), (1.0 + (e % 5) / 4, 0.5)])
             for e in range(64)]
    tree = {"cap": 2, "children": [{"cap": 1, "children": [{"element": e}]}
                                   for e in range(64)]}
    tbl = assert_full_dp_matches_reference(
        LaminarInstance.build(dists, tree))
    assert tbl.coding.dtype == object
    assert sum(len(c) for c in tbl.codes) == 45_825


def test_chain_dp_matches_reference_on_corpus(corpus, sweep):
    for entry in corpus:
        p = entry.production
        if p is None:
            continue
        for j in range(p.num_types):
            for shift in CHAIN_SHIFTS:
                tbl = solve_subproblem_dp(p, j, shift)
                want = reference_subproblem_dp(p, j, shift)
                assert list(tbl.entries.items()) == list(want.items())
                elems, acc = _chain_acceptance(p, j, shift)
                assert elems == p.buyers_of_type(j)
                assert np.array_equal(acc, reference_acceptance(p, j, shift))


def _sizing(call):
    try:
        call()
    except SizingError as exc:
        return exc.scope, exc.size, exc.cap
    return None


def test_sizing_error_matches_reachable_profile(corpus, sweep):
    raised = 0
    for entry in corpus:
        lam = entry.laminar
        want = _sizing(lambda: reachable_profile(BinSubproblem(lam, 0), 1))
        assert _sizing(lambda: solve_full_dp(lam, state_cap=1)) == want
        raised += want is not None
        p = entry.production
        for j in range(p.num_types if p is not None else 0):
            want = _sizing(lambda: reachable_profile(TypeSubproblem(p, j), 1))
            assert _sizing(
                lambda: solve_subproblem_dp(p, j, state_cap=1)) == want
    assert raised > 0
