"""Vectorized kernels against their scalar references.

``trial_uniforms`` must reproduce each trial's own Philox substream on both
its array path and its per-trial path, ``prophet_samples`` must equal the
per-trial greedy of ``conftest.reference_prophet_samples`` bit for bit (on
the hand instances, criteria 6 and 7, and random nested trees), and
``simulate`` reports must hash to the values recorded before the array path
existed, and those of composed policies whose counters block or whose
meters overfill to the values recorded before the kernel read its decisions
off per-arrival tables.
The backward-induction kernel behind ``solve_full_dp`` and
``solve_subproblem_dp`` must give the values, thresholds and entry order of
``conftest.reference_full_dp`` / ``reference_subproblem_dp`` exactly, and
``solve_full_dp`` must decode no state until its policy's rules are read,
and ``dp.concavity_check`` must return the ``(ok, worst)`` of the walk over
a table's entries kept as ``conftest.reference_concavity_check``.
``dp.forward_all`` must give each arrival's pick probability under the
threshold policy as ``conftest.reference_pick_probabilities`` reads it off
the exact state walk, and each level's occupancy as the trace of that walk,
``conftest.reference_evaluate_block``; on shifted chains its acceptance
rates must equal those read off ``conftest.reference_subproblem_dp``.
``model.reachable_profile`` must give the levels, forbidden states and
``SizingError`` of the tuple loop kept as ``conftest.reference_profile``,
and ``evaluate_exact`` the welfare bits, the bits of every reached
state's mass and the ``CoverageError`` of the walk kept as
``conftest.reference_evaluate_block``.  A policy document binds to an
instance's levels by state code, never through a code two states share.
``lp._emit_blocks`` must give the rows, variables and names of the
tuple-keyed emitter kept as ``conftest.reference_emit_block``, each
over-pick's ``X(t,state,atom)`` must enter only its marginal row and its
own ``X <= 0`` row, and no LP may hold a served count ``N(j)``.  The
reference can also write the LP the emitter once wrote, with a pinned
``Y`` per forbidden state and the ex-ante shipping row through ``N(j)``
(``conftest.reference_build``), and further the alias terms (``-Y`` of a
pinned forbidden state in the update row into a state of the same
tuple); under either the LPs keep their optimum and the pins recorded
with them reproduce.
The dense simplex kept as ``conftest.reference_dense_simplex`` must make
the pivots the program's own made before the dual over the units' DPs
replaced it (``SIMPLEX_SHA256``): same status, pivot count, objective and
every bit of ``x``; the pins of simplex roundings are solved with it, and
those of HiGHS roundings with ``conftest.reference_highs``, each vertex
floored (``conftest.floored``) as extraction floored it when they were
recorded.
LP text and PTAS policy JSON must
hash to the values recorded when the LP layer was keyed by variable name,
except the small-branch PTAS policies, recorded when that branch took the
DP's policy, the lp-opt roundings, recorded when the small branch still
rounded the exact LP (and under ``auto``, recorded as ``auto`` tried
certified DP points), and the current large-branch PTAS policies, recorded
when that branch first took the units' DP policies where they fit; the
LP texts and the roundings of a simplex vertex that moved were
re-recorded when the alias terms went, and again when the forbidden
states and ``N(j)`` went; the PTAS policies were re-recorded when the
relaxations with several large rows took the mixtures of their nested
dual.
``policy_to_json`` must write the bytes of
``conftest.reference_policy_json``.
"""

import dataclasses
import hashlib
import json
import math
import random
import sys

import numpy as np
import pytest

from binprice import (
    DEFAULT_STATE_CAP,
    DiscreteDistribution,
    LaminarInstance,
    LpError,
    ProductionInstance,
    PtasConfig,
    SizingError,
    as_laminar,
    build_lp_exante,
    build_lp_hierarchy,
    build_lp_optimal,
    compose_policies,
    concavity_check,
    evaluate_exact,
    policy_to_json,
    ptas_laminar,
    simulate,
    solve_full_dp,
    solve_subproblem_dp,
)
from binprice import dp, harness, lp, model, ptas
from binprice.harness import (
    ARRAY_MAX_WIDTH,
    CHUNK,
    CoverageError,
    prophet_samples,
    trial_generator,
    trial_uniforms,
)
from binprice.model import (
    BinSubproblem,
    TypeSubproblem,
    bind_dynamics,
    state_levels,
)
from binprice.rounding import (
    ComposedPolicy,
    PricingPolicy,
    extract_all,
    extract_pricing,
    mark_laminar,
    policy_from_json,
)

import conftest
from conftest import (
    BENCH_SETTINGS,
    can_pick,
    criterion_6_production,
    criterion_7_laminar,
    desk_scale,
    floored,
    model_from_arrays,
    random_distribution,
    random_laminar,
    random_production,
    reference_concavity_check,
    reference_dense_simplex,
    reference_emitter,
    reference_evaluate_block,
    reference_full_dp,
    reference_pick_probabilities,
    reference_policy_json,
    reference_profile,
    reference_prophet_samples,
    reference_subproblem_dp,
    reference_subset_products,
    relaxation,
    run_ptas,
    solve_with,
    table_entries,
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
# seed 11)``, recorded when every trial built its own generator, except
# criterion 7, recorded when every row was drawn by re-keying one generator
# per trial.  Its rows (2n = 200) are the only ones here wider than
# ``ARRAY_MAX_WIDTH``, so it pins the per-trial path.
SIMULATE_SHA256 = {
    "production": "437147d49d75a04dabe9717d099dd5056cdb2aed35edb22dcb98b6c381c1c1a6",
    "laminar": "4c49023227670878a667be8c1221063f377346fbb2290424dd71365cda9f3c2f",
    "criterion_7": "eefe4877f7da669f6005766d5164e737148e4c8a1a532d1a44342c7c775db5dc",
}
SIMULATED = dict(INSTANCES, criterion_7=criterion_7_laminar)


def type_chain_policies(p):
    return {f"type:{j}": dp.threshold_policy(solve_subproblem_dp(p, j))
            for j in range(p.num_types)}


def tie_coins(policies):
    """The same rule keys, each posting 2.0 and taking a value of 2.0 on a
    coin of bias 1/2."""
    return {key: PricingPolicy(pol.scope, dict.fromkeys(pol.rules, (2.0, 0.5)))
            for key, pol in policies.items()}


def unit_policies(lam, mk):
    return {k: dp.threshold_policy(dp.backward(bind_dynamics(k, lam),
                                               lam.dists))
            for k in model.small_units(lam, mk)}


def one_day_production(shipping, made=3) -> ProductionInstance:
    # three buyers of each type; with ``made`` 3 every one of them can be
    # served, so the first arrivals can all be accepted
    return ProductionInstance(
        dists=tuple(D([(1.0, 0.5), (3.0, 0.5)]) if t % 3 == 0
                    else D([(0.0, 0.5), (2.0, 0.5)]) for t in range(6)),
        types=(0, 1, 0, 1, 0, 1), days=(0,) * 6,
        production=((made,), (made,)), shipping=shipping)


def nested_counter_policy():
    """``deep_laminar``'s small units priced by their own DP behind hard
    counters on the root and the bin below it: elements 0-3 have two."""
    lam = deep_laminar()
    mk = model.Marking(large=frozenset({0, 1}))
    return compose_policies(lam, unit_policies(lam, mk), mk)


def two_counter_policy():
    """Singleton units behind counters on a root of capacity 2 and on a bin
    of capacity 2 below it; elements 0 and 1, outside the bin, can fill
    the root alone, so element 4 can be blocked by its second counter."""
    lam = LaminarInstance.build(
        (D([(0.0, 0.5), (2.0, 0.5)]), D([(1.0, 0.5), (3.0, 0.5)]),
         D([(0.0, 0.5), (2.0, 0.5)]), DiscreteDistribution.point(2.0),
         D([(1.0, 0.5), (3.0, 0.5)])),
        {"cap": 2, "children": [
            {"element": 0}, {"element": 1},
            {"cap": 2, "children": [{"element": 2}, {"element": 3},
                                    {"element": 4}]}]})
    mk = model.Marking(large=frozenset({0, 1}))
    return lam, compose_policies(lam, tie_coins(unit_policies(lam, mk)), mk)


def uncounted(policy):
    """``policy`` without its hard counters."""
    return ComposedPolicy(blocks=dict(policy.blocks),
                          element_block=dict(policy.element_block),
                          counter_caps={},
                          counter_keys={e: () for e in policy.element_block})


# Composed policies, whose counters block and whose meters record
# violations: (instance, policy, what the report must show).  Their
# ``simulate`` reports (CHUNK + 3 trials, seed 11) hash to
# ``SIMULATE_COMPOSED_SHA256``, recorded before the kernel read each
# arrival's decision off per-state tables.  The last three draw tie coins
# (``tie_coins``).  There a counter below the shipping capacity can block
# the third arrival, the third arrival can overfill shipping capacity 2
# (and a type's third buyer waits on whether its first two were served),
# and the root can block an element whose first counter has room.
COMPOSED = {
    "production-shipping-counter": lambda: (
        multi_day_production(),
        compose_policies(multi_day_production(),
                         type_chain_policies(multi_day_production())),
        "blocked"),
    "laminar-nested-counters": lambda: (
        deep_laminar(), nested_counter_policy(), "blocked"),
    "laminar-uncounted": lambda: (
        deep_laminar(), uncounted(nested_counter_policy()), "violations"),
    "production-counter-below-capacity": lambda: (
        one_day_production(6),
        dataclasses.replace(
            compose_policies(
                one_day_production(6),
                tie_coins(type_chain_policies(one_day_production(6)))),
            counter_caps={"shipping": 2}),
        "blocked"),
    "production-uncounted": lambda: (
        one_day_production(2, made=2),
        uncounted(compose_policies(
            one_day_production(2, made=2),
            tie_coins(type_chain_policies(one_day_production(2, made=2))))),
        "violations"),
    "laminar-two-counters": lambda: (*two_counter_policy(), "blocked"),
}
SIMULATE_COMPOSED_SHA256 = {
    "production-shipping-counter":
        "7999dd791c7799f12ec4b369930b660bcf01748d99debb71d583c7ce6663f4b2",
    "laminar-nested-counters":
        "8a8aa2be1123420e34e5c6d6e56a7e285fae62fdc33456212655ad8da16d359e",
    "laminar-uncounted":
        "2d6592b739060775f645e437b0b641ed65a78e2c062b06762987aaef7ace2f99",
    "production-counter-below-capacity":
        "29cd45c426ce75732418d7c073db972a14c16029ed12f90d08fcf26302da7d5b",
    "production-uncounted":
        "ed536a71828662c78e84cdf09ebf2f1c9decd254be19e7b7d85ae4a530efaadf",
    "laminar-two-counters":
        "bb53bf9427f5ee8f862b90315822a4316743e441e0ed242bfde5232912e8edab",
}


def test_instance_shapes():
    lam = as_laminar(multi_day_production())
    assert 0 in lam.bin_caps
    deep = deep_laminar()
    assert 0 in deep.bin_caps
    assert max(len(deep.elem_ancestors(e)) for e in range(8)) >= 3


@pytest.mark.parametrize("seed", SEEDS + (-1,))
def test_trial_uniforms_rows_are_trial_substreams(seed):
    # widths on both sides of the array path's limit, partial and whole
    # Philox blocks, an offset range, one across a chunk boundary and an
    # empty one
    for k in (1, 3, 4, 5, 8, ARRAY_MAX_WIDTH, ARRAY_MAX_WIDTH + 1, 200):
        for lo, hi in ((0, 1), (5, 40), (CHUNK - 2, CHUNK + 2), (9, 9)):
            got = trial_uniforms(seed, lo, hi, k)
            assert got.shape == (hi - lo, k)
            for r, t in enumerate(range(lo, hi)):
                assert np.array_equal(got[r],
                                      trial_generator(seed, t).random(k))


def _refuse(*args):
    raise AssertionError("this path must not run")


@pytest.mark.parametrize("k, bypassed", [
    (1, "_rekeyed_rows"), (ARRAY_MAX_WIDTH, "_rekeyed_rows"),
    (ARRAY_MAX_WIDTH + 1, "_philox_rows"), (200, "_philox_rows")])
def test_row_width_picks_the_uniforms_path(monkeypatch, k, bypassed):
    monkeypatch.setattr(harness, bypassed, _refuse)
    assert trial_uniforms(3, 0, 10, k).shape == (10, k)


def test_corpus_rows_take_the_array_path(monkeypatch, corpus):
    # every corpus trial needs at most 2n <= 12 uniforms, where the array
    # path is the faster one
    assert max(2 * len(entry.laminar.dists) for entry in corpus) \
        <= ARRAY_MAX_WIDTH
    monkeypatch.setattr(harness, "_rekeyed_rows", _refuse)
    for entry in corpus[:10]:
        inst = entry.production or entry.laminar
        simulate(solve_full_dp(entry.laminar)[1], inst, 50, seed=1)
        prophet_samples(inst, 50, seed=1)


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


@pytest.mark.parametrize("seed", SEEDS)
def test_prophet_samples_match_per_trial_reference_on_criterion_7(seed):
    # 100 uniforms a trial, drawn on the per-trial path
    inst = criterion_7_laminar()
    assert np.array_equal(prophet_samples(inst, 300, seed),
                          reference_prophet_samples(inst, 300, seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_prophet_samples_match_per_trial_reference_on_criterion_6(seed):
    # 200 uniforms a trial, and a root (shipping 30 over type bins of 10 to
    # 14) that binds in most trials
    inst = criterion_6_production()
    assert np.array_equal(prophet_samples(inst, 300, seed),
                          reference_prophet_samples(inst, 300, seed))


SIGNED_GRID = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]


def random_nested_tree(rng: random.Random, elems, depth=0):
    """A bin over ``elems``: some lie directly in it and the rest in child
    bins, nested at most four bins deep; caps may be 0."""
    elems = list(elems)
    rng.shuffle(elems)
    children = []
    if depth < 3 and len(elems) > 1:
        direct = rng.randint(0, len(elems) - 1)
        rest = elems[direct:]
        elems = elems[:direct]
        while rest:
            size = rng.randint(1, len(rest))
            children.append(random_nested_tree(rng, rest[:size], depth + 1))
            rest = rest[size:]
    children += [{"element": e} for e in elems]
    return {"cap": rng.randint(0, 4), "children": children}


def test_prophet_samples_match_per_trial_reference_on_nested_trees():
    rng = random.Random(1515)
    for _ in range(150):
        n = rng.randint(1, 14)
        inst = LaminarInstance.build(
            tuple(random_distribution(rng, 4, SIGNED_GRID) for _ in range(n)),
            random_nested_tree(rng, range(n)))
        seed = rng.randrange(2 ** 64)
        assert np.array_equal(prophet_samples(inst, 300, seed),
                              reference_prophet_samples(inst, 300, seed))


@pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
def test_simulate_report_is_pinned(name):
    inst = SIMULATED[name]()
    _, policy = solve_full_dp(as_laminar(inst))
    for threads in (1, 2):
        rep = simulate(policy, inst, CHUNK + 3, seed=11, threads=threads)
        doc = json.dumps(rep.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == \
            SIMULATE_SHA256[name]


@pytest.mark.parametrize("name", sorted(COMPOSED))
def test_simulate_report_of_composed_policy_is_pinned(name):
    inst, policy, shows = COMPOSED[name]()
    for threads in (1, 2):
        rep = simulate(policy, inst, CHUNK + 3, seed=11, threads=threads)
        if shows == "blocked":
            assert rep.ignored_fraction > 0.0
        else:
            assert rep.total_violations > 0
        doc = json.dumps(rep.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == \
            SIMULATE_COMPOSED_SHA256[name]


def assert_arrivals_span_their_levels(policy, inst):
    """Each ``_Arrival`` keys its tables by the positions of its block's
    level at that arrival and moves a trial into the level after it."""
    plan = harness.Plan(policy, inst, DEFAULT_STATE_CAP)
    fit = harness.fit_policy(policy, inst)
    for dyn in fit.dyns.values():
        widths = [len(codes) for codes in state_levels(dyn).codes]
        for i, e in enumerate(dyn.elements):
            arr = plan.arrivals[e]
            assert arr.stride == widths[i]
            assert len(arr.skip) == widths[i]
            assert 0 <= arr.next.min() <= arr.next.max() < widths[i + 1]


def test_arrivals_span_their_own_levels(corpus):
    for entry in corpus:
        assert_arrivals_span_their_levels(solve_full_dp(entry.laminar)[1],
                                          entry.laminar)
    # counters and tie coins
    for name in ("laminar-two-counters", "production-counter-below-capacity"):
        inst, policy, _ = COMPOSED[name]()
        assert_arrivals_span_their_levels(policy, inst)
    inst = criterion_7_laminar()
    assert_arrivals_span_their_levels(solve_full_dp(inst)[1], inst)


# ---------------------------------------------------------------------------
# Backward induction
# ---------------------------------------------------------------------------

CHAIN_SHIFTS = (0.0, 0.7, -1.0, 2.5)


def forget_forms(corpus):
    """Empty the stores of the corpus instances, which the session shares,
    so that the next reader derives every form anew."""
    for entry in corpus:
        for inst in (entry.laminar, entry.production):
            if inst is not None:
                inst._derived.clear()


@pytest.fixture(params=["lists", "arrays"])
def sweep(request, monkeypatch, corpus):
    """Build every state space's levels, and sweep them, as the named
    representation.  The corpus instances' stores are emptied before and
    after, so that no levels or tables built in one representation are
    read in the other."""
    monkeypatch.setattr(model, "SMALL_CODES",
                        2 ** 80 if request.param == "lists" else 0)
    forget_forms(corpus)
    yield request.param
    forget_forms(corpus)


def assert_swept(levels, sweep):
    """``levels`` are in the representation ``sweep`` names."""
    kind = tuple if sweep == "lists" else np.ndarray
    assert all(isinstance(codes, kind) for codes in levels.codes)


def assert_full_dp_matches_reference(inst):
    tbl, pol = solve_full_dp(inst)
    entries, rules = reference_full_dp(inst)
    # same keys, values and insertion order (concavity_check reports the
    # first worst triple in entry order)
    assert list(table_entries(tbl).items()) == list(entries.items())
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
            if (i, (s,)) not in entries or not can_pick(dyn, (s,), t):
                continue
            tau = entries[(i + 1, (s,))] - entries[(i + 1, (s + 1,))]
            acc[i, s] = sum(pa for v, pa in p.dists[t].atoms
                            if v - shift >= tau)
    return acc


def test_full_dp_matches_reference_on_corpus(corpus, sweep):
    for entry in corpus:
        tbl = assert_full_dp_matches_reference(entry.laminar)
        assert_swept(tbl.levels, sweep)


def test_full_dp_matches_reference_on_criterion_7():
    tbl = assert_full_dp_matches_reference(criterion_7_laminar())
    assert tbl.levels.coding.dtype == np.int64
    assert tbl.levels.coding.size > model.SMALL_CODES
    assert sum(len(c) for c in tbl.levels.codes) == 161_541


def test_full_dp_decodes_its_policy_only_when_read(monkeypatch):
    inst = criterion_7_laminar()
    entries, rules = reference_full_dp(inst)

    def refuse(*args):
        raise AssertionError("decoded before the policy was read")

    with monkeypatch.context() as m:
        m.setattr(model.StateCoding, "decode", refuse)
        tbl, pol = solve_full_dp(inst)
        assert tbl.optimal == entries[(0, BinSubproblem(inst, 0).initial)]
    # decoded once, on first read, in the reference's order
    assert pol.rules is pol.rules
    assert list(pol.rules.items()) == list(rules.items())


def test_full_dp_matches_reference_with_object_codes(sweep):
    # 64 unit bins under a root of capacity 2: the radices multiply to
    # 3 * 2^64, beyond int64, so the codes are Python ints
    dists = [DiscreteDistribution.of([(0.0, 0.5), (1.0 + (e % 5) / 4, 0.5)])
             for e in range(64)]
    tree = {"cap": 2, "children": [{"cap": 1, "children": [{"element": e}]}
                                   for e in range(64)]}
    tbl = assert_full_dp_matches_reference(
        LaminarInstance.build(dists, tree))
    assert tbl.levels.coding.dtype == object
    assert sum(len(c) for c in tbl.levels.codes) == 45_825


def assert_pick_probabilities_match_reference(table, policy, inst):
    _, occupancy, got = dp.forward_all([policy], inst.dists)[1][0]
    want = reference_pick_probabilities(policy, inst)
    assert list(want) == list(table.positions[:-1])
    assert np.allclose(got, list(want.values()), rtol=0.0, atol=1e-12)
    # the occupancy is the reference walk's trace, post-horizon states
    # keyed by the instance size; the walk leaves out states it never
    # reaches, which the kernel holds at probability 0
    _, trace = reference_evaluate_block(policy, inst)
    keys = table.positions[:-1] + (len(inst.dists),)
    kernel = {}
    for key, states, occ in zip(keys, table.levels.tuples(), occupancy):
        assert abs(float(np.sum(occ)) - 1.0) <= 1e-12
        kernel.update(((key, s), float(w)) for s, w in zip(states, occ))
    assert set(trace) <= set(kernel)
    assert all(abs(w - trace.get(k, 0.0)) <= 1e-12 for k, w in kernel.items())


def test_pick_probabilities_match_reference_on_corpus(corpus, sweep):
    for entry in corpus:
        assert_pick_probabilities_match_reference(
            *solve_full_dp(entry.laminar), entry.laminar)
        p = entry.production
        for j in range(p.num_types if p is not None else 0):
            table = solve_subproblem_dp(p, j)
            assert_swept(table.levels, sweep)
            assert_pick_probabilities_match_reference(
                table, dp.threshold_policy(table), p)


def test_pick_probabilities_match_reference_on_criterion_7():
    inst = criterion_7_laminar()
    assert_pick_probabilities_match_reference(*solve_full_dp(inst), inst)


def test_chain_dp_matches_reference_on_corpus(corpus, sweep):
    for entry in corpus:
        p = entry.production
        if p is None:
            continue
        for j in range(p.num_types):
            for shift in CHAIN_SHIFTS:
                tbl = solve_subproblem_dp(p, j, shift)
                assert_swept(tbl.levels, sweep)
                want = reference_subproblem_dp(p, j, shift)
                assert list(table_entries(tbl).items()) == list(want.items())
                assert tbl.positions[:-1] == p.buyers_of_type(j)
                rates, _, _ = dp.forward_all([dp.threshold_policy(tbl)],
                                             p.dists, tbl.shift)[1][0]
                acc = np.zeros((len(rates), len(tbl.levels.codes[-1])))
                for i, rate in enumerate(rates):
                    acc[i, tbl.levels.codes[i]] = rate
                assert np.array_equal(acc, reference_acceptance(p, j, shift))


def assert_concavity_matches_reference(tbl, rng):
    """``concavity_check`` gives the reference walk's ``(ok, worst)`` on
    ``tbl`` and on a copy with every value moved by a random multiple of
    0.25, which breaks concavity at many triples."""
    assert concavity_check(tbl) == reference_concavity_check(tbl)
    noisy = dataclasses.replace(tbl, values=[
        v + 0.25 * np.array([rng.randint(-2, 2) for _ in v])
        for v in tbl.values])
    got = concavity_check(noisy)
    assert got == reference_concavity_check(noisy)
    return got


def test_concavity_check_matches_reference_on_corpus_chains(corpus):
    rng = random.Random(4)
    failed = 0
    for entry in corpus:
        p = entry.production
        for j in range(p.num_types if p is not None else 0):
            for shift in CHAIN_SHIFTS:
                tbl = solve_subproblem_dp(p, j, shift)
                failed += not assert_concavity_matches_reference(tbl, rng)[0]
    assert failed > 0


def test_concavity_check_matches_reference_on_criterion_6():
    p = criterion_6_production()
    rng = random.Random(6)
    for j in range(p.num_types):
        tbl = solve_subproblem_dp(p, j)
        assert concavity_check(tbl) == (True, None)
        assert not assert_concavity_matches_reference(tbl, rng)[0]


def test_concavity_check_matches_reference_on_ties():
    # six unit buyers of one type: level i holds sold counts 0..i
    p = ProductionInstance(dists=(DiscreteDistribution.point(1.0),) * 6,
                           types=(0,) * 6, days=(0,) * 6,
                           production=((6,),), shipping=6)
    tbl = dataclasses.replace(solve_subproblem_dp(p, 0), values=[
        np.zeros(i + 1) for i in range(7)])
    # gap 2 at sold 0 and 2 of level 5, and at sold 0 of level 4: the walk
    # meets level 5 first, and sold 0 before sold 2
    tbl.values[5][:] = [0.0, -1.0, 0.0, -1.0, 0.0, 0.0]
    tbl.values[4][:] = [0.0, -1.0, 0.0, 0.0, 0.0]
    want = (False, (5, 0, 2.0))
    assert reference_concavity_check(tbl) == want
    assert concavity_check(tbl) == want
    # a larger gap at a later level of the walk wins (a fresh table, so
    # the reference decodes its entries anew)
    tbl = dataclasses.replace(tbl)
    tbl.values[1][:] = [0.0, 0.0]  # no triple
    tbl.values[2][:] = [0.0, -1.5, 0.0]
    want = (False, (2, 0, 3.0))
    assert reference_concavity_check(tbl) == want
    assert concavity_check(tbl) == want


def test_negative_cylinder_products_match_the_subset_loop(corpus,
                                                         monkeypatch):
    # the strided products of every subset's marginals equal the loop over
    # the masks byte for byte: on every corpus type of at most 12 buyers,
    # and on random marginals of 1 to 12 buyers
    products = harness._subset_products
    seen = []

    def recorded(marg):
        seen.append((marg, products(marg)))
        return seen[-1][1]

    monkeypatch.setattr(harness, "_subset_products", recorded)
    for entry in corpus:
        p = entry.production
        for j in range(p.num_types if p is not None else 0):
            if 0 < len(p.buyers_of_type(j)) <= 12:
                harness.check_negative_cylinder(p, j, 0.0)
    corpus_types = len(seen)
    rng = np.random.default_rng(12)
    seen += [(marg, products(marg))
             for marg in (rng.random(l) for l in range(1, 13))]
    for marg, prod in seen:
        assert prod.tobytes() == reference_subset_products(marg).tobytes()
    assert corpus_types == 198


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
        want = _sizing(lambda: reference_profile(BinSubproblem(lam, 0), 1))
        assert _sizing(lambda: solve_full_dp(lam, state_cap=1)) == want
        raised += want is not None
        p = entry.production
        for j in range(p.num_types if p is not None else 0):
            want = _sizing(lambda: reference_profile(TypeSubproblem(p, j), 1))
            assert _sizing(
                lambda: solve_subproblem_dp(p, j, state_cap=1)) == want
    assert raised > 0


# ---------------------------------------------------------------------------
# LP layer
# ---------------------------------------------------------------------------

CRITERION_7_SETTING = PtasConfig(epsilon=0.2, delta=0.1)

# sha256 over the concatenated documents, recorded when the LP layer was
# keyed by variable name: ``to_text`` of every corpus instance's builds
# (ex-ante for the production ones; hierarchy marked at delta 0.6; both at
# capacity scale 0.8) and of the criterion-7 hierarchy LP, and
# ``policy_to_json`` of the criterion-7 instance's rounded relaxation
# (``criterion_7``), then its PTAS policy.  The policies of
# ``lp_large_branch_policy`` for every corpus instance per bench setting
# were recorded when the small branch took the DP's policy and the large
# branch always solved its LP; ``lp_opt``, the rounding of every corpus
# instance's exact LP, was recorded before that, when the small branch
# still returned such roundings.  ``ptas_eps0.2_delta0.6`` and
# ``ptas_criterion_7`` were recorded when the large branch first took the
# units' DP policies wherever they satisfy every large row.  ``lp_opt`` and
# ``criterion_7`` were recorded when ``auto`` chose only between the dense
# simplex and HiGHS, so their LPs are solved with the engine it chose then
# (``recorded_engine``).  ``lp_opt_auto_past_limit`` was recorded when
# ``auto`` tried the certified DP point only past the dense limit, which
# took it for corpus instance 183's exact LP alone (``past_limit_engine``).
# ``lp_opt_auto`` and ``criterion_7_auto`` are the roundings under
# ``auto``, which takes the certified DP point for every corpus exact LP,
# since they have no coupling row, and for the criterion-7 relaxation.
# ``eps0.2_delta0.6_any_row`` was recorded while any large row coupled an
# LP, so that the simplex solved every desk-scale relaxation with one
# (``any_row_engine``); ``eps0.2_delta0.6`` is the rounding under
# ``auto``, which takes the certified DP point wherever the units cannot
# fill their rows.  ``ptas_eps0.2_delta0.6_lp_route`` is the former
# ``ptas_eps0.2_delta0.6``, recorded while the large branch rounded its
# relaxation LP wherever the units' DP policies overfill a row
# (``lp_route_ptas_policy``); ``ptas_eps0.2_delta0.6`` was recorded when
# the one-row cases among them first took the mixed policies of the
# relaxation's dual.  The LP texts, ``lp_opt``, ``lp_opt_auto_past_limit``,
# ``eps0.2_delta0.6_any_row``, ``eps0.2_delta0.6`` and
# ``ptas_eps0.2_delta0.6_lp_route`` were re-recorded when the emitter
# stopped writing alias terms, since a row's columns changed and Bland's
# rule ended on another optimal vertex; their former digests are kept as
# ``<label>_alias_terms`` and are checked with the reference emitter that
# still writes those terms (``test_pins_recorded_with_alias_terms``).  The
# LP texts, ``lp_opt``, ``lp_opt_auto_past_limit``,
# ``eps0.2_delta0.6_any_row``, ``eps0.2_delta0.6``,
# ``ptas_eps0.2_delta0.6_lp_route`` and ``criterion_7`` were re-recorded
# when the LP stopped holding forbidden states and the served counts
# ``N(j)``; their former digests are kept as ``<label>_forbidden_states``
# and are checked with the reference that still writes both
# (``test_pins_recorded_with_forbidden_states``).  Since ``auto`` certifies
# every coupled LP through the dual over its units' DPs, these pins solve
# their LPs with the engine it chose before (``former_engine``: the
# certified DP point where no row can bind, else the dense simplex of
# ``conftest.reference_dense_simplex``).  ``ptas_eps0.2_delta0.6`` was
# re-recorded when the relaxations with several large rows took the
# mixtures of their nested dual: nine that rounded the hierarchy LP, and
# corpus instance 119, whose tie-rejecting policies at multiplier 0 kept
# every row.  Its former digest is kept as
# ``ptas_eps0.2_delta0.6_hierarchy_route`` and is checked with those
# cases computed as they were (``test_pins_recorded_with_the_hierarchy_route``).
LP_TEXT_SHA256 = {
    "optimal": "e7b41d225f5c39f5391d38ef34f3fcefc7654d75fc2e9d7fc91c325e6648add0",
    "exante": "06e947b66ac61d402827740bb5a9f6990b87fe34a9dfe5ecbe64a7233926c5ac",
    "hierarchy": "0d3abbbc88fc36a3e337e4c0c55e12e3759782cc32ab6de141f5fb1794fd9542",
    "criterion_7": "9efa9f9451688fd0d5520b285163c0197554b0f2f9cf06418bff74bb8c35ba27",
    "optimal_forbidden_states": "8ebd87bee41d3565a3b439c9316ba8d25ddc4b5e4307d08655f55e8c4fb2768d",
    "exante_forbidden_states": "c81d843b949e943d8ec9660f381c82cf47d42b72bcbde10d91427269147d2865",
    "hierarchy_forbidden_states": "d82b83d2e11481ab6bca17964b04d65c1692b40f34ed5324b06e2de8054a102c",
    "criterion_7_forbidden_states": "f6a46094fd0eb1e755a27ed386129f46bb9717eeffca83856303499054bc0947",
    "optimal_alias_terms": "282d67d402d97f6576ba9299c4799e45aadbb3c0ee6503cddaa9e2058aeebc08",
    "exante_alias_terms": "2079a7c1e22b6ad17f9d2c7db87f7cbe3c0ef1a4ca4204b215bcf49a65072aae",
    "hierarchy_alias_terms": "9fb57ff4f7570b7c713f9884f1580fa782b80cd375221f89e881ec87c76a9e9a",
    "criterion_7_alias_terms": "7f7241b7a858793c7462511cbf17cc4b5e9051cfd53d8428cfc5247ff8415999",
}
POLICY_SHA256 = {
    "eps0.2": "615d160c4eb571599b7649e37773d0ce1eddafadd1520fb1a327a55f13329232",
    "eps0.2_delta0.6_any_row": "1896d0178394452e3efa7e46d15f7bddf8c4dcee32a03e86e118a221f3eec88b",
    "eps0.2_delta0.6": "ea96a1980a5d4574a33f12046ec2270e8c781497287402f318437bd822af7e00",
    "lp_opt": "d0daccf74322a2028e59c832460e07a3b34339d25a9f0c4e06d0c72efe4bd125",
    "criterion_7": "bb4f32cc87a19747b9cb5bafcb12a3a045a95a880931deafdfa18433264d2838",
    "lp_opt_auto_past_limit": "d0daccf74322a2028e59c832460e07a3b34339d25a9f0c4e06d0c72efe4bd125",
    "lp_opt_auto": "f41763c4e4380f890e32e76ec3903a694a20c7b6804a0fc62983c4daea89b998",
    "criterion_7_auto": "cfe961fda6fd1d8583f0e220788a7776f7b6efbba6562e9c6b2b5441c4cc3531",
    "ptas_eps0.2_delta0.6_lp_route": "86520738f2b6928b8164e68ba2ceb6725227171aa12746ee155d7695cf2f06ae",
    "ptas_eps0.2_delta0.6": "dc9b62e29f3ccbc7d7dd9207ea65fba7ffcc1db81b3fc8ccecbde8d898a28746",
    "ptas_eps0.2_delta0.6_hierarchy_route": "44a2699a27649f1501b1b7fdd417267b1c8d386e238c1ad0d31c73996bec49e2",
    "ptas_criterion_7": "2c6b153e148808316094112075720ba1b9a965c9c56aee0fbe3603ef198fb6f5",
    "eps0.2_delta0.6_any_row_alias_terms": "1ee5f34fa21b992facc09cd2b3217b513969a7137e7231cbe63852c48dfd06a8",
    "eps0.2_delta0.6_alias_terms": "1cb83f513db9dff75a3dfd31b6edfacd1b65a1cb7951e9f89970085fb8d765ce",
    "lp_opt_alias_terms": "f3a23787645c39a817f92f9e71e2650a75f2e7d9b8ed98083c60170da69985ea",
    "lp_opt_auto_past_limit_alias_terms": "5b19c2e91b85f689fdde4e31c5d55304a2b04f09cb68b8d40b52655bd0bffa64",
    "ptas_eps0.2_delta0.6_lp_route_alias_terms": "879504ecef22ebb7620e58ec7daa61142ed0a972f80591f672a4426e7adc894b",
    "eps0.2_delta0.6_any_row_forbidden_states": "633d325ea0fbf641687862a685ddfd3039eb9a14b93a0c6a0017b0ad1cf2fa0d",
    "eps0.2_delta0.6_forbidden_states": "8daee34a85e1f980f166d8be877d6fffedbfaf964317c92c7202fb1051e51160",
    "lp_opt_forbidden_states": "890a3e5f8637fd4eda6674d5e43273472fcd2638f2cb7a1c544952b66409409a",
    "criterion_7_forbidden_states": "bf45a9b006e20db1b83a294728cd55528d4db518976038a9895c16ae67482972",
    "lp_opt_auto_past_limit_forbidden_states": "4074c169b7b654c821a961f991e77409a9e673f0a8080386c9ced92112b8c9eb",
    "ptas_eps0.2_delta0.6_lp_route_forbidden_states": "aec54ecb5247c15b65cd30231af86a4fafdeaa346628b30619732e7fa9a64f2d",
}
ALIAS_TERMS = "_alias_terms"
FORBIDDEN_STATES = "_forbidden_states"
HIERARCHY_ROUTE = "_hierarchy_route"
# sha256 over the ``repr`` of each ``fingerprint`` of the program's former
# dense simplex: on each hand LP, on the random LPs of
# ``test_dense_simplex_matches_reference_on_random_lps`` and on the LPs
# ``corpus_run`` solves, in order
SIMPLEX_SHA256 = {
    "artificial_out": "c4d3778f253d8f68d134396a3593ce02c09bd97e44371b6418706f196e9c261d",
    "dead_row": "e13945b966c6f72558e7a57530bce808bd4cea4b3a070ba91a608c653bf4121d",
    "infeasible": "477f6439b625d5ea5c51a56e13b8eb50adb56d94d5967170fa35ff9b0c6ba115",
    "negative_rhs": "3363a2a299f94aa4e99f94128614489eaa507a0b80dddcb729224e22e27f7353",
    "ratio_tie": "cd038b5ed92938612e4c1204677bf4f6314dac044e891507a6a2d16062e4a437",
    "unbounded": "f669944c1a0a03ae08327fabb959f765530297481ee96069ac23b976831645a1",
    "random": "e28f079f4aa3fbbf4deb7d1f8e1b9c3a885e766cc07f10c00de40ee79673b5ab",
    "corpus": "0ca2c9489ee0edb2eacf98668c68e26be3282c0493bc757114871c87c0de26be",
}


def current_pins(pins, former=None) -> dict:
    """The digests of ``pins`` recorded with the current program, or with
    the former emitter or PTAS route whose label suffix is ``former``."""
    def recorded_with(label):
        return next((suffix for suffix in (ALIAS_TERMS, FORBIDDEN_STATES,
                                           HIERARCHY_ROUTE)
                     if label.endswith(suffix)), None)
    return {k: v for k, v in pins.items() if recorded_with(k) == former}

# (c, a_ub, b_ub, a_eq, b_eq), each reaching one branch of the simplex
HAND_LPS = {
    "infeasible": ([1.0], [[-1.0]], [-2.0], [[1.0]], [1.0]),
    "unbounded": ([1.0, 0.0], [[-1.0, 1.0]], [1.0], [], []),
    # negative right-hand sides flip their rows, zeros turning to -0.0
    "negative_rhs": ([-1.0, -2.0, 0.5],
                     [[-1.0, -1.0, 0.0], [0.0, -1.0, -1.0], [1.0, 1.0, 1.0]],
                     [-1.0, -0.5, 4.0], [], []),
    "ratio_tie": ([1.0, 1.0], [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                  [1.0, 1.0, 1.0], [], []),
    # the second equality repeats the first: its artificial stays basic on
    # an all-zero row, which is dropped
    "dead_row": ([1.0, 2.0], [[1.0, 0.0]], [0.75],
                 [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0]),
    # a zero-level artificial is pivoted out on a negative entry
    "artificial_out": ([1.0, 1.0, 0.5], [[0.0, 0.0, 1.0]], [2.0],
                       [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]], [0.0, 0.0]),
}


def fingerprint(sol):
    # an empty objective sums to the int 0, so the type is compared too
    obj = sol.objective
    return (sol.status, sol.iterations, type(obj).__name__,
            None if obj is None else float(obj).hex(),
            [v.hex() for v in sol.x.tolist()])


def sha256_of(docs):
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(doc.encode())
    return digest.hexdigest()


def simplex_digest(models):
    """``SIMPLEX_SHA256``'s digest of the reference simplex on ``models``."""
    return sha256_of(repr(fingerprint(reference_dense_simplex(model)))
                     for model in models)


def rounded_exact_lp(entry, cfg):
    """The LP route's policy for a small-branch case: the rounding of the
    exact LP, built as a hierarchy LP for a laminar instance."""
    lam = entry.laminar
    if entry.production is not None:
        built = build_lp_optimal(lam)
        return extract_pricing(solve_with(built.model), built, "root")
    mk = mark_laminar(lam, cfg.resolved_delta)
    built = build_lp_hierarchy(lam, mk, cfg.capacity_scale)
    return compose_policies(
        lam, extract_all(solve_with(built.model), built), mk)


def recorded_engine(model):
    """The engine ``auto`` picked before it certified DP points: the
    dense simplex up to ``conftest.DENSE_CELL_LIMIT`` tableau cells, HiGHS
    beyond."""
    return "simplex" if desk_scale(model) else "highs"


def former_engine(model):
    """The engine ``auto`` picked before it certified coupled LPs: the
    certified DP point where no large row can bind, else
    ``recorded_engine`` (no coupled corpus LP is past the limit)."""
    return "auto" if not model.coupled else recorded_engine(model)


def past_limit_engine(model):
    """The engine ``auto`` picked while it tried certified DP points only
    past ``DENSE_CELL_LIMIT``: the dense simplex up to the limit, ``auto``
    beyond."""
    return "simplex" if recorded_engine(model) == "simplex" else "auto"


def any_row_engine(built):
    """The engine ``auto`` picked while any large row coupled an LP: the
    dense simplex for a desk-scale model with a large row, ``auto``
    otherwise."""
    rows = built.marking is None or built.marking.large
    return ("simplex" if rows and recorded_engine(built.model) == "simplex"
            else "auto")


def rounded_relaxation(inst, cfg, engine="former"):
    """The rounding of ``inst``'s relaxation LP, composed as the PTAS
    composes it: the large branch's policy whenever it solved that LP.
    ``engine`` is ``former`` (``former_engine``), ``recorded`` or
    ``any_row``."""
    built = relaxation(inst, cfg)
    pick = {"former": former_engine, "recorded": recorded_engine,
            "any_row": lambda model: any_row_engine(built)}[engine]
    sol = floored(solve_with(built.model, pick(built.model)), built)
    return compose_policies(inst, extract_all(sol, built), built.marking)


def lp_large_branch_policy(entry, cfg, engine="former"):
    """``(policy, small)``: the PTAS policy as computed while every
    large-branch case solved its relaxation LP -- the DP's threshold
    policy on the small branch, ``rounded_relaxation`` (under ``engine``)
    on the large."""
    lam, p = entry.laminar, entry.production
    mk = mark_laminar(lam, cfg.resolved_delta)
    if p is not None and p.shipping <= 1.0 / cfg.resolved_delta:
        return solve_full_dp(lam)[1], True
    if p is None and not mk.large:
        return compose_policies(lam, {"root": solve_full_dp(lam)[1]}, mk), True
    return rounded_relaxation(p if p is not None else lam, cfg, engine), False


def lp_route_ptas_policy(entry, cfg):
    """The PTAS policy as computed while a large-branch case whose units'
    DP policies overfill a row always rounded its relaxation LP: the
    PTAS's own elsewhere, ``rounded_relaxation`` on the cases it now
    solves through the dual."""
    result = run_ptas(entry, cfg)
    if result.lp_kind != "lagrangian":
        return result.policy
    inst = entry.production if entry.production is not None else entry.laminar
    return rounded_relaxation(inst, cfg)


def hierarchy_route_ptas_policy(entry, cfg):
    """The PTAS policy as computed while a relaxation with several large
    rows that the units' DP policies overfill took their tie-rejecting
    policies at multiplier 0 where those keep every row, and else rounded
    its LP: the PTAS's own elsewhere."""
    result = run_ptas(entry, cfg)
    inst = entry.production if entry.production is not None else entry.laminar
    rows = model.large_rows(inst, result.marking)
    if result.lp_kind != "lagrangian" or len(rows) == 1:
        return result.policy
    units = [dp.unit_table(inst, key).levels
             for key in model.small_units(inst, result.marking)]
    top, sweeps = dp.zero_sweeps(inst.dists, units)
    if any(sum(picks[1] for lv, (_, _, picks) in zip(units, sweeps)
               if lv.dyn.elements[0] in elements) > cfg.capacity_scale * cap
           for _, elements, cap in rows):
        return rounded_relaxation(inst, cfg)
    n = len(units)
    rejecting = dp.Relaxed(shifts=[0.0] * n, sweeps=sweeps, thetas=[0.0] * n,
                           multipliers=[0.0] * len(rows), objective=0.0,
                           tie=dp.TIE_TOL * top)
    return compose_policies(inst, ptas._mixed(inst.dists, units, rejecting),
                            result.marking)


@pytest.fixture(scope="module")
def corpus_run(corpus):
    """Every LP a corpus run solved while the large branch always built
    its relaxation -- per bench setting, that relaxation for each
    large-branch case and the exact LP each small-branch case stands in
    for, then the exact chain's relaxation bound and exact LP -- and the
    policies: per setting, those of ``lp_large_branch_policy`` (under the
    setting's label) and the PTAS's own (``ptas_<label>``), the small
    branch's former LP roundings (``lp_route``) and the exact LP's
    rounding, solved with ``recorded_engine`` (``lp_opt``),
    ``past_limit_engine`` (``lp_opt_auto_past_limit``) and ``auto``
    (``lp_opt_auto``); and, uncaptured, ``eps0.2_delta0.6``'s policies
    under ``any_row_engine`` (``eps0.2_delta0.6_any_row``)."""
    models = []
    labels = (*BENCH_SETTINGS, *(f"ptas_{k}" for k in BENCH_SETTINGS),
              "lp_route", "lp_opt", "lp_opt_auto_past_limit", "lp_opt_auto",
              "eps0.2_delta0.6_any_row")
    policies = {label: [] for label in labels}
    solve = solve_with

    def capture(model, engine="auto"):
        models.append(model)
        return solve(model, engine)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules[__name__], "solve_with", capture)
        for entry in corpus:
            for label, cfg in BENCH_SETTINGS.items():
                policy, small = lp_large_branch_policy(entry, cfg)
                policies[label].append(policy)
                if small:
                    policies["lp_route"].append(rounded_exact_lp(entry, cfg))
            lam = entry.laminar
            if entry.production is not None:
                bound = build_lp_exante(entry.production, 1.0)
            else:
                mk = mark_laminar(lam, BENCH_SETTINGS["eps0.2_delta0.6"].delta)
                bound = build_lp_hierarchy(lam, mk, 1.0)
            solve_with(bound.model)
            built = build_lp_optimal(lam)
            policies["lp_opt_auto"].append(extract_pricing(
                solve_with(built.model), built, "root"))
            # uncaptured: the same model, with the engines of the pins
            for label, engine in (("lp_opt", recorded_engine),
                                  ("lp_opt_auto_past_limit",
                                   past_limit_engine)):
                policies[label].append(extract_pricing(floored(
                    solve(built.model, engine(built.model)), built),
                    built, "root"))
    # the PTAS's LP-route cases solve the LPs captured above again
    for entry in corpus:
        for label, cfg in BENCH_SETTINGS.items():
            policies[f"ptas_{label}"].append(run_ptas(entry, cfg).policy)
        policies["eps0.2_delta0.6_any_row"].append(lp_large_branch_policy(
            entry, BENCH_SETTINGS["eps0.2_delta0.6"], "any_row")[0])
    return models, policies


@pytest.fixture(scope="module")
def criterion_7_policies():
    """Criterion 7's PTAS policy and its rounded relaxation, solved with
    ``recorded_engine`` and with ``former_engine``, which is ``auto`` on
    it."""
    inst = criterion_7_laminar()
    return (ptas_laminar(inst, CRITERION_7_SETTING).policy,
            rounded_relaxation(inst, CRITERION_7_SETTING, "recorded"),
            rounded_relaxation(inst, CRITERION_7_SETTING))


def test_dense_simplex_matches_reference_on_corpus_lps(corpus_run):
    models, _ = corpus_run
    assert len(models) == 800
    assert simplex_digest(models) == SIMPLEX_SHA256["corpus"]


@pytest.mark.parametrize("name", sorted(HAND_LPS))
def test_dense_simplex_matches_reference_on_hand_lps(name):
    model = model_from_arrays(*HAND_LPS[name])
    assert simplex_digest([model]) == SIMPLEX_SHA256[name]
    want = {"infeasible": "infeasible", "unbounded": "unbounded"}
    assert reference_dense_simplex(model).status == want.get(name, "optimal")


def test_dense_simplex_matches_reference_on_random_lps():
    # small integer data: many ratio ties, degenerate vertices, redundant
    # and negative-rhs rows
    rng = random.Random(2024)
    models = []
    for _ in range(200):
        n = rng.randint(1, 6)
        c = [rng.randint(-3, 4) for _ in range(n)]
        a_ub = [[rng.randint(-2, 3) for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        b_ub = [rng.randint(-3, 6) for _ in a_ub]
        a_eq = [[rng.randint(-1, 2) for _ in range(n)]
                for _ in range(rng.randint(0, 2))]
        b_eq = [rng.randint(-2, 3) for _ in a_eq]
        if a_eq and rng.random() < 0.3:
            a_eq.append([2 * v for v in a_eq[0]])
            b_eq.append(2 * b_eq[0])
        models.append(model_from_arrays(c, a_ub, b_ub, a_eq, b_eq))
    assert simplex_digest(models) == SIMPLEX_SHA256["random"]
    assert {reference_dense_simplex(m).status for m in models} == {
        "optimal", "infeasible", "unbounded"}


def test_dense_simplex_honours_the_pivot_cap(monkeypatch):
    model = model_from_arrays(*HAND_LPS["negative_rhs"])
    monkeypatch.setattr(conftest, "PIVOT_CAP", 2)
    with pytest.raises(LpError, match="simplex pivot cap 2 exceeded"):
        reference_dense_simplex(model)


def lp_text_digests(corpus) -> dict:
    """The digest of the LP texts ``LP_TEXT_SHA256`` pins, per label."""
    prods = [e.production for e in corpus if e.production is not None]
    texts = {
        "optimal": [build_lp_optimal(e.laminar).model.to_text()
                    for e in corpus],
        "exante": [build_lp_exante(p, 0.8).model.to_text() for p in prods],
        "hierarchy": [build_lp_hierarchy(e.laminar,
                                          mark_laminar(e.laminar, 0.6),
                                          0.8).model.to_text()
                      for e in corpus],
    }
    c7 = criterion_7_laminar()
    texts["criterion_7"] = [build_lp_hierarchy(
        c7, mark_laminar(c7, CRITERION_7_SETTING.delta), 0.8).model.to_text()]
    return {k: sha256_of(v) for k, v in texts.items()}


def test_lp_text_is_pinned(corpus):
    assert lp_text_digests(corpus) == current_pins(LP_TEXT_SHA256)


def emitted_and_reference(build):
    """The model ``build()`` returns, and the one it returns with the
    blocks emitted by the tuple-keyed ``conftest.reference_emit_block``."""
    got = build().model
    with reference_emitter():
        want = build().model
    return got, want


def assert_same_lp(got, want):
    assert got.num_vars == want.num_vars
    assert np.array_equal(got.ptr, want.ptr)
    assert np.array_equal(got.cols, want.cols)
    assert got.coefs.tobytes() == want.coefs.tobytes()  # signs of 0 too
    assert np.array_equal(got.le_rows(), want.le_rows())
    assert got.rhs.tobytes() == want.rhs.tobytes()
    assert list(got.objective.items()) == list(want.objective.items())
    assert got.names == want.names


def forbidden_to_reachable(built) -> int:
    """States forbidden at a level and reachable one level on: an
    over-pick's target before a buyer that a pick reaches after it."""
    count = 0
    for info in built.blocks.values():
        levels, forbidden = reference_profile(info.dyn)
        count += sum(len(set(bad) & set(nxt))
                     for bad, nxt in zip(forbidden, levels[1:]))
    return count


def test_lp_emitter_matches_reference_on_corpus(corpus):
    for entry in corpus:
        lam = entry.laminar
        builds = [lambda: build_lp_optimal(lam)]
        for scale in (1.0, 0.8):
            builds.append(lambda scale=scale: build_lp_hierarchy(
                lam, mark_laminar(lam, 0.6), scale))
            if entry.production is not None:
                builds.append(lambda scale=scale: build_lp_exante(
                    entry.production, scale))
        for build in builds:
            assert_same_lp(*emitted_and_reference(build))


def test_lp_emitter_matches_reference_on_multi_day_production():
    # rising day caps: a sold count forbidden before a buyer and reachable
    # after it, which has a Y only where it is reachable
    rng = random.Random(99)
    rising = 0
    for _ in range(300):
        p = random_production(rng, days_max=3)
        for build in (lambda: build_lp_exante(p, 1.0),
                      lambda: build_lp_optimal(as_laminar(p))):
            assert_same_lp(*emitted_and_reference(build))
        rising += forbidden_to_reachable(build_lp_exante(p, 1.0)) > 0
    assert rising == 39


def test_lp_emitter_matches_reference_on_random_nested_trees():
    rng = random.Random(1616)
    instances = []
    for _ in range(150):
        n = rng.randint(1, 10)
        instances.append(LaminarInstance.build(
            tuple(random_distribution(rng, 3, SIGNED_GRID) for _ in range(n)),
            random_nested_tree(rng, range(n))))
    # under a large root: a nested bin whose levels are arrays beside a
    # small bin and a lone element whose levels are lists, in one LP
    instances.append(LaminarInstance.build(
        tuple(random_distribution(rng, 3, SIGNED_GRID) for _ in range(15)),
        {"cap": 100, "children": [
            {"cap": 5, "children": [
                {"cap": 4, "children": [{"element": e} for e in range(6)]},
                {"cap": 4, "children": [{"element": e}
                                        for e in range(6, 12)]}]},
            {"cap": 1, "children": [{"element": 12}, {"element": 13}]},
            {"element": 14}]}))
    for inst in instances:
        for build in (lambda: build_lp_optimal(inst),
                      lambda: build_lp_hierarchy(
                          inst, mark_laminar(inst, 0.4), 0.8)):
            assert_same_lp(*emitted_and_reference(build))


def test_lp_emitter_matches_reference_with_object_codes():
    # 64 bins of capacity 1 under a root of capacity 1: codes past int64,
    # and consecutive elements in different bins, so a full root's
    # forbidden states recur from level to level under different steps
    inst = LaminarInstance.build(
        tuple(D([(0.0, 0.5), (1.0 + e % 3, 0.5)]) for e in range(128)),
        {"cap": 1, "children": [{"cap": 1, "children": [
            {"element": j}, {"element": j + 64}]} for j in range(64)]})
    assert model.StateCoding(BinSubproblem(inst, 0)).dtype == object
    assert_same_lp(*emitted_and_reference(lambda: build_lp_optimal(inst)))


def test_lp_emitter_matches_reference_on_criterion_7():
    c7 = criterion_7_laminar()
    mk = mark_laminar(c7, CRITERION_7_SETTING.delta)
    for scale in (1.0, 0.8):
        assert_same_lp(*emitted_and_reference(
            lambda: build_lp_hierarchy(c7, mk, scale)))


def assert_over_picks_alone(built) -> int:
    """Each over-pick's ``X(t,state,atom)`` has two entries, ``-1`` on the
    marginal row of ``X(t,atom)`` and ``+1`` on a ``<=`` row of right-hand
    side 0 that holds nothing else; no variable is a served count
    ``N(j)``.  Returns how many over-pick columns the LP has."""
    m = built.model
    rows, cols, coefs = m.coo()
    ptr, le, rhs = m.ptr, m.le_rows(), m.rhs
    assert not [name for name in m.names if name.startswith("N(")]
    count = 0
    for info in built.blocks.values():
        for lvl, (t, states) in enumerate(zip(info.elements, info.levels)):
            na = len(built.instance.dists[t].atoms)
            for i, s in enumerate(states):
                if can_pick(info.dyn, s, t):
                    continue
                for a in range(na):
                    at = np.flatnonzero(cols == info.xc[lvl] + i * na + a)
                    assert sorted(coefs[at].tolist()) == [-1.0, 1.0]
                    marginal, cap = rows[at][np.argsort(coefs[at])]
                    xm = np.flatnonzero((rows == marginal)
                                        & (cols == info.xm[lvl] + a))
                    assert coefs[xm].tolist() == [1.0]
                    assert ptr[cap + 1] - ptr[cap] == 1
                    assert le[cap] and rhs[cap] == 0.0
                    count += 1
    return count


def assert_shipping_row_on_marginals(built, scale):
    """The ex-ante LP's last row, its shipping row, sums every buyer's
    ``X(t,atom)`` at the atom's probability."""
    m, p = built.model, built.instance
    start, end = m.ptr[-2], m.ptr[-1]
    got = sorted((m.names[j], c) for j, c in
                 zip(m.cols[start:end].tolist(), m.coefs[start:end].tolist()))
    want = sorted((lp.xm_name(t, a), pa) for t, dist in enumerate(p.dists)
                  for a, pa in enumerate(dist.probs))
    assert got == want
    assert m.le_rows()[-1] and m.rhs[-1] == scale * p.shipping


def test_over_pick_x_enters_only_its_marginal_and_cap_rows(corpus):
    # the LP holds no state an over-pick would reach: the over-pick's
    # X(t,state,atom) is held at 0 by its own row, and the shipping row
    # sums the marginals with no served count between.  Each optimum stays
    # that of the LP with the pinned forbidden states and N(j), which the
    # corpus LPs the simplex solves show against that reference
    over = 0
    for entry in corpus:
        lam, p = entry.laminar, entry.production
        builds = [(lambda: build_lp_optimal(lam), None)]
        for scale in (1.0, 0.8):
            builds.append((lambda scale=scale: build_lp_hierarchy(
                lam, mark_laminar(lam, 0.6), scale), None))
            if p is not None:
                builds.append((lambda scale=scale: build_lp_exante(p, scale),
                               scale))
        for build, exante_scale in builds:
            built = build()
            over += assert_over_picks_alone(built)
            if exante_scale is not None:
                assert_shipping_row_on_marginals(built, exante_scale)
            if recorded_engine(built.model) != "simplex":
                continue
            with reference_emitter(forbidden=True):
                former = build().model
            got = reference_dense_simplex(built.model).objective
            want = reference_dense_simplex(former).objective
            assert abs(got - want) <= 1e-9, entry.name
    assert over > 0
    rng = random.Random(99)
    over = 0
    for _ in range(300):
        p = random_production(rng, days_max=3)
        built = build_lp_exante(p, 1.0)
        over += assert_over_picks_alone(built)
        assert_shipping_row_on_marginals(built, 1.0)
        over += assert_over_picks_alone(build_lp_optimal(as_laminar(p)))
    assert over > 0
    wide = LaminarInstance.build(
        tuple(D([(0.0, 0.5), (1.0 + e % 3, 0.5)]) for e in range(128)),
        {"cap": 1, "children": [{"cap": 1, "children": [
            {"element": j}, {"element": j + 64}]} for j in range(64)]})
    assert assert_over_picks_alone(build_lp_optimal(wide)) > 0
    c7 = criterion_7_laminar()
    mk = mark_laminar(c7, CRITERION_7_SETTING.delta)
    assert assert_over_picks_alone(build_lp_hierarchy(c7, mk, 0.8)) > 0


def former_pin_digests(corpus, suffix, **emitter):
    """``(texts, policies)``: the digests of the LP texts and of the
    roundings of a simplex vertex, labelled with ``suffix``, made under
    ``reference_emitter(**emitter)``."""
    cfg = BENCH_SETTINGS["eps0.2_delta0.6"]
    with reference_emitter(**emitter):
        texts = {k + suffix: v for k, v in lp_text_digests(corpus).items()}
        got = {}
        exact = [build_lp_optimal(entry.laminar) for entry in corpus]
        for label, engine in (("lp_opt", recorded_engine),
                              ("lp_opt_auto_past_limit", past_limit_engine)):
            got[label + suffix] = sha256_of(
                policy_to_json(extract_pricing(floored(
                    solve_with(built.model, engine(built.model)), built),
                    built, "root"))
                for built in exact)
        for label, engine in (("eps0.2_delta0.6", "former"),
                              ("eps0.2_delta0.6_any_row", "any_row")):
            got[label + suffix] = sha256_of(
                policy_to_json(lp_large_branch_policy(entry, cfg, engine)[0])
                for entry in corpus)
        got["ptas_eps0.2_delta0.6_lp_route" + suffix] = sha256_of(
            policy_to_json(lp_route_ptas_policy(entry, cfg))
            for entry in corpus)
        got["criterion_7" + suffix] = sha256_of([policy_to_json(
            rounded_relaxation(criterion_7_laminar(), CRITERION_7_SETTING,
                               "recorded"))])
    return texts, got


def test_pins_recorded_with_alias_terms(corpus):
    # the reference emitter that writes the alias terms reproduces the LP
    # texts and the roundings of a simplex vertex recorded with them
    texts, got = former_pin_digests(corpus, ALIAS_TERMS, aliases=True)
    assert texts == current_pins(LP_TEXT_SHA256, ALIAS_TERMS)
    want = current_pins(POLICY_SHA256, ALIAS_TERMS)
    assert {k: got[k] for k in want} == want


def test_pins_recorded_with_forbidden_states(corpus):
    # the reference that writes the pinned forbidden states and the
    # ex-ante N(j) reproduces the LP texts and the roundings of a simplex
    # vertex recorded with them
    texts, got = former_pin_digests(corpus, FORBIDDEN_STATES, forbidden=True)
    assert texts == current_pins(LP_TEXT_SHA256, FORBIDDEN_STATES)
    assert got == current_pins(POLICY_SHA256, FORBIDDEN_STATES)


def test_pins_recorded_with_the_hierarchy_route(corpus):
    # the ten relaxations with several large rows, computed as they were
    # before the nested dual, reproduce the PTAS documents recorded then
    cfg = BENCH_SETTINGS["eps0.2_delta0.6"]
    assert {"ptas_eps0.2_delta0.6" + HIERARCHY_ROUTE: sha256_of(
        policy_to_json(hierarchy_route_ptas_policy(entry, cfg))
        for entry in corpus)} == current_pins(POLICY_SHA256, HIERARCHY_ROUTE)


def test_ptas_policies_are_pinned(corpus, corpus_run, criterion_7_policies):
    _, policies = corpus_run
    got = {label: sha256_of(map(policy_to_json, policies[label]))
           for label in (*BENCH_SETTINGS, "ptas_eps0.2_delta0.6", "lp_opt",
                         "lp_opt_auto_past_limit", "lp_opt_auto",
                         "eps0.2_delta0.6_any_row")}
    cfg = BENCH_SETTINGS["eps0.2_delta0.6"]
    got["ptas_eps0.2_delta0.6_lp_route"] = sha256_of(
        policy_to_json(lp_route_ptas_policy(entry, cfg)) for entry in corpus)
    ptas_policy, relaxed, relaxed_auto = criterion_7_policies
    got["criterion_7"] = sha256_of([policy_to_json(relaxed)])
    got["criterion_7_auto"] = sha256_of([policy_to_json(relaxed_auto)])
    got["ptas_criterion_7"] = sha256_of([policy_to_json(ptas_policy)])
    assert got == current_pins(POLICY_SHA256)


def test_dual_route_pins_hold_on_lists_and_arrays(corpus, sweep):
    # the dual search sweeps the units' levels with the list or the array
    # kernel, whose carried picks take the same sums in the same order:
    # the PTAS writes the pinned documents either way
    cfg = BENCH_SETTINGS["eps0.2_delta0.6"]
    results = [run_ptas(entry, cfg) for entry in corpus]
    assert sha256_of(policy_to_json(r.policy) for r in results) == \
        POLICY_SHA256["ptas_eps0.2_delta0.6"]
    dual = [(entry.production or entry.laminar, r)
            for entry, r in zip(corpus, results) if r.lp_kind == "lagrangian"]
    assert len(dual) == 65
    for inst, r in dual:
        for key in r.policy.blocks:
            assert_swept(state_levels(bind_dynamics(key, inst)), sweep)


def test_ptas_keeps_the_lp_policy_wherever_it_solves_the_lp(corpus_run):
    # the PTAS documents differ from the LP large branch's only on the
    # cases where the decoupled DP policies satisfy every large row, and
    # not where the units cannot fill their rows, since auto then takes
    # the DP point: 4 fewer than under the simplex (``any_row``); on 40
    # of the 55 one-row cases, whose mixed dual policies price the other
    # 15 as the LP's vertex does; and on 7 of the 10 several-row cases,
    # whose nested dual mixtures price the other 3 as that vertex does
    _, policies = corpus_run
    setting = {label: label for label in BENCH_SETTINGS}
    setting["eps0.2_delta0.6_any_row"] = "eps0.2_delta0.6"
    differ = {label: sum(policy_to_json(a) != policy_to_json(b)
                         for a, b in zip(policies[label],
                                         policies[f"ptas_{cfg}"]))
              for label, cfg in setting.items()}
    assert differ == {"eps0.2": 0, "eps0.2_delta0.6": 108,
                      "eps0.2_delta0.6_any_row": 112}


# ---------------------------------------------------------------------------
# Policy writer
# ---------------------------------------------------------------------------


def test_policy_writer_matches_json_dumps_on_corpus(corpus_run):
    _, policies = corpus_run
    assert {k: len(v) for k, v in policies.items()} == {
        "eps0.2": 200, "eps0.2_delta0.6": 200, "ptas_eps0.2": 200,
        "ptas_eps0.2_delta0.6": 200, "lp_route": 270, "lp_opt": 200,
        "lp_opt_auto_past_limit": 200, "lp_opt_auto": 200,
        "eps0.2_delta0.6_any_row": 200}
    for pols in policies.values():
        for pol in pols:
            assert policy_to_json(pol) == reference_policy_json(pol)


@pytest.mark.parametrize("cfg", [CRITERION_7_SETTING, PtasConfig(epsilon=0.2)],
                         ids=["large", "small"])
def test_policy_writer_matches_json_dumps_on_criterion_7(cfg):
    pol = ptas_laminar(criterion_7_laminar(), cfg).policy
    assert policy_to_json(pol) == reference_policy_json(pol)


def test_policy_writer_matches_json_dumps_on_criterion_7_relaxation(
        criterion_7_policies):
    _, *relaxed = criterion_7_policies
    for pol in relaxed:
        assert policy_to_json(pol) == reference_policy_json(pol)


HAND_POLICIES = {
    "no rules": PricingPolicy(scope="root", rules={}),
    "signed zeros and infinities": PricingPolicy(scope="type:3", rules={
        (0, (0,)): (-0.0, -0.0), (0, (1,)): (math.inf, 0.0),
        (2, (0,)): (-math.inf, 1.0), (1, (0,)): (0.1 + 0.2, 1e-300)}),
    "empty states": PricingPolicy(scope="elem:4", rules={
        (4, ()): (2.5, 0.5)}),
    "composed without counters": ComposedPolicy(
        blocks={"root": PricingPolicy(scope="root", rules={
            (0, (1, 0)): (1.0, 1.0), (1, (1, 0)): (math.inf, 0.0)})},
        element_block={0: "root", 1: "root"}, counter_caps={},
        counter_keys={0: (), 1: ()}),
    # keys sort as strings: "bin:10" before "bin:2", "10" before "2"
    "composed with counters": ComposedPolicy(
        blocks={f"bin:{b}": PricingPolicy(scope=f"bin:{b}", rules={
            (e, (0,)): (0.5, 0.25)}) for b, e in ((2, 2), (10, 10))},
        element_block={2: "bin:2", 10: "bin:10"},
        counter_caps={"bin:0": 1, "bin:1": 0},
        counter_keys={2: ("bin:0",), 10: ("bin:0", "bin:1")}),
    "composed without blocks": ComposedPolicy(
        blocks={}, element_block={}, counter_caps={}, counter_keys={}),
}


@pytest.mark.parametrize("name", sorted(HAND_POLICIES))
def test_policy_writer_matches_json_dumps_on_hand_cases(name):
    pol = HAND_POLICIES[name]
    assert policy_to_json(pol) == reference_policy_json(pol)


# ---------------------------------------------------------------------------
# Binding a policy document to an instance's levels
# ---------------------------------------------------------------------------


def simulated(policy, inst):
    rep = simulate(policy, inst, 300, seed=4)
    return json.dumps(rep.to_json_dict(), sort_keys=True)


def with_rules(policy, drop=(), add=()):
    """``policy``'s document without the rules at the ``(t, state)`` of
    ``drop``, with those of ``add`` (``(t, state, tau, p)``), read back."""
    doc = json.loads(policy_to_json(policy))
    doc["rules"] = [r for r in doc["rules"]
                    if (r["t"], tuple(r["state"])) not in drop]
    doc["rules"] += [{"t": t, "state": list(s), "tau": tau, "p": p}
                     for t, s, tau, p in add]
    return policy_from_json(json.dumps(doc))


def test_binding_ignores_a_rule_at_an_unreachable_state():
    inst = deep_laminar()
    _, policy = solve_full_dp(inst)
    lv = state_levels(BinSubproblem(inst, 0))
    first = lv.tuples()[0][0]  # the only state before the first arrival
    # a state of the coding that the first arrival never sees
    unreachable = (first[0] - 1,) + first[1:]
    assert unreachable in lv.tuples()[-1]
    want = simulated(policy, inst)
    assert simulated(with_rules(policy), inst) == want
    assert simulated(with_rules(policy, add=[(0, unreachable, -1.0, 1.0)]),
                     inst) == want


def aliases(state, coding):
    """States with ``state``'s code under ``coding`` whose coordinates leave
    its range: one digit moved into its neighbour, past its radix or below
    0, and the state with a coordinate more or less."""
    out = [state + (0,), state[:-1]]
    for k in range(len(state) - 1):
        r = coding.radices[k + 1]
        up = state[:k] + (state[k] - 1, state[k + 1] + r) + state[k + 2:]
        down = state[:k] + (state[k] + 1, state[k + 1] - r) + state[k + 2:]
        out += [s for s in (up, down)
                if coding.lows[k] <= s[k] < coding.lows[k] + coding.radices[k]]
    assert all(len(s) != len(state) or coding.encode(s) == coding.encode(state)
               for s in out)
    return out


def test_binding_never_aliases_a_reached_state():
    inst = deep_laminar()
    _, policy = solve_full_dp(inst)
    dyn = BinSubproblem(inst, 0)
    coding = model.StateCoding(dyn)
    _, trace = evaluate_exact(policy, inst)
    tuples = state_levels(dyn).tuples()
    # every reached state whose rule can be written under another name
    cases = [(dyn.elements[i], s) for i, occ in enumerate(trace[:-1])
             for s, w in zip(tuples[i], occ.tolist()) if w > 0.0]
    below = 0
    for t, state in cases:
        bare = with_rules(policy, drop={(t, state)})
        with pytest.raises(CoverageError) as want:
            simulated(bare, inst)
        for alias in aliases(state, coding):
            below += min(alias) < 0
            aliased = with_rules(policy, drop={(t, state)},
                                 add=[(t, alias, -1.0, 1.0)])
            with pytest.raises(CoverageError) as got:
                simulated(aliased, inst)
            assert str(got.value) == str(want.value)
    assert len(cases) == 10 and below > 0


def test_binding_reads_back_a_policy_with_object_codes():
    # codes past int64, as in test_lp_emitter_matches_reference_with_object_codes
    inst = LaminarInstance.build(
        tuple(D([(0.0, 0.5), (1.0 + e % 3, 0.5)]) for e in range(128)),
        {"cap": 1, "children": [{"cap": 1, "children": [
            {"element": j}, {"element": j + 64}]} for j in range(64)]})
    assert model.StateCoding(BinSubproblem(inst, 0)).dtype == object
    _, policy = solve_full_dp(inst)
    again = policy_from_json(policy_to_json(policy))
    assert again.levels is None
    assert simulated(again, inst) == simulated(policy, inst)


# ---------------------------------------------------------------------------
# State enumeration and exact evaluation
# ---------------------------------------------------------------------------


def every_scope(inst):
    """The dynamics of every scope a policy or LP block of ``inst`` can
    have -- each bin's sub-tree, each type's chain, each element alone --
    so every block a builder or ``simulate`` builds is among them."""
    lam = as_laminar(inst)
    keys = ["root"] + [f"bin:{b}" for b in range(1, lam.num_bins)]
    keys += [f"elem:{e}" for e in range(lam.num_elements)]
    if isinstance(inst, ProductionInstance):
        keys += [f"type:{j}" for j in range(inst.num_types)]
    return [bind_dynamics(key, inst) for key in keys]


def assert_profile_matches_reference(dyn):
    want = reference_profile(dyn)
    assert model.reachable_profile(dyn) == want
    # capped at one state, and at one state fewer than the last level
    for cap in (1, len(want[0][-1]) - 1):
        assert _sizing(lambda: model.reachable_profile(dyn, cap)) == \
            _sizing(lambda: reference_profile(dyn, cap))


def test_reachable_profile_matches_reference_on_corpus(corpus, sweep):
    for entry in corpus:
        for dyn in every_scope(entry.production or entry.laminar):
            assert_profile_matches_reference(dyn)
            assert_swept(state_levels(dyn), sweep)


def test_reachable_profile_matches_reference_on_random_trees(sweep):
    rng = random.Random(808)
    for _ in range(60):
        inst = (random_production(rng, days_max=3) if rng.random() < 0.5
                else random_laminar(rng))
        for dyn in every_scope(inst):
            assert_profile_matches_reference(dyn)


def test_reachable_profile_matches_reference_on_criterion_7():
    for dyn in every_scope(criterion_7_laminar()):
        assert_profile_matches_reference(dyn)


def evaluated(block, inst):
    """``evaluate_exact(block, inst)`` as the bits of its welfare and of
    each state's probability, keyed like the reference walk's trace
    (post-horizon states by the instance size), or the ``CoverageError``
    message it raises."""
    try:
        welfare, trace = evaluate_exact(block, inst)
    except CoverageError as exc:
        return str(exc)
    dyn = bind_dynamics(block.scope, inst)
    keys = dyn.elements + (len(inst.dists),)
    masses = {(key, s): w.hex() for key, states, occ in
              zip(keys, state_levels(dyn).tuples(), trace, strict=True)
              for s, w in zip(states, occ.tolist(), strict=True)}
    return welfare.hex(), masses


def reference_evaluated(block, inst):
    """``conftest.reference_evaluate_block`` as ``evaluated`` reads it: the
    reached states' masses only."""
    try:
        welfare, trace = reference_evaluate_block(block, inst)
    except CoverageError as exc:
        return str(exc)
    return welfare.hex(), {key: w.hex() for key, w in trace.items()}


def assert_occupancy_matches_reference(policy, inst):
    """The welfare bits, the bits of every reached state's mass (the
    others hold 0) and the ``CoverageError`` message of the walk."""
    blocks = (policy.blocks.values() if isinstance(policy, ComposedPolicy)
              else [policy])
    for block in blocks:
        got, want = evaluated(block, inst), reference_evaluated(block, inst)
        if isinstance(want, str):
            assert got == want
            continue
        welfare, masses = got
        assert welfare == want[0]
        assert {k: masses[k] for k in want[1]} == want[1]
        assert all(w == (0.0).hex() for k, w in masses.items()
                   if k not in want[1])


def rounded_lp_opt(lam):
    built = build_lp_optimal(lam)
    return extract_pricing(lp.solve(built.model), built, "root")


def test_occupancy_matches_reference_on_corpus(corpus, corpus_run, sweep):
    _, policies = corpus_run
    for entry in corpus:
        lam = entry.laminar
        for policy in (solve_full_dp(lam)[1], rounded_lp_opt(lam)):
            assert_occupancy_matches_reference(policy, lam)
        assert_swept(state_levels(bind_dynamics("root", lam)), sweep)
    for label in (*BENCH_SETTINGS, "ptas_eps0.2_delta0.6"):
        for entry, policy in zip(corpus, policies[label]):
            assert_occupancy_matches_reference(
                policy, entry.production or entry.laminar)


def test_occupancy_matches_reference_on_criterion_7(criterion_7_policies):
    inst = criterion_7_laminar()
    for policy in (solve_full_dp(inst)[1], *criterion_7_policies):
        assert_occupancy_matches_reference(policy, inst)


def non_dyadic_laminar(rng):
    """A random tree whose atoms have probabilities like 2/7 and 5/13, so
    that sums of masses round."""
    inst = random_laminar(rng)
    dists = []
    for _ in range(inst.num_elements):
        weights = [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]
        values = sorted(rng.sample([0.0, 0.3, 1.0, 1.7, 2.2, 3.1],
                                   len(weights)))
        dists.append(DiscreteDistribution.of(
            (v, w / sum(weights)) for v, w in zip(values, weights)))
    return LaminarInstance.build(dists, inst.to_tree())


def test_occupancy_matches_reference_on_non_dyadic_trees(sweep):
    # the occupancy visits states in the reference's order, so even
    # welfare sums that round are equal bit for bit
    rng = random.Random(909)
    for _ in range(150):
        inst = non_dyadic_laminar(rng)
        for policy in (solve_full_dp(inst)[1], rounded_lp_opt(inst)):
            assert_occupancy_matches_reference(policy, inst)


def test_occupancy_raises_where_the_reference_does(corpus):
    raised = 0
    for entry in corpus[:40]:
        lam = entry.laminar
        rules = dict(solve_full_dp(lam)[1].rules)
        # drop the rule of the last arrival at the state it sees most
        # often: that state carries mass under the remaining rules
        t = max(t for t, _ in rules)
        _, trace = reference_evaluate_block(PricingPolicy("root", rules), lam)
        state = max((s for u, s in trace if u == t),
                    key=lambda s: trace[(t, s)])
        del rules[(t, state)]
        policy = PricingPolicy("root", rules)
        want = reference_evaluated(policy, lam)
        raised += isinstance(want, str)
        assert_occupancy_matches_reference(policy, lam)
    assert raised == 40
