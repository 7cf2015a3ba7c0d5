import math
import random

import numpy as np
import pytest

from binprice import (
    CoverageError,
    DiscreteDistribution,
    LaminarInstance,
    ProductionInstance,
    SizingError,
    build_lp_optimal,
    check_negative_cylinder,
    check_summed_cylinder,
    evaluate_exact,
    extract_pricing,
    production_to_laminar,
    search_dependency_counterexample,
    simulate,
    solve,
    solve_full_dp,
    solve_subproblem_dp,
)
from binprice.harness import (
    CHUNK,
    binomial_moments,
    chain_count_distribution,
    prophet_samples,
    report_to_csv,
    summed_cylinder_gaps,
    trial_generator,
)
from binprice.dp import threshold_policy
from binprice.model import (
    DEFAULT_STATE_CAP,
    BinSubproblem,
    InstanceError,
    Marking,
    TypeSubproblem,
    state_levels,
)
from binprice.rounding import ComposedPolicy, PricingPolicy, compose_policies

from conftest import (
    can_pick,
    oracle_chain_joint,
    random_production,
    table_entries,
)

U02 = DiscreteDistribution.uniform([0, 2])
U01 = DiscreteDistribution.uniform([0, 1])


def accept_all_policy(inst):
    rules = {}
    from binprice.model import BinSubproblem, reachable_profile
    dyn = BinSubproblem(inst, 0)
    levels, _ = reachable_profile(dyn)
    for lvl, t in enumerate(dyn.elements):
        for s in levels[lvl]:
            rules[(t, s)] = (-math.inf, 1.0)
    return PricingPolicy("root", rules)


def test_simulate_deterministic_instance_accept_all():
    inst = LaminarInstance.build(
        (DiscreteDistribution.point(2), DiscreteDistribution.point(3)),
        {"cap": 2, "children": [{"element": 0}, {"element": 1}]})
    rep = simulate(accept_all_policy(inst), inst, 50, seed=4)
    assert rep.mean == 5.0 and rep.stderr == 0.0
    assert rep.total_violations == 0
    assert rep.acceptance_frequency == (1.0, 1.0)


def test_simulate_all_infinite_policy():
    inst = LaminarInstance.build(
        (U02,), {"cap": 1, "children": [{"element": 0}]})
    pol = PricingPolicy("root", {(0, (1,)): (math.inf, 0.0)})
    rep = simulate(pol, inst, 100, seed=0)
    assert rep.mean == 0.0
    assert rep.ignored_fraction == 0.0  # never counter-blocked, just priced out


def test_simulate_matches_exact_value_within_ci():
    inst = LaminarInstance.build(
        (U02, DiscreteDistribution.point(1)),
        {"cap": 1, "children": [{"element": 0}, {"element": 1}]})
    built = build_lp_optimal(inst)
    sol = solve(built.model)
    pol = extract_pricing(sol, built, "root")
    rep = simulate(pol, inst, 200_000, seed=13)
    assert abs(rep.mean - 1.5) <= 3.5 * rep.stderr
    assert rep.total_violations == 0


def test_simulate_is_deterministic_across_threads_and_chunks():
    rng = random.Random(3)
    p = random_production(rng, n_max=5)
    built = build_lp_optimal(production_to_laminar(p))
    sol = solve(built.model)
    pol = extract_pricing(sol, built, "root")
    a = simulate(pol, p, 9000, seed=42, threads=1)
    b = simulate(pol, p, 9000, seed=42, threads=4)
    assert a.to_json_dict() == b.to_json_dict()
    assert report_to_csv(a.to_csv_rows()) == report_to_csv(b.to_csv_rows())


def test_simulate_uncovered_state_is_a_hard_fault():
    inst = LaminarInstance.build(
        (U02, U02), {"cap": 2, "children": [{"element": 0}, {"element": 1}]})
    pol = PricingPolicy("root", {(0, (2,)): (-1.0, 1.0)})  # nothing for t=1
    with pytest.raises(CoverageError):
        simulate(pol, inst, 10, seed=1)


def test_simulate_raises_exactly_when_a_trial_reaches_an_uncovered_state():
    # arrival 1 has a rule after a skip but none after a sale, which
    # arrival 0 makes when its value draw lands on 2
    inst = LaminarInstance.build(
        (U02, U02), {"cap": 2, "children": [{"element": 0}, {"element": 1}]})
    sells = PricingPolicy("root", {(0, (2,)): (1.0, 1.0),
                                   (1, (2,)): (1.0, 1.0)})
    seed = next(s for s in range(100)
                if trial_generator(s, 0).random(4)[0] < 0.5
                and trial_generator(s, 1).random(4)[0] < 0.5)
    first = next(t for t in range(2, 100)
                 if trial_generator(seed, t).random(4)[0] >= 0.5)
    rep = simulate(sells, inst, first, seed=seed)
    assert rep.acceptance_frequency[0] == 0.0
    for threads in (1, 2):
        with pytest.raises(CoverageError,
                           match=r"no rule for arrival 1 in state \(1,\)"):
            simulate(sells, inst, first + 1, seed=seed, threads=threads)
    # a policy that never sells at arrival 0 never reaches the hole
    never = PricingPolicy("root", {(0, (2,)): (math.inf, 0.0),
                                   (1, (2,)): (1.0, 1.0)})
    rep = simulate(never, inst, CHUNK + 3, seed=seed, threads=2)
    assert rep.acceptance_frequency[0] == 0.0


def test_evaluate_exact_matches_dp_value(corpus):
    for entry in corpus[:25]:
        tbl, pol = solve_full_dp(entry.laminar)
        welfare, _ = evaluate_exact(pol, entry.laminar)
        assert abs(welfare - tbl.optimal) <= 1e-9, entry.name


def test_evaluate_exact_all_infinite():
    inst = LaminarInstance.build(
        (U02,), {"cap": 1, "children": [{"element": 0}]})
    pol = PricingPolicy("root", {(0, (1,)): (math.inf, 0.0)})
    welfare, trace = evaluate_exact(pol, inst)
    assert welfare == 0.0
    # mass never leaves the initial state (1,), the last of the final
    # level's states (0,) and (1,)
    assert [occ.tolist() for occ in trace] == [[1.0], [0.0, 1.0]]


def test_composed_policy_must_fit_for_exact_evaluation():
    # ``simulate`` refuses a composed document whose blocks overlap or
    # leave an element out, so the exact evaluation must not sum it
    inst = LaminarInstance.build(
        (U02, U02), {"cap": 1, "children": [{"element": 0}, {"element": 1}]})
    tbl, root = solve_full_dp(inst)
    elem0 = PricingPolicy("elem:0", {(0, ()): (1.0, 1.0)})

    def composed(blocks):
        return ComposedPolicy(blocks=blocks,
                              element_block={0: "root", 1: "root"},
                              counter_caps={}, counter_keys={0: (), 1: ()})

    for blocks, msg in (({"root": root, "elem:0": elem0},
                         "element 0 covered twice"),
                        ({"elem:0": elem0}, "element 1 not covered")):
        for run in (lambda p: evaluate_exact(p, inst),
                    lambda p: simulate(p, inst, 10, seed=1)):
            with pytest.raises(InstanceError, match=msg):
                run(composed(blocks))
    welfare, _ = evaluate_exact(composed({"root": root}), inst)
    assert welfare == tbl.optimal == 1.5


def test_prophet_hand_examples():
    inst = LaminarInstance.build(
        tuple(DiscreteDistribution.point(v) for v in (5, 3, 2)),
        {"cap": 2, "children": [{"element": i} for i in range(3)]})
    assert prophet_samples(inst, 10, seed=0).mean() == 8.0
    inst2 = LaminarInstance.build(
        tuple(DiscreteDistribution.point(v) for v in (5, 4, 3)),
        {"cap": 2, "children": [
            {"cap": 1, "children": [{"element": 0}, {"element": 1}]},
            {"element": 2}]})
    assert prophet_samples(inst2, 10, seed=0).mean() == 8.0  # 5 + 3, 4 blocked


@pytest.mark.parametrize("trials", [0, -1])
def test_prophet_samples_refuse_fewer_than_one_trial(trials):
    inst = LaminarInstance.build(
        (DiscreteDistribution.point(1.0),),
        {"cap": 1, "children": [{"element": 0}]})
    with pytest.raises(ValueError, match="trials must be >= 1"):
        prophet_samples(inst, trials, seed=0)


def test_prophet_gap_instance():
    p = ProductionInstance(
        dists=(DiscreteDistribution.point(1),
               DiscreteDistribution.of([(0.0, 0.5), (2.0, 0.5)])),
        types=(0, 1), days=(0, 0), production=((1,), (1,)), shipping=1)
    lam = production_to_laminar(p)
    samples = prophet_samples(lam, 100_000, seed=7)
    stderr = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - 1.5) <= 3.5 * stderr
    tbl, _ = solve_full_dp(lam)
    assert abs(tbl.optimal - 1.0) <= 1e-9  # ratio 1.5 at desk scale


def test_cylinder_mutual_exclusion_chain():
    p = ProductionInstance(dists=(U02, U02), types=(0, 0), days=(0, 0),
                           production=((1,),), shipping=1)
    ok, subset, gap = check_negative_cylinder(p, 0, 0.0)
    assert ok and gap <= 1e-12


def test_cylinder_equality_under_independence():
    # ample capacity and shift below every value: everyone always accepted
    p = ProductionInstance(dists=(U02, U02, U02), types=(0, 0, 0),
                           days=(0, 0, 0), production=((3,),), shipping=3)
    ok, subset, gap = check_negative_cylinder(p, 0, -10.0)
    assert ok
    assert abs(gap) <= 1e-12  # equality for all subsets


def test_cylinder_per_subset_check_stops_above_12_buyers():
    # 2^l subsets: 12 buyers are checked, 13 are a sizing abort
    def chain(n):
        return ProductionInstance(dists=(U02,) * n, types=(0,) * n,
                                  days=(0,) * n, production=((n,),),
                                  shipping=n)

    ok, _, gap = check_negative_cylinder(chain(12), 0, -10.0)
    assert ok and abs(gap) <= 1e-12
    with pytest.raises(SizingError) as exc:
        check_negative_cylinder(chain(13), 0, -10.0)
    assert (exc.value.scope, exc.value.size, exc.value.cap) \
        == ("type:0", 2 ** 13, 2 ** 12)


def test_in_process_policy_levels_are_checked_against_the_state_cap():
    # a DP policy runs on its own levels only while none is wider than the
    # state cap; past it, the enumeration's SizingError
    inst = LaminarInstance.build(
        (U02,) * 4, {"cap": 2, "children": [{"element": e}
                                            for e in range(4)]})
    _, policy = solve_full_dp(inst)
    composed = compose_policies(inst, {"root": policy}, Marking())
    widest = max(map(len, policy.levels.codes))
    with pytest.raises(SizingError) as want:
        state_levels(BinSubproblem(inst, 0), widest - 1)
    assert (want.value.scope, want.value.size) == ("root", widest)
    runs = [lambda pol, cap: simulate(pol, inst, 10, seed=1, state_cap=cap),
            lambda pol, cap: evaluate_exact(pol, inst, state_cap=cap)]
    for run in runs:
        for pol in (policy, composed):
            with pytest.raises(SizingError) as got:
                run(pol, widest - 1)
            assert (got.value.scope, got.value.size, got.value.cap) \
                == (want.value.scope, want.value.size, want.value.cap)
            run(pol, widest)


def test_policy_over_other_dynamics_is_bound_by_code():
    # a chain's DP policy at production 2 run on the chain at production 1:
    # its levels enumerate other dynamics, so its rules are matched by code
    # over the instance's own levels, as those of a document are
    def chain(cap):
        return ProductionInstance(dists=(U02,) * 3, types=(0,) * 3,
                                  days=(0,) * 3, production=((cap,),),
                                  shipping=3)

    narrow = chain(1)
    policy = threshold_policy(solve_subproblem_dp(chain(2), 0))
    read = PricingPolicy(policy.scope, dict(policy.rules))
    dyn = TypeSubproblem(narrow, 0)
    bound, holes = policy.bind(dyn, DEFAULT_STATE_CAP)
    assert bound is not policy and bound.levels.dyn is dyn
    want, want_holes = read.bind(dyn, DEFAULT_STATE_CAP)
    assert holes == want_holes == [None] * 3
    for got, ref in ((bound.tau, want.tau), (bound.p, want.p)):
        assert [a.tolist() for a in got] == [a.tolist() for a in ref]
    welfare, trace = evaluate_exact(policy, narrow)
    ref_welfare, ref_trace = evaluate_exact(read, narrow)
    assert welfare == ref_welfare
    assert [a.tolist() for a in trace] == [a.tolist() for a in ref_trace]
    assert simulate(policy, narrow, 200, seed=3) \
        == simulate(read, narrow, 200, seed=3)


def test_cylinder_moments_agree_with_path_enumeration_oracle():
    # the checker's subset moments are exact: cross-check every one of them
    # against a literal walk over all value paths
    rng = random.Random(101)
    for _ in range(25):
        p = random_production(rng, n_max=5, m_max=1, days_max=2)
        for shift in (-1.0, 0.0, 0.7):
            joint = oracle_chain_joint(p, 0, _chain_taus(p, 0, shift))
            l = len(p.buyers_of_type(0))
            for mask in range(2 ** l):
                want = sum(pr for m, pr in joint.items()
                           if (m & mask) == mask)
                got = _moment(p, 0, shift, mask)
                assert abs(want - got) <= 1e-10


def pinned_counterexample():
    """Four-buyer chain whose optimal policy fails the per-subset form."""
    return ProductionInstance(
        dists=(DiscreteDistribution.uniform([0.5, 10]),
               DiscreteDistribution.uniform([0.5, 10]),
               DiscreteDistribution.point(2),
               DiscreteDistribution.point(1)),
        types=(0,) * 4, days=(0,) * 4, production=((2,),), shipping=4)


def test_cylinder_violation_regression():
    # Minimal chain where the optimal policy's acceptance indicators are
    # positively correlated: the last buyer is served only in histories where
    # the always-accepting buyer before him was served too, so conditioning
    # on that acceptance raises his odds.  No value ever ties a threshold.
    # The checker must flag it, in agreement with brute force.
    p = pinned_counterexample()
    ok, subset, gap = check_negative_cylinder(p, 0, 0.0)
    assert not ok
    assert subset == (2, 3)
    # E[X2 X3] = Pr[no early sale] = 1/4; E[X2] E[X3] = 3/4 * 1/4
    assert abs(gap - (0.25 - 0.75 * 0.25)) <= 1e-12


def _chain_taus(p, type_index, shift):
    """Per-position thresholds of the optimal shifted chain policy on
    shifted values, keyed by sold count, in the form the oracle takes."""
    tbl = solve_subproblem_dp(p, type_index, shift)
    dyn = TypeSubproblem(p, type_index)
    entries = table_entries(tbl)
    taus = []
    for i, t in enumerate(dyn.elements):
        level = {}
        for (lvl, s) in entries:
            if lvl == i and can_pick(dyn, s, t):
                tau = (entries[(i + 1, s)]
                       - entries[(i + 1, (s[0] + 1,))])
                level[s[0]] = tau + shift
        taus.append(level)
    return taus


def test_chain_count_distribution_agrees_with_path_enumeration_oracle():
    # the count distribution, its binomial moments and the marginals that
    # the summed check compares are exact: cross-check them against a
    # literal walk over all value paths
    rng = random.Random(202)
    for _ in range(25):
        p = random_production(rng, n_max=6, m_max=1, days_max=3)
        for shift in (-1.0, 0.0, 0.7):
            joint = oracle_chain_joint(p, 0, _chain_taus(p, 0, shift))
            l = len(p.buyers_of_type(0))
            want_counts = np.zeros(l + 1)
            want_marg = np.zeros(l)
            for mask, pr in joint.items():
                want_counts[bin(mask).count("1")] += pr
                for i in range(l):
                    if (mask >> i) & 1:
                        want_marg[i] += pr
            want_moments = [sum(pr * math.comb(bin(m).count("1"), k)
                                for m, pr in joint.items())
                            for k in range(l + 1)]
            counts, marg = chain_count_distribution(p, 0, shift)
            got = np.zeros(l + 1)
            got[:min(len(counts), l + 1)] = counts[:l + 1]
            assert np.allclose(got, want_counts, rtol=0, atol=1e-10)
            assert np.allclose(marg, want_marg, rtol=0, atol=1e-10)
            moments = np.zeros(l + 1)
            bm = binomial_moments(counts)[:l + 1]
            moments[:len(bm)] = bm
            assert np.allclose(moments, want_moments, rtol=0, atol=1e-10)


def test_summed_gaps_flag_positive_correlation():
    # C in {0, 2} with probability 1/2 each and marginals (1/2, 1/2): both
    # indicators move together, so E[binom(C, 2)] = 1/2 > e_2 = 1/4
    gaps = summed_cylinder_gaps([0.5, 0.0, 0.5], [0.5, 0.5])
    assert gaps[0] == 0.0 and gaps[1] == 0.0
    assert abs(gaps[2] - 0.25) <= 1e-15
    # independent fair coins meet every k with equality
    gaps = summed_cylinder_gaps([0.25, 0.5, 0.25], [0.5, 0.5])
    assert np.all(np.abs(gaps) <= 1e-15)


def test_summed_cylinder_holds_on_pinned_counterexample():
    # the per-subset form fails here, but the sold count is 2 with
    # certainty: E[binom(C, 2)] = 1 <= e_2(1/2, 1/2, 3/4, 1/4) = 1.4375
    p = pinned_counterexample()
    counts, marg = chain_count_distribution(p, 0, 0.0)
    assert np.allclose(counts, [0.0, 0.0, 1.0], rtol=0, atol=1e-15)
    assert np.allclose(marg, [0.5, 0.5, 0.75, 0.25], rtol=0, atol=1e-15)
    gaps = summed_cylinder_gaps(counts, marg)
    assert abs(gaps[2] - (1.0 - 1.4375)) <= 1e-12
    ok, k, gap = check_summed_cylinder(p, 0, 0.0)
    assert ok and gap <= 1e-12


def _moment(p, type_index, shift, mask):
    """Pr[every masked buyer accepted] by a direct forward pass."""
    entries = table_entries(solve_subproblem_dp(p, type_index, shift))
    dyn = TypeSubproblem(p, type_index)
    elems = dyn.elements
    cur = {0: 1.0}
    for i, t in enumerate(elems):
        nxt = {}
        for s, mass in cur.items():
            can = can_pick(dyn, (s,), t)
            if can:
                tau = (entries[(i + 1, (s,))]
                       - entries[(i + 1, (s + 1,))])
                acc = sum(pa for v, pa in p.dists[t].atoms if v - shift >= tau)
            else:
                acc = 0.0
            if (mask >> i) & 1:
                if acc > 0:
                    nxt[s + 1] = nxt.get(s + 1, 0.0) + mass * acc
            else:
                if acc > 0:
                    nxt[s + 1] = nxt.get(s + 1, 0.0) + mass * acc
                if acc < 1:
                    nxt[s] = nxt.get(s, 0.0) + mass * (1 - acc)
        cur = nxt
    return sum(cur.values())


def test_search_finds_canonical_structure_and_controls():
    dists = [U02, U02, U01, U02, U02]
    hits = search_dependency_counterexample(dists)
    assert hits
    canonical = [h for h in hits
                 if abs(h.price_after_pick - 1.0) <= 1e-9
                 and abs(h.price_after_skip - 1.25) <= 1e-9]
    assert canonical
    assert search_dependency_counterexample(dists, chains_only=True) == []
    assert search_dependency_counterexample([U02, U02]) == []


def test_trial_substreams_are_stable():
    from binprice.harness import trial_generator
    a = trial_generator(7, 3).random(4)
    b = trial_generator(7, 3).random(4)
    c = trial_generator(7, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
