import json
import math
import random

import pytest

from binprice import (
    DiscreteDistribution,
    LaminarInstance,
    Marking,
    ProductionInstance,
    build_lp_exante,
    build_lp_optimal,
    compose_policies,
    evaluate_exact,
    extract_pricing,
    mark_laminar,
    policy_from_json,
    policy_to_json,
    simulate,
    solve_optimal,
)
from binprice.model import InstanceError, marking_violations, small_units
from binprice.rounding import PricingPolicy, _price_for_rate
from binprice.lp import y_name, END

from conftest import random_laminar

U12 = DiscreteDistribution.uniform([1, 2])


def test_price_for_rate_appendix_arithmetic():
    atoms = U12.atoms
    assert _price_for_rate(atoms, 0.75) == (1.0, 0.5)
    assert _price_for_rate(atoms, 0.5) == (1.0, 0.0)
    assert _price_for_rate(atoms, 0.0) == (2.0, 0.0)
    assert _price_for_rate(atoms, 1.0) == (1.0, 1.0)


def test_zero_probability_state_maps_to_infinite_price():
    inst = LaminarInstance.build(
        (DiscreteDistribution.point(3), DiscreteDistribution.point(5)),
        {"cap": 1, "children": [{"element": 0}, {"element": 1}]})
    built = build_lp_optimal(inst)
    sol = solve_optimal(built.model)
    pol = extract_pricing(sol, built, "root")
    # the optimum skips buyer 0, so the sold-out state never occurs for
    # buyer 1 and is priced at infinity
    assert pol.rule(1, (0,)) == (math.inf, 0.0)


def test_extraction_reproduces_lp_probabilities(corpus):
    for entry in corpus[:30]:
        built = build_lp_optimal(entry.laminar)
        sol = solve_optimal(built.model)
        pol = extract_pricing(sol, built, "root")
        welfare, trace = evaluate_exact(pol, entry.laminar)
        assert abs(welfare - sol.objective) <= 1e-6, entry.name
        info = built.block("root")
        nel = len(info.elements)
        for lvl in range(nel + 1):
            tlab = info.time_label(lvl)
            t = nel if tlab == END else tlab
            for s in info.levels[lvl]:
                want = sol.value(y_name("root", tlab, s))
                assert abs(trace.get((t, s), 0.0) - want) <= 1e-7, entry.name


def test_marking_rule_boundaries():
    dists = tuple(U12 for _ in range(4))
    def tree(root_cap, child_cap):
        return LaminarInstance.build(dists, {
            "cap": root_cap, "children": [
                {"cap": child_cap, "children": [{"element": 0}, {"element": 1}]},
                {"element": 2}, {"element": 3}]})
    inst = tree(101, 3)
    mk = mark_laminar(inst, 0.1)  # depth 2: root bound 100, child bound 10
    assert mk.large == frozenset({0}) and mk.small_maximal == frozenset({1})
    inst2 = tree(100, 3)
    mk2 = mark_laminar(inst2, 0.1)  # inclusive boundary: root small
    assert mk2.small_maximal == frozenset({0}) and not mk2.large


def test_marking_inheritance_overrides_capacity():
    dists = tuple(U12 for _ in range(3))
    inst = LaminarInstance.build(dists, {
        "cap": 5, "children": [
            {"cap": 5, "children": [
                {"cap": 5, "children": [{"element": 0}, {"element": 1}]}]},
            {"element": 2}]})
    # delta high enough that the root is small; everything below inherits
    mk = mark_laminar(inst, 0.55)
    if 0 in mk.small_all:
        assert mk.small_all == frozenset(range(inst.num_bins))
        assert mk.small_maximal == frozenset({0})


def test_marking_output_is_always_valid():
    rng = random.Random(83)
    for _ in range(40):
        inst = random_laminar(rng)
        for delta in (0.1, 0.35, 0.7, 0.9):
            mk = mark_laminar(inst, delta)
            assert marking_violations(inst, mk) == []


def test_compose_identity_for_single_small_root():
    inst = LaminarInstance.build(
        (U12, U12), {"cap": 1, "children": [{"element": 0}, {"element": 1}]})
    built = build_lp_optimal(inst)
    sol = solve_optimal(built.model)
    pol = extract_pricing(sol, built, "root")
    composed = compose_policies(inst, {"root": pol}, Marking.all_small(inst))
    w1, _ = evaluate_exact(pol, inst)
    w2, _ = evaluate_exact(composed, inst)
    assert abs(w1 - w2) <= 1e-12
    assert composed.counter_caps == {}


def test_composition_missing_block_raises():
    inst = LaminarInstance.build(
        (U12, U12), {"cap": 1, "children": [{"element": 0}, {"element": 1}]})
    with pytest.raises(Exception, match="root"):
        compose_policies(inst, {}, Marking.all_small(inst))


# two buyers of type 0; type 1 has no buyer, so it is no unit
TYPE_1_UNSOLD = ProductionInstance(
    dists=(U12, U12), types=(0, 0), days=(0, 0), production=((2,), (2,)),
    shipping=1)


@pytest.mark.parametrize("inst, scopes, error", [
    (LaminarInstance.build((U12, U12), {"cap": 1, "children": [
        {"element": 0}, {"element": 1}]}),
     ["root", "elem:1"], "policy: unexpected scope elem:1"),
    (TYPE_1_UNSOLD, ["type:0", "type:1"], "policy: unexpected scope type:1"),
    (TYPE_1_UNSOLD, [], "policy: no pricing for sub-problem type:0"),
], ids=["laminar-extra", "production-extra", "production-missing"])
def test_composition_takes_exactly_the_units(inst, scopes, error):
    mk = Marking.all_small(inst) if isinstance(inst, LaminarInstance) else None
    with pytest.raises(InstanceError) as exc:
        compose_policies(inst, {k: PricingPolicy(k, {}) for k in scopes}, mk)
    assert exc.value.violations == [error]


def test_units_partition_and_counters_run_innermost_first(corpus):
    for entry in corpus:
        insts = [(entry.laminar, mark_laminar(entry.laminar, delta))
                 for delta in (0.35, 0.6, 0.95)]
        if entry.production is not None:
            insts.append((entry.production, None))
        for inst, mk in insts:
            units = small_units(inst, mk)
            assert sorted(e for elements in units.values()
                          for e in elements) == list(range(len(inst.dists)))
            composed = compose_policies(
                inst, {k: PricingPolicy(k, {}) for k in units}, mk)
            if mk is None:
                want = {e: ("shipping",) for e in range(len(inst.dists))}
            else:
                want = {e: tuple(f"bin:{b}" for b in inst.elem_ancestors(e)
                                 if b in mk.large)
                        for e in range(inst.num_elements)}
            assert composed.counter_keys == want, entry.name


def test_composition_counter_blocks_all_quotes():
    # two types, shipping 1: after one accept, every later quote is infinite
    p = ProductionInstance(
        dists=(DiscreteDistribution.point(2), DiscreteDistribution.point(2)),
        types=(0, 1), days=(0, 0), production=((1,), (1,)), shipping=1)
    always = {0: PricingPolicy("type:0", {(0, (0,)): (0.0, 1.0),
                                          (0, (1,)): (math.inf, 0.0)}),
              1: PricingPolicy("type:1", {(1, (0,)): (0.0, 1.0),
                                          (1, (1,)): (math.inf, 0.0)})}
    composed = compose_policies(
        p, {"type:0": always[0], "type:1": always[1]})
    rep = simulate(composed, p, 200, seed=1)
    assert rep.total_violations == 0
    assert rep.mean == 2.0  # second buyer always blocked by the counter
    assert rep.acceptance_frequency == (1.0, 0.0)
    assert rep.ignored_fraction == 0.5  # one of the two arrivals, every trial


def test_interleaved_blocks_preserve_local_trajectories():
    # two independent chains interleaved; per-block exact traces match the
    # blocks run alone on the same LP solution
    p = ProductionInstance(
        dists=(U12, DiscreteDistribution.uniform([0, 2]), U12,
               DiscreteDistribution.uniform([0, 3])),
        types=(0, 1, 0, 1), days=(0, 0, 0, 0),
        production=((1,), (2,)), shipping=10)
    built = build_lp_exante(p, 1.0)
    sol = solve_optimal(built.model)
    pols = {k: extract_pricing(sol, built, k) for k in built.blocks}
    composed = compose_policies(p, pols)
    w_all, trace_all = evaluate_exact(composed, p)
    total = 0.0
    for key, pol in pols.items():
        w, trace = evaluate_exact(pol, p)
        total += w
        for (t, s), v in trace.items():
            if t < p.num_buyers:  # post-horizon keys stay per-block
                assert abs(trace_all[(t, s)] - v) <= 1e-12
    assert abs(w_all - total) <= 1e-12


def test_policy_json_roundtrip_with_infinities():
    pol = PricingPolicy("root", {(0, (1, 0)): (math.inf, 0.0),
                                 (1, (1, 1)): (1.5, 0.25)})
    text = policy_to_json(pol)
    assert '"inf"' in text
    again = policy_from_json(text)
    assert again == pol


def test_composed_policy_json_roundtrip():
    p = ProductionInstance(
        dists=(DiscreteDistribution.point(2), DiscreteDistribution.point(2)),
        types=(0, 1), days=(0, 0), production=((1,), (1,)), shipping=1)
    built = build_lp_exante(p, 1.0)
    sol = solve_optimal(built.model)
    composed = compose_policies(
        p, {k: extract_pricing(sol, built, k) for k in built.blocks})
    doc = json.loads(policy_to_json(composed))
    again = policy_from_json(json.dumps(doc))
    assert again == composed
