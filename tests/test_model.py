import json
import random

import pytest

from binprice import (
    DiscreteDistribution,
    InstanceError,
    LaminarInstance,
    ProductionInstance,
    SizingError,
    parse_instance,
    production_to_laminar,
    serialize_instance,
    solve_full_dp,
    validate,
)
from binprice.model import BinSubproblem, reachable_profile

from conftest import (
    local_state_space,
    oracle_states,
    unpick,
    random_laminar,
    random_production,
)

U02 = DiscreteDistribution.uniform([0, 2])
DET5 = DiscreteDistribution.point(5)


def build_chain(dists, caps):
    node = {"cap": caps[-1],
            "children": [{"element": i} for i in range(len(dists))]}
    for cap in reversed(caps[:-1]):
        node = {"cap": cap, "children": [node]}
    return LaminarInstance.build(dists, node)


def test_validate_accepts_well_formed_production():
    p = ProductionInstance(
        dists=(U02, DET5, U02), types=(0, 1, 0), days=(0, 0, 0),
        production=((2,), (1,)), shipping=3)
    assert validate(p) == []


def test_validate_catches_bad_probability_mass():
    # an instance checks itself when built and raises what validate reports
    d = DiscreteDistribution.of([(1.0, 0.5), (2.0, 0.6)])
    with pytest.raises(InstanceError) as exc:
        ProductionInstance(dists=(d,), types=(0,), days=(0,),
                           production=((1,),), shipping=1)
    msgs = exc.value.violations
    assert any("sum" in m for m in msgs)


def test_validate_catches_decreasing_production_and_days():
    with pytest.raises(InstanceError) as exc:
        ProductionInstance(
            dists=(U02, U02), types=(0, 0), days=(1, 0),
            production=((2, 1),), shipping=1)
    msgs = "\n".join(exc.value.violations)
    assert "days" in msgs and "production[0]" in msgs


def test_parse_rejects_overlap_via_duplicate_leaves():
    doc = {"kind": "laminar",
           "elements": [{"dist": [[1.0, 1.0]]}, {"dist": [[2.0, 1.0]]}],
           "bins": {"cap": 2, "children": [
               {"cap": 1, "children": [{"element": 0}, {"element": 1}]},
               {"cap": 1, "children": [{"element": 1}]}]}}
    with pytest.raises(InstanceError, match="multiple leaves"):
        parse_instance(doc)


def test_parse_rejects_unknown_fields():
    doc = {"kind": "laminar", "elements": [{"dist": [[1.0, 1.0]]}],
           "bins": {"cap": 1, "children": [{"element": 0}]},
           "extra": True}
    with pytest.raises(InstanceError, match="unknown fields"):
        parse_instance(doc)


def test_roundtrip_is_fixed_point():
    rng = random.Random(7)
    for _ in range(25):
        inst = (random_laminar(rng) if rng.random() < 0.5
                else random_production(rng, days_max=2))
        doc = serialize_instance(inst)
        again = parse_instance(json.loads(json.dumps(doc)))
        assert serialize_instance(again) == doc


def test_conversion_shape_single_type():
    # 1 type, T=1, k=2, K=1, 3 buyers: root cap 1 over one cap-2 bin? The
    # child clamps to the root's 1 and then collapses into it.
    p = ProductionInstance(dists=(U02, U02, U02), types=(0, 0, 0),
                           days=(0, 0, 0), production=((2,),), shipping=1)
    lam = production_to_laminar(p)
    assert lam.num_bins == 1
    assert lam.bin_caps == (1,)


def test_conversion_two_types_two_days_shape():
    p = ProductionInstance(
        dists=(U02, U02, U02, U02), types=(0, 1, 0, 1), days=(0, 0, 1, 1),
        production=((1, 2), (1, 2)), shipping=3)
    lam = production_to_laminar(p)
    # root -> two type chains of two nested day bins -> leaves
    assert lam.depth == 3
    assert sorted(lam.bin_child_bins[0]) != []
    for chain_top in lam.bin_child_bins[0]:
        assert lam.bin_caps[chain_top] == 2
        (inner,) = lam.bin_child_bins[chain_top]
        assert lam.bin_caps[inner] == 1


def test_conversion_collapses_identical_day_bins():
    # no day-1 arrivals, equal caps: the two day bins merge
    p1 = ProductionInstance(dists=(U02, U02), types=(0, 0), days=(0, 0),
                            production=((1, 1),), shipping=2)
    p2 = ProductionInstance(dists=(U02, U02), types=(0, 0), days=(0, 0),
                            production=((1,),), shipping=2)
    lam1, lam2 = production_to_laminar(p1), production_to_laminar(p2)
    assert lam1.num_bins == lam2.num_bins
    t1, _ = solve_full_dp(lam1)
    t2, _ = solve_full_dp(lam2)
    assert abs(t1.optimal - t2.optimal) <= 1e-9


def test_conversion_preserves_optimal_value():
    rng = random.Random(11)
    for _ in range(20):
        p = random_production(rng, days_max=2)
        lam = production_to_laminar(p)
        # chain-product DP on the raw production form, enumerated directly
        value = _oracle_production_value(p)
        tbl, _ = solve_full_dp(lam)
        assert abs(tbl.optimal - value) <= 1e-9


def _oracle_production_value(p):
    """Backward induction straight on (sold-count per type, total) states."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(t, sold):
        if t == p.num_buyers:
            return 0.0
        j = p.types[t]
        total = sum(sold)
        can = (sold[j] < p.available(j, p.days[t])
               and total < p.shipping)
        best = 0.0
        for v, pa in p.dists[t].atoms:
            skip = go(t + 1, sold)
            if can:
                nxt = list(sold)
                nxt[j] += 1
                take = v + go(t + 1, tuple(nxt))
                best += pa * max(take, skip)
            else:
                best += pa * skip
        return best

    return go(0, tuple([0] * p.num_types))


def test_local_state_space_examples():
    chain = build_chain((U02, U02), [1])
    assert local_state_space(chain, 0) == {(1,), (0,)}
    cap0 = build_chain((U02,), [0])
    assert local_state_space(cap0, 0) == {(0,)}


def test_nested_state_space_example():
    # cap-2 bin over a cap-1 child with one leaf, plus one direct leaf
    inst = LaminarInstance.build(
        (U02, U02),
        {"cap": 2, "children": [
            {"cap": 1, "children": [{"element": 0}]}, {"element": 1}]})
    assert local_state_space(inst, 0) == {(2, 1), (1, 1), (1, 0), (0, 0)}


def test_state_space_matches_oracle_on_random_instances():
    rng = random.Random(23)
    for _ in range(30):
        inst = random_laminar(rng)
        for b in range(inst.num_bins):
            assert local_state_space(inst, b) == oracle_states(inst, b)


def test_state_space_downward_closed_under_unpick():
    rng = random.Random(29)
    for _ in range(20):
        inst = random_laminar(rng)
        dyn = BinSubproblem(inst, 0)
        space = local_state_space(inst, 0)
        for s in space:
            for e in dyn.elements:
                undone = unpick(dyn, s, e)
                if all(a <= b for a, b in zip(undone, dyn.initial)):
                    # a state that still has room below the caps and differs
                    # from full capacity must come from some pick sequence
                    if undone != s and undone in space:
                        assert dyn.pick(undone, e) == s


def test_sizing_cap_aborts_with_scope_name():
    rng = random.Random(3)
    inst = random_laminar(rng, n_max=6)
    with pytest.raises(SizingError, match="root"):
        reachable_profile(BinSubproblem(inst, 0), state_cap=1)
