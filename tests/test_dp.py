import dataclasses
import math
import random

import pytest

from binprice import (
    DiscreteDistribution,
    LaminarInstance,
    ProductionInstance,
    concavity_check,
    production_to_laminar,
    solve_full_dp,
    solve_subproblem_dp,
)
from binprice.model import BinSubproblem

from conftest import (
    can_pick,
    random_production,
    table_entries,
    table_json_dict,
    table_value,
)

U02 = DiscreteDistribution.uniform([0, 2])


def single_bin(dists, cap):
    return LaminarInstance.build(
        dists, {"cap": cap,
                "children": [{"element": i} for i in range(len(dists))]})


def test_single_buyer_deterministic():
    inst = single_bin((DiscreteDistribution.point(5),), 1)
    tbl, pol = solve_full_dp(inst)
    assert tbl.optimal == 5.0
    assert pol.rule(0, (1,)) == (0.0, 1.0)


def test_two_buyers_skip_first():
    # deterministic 3 then 5, one unit: hand Bellman gives V=5, tau1=5
    inst = single_bin((DiscreteDistribution.point(3),
                       DiscreteDistribution.point(5)), 1)
    tbl, pol = solve_full_dp(inst)
    assert tbl.optimal == 5.0
    assert pol.rule(0, (1,))[0] == 5.0


def test_uniform_then_deterministic():
    # hand Bellman: accept 2 now else take the sure 1 -> 0.5*2 + 0.5*1 = 1.5
    inst = single_bin((U02, DiscreteDistribution.point(1)), 1)
    tbl, pol = solve_full_dp(inst)
    assert abs(tbl.optimal - 1.5) <= 1e-12
    assert pol.rule(0, (1,))[0] == 1.0


def test_exhausted_state_quotes_infinity():
    inst = single_bin((U02, U02), 1)
    _, pol = solve_full_dp(inst)
    assert pol.rule(1, (0,)) == (math.inf, 0.0)


def test_monotone_marginals_on_random_instances():
    rng = random.Random(31)
    for _ in range(20):
        p = random_production(rng, days_max=2)
        lam = production_to_laminar(p)
        tbl, _ = solve_full_dp(lam)
        dyn = BinSubproblem(lam, 0)
        by_level = {}
        for (lvl, s), v in table_entries(tbl).items():
            by_level.setdefault(lvl, {})[s] = v
        for lvl, states in by_level.items():
            if lvl >= len(dyn.elements):
                continue
            for s, v in states.items():
                for e in dyn.elements:
                    if can_pick(dyn, s, e):
                        picked = dyn.pick(s, e)
                        if picked in states:
                            assert v >= states[picked] - 1e-9


def test_subproblem_dp_zero_shift_matches_full_dp_on_chain():
    rng = random.Random(37)
    for _ in range(15):
        p = random_production(rng, m_max=1, days_max=2)
        p = ProductionInstance(dists=p.dists, types=p.types, days=p.days,
                               production=p.production,
                               shipping=10 ** 6)  # chain only
        tbl = solve_subproblem_dp(p, 0, 0.0)
        full, _ = solve_full_dp(production_to_laminar(p))
        assert abs(tbl.optimal - full.optimal) <= 1e-9


def test_subproblem_dp_negative_shift_example():
    p = ProductionInstance(dists=(DiscreteDistribution.point(5),),
                           types=(0,), days=(0,), production=((1,),),
                           shipping=1)
    tbl = solve_subproblem_dp(p, 0, 6.0)
    assert tbl.optimal == 0.0  # shifted value is negative, skip


def test_subproblem_dp_hand_value():
    # two U{0,2} buyers, one unit, shift 0.5: D2(0)=0.75, D1(0)=1.125
    p = ProductionInstance(dists=(U02, U02), types=(0, 0), days=(0, 0),
                           production=((1,),), shipping=2)
    tbl = solve_subproblem_dp(p, 0, 0.5)
    assert abs(table_value(tbl, 1, (0,)) - 0.75) <= 1e-12
    assert abs(table_value(tbl, 0, (0,)) - 1.125) <= 1e-12


def test_checkpoint_guard_blocks_before_new_production():
    # day-0 cap 0, day-1 cap 1: the day-0 buyer can never be served
    p = ProductionInstance(
        dists=(DiscreteDistribution.point(9), DiscreteDistribution.point(1)),
        types=(0, 0), days=(0, 1), production=((0, 1),), shipping=2)
    tbl = solve_subproblem_dp(p, 0, 0.0)
    assert tbl.optimal == 1.0


def test_concavity_single_buyer_and_random_chains():
    rng = random.Random(41)
    p0 = ProductionInstance(dists=(U02,), types=(0,), days=(0,),
                            production=((1,),), shipping=1)
    ok, worst = concavity_check(solve_subproblem_dp(p0, 0, 0.0))
    assert ok and worst is None
    for _ in range(40):
        p = random_production(rng, m_max=1, cap_max=3, days_max=2)
        for shift in (-1.0, 0.0, 0.7):
            ok, worst = concavity_check(solve_subproblem_dp(p, 0, shift))
            assert ok, worst


def test_concavity_negative_control():
    p = ProductionInstance(dists=(U02, U02, U02), types=(0, 0, 0),
                           days=(0, 0, 0), production=((3,),), shipping=3)
    tbl = solve_subproblem_dp(p, 0, 0.0)
    # level 2 has sold counts 0..2 at positions 0..2; dent the middle of
    # that triple, on a copy: the instance keeps the table read-only
    assert tbl.levels.codes[2] == (0, 1, 2)
    dented = tbl.values[2] - [0.0, 1.0, 0.0]
    tbl = dataclasses.replace(
        tbl, values=tbl.values[:2] + (dented,) + tbl.values[3:])
    ok, worst = concavity_check(tbl)
    assert not ok
    assert worst[0] == 2 and worst[1] == 0


def test_concavity_rejects_vector_tables():
    inst = LaminarInstance.build(
        (U02, U02), {"cap": 2, "children": [
            {"cap": 1, "children": [{"element": 0}]}, {"element": 1}]})
    tbl, _ = solve_full_dp(inst)
    with pytest.raises(ValueError):
        concavity_check(tbl)


def test_chain_table_keys_its_post_horizon_level_apart_from_its_buyers():
    # type 0 holds buyers 0 and 2, so a post-horizon level labelled by the
    # chain's length, 2, would share its keys with buyer 2's level
    p = ProductionInstance(dists=(U02,) * 3, types=(0, 1, 0),
                           days=(0, 0, 0), production=((2,), (1,)),
                           shipping=3)
    tbl = solve_subproblem_dp(p, 0)
    assert tbl.positions == (0, 2, 3)
    values = table_json_dict(tbl)["values"]
    assert len(values) == len(table_entries(tbl)) == 6
    assert values["2,[0]"] == 1.0  # buyer 2, nothing sold: half of 2
    assert values["3,[0]"] == values["3,[1]"] == values["3,[2]"] == 0.0


def test_table_serializes_to_json_dict():
    inst = single_bin((U02,), 1)
    tbl, _ = solve_full_dp(inst)
    doc = table_json_dict(tbl)
    assert doc["scope"] == "root"
    assert any(k.startswith("0,") for k in doc["values"])
