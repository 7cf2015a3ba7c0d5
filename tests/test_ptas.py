import collections
import contextlib
import io
import json
import math
import random

import numpy as np
import pytest

from binprice import (
    DiscreteDistribution,
    PtasConfig,
    build_lp_exante,
    build_lp_optimal,
    delta_of,
    evaluate_exact,
    mark_laminar,
    production_to_laminar,
    ptas_laminar,
    ptas_production,
    simulate,
    solve_full_dp,
)
from binprice import LaminarInstance, ProductionInstance, dp, lp, model
from binprice.cli import main as cli_main
from binprice.rounding import PricingPolicy

from conftest import (
    BENCH_SETTINGS,
    criterion_6_production,
    criterion_7_laminar,
    random_laminar,
    random_production,
    reference_highs,
    reference_pick_probabilities,
    relaxation,
    run_ptas,
    solve_with,
)

U02 = DiscreteDistribution.uniform([0, 2])


def test_delta_arithmetic():
    assert abs(delta_of(0.5) - 0.25 / math.log(2.0)) <= 1e-12
    assert abs(delta_of(0.5) - 0.360674) <= 1e-6
    assert abs(delta_of(0.1) - 0.00434294) <= 1e-8


def test_delta_guards():
    with pytest.raises(ValueError):
        delta_of(0.99)
    with pytest.raises(ValueError):
        delta_of(0.0)
    with pytest.raises(ValueError):
        PtasConfig(epsilon=1.2)
    with pytest.raises(ValueError):
        PtasConfig(epsilon=0.2, delta=1.5)


def test_small_branch_triggers_and_is_optimal():
    # eps=0.5 -> 1/delta ~ 2.77, so K=2 routes to the exact branch
    p = ProductionInstance(
        dists=(DiscreteDistribution.point(1),
               DiscreteDistribution.of([(0.0, 0.5), (2.0, 0.5)])),
        types=(0, 1), days=(0, 0), production=((1,), (1,)), shipping=2)
    r = ptas_production(p, PtasConfig(epsilon=0.5))
    assert r.branch == "small"
    tbl, _ = solve_full_dp(production_to_laminar(p))
    assert abs(r.objective - tbl.optimal) <= 1e-6
    welfare, _ = evaluate_exact(r.policy, p)
    assert abs(welfare - tbl.optimal) <= 1e-6


def test_small_branch_threshold_at_eps_01():
    # eps=0.1 -> 1/delta ~ 230, so K=30 still routes to the exact branch
    assert 1.0 / delta_of(0.1) > 230
    assert 1.0 / delta_of(0.1) < 231


def test_delta_override_forces_large_branch():
    p = ProductionInstance(
        dists=(U02, U02, U02, U02), types=(0, 1, 0, 1), days=(0, 0, 0, 0),
        production=((2,), (2,)), shipping=3)
    r = ptas_production(p, PtasConfig(epsilon=0.2, delta=0.6))
    assert r.branch == "large"
    rep = simulate(r.policy, p, 4000, seed=9)
    assert rep.total_violations == 0


def test_small_branch_optimality_on_random_instances():
    rng = random.Random(53)
    for _ in range(12):
        p = random_production(rng)
        r = ptas_production(p, PtasConfig(epsilon=0.5))
        if r.branch != "small":
            continue
        tbl, _ = solve_full_dp(production_to_laminar(p))
        assert abs(r.objective - tbl.optimal) <= 1e-6
        welfare, _ = evaluate_exact(r.policy, p)
        assert abs(welfare - tbl.optimal) <= 1e-6


def test_laminar_all_small_is_exact():
    rng = random.Random(59)
    for _ in range(10):
        inst = random_laminar(rng)
        r = ptas_laminar(inst, PtasConfig(epsilon=0.2))  # tiny delta: all small
        assert r.branch == "small"
        tbl, _ = solve_full_dp(inst)
        assert abs(r.objective - tbl.optimal) <= 1e-6


def test_laminar_large_branch_feasible_pointwise():
    inst = LaminarInstance.build(
        tuple(U02 for _ in range(8)),
        {"cap": 101, "children": [
            {"cap": 2, "children": [{"element": i} for i in range(4)]},
            {"cap": 2, "children": [{"element": i} for i in range(4, 8)]}]})
    r = ptas_laminar(inst, PtasConfig(epsilon=0.2, delta=0.1))
    assert sorted(r.marking.large) == [0]
    # the two bins pick at most 4 of the root's scaled 80.8
    assert r.lp_kind == "dp"
    rep = simulate(r.policy, inst, 5000, seed=21)
    assert rep.total_violations == 0


def test_production_large_branch_matches_laminar_on_conversion():
    # same relaxation either way: the production large branch and the
    # depth-marked hierarchy on the converted tree, when the marking puts
    # the root large and the type chains small (delta=0.45: root bound
    # (1/.45)^2 < 5, chain bound 1/.45 > 2)
    p = ProductionInstance(
        dists=(U02, U02, U02, U02), types=(0, 1, 0, 1), days=(0, 0, 0, 0),
        production=((2,), (2,)), shipping=5)
    r_prod = ptas_production(p, PtasConfig(epsilon=0.2, delta=0.45))
    lam = production_to_laminar(p)
    r_lam = ptas_laminar(lam, PtasConfig(epsilon=0.2, delta=0.45))
    assert r_prod.branch == "large"
    assert sorted(r_lam.marking.large) == [0]
    assert abs(r_prod.objective - r_lam.objective) <= 1e-6
    w1, _ = evaluate_exact(r_prod.policy, p)
    w2, _ = evaluate_exact(r_lam.policy, lam)
    assert abs(w1 - w2) <= 1e-6


def two_large_bins():
    """A root of 9 over a bin of 5 and three sure buyers; the bin holds two
    cap-2 bins of three and two sure buyers.  At delta 0.5 the root and
    the bin of 5 are large, and the units' DP policies overfill the bin."""
    sure = DiscreteDistribution.point(1)
    return LaminarInstance.build((U02,) * 6 + (sure,) * 5, {
        "cap": 9, "children": [
            {"cap": 5, "children": [
                {"cap": 2, "children": [{"element": e} for e in (0, 1, 2)]},
                {"cap": 2, "children": [{"element": e} for e in (3, 4, 5)]},
                {"element": 6}, {"element": 7}]},
            {"element": 8}, {"element": 9}, {"element": 10}]})


@pytest.mark.parametrize("kind", ["exante", "hierarchy"])
def test_lp_route_builds_over_the_unit_dps_levels(monkeypatch, kind):
    # the units' DPs and the dual search over the ex-ante relaxation's one
    # row, or over the hierarchy's two nested rows, read the levels each
    # unit's DP enumerated: one enumeration per unit, which grows one level
    # per arrival, and no LP
    if kind == "exante":
        # three sure buyers against a scaled shipping row of 1.5
        inst = ProductionInstance(
            dists=(DiscreteDistribution.point(1),) * 3, types=(0, 1, 2),
            days=(0, 0, 0), production=((1,), (1,), (1,)), shipping=3)
        run, cfg = ptas_production, PtasConfig(epsilon=0.5, delta=0.4)
    else:
        inst = two_large_bins()
        run, cfg = ptas_laminar, PtasConfig(epsilon=0.2, delta=0.5)
    grown = []
    for name in ("_grow_lists", "_grow_arrays"):
        grow = getattr(model, name)
        monkeypatch.setattr(model, name,
                            lambda *a, grow=grow: grown.append(1) or grow(*a))
    with monkeypatch.context() as mp:
        forbid_lp(mp)
        assert run(inst, cfg).lp_kind == "lagrangian"
    assert len(grown) == len(inst.dists)


def test_counters_use_original_capacity_not_scaled():
    # shipping 3 scaled by 0.5 in the relaxation; the executed policy must
    # still allow a third accept when values warrant it.  Each type's own
    # DP serves its one buyer for sure, 3 expected sales against the
    # scaled row of 1.5, so the row binds and its dual is solved
    p = ProductionInstance(
        dists=(DiscreteDistribution.point(1),) * 3, types=(0, 1, 2),
        days=(0, 0, 0), production=((1,), (1,), (1,)), shipping=3)
    cfg = PtasConfig(epsilon=0.5, delta=0.4)
    r = ptas_production(p, cfg)
    assert (r.branch, r.lp_kind) == ("large", "lagrangian")
    sol = lp.solve(build_lp_exante(p, cfg.capacity_scale).model)
    assert abs(r.objective - sol.objective) <= 1e-9
    composed = r.policy
    assert composed.counter_caps == {"shipping": 3}


def takes_small_branch(entry, cfg):
    delta = cfg.resolved_delta
    if entry.production is not None:
        return entry.production.shipping <= 1.0 / delta
    return not mark_laminar(entry.laminar, delta).large


class BuiltAnLp(AssertionError):
    pass


def forbid_lp(mp):
    def no_lp(*args, **kwargs):
        raise BuiltAnLp("built or solved an LP")

    for name in ("build_lp_optimal", "build_lp_exante", "build_lp_hierarchy",
                 "solve"):
        mp.setattr(lp, name, no_lp)


@pytest.fixture(scope="module")
def small_branch_runs(corpus):
    """``(entry, result)`` of PTAS at both bench settings on every corpus
    case the small branch takes, run with every LP entry point raising."""
    runs = {label: [] for label in BENCH_SETTINGS}
    with pytest.MonkeyPatch.context() as mp:
        forbid_lp(mp)
        for entry in corpus:
            for label, cfg in BENCH_SETTINGS.items():
                if not takes_small_branch(entry, cfg):
                    continue
                runs[label].append((entry, run_ptas(entry, cfg)))
    return runs


def test_small_branch_builds_no_lp(small_branch_runs):
    assert {k: len(v) for k, v in small_branch_runs.items()} == {
        "eps0.2": 200, "eps0.2_delta0.6": 70}
    for runs in small_branch_runs.values():
        for _, r in runs:
            assert (r.branch, r.lp_kind) == ("small", "dp")


def test_small_branch_on_criterion_7_builds_no_lp(monkeypatch):
    forbid_lp(monkeypatch)
    inst = criterion_7_laminar()
    r = ptas_laminar(inst, PtasConfig(epsilon=0.2))
    assert (r.branch, r.lp_kind) == ("small", "dp")
    assert not r.marking.large
    table, _ = solve_full_dp(inst)
    assert r.objective == table.optimal
    assert sorted(r.policy.blocks) == ["root"]
    assert r.policy.counter_caps == {}


def test_small_branch_policy_attains_dp_and_lp_optimum(small_branch_runs):
    for runs in small_branch_runs.values():
        for entry, r in runs:
            table, _ = solve_full_dp(entry.laminar)
            assert r.objective == table.optimal
            inst = (entry.production if entry.production is not None
                    else entry.laminar)
            welfare, _ = evaluate_exact(r.policy, inst)
            assert abs(welfare - table.optimal) <= 1e-9
            built = build_lp_optimal(entry.laminar)
            assert abs(r.objective
                       - lp.solve(built.model).objective) <= 1e-6


def large_rows(inst, marking):
    """``(elements, capacity)`` of every large row of ``inst``."""
    if isinstance(inst, ProductionInstance):
        return [(range(inst.num_buyers), inst.shipping)]
    return [(inst.bin_elements(b), inst.bin_caps[b])
            for b in sorted(marking.large)]


def expected_picks(policy, inst):
    """Each element's pick probability under ``policy``'s blocks, counters
    off."""
    picks = {}
    for block in policy.blocks.values():
        picks.update(reference_pick_probabilities(block, inst))
    return picks


def assert_dp_route(r, inst, cfg):
    """``r`` took the decoupled route: DP policies whose exact value is the
    objective and which keep every large row within its scaled capacity
    in expectation, behind counters at the original capacities."""
    assert (r.branch, r.lp_kind) == ("large", "dp")
    welfare, _ = evaluate_exact(r.policy, inst)
    assert abs(welfare - r.objective) <= 1e-9
    picks = expected_picks(r.policy, inst)
    rows = large_rows(inst, r.marking)
    for elements, cap in rows:
        assert sum(picks[e] for e in elements) <= cfg.capacity_scale * cap
    if isinstance(inst, ProductionInstance):
        assert r.policy.counter_caps == {"shipping": inst.shipping}
    else:
        assert r.policy.counter_caps == {
            f"bin:{b}": inst.bin_caps[b] for b in r.marking.large}


def run_large_branch(inst, cfg):
    """The PTAS result on a large-branch case, with every LP entry point
    raising."""
    run = (ptas_production if isinstance(inst, ProductionInstance)
           else ptas_laminar)
    with pytest.MonkeyPatch.context() as mp:
        forbid_lp(mp)
        return run(inst, cfg)


@pytest.fixture(scope="module")
def large_branch_runs(corpus):
    """``(instance, result, relaxation optimum)`` of PTAS on every corpus
    case that takes the large branch at delta 0.6."""
    cfg = BENCH_SETTINGS["eps0.2_delta0.6"]
    runs = []
    for entry in corpus:
        if takes_small_branch(entry, cfg):
            continue
        inst = entry.production if entry.production is not None \
            else entry.laminar
        sol = lp.solve(relaxation(inst, cfg).model)
        runs.append((inst, run_large_branch(inst, cfg), sol.objective))
    return runs


def test_large_branch_objective_is_the_relaxation_optimum(large_branch_runs):
    routes = collections.Counter(r.lp_kind for _, r, _ in large_branch_runs)
    assert routes == {"dp": 65, "lagrangian": 65}
    for _, r, optimum in large_branch_runs:
        assert r.branch == "large"
        assert abs(r.objective - optimum) <= 1e-9


def test_large_branch_route_sweeps_each_unit_once_at_zero(corpus,
                                                         monkeypatch):
    # one carried sweep per unit at multiplier 0 picks the route, and the
    # dual search starts from it: no forward pass checks the rows, and
    # only the dual route's mixture runs the forward kernel
    cfg = BENCH_SETTINGS["eps0.2_delta0.6"]
    calls = collections.Counter()
    sweep, forward_all = dp.sweep, dp.forward_all

    def counted_sweep(lv, dists, shift=0.0, tie=None):
        if tie is not None and shift == 0.0:
            calls["sweep at 0", lv.dyn.key] += 1
        return sweep(lv, dists, shift, tie)

    def counted_forward_all(*args, **kwargs):
        calls["forward_all"] += 1
        return forward_all(*args, **kwargs)

    monkeypatch.setattr(dp, "sweep", counted_sweep)
    monkeypatch.setattr(dp, "forward_all", counted_forward_all)
    routes = collections.Counter()
    for entry in corpus:
        if takes_small_branch(entry, cfg):
            continue
        calls.clear()
        r = run_ptas(entry, cfg)
        routes[r.lp_kind] += 1
        inst = entry.production if entry.production is not None \
            else entry.laminar
        assert calls.pop("forward_all", 0) == (r.lp_kind == "lagrangian")
        assert calls == {("sweep at 0", key): 1
                         for key in model.small_units(inst, r.marking)}
    assert routes == {"dp": 65, "lagrangian": 65}


def test_dp_route_policies_are_exact_and_keep_every_row(large_branch_runs):
    cfg = BENCH_SETTINGS["eps0.2_delta0.6"]
    for inst, r, _ in large_branch_runs:
        if r.lp_kind == "dp":
            assert_dp_route(r, inst, cfg)


def test_criterion_7_large_branch_builds_no_lp(monkeypatch):
    inst = criterion_7_laminar()
    cfg = PtasConfig(epsilon=0.2, delta=0.1)
    with monkeypatch.context() as mp:
        forbid_lp(mp)
        r = ptas_laminar(inst, cfg)
    assert_dp_route(r, inst, cfg)
    assert r.policy.counter_caps == {"bin:0": 101}
    sol = lp.solve(relaxation(inst, cfg).model)
    assert abs(r.objective - sol.objective) <= 1e-9


# ---------------------------------------------------------------------------
# The relaxation solved through its dual: one row, or nested rows
# ---------------------------------------------------------------------------


def assert_dual_route(r, inst, cfg, optimum):
    """``r`` solved its relaxation through the dual: its objective is the
    relaxation optimum ``optimum``, which its mixed policies attain
    exactly while keeping every row within its scaled capacity in
    expectation, behind counters at the original capacities."""
    assert (r.branch, r.lp_kind) == ("large", "lagrangian")
    assert abs(r.objective - optimum) <= 1e-9
    welfare, _ = evaluate_exact(r.policy, inst)
    assert abs(welfare - r.objective) <= 1e-9
    picks = expected_picks(r.policy, inst)
    rows = large_rows(inst, r.marking)
    for elements, cap in rows:
        assert sum(picks[e] for e in elements) \
            <= cfg.capacity_scale * cap + 1e-9
    assert sorted(r.policy.counter_caps.values()) == sorted(
        cap for _, cap in rows)


@pytest.fixture(scope="module")
def dual_route_runs(large_branch_runs):
    """``(instance, result)`` of every corpus case at delta 0.6 whose
    relaxation has a row that the units' DP policies overfill, which is
    solved through the dual, run with every LP entry point raising."""
    cfg = BENCH_SETTINGS["eps0.2_delta0.6"]
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        forbid_lp(mp)
        for inst, r, _ in large_branch_runs:
            if r.lp_kind == "lagrangian":
                run = (ptas_production if isinstance(inst, ProductionInstance)
                       else ptas_laminar)
                runs.append((inst, run(inst, cfg)))
    return runs


def test_dual_route_builds_no_lp_and_attains_the_relaxation(dual_route_runs):
    cfg = BENCH_SETTINGS["eps0.2_delta0.6"]
    assert len(dual_route_runs) == 65
    for inst, r in dual_route_runs:
        model_ = relaxation(inst, cfg).model
        for engine in ("simplex", "highs"):
            optimum = solve_with(model_, engine).objective
            assert abs(r.objective - optimum) <= 1e-9
        assert_dual_route(r, inst, cfg, optimum)


def test_dual_route_stops_at_zero_where_rejecting_ties_fits(dual_route_runs):
    # accepting a tie costs nothing at multiplier 0, so a row can look
    # binding under the DP's accept-at-equality policies while the
    # tie-rejecting ones fit every row: the multiplier is then 0, and the
    # objective the sum of the units' DP optima; elsewhere it lies below
    # that sum.  One of the ten cases with several rows fits
    cfg = BENCH_SETTINGS["eps0.2_delta0.6"]
    at_zero, several = 0, []
    for inst, r in dual_route_runs:
        picks, optima = {}, []
        for key in r.policy.blocks:
            table = dp.unit_table(inst, key)
            optima.append(table.optimal)
            strict = PricingPolicy(key, levels=table.levels,
                                   elements=table.positions[:-1],
                                   tau=table.thresholds,
                                   p=[np.zeros(len(t))
                                      for t in table.thresholds])
            picks.update(reference_pick_probabilities(strict, inst))
        rows = large_rows(inst, r.marking)
        fits = all(sum(picks[e] for e in elements)
                   <= cfg.capacity_scale * cap for elements, cap in rows)
        assert (r.objective == sum(optima)) == fits
        assert r.objective <= sum(optima)
        at_zero += fits
        if len(rows) > 1:
            several.append(fits)
    assert at_zero == 6
    assert sorted(several) == [False] * 9 + [True]


def off_dyadic_production():
    """Type 0 sells one unit to a sure buyer of 1.25 or later to one who
    bids 4 with probability 1/4; types 1 and 2 each have a sure buyer of
    10; shipping 3.  The first buyer's threshold is the later one's
    expected surplus ``1 - lam / 4``, so at ``lam* = 1/3`` the chain drops
    from 1 sale to 1/4, and 3 expected sales to 2.25 against the row of
    2.4 at scale 0.8.  The search tries 0, 85/12, 5/4 and 1/3."""
    return ProductionInstance(
        dists=(DiscreteDistribution.point(1.25), DiscreteDistribution.point(10),
               DiscreteDistribution.of([(0.0, 0.75), (4.0, 0.25)]),
               DiscreteDistribution.point(10)),
        types=(0, 1, 0, 2), days=(0, 0, 0, 0),
        production=((1,), (1,), (1,)), shipping=3)


def test_dual_route_mixes_at_a_multiplier_off_the_binary_fractions():
    # the mixture serves the first buyer with probability 0.2
    p = off_dyadic_production()
    cfg = PtasConfig(epsilon=0.2, delta=0.6)
    with pytest.MonkeyPatch.context() as mp:
        forbid_lp(mp)
        r = ptas_production(p, cfg)
    # L(1/3) = 2.4 / 3 + 2 * (10 - 1/3) + (1.25 - 1/3)
    assert abs(r.objective - 21.05) <= 1e-12
    assert_dual_route(r, p, cfg, reference_highs(
        relaxation(p, cfg).model).objective)
    tau, coin = r.policy.blocks["type:0"].rule(0, (0,))
    assert tau == 1.25 and abs(coin - 0.2) <= 1e-12
    # later, the buyer of 4 is served whenever the unit is left: every
    # value above 0
    assert r.policy.blocks["type:0"].rule(2, (0,)) == (0.0, 0.0)


def test_dual_route_raises_past_its_iteration_cap(monkeypatch, tmp_path):
    # four multipliers reach lam* on this instance: with three allowed,
    # the search fails (exit 4 on the command line) and builds no LP
    p = off_dyadic_production()
    path = tmp_path / "p.json"
    path.write_text(json.dumps(model.serialize_instance(p)))
    monkeypatch.setattr(dp, "DUAL_ITERATIONS", 3)
    forbid_lp(monkeypatch)
    with pytest.raises(lp.LpError, match="3 cutting-plane steps"):
        ptas_production(p, PtasConfig(epsilon=0.2, delta=0.6))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["solve", "--instance", str(path), "--alg", "ptas",
                         "--epsilon", "0.2", "--delta", "0.6"])
    assert code == 4
    monkeypatch.setattr(dp, "DUAL_ITERATIONS", 4)
    assert ptas_production(p, PtasConfig(epsilon=0.2, delta=0.6)).lp_kind \
        == "lagrangian"


def test_criterion_6_dual_route_matches_highs():
    p = criterion_6_production()
    cfg = PtasConfig(epsilon=0.2, delta=0.1)
    with pytest.MonkeyPatch.context() as mp:
        forbid_lp(mp)
        r = ptas_production(p, cfg)
    assert r.lp_kind == "lagrangian"
    sol = reference_highs(build_lp_exante(p, cfg.capacity_scale).model)
    assert abs(r.objective - sol.objective) <= 1e-9
    welfare, _ = evaluate_exact(r.policy, p)
    assert abs(welfare - r.objective) <= 1e-9
