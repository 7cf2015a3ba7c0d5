"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The shared 200-instance
corpus comes from conftest; expensive per-entry solves are computed once and
reused by the criteria that share the corpus.
"""

import json
import math
import random
import time

from binprice import (
    DiscreteDistribution,
    Marking,
    ProductionInstance,
    PtasConfig,
    build_lp_exante,
    build_lp_hierarchy,
    build_lp_optimal,
    check_negative_cylinder,
    check_summed_cylinder,
    concavity_check,
    evaluate_exact,
    extract_pricing,
    iron,
    mark_laminar,
    production_to_laminar,
    ptas_laminar,
    ptas_production,
    search_dependency_counterexample,
    simulate,
    solve_full_dp,
    solve_optimal,
    solve_subproblem_dp,
)
from binprice.lp import END, y_name
from binprice.cli import main as cli_main

from conftest import (criterion_6_production, criterion_7_laminar,
                      random_distribution)

_CACHE = {}


def corpus_results(corpus):
    if "results" not in _CACHE:
        out = []
        for entry in corpus:
            tbl, _ = solve_full_dp(entry.laminar)
            built = build_lp_optimal(entry.laminar)
            sol = solve_optimal(built.model)
            pol = extract_pricing(sol, built, "root")
            welfare, trace = evaluate_exact(pol, entry.laminar)
            info = built.block("root")
            nel = len(info.elements)
            ydev = 0.0
            for lvl in range(nel + 1):
                tlab = info.time_label(lvl)
                t = nel if tlab == END else tlab
                for s in info.levels[lvl]:
                    want = sol.value(y_name("root", tlab, s))
                    ydev = max(ydev, abs(trace.get((t, s), 0.0) - want))
            out.append({
                "entry": entry,
                "dp": tbl.optimal,
                "lp1": sol.objective,
                "welfare": welfare,
                "ydev": ydev,
            })
        _CACHE["results"] = out
    return _CACHE["results"]


def test_criterion_1_lp_exactness(corpus):
    t0 = time.perf_counter()
    results = corpus_results(corpus)
    elapsed = time.perf_counter() - t0
    assert len(results) == 200
    worst_obj = max(abs(r["lp1"] - r["dp"]) for r in results)
    worst_round = max(abs(r["welfare"] - r["lp1"]) for r in results)
    worst_y = max(r["ydev"] for r in results)
    assert worst_obj <= 1e-6
    assert worst_round <= 1e-6
    assert worst_y <= 1e-7
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 1: LP-opt = DP on 200 instances "
          f"(obj dev {worst_obj:.2e}, rounding dev {worst_round:.2e}, "
          f"state-prob dev {worst_y:.2e}, {elapsed:.1f}s)")


def _random_marking(inst, rng):
    """Arbitrary valid marking: random small roots, closed downward."""
    small = set()
    for b in range(inst.num_bins):
        parent = inst.bin_parents[b]
        if (parent is not None and parent in small) or rng.random() < 0.5:
            small.add(b)
    maximal = frozenset(b for b in small
                        if inst.bin_parents[b] is None
                        or inst.bin_parents[b] not in small)
    return Marking(large=frozenset(range(inst.num_bins)) - small,
                   small_maximal=maximal, small_all=frozenset(small))


def test_criterion_2_relaxation_chain(corpus):
    results = corpus_results(corpus)
    rng = random.Random(777)
    worst_gap = 0.0
    worst_eq = 0.0
    n_exante = n_hier = 0
    for r in results:
        entry, dp = r["entry"], r["dp"]
        if entry.production is not None:
            sol2 = solve_optimal(build_lp_exante(entry.production, 1.0).model)
            assert sol2.objective >= dp - 1e-6, entry.name
            worst_gap = max(worst_gap, dp - sol2.objective)
            n_exante += 1
        lam = entry.laminar
        for mk in (mark_laminar(lam, rng.choice((0.15, 0.4, 0.75))),
                   _random_marking(lam, rng)):
            sol4 = solve_optimal(build_lp_hierarchy(lam, mk, 1.0).model)
            assert sol4.objective >= dp - 1e-6, entry.name
            n_hier += 1
        eq = solve_optimal(
            build_lp_hierarchy(lam, Marking.all_small(lam), 1.0).model)
        dev = abs(eq.objective - r["lp1"])
        worst_eq = max(worst_eq, dev)
        assert dev <= 1e-6, entry.name
    print(f"\n[PASS] criterion 2: relaxation chain on {n_exante} ex-ante + "
          f"{n_hier} hierarchy solves (worst slack {worst_gap:.2e}, "
          f"all-small equality dev {worst_eq:.2e})")


def test_criterion_3_integrality_gap_witness():
    p = ProductionInstance(
        dists=(DiscreteDistribution.point(1),
               DiscreteDistribution.of([(0.0, 0.5), (2.0, 0.5)])),
        types=(0, 1), days=(0, 0), production=((1,), (1,)), shipping=1)
    sol2 = solve_optimal(build_lp_exante(p, 1.0).model)
    tbl, _ = solve_full_dp(production_to_laminar(p))
    assert abs(sol2.objective - 1.5) <= 1e-9
    assert abs(tbl.optimal - 1.0) <= 1e-9
    print(f"\n[PASS] criterion 3: ex-ante {sol2.objective!r} vs optimal "
          f"online {tbl.optimal!r} (ratio 1.5)")


def test_criterion_4_negative_cylinder_and_concavity():
    # Negative cylinder dependency in the form the concentration argument
    # uses: for the sold count C and acceptance marginals p of each optimal
    # chain, E[binom(C, k)] <= e_k(p) at every k, which bounds the moment
    # generating function of C by the independent one.  The stronger
    # per-subset form E[prod_S X] <= prod_S E[X] fails on some optimal
    # chains (tests/test_harness.py::test_cylinder_violation_regression);
    # its violations are counted and printed, not asserted.  The analysis
    # is in notes/decisions.md.
    rng = random.Random(4040)
    worst_gap = -math.inf
    violations = []
    subset_violations = 0
    worst_subset_gap = -math.inf
    for i in range(500):
        n = rng.randint(2, 10)
        T = rng.randint(1, 3)
        days = tuple(sorted(rng.randrange(T) for _ in range(n)))
        col = [rng.randint(0, 3)]
        for _ in range(T - 1):
            col.append(min(6, col[-1] + rng.randint(0, 2)))
        p = ProductionInstance(
            dists=tuple(random_distribution(rng) for _ in range(n)),
            types=tuple([0] * n), days=days, production=(tuple(col),),
            shipping=n)
        for shift in (-1.0, 0.0, 0.7):
            ok, k, gap = check_summed_cylinder(p, 0, shift, tol=1e-9)
            worst_gap = max(worst_gap, gap)
            if not ok:
                violations.append((i, shift, k, gap))
            sub_ok, _, sub_gap = check_negative_cylinder(p, 0, shift, tol=1e-9)
            subset_violations += not sub_ok
            worst_subset_gap = max(worst_subset_gap, sub_gap)
            conc, worst = concavity_check(solve_subproblem_dp(p, 0, shift))
            assert conc, (i, shift, worst)
    print(f"\n[....] criterion 4: concavity passed on all 1500 tables; "
          f"per-subset cylinder inequality violated on {subset_violations} "
          f"of 1500 checks (worst gap {worst_subset_gap:.2e}, not asserted)")
    assert not violations, (
        "summed negative cylinder inequality E[binom(C,k)] <= e_k(p) fails "
        "on some optimal chain policies, against the evidence recorded in "
        f"notes/decisions.md: {violations[:4]}")
    print(f"[PASS] criterion 4: summed negative cylinder inequality at every k "
          f"on 1500 checks (worst gap {worst_gap:.2e}) + concavity on 500 "
          f"chains")


def test_criterion_5_pointwise_feasibility(corpus):
    total_trials = 0
    total_violations = 0
    per_entry = 2500
    for entry in corpus:
        for cfg in (PtasConfig(epsilon=0.2), PtasConfig(epsilon=0.2, delta=0.6)):
            if entry.production is not None:
                result = ptas_production(entry.production, cfg)
                rep = simulate(result.policy, entry.production, per_entry,
                               seed=101)
            else:
                result = ptas_laminar(entry.laminar, cfg)
                rep = simulate(result.policy, entry.laminar, per_entry,
                               seed=101)
            total_trials += per_entry
            total_violations += rep.total_violations
    assert total_trials >= 10 ** 6
    assert total_violations == 0
    print(f"\n[PASS] criterion 5: zero capacity violations over "
          f"{total_trials} trials")


def test_criterion_6_ptas_welfare_at_scale():
    t0 = time.perf_counter()
    p = criterion_6_production()
    K = p.shipping
    eps = 0.2
    unscaled = solve_optimal(build_lp_exante(p, 1.0).model)
    result = ptas_production(p, PtasConfig(epsilon=eps, delta=0.1))
    assert result.branch == "large"
    rep = simulate(result.policy, p, 100_000, seed=66, threads=2)
    elapsed = time.perf_counter() - t0
    floor = (1.0 - 3.0 * eps) * unscaled.objective - 3.0 * rep.stderr
    assert rep.mean >= floor
    assert rep.total_violations == 0
    chernoff = math.exp(-K * eps ** 2 / 3.0)
    assert rep.ignored_fraction <= chernoff + 3.0 * rep.ignored_stderr
    assert elapsed < 300.0
    print(f"\n[PASS] criterion 6: welfare {rep.mean:.3f} >= "
          f"(1-3eps)*exante {floor:.3f}; ignored {rep.ignored_fraction:.4f} "
          f"<= {chernoff:.4f}; {elapsed:.1f}s")


def test_criterion_7_laminar_concentration():
    eps, delta = 0.2, 0.1
    inst = criterion_7_laminar()
    result = ptas_laminar(inst, PtasConfig(epsilon=eps, delta=delta))
    assert sorted(result.marking.large) == [0]
    rep = simulate(result.policy, inst, 100_000, seed=77, threads=2)
    bound = 2.0 * math.exp(-eps ** 2 / (3.0 * delta))
    assert rep.total_violations == 0
    assert rep.ignored_fraction <= bound + 3.0 * rep.ignored_stderr
    print(f"\n[PASS] criterion 7: ignored {rep.ignored_fraction:.4f} <= "
          f"union bound {bound:.4f} on the depth-2 instance")


CANONICAL_TREE = {
    "cap": 2, "children": [
        {"element": 2},
        {"cap": 1, "children": [{"element": 0}, {"element": 3}]},
        {"cap": 1, "children": [{"element": 1}, {"element": 4}]}]}


def test_criterion_8_counterexample_search():
    U02 = DiscreteDistribution.uniform([0, 2])
    U01 = DiscreteDistribution.uniform([0, 1])
    dists = [U02, U02, U01, U02, U02]
    hits = search_dependency_counterexample(dists)
    assert hits, "no conditional-price drop found in the bounded search"
    canonical = [h for h in hits
                 if abs(h.price_after_pick - 1.0) <= 1e-9
                 and abs(h.price_after_skip - 1.25) <= 1e-9]
    assert canonical, "no hit reproduces the 1 / 1.25 conditional prices"
    assert any(h.tree == CANONICAL_TREE for h in canonical)
    assert search_dependency_counterexample(dists, chains_only=True) == []
    print(f"\n[PASS] criterion 8: {len(hits)} hits; canonical structure "
          f"reproduces prices 1 and 1.25; chains produce no hit")


def test_criterion_9_myerson_transform():
    tr = iron(DiscreteDistribution.uniform([1, 2]))
    assert tr.ironed == (0.0, 2.0)
    tr2 = iron(DiscreteDistribution.of([(1.0, 0.45), (2.0, 0.1),
                                        (10.0, 0.45)]))
    assert abs(tr2.ironed[0] + 70.0 / 11.0) <= 1e-9
    assert abs(tr2.ironed[1] + 70.0 / 11.0) <= 1e-9
    assert abs(tr2.ironed[2] - 10.0) <= 1e-9
    rng = random.Random(909)
    for _ in range(1000):
        k = rng.randint(1, 4)
        vals = sorted(rng.sample([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0], k))
        cuts = sorted(rng.sample(range(1, 16), k - 1))
        probs, last = [], 0
        for c in cuts + [16]:
            probs.append((c - last) / 16.0)
            last = c
        tr = iron(DiscreteDistribution.of(zip(vals, probs)))
        assert all(a <= b + 1e-12
                   for a, b in zip(tr.ironed, tr.ironed[1:]))
    print("\n[PASS] criterion 9: ironed values exact on the two pinned "
          "examples; monotone on 1000 random distributions")


def test_criterion_10_simulation_determinism(tmp_path):
    doc = {"kind": "production",
           "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]},
                        {"dist": [[1.0, 1.0]]},
                        {"dist": [[0.0, 0.25], [1.0, 0.5], [3.0, 0.25]]}],
           "types": [0, 1, 0], "days": [0, 0, 0],
           "production": {"0": [2], "1": [1]}, "shipping": 2}
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    pol = tmp_path / "pol.json"
    assert cli_main(["solve", "--instance", str(inst), "--alg", "lp-opt",
                     "--policy-out", str(pol)]) == 0
    outputs = []
    for i, threads in enumerate(("1", "1", "4")):
        out = tmp_path / f"rep{i}.csv"
        code = cli_main(["simulate", "--instance", str(inst),
                         "--policy", str(pol), "--trials", "20000",
                         "--seed", "99", "--threads", threads,
                         "--format", "csv", "--output", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    print("\n[PASS] criterion 10: byte-identical simulation reports across "
          "repeats and 1 vs 4 threads")
