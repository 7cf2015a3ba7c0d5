import collections
import dataclasses
import math
import random

import numpy as np
import pytest

from binprice import cli, dp, harness, lp
from binprice import (
    DiscreteDistribution,
    LaminarInstance,
    Marking,
    ProductionInstance,
    build_lp_exante,
    build_lp_hierarchy,
    build_lp_optimal,
    production_to_laminar,
    solve,
    solve_full_dp,
    solve_subproblem_dp,
)
from binprice.lp import LpModel, LpSolution, certify, check_solution, y_name
from binprice.model import (
    DEFAULT_STATE_CAP,
    InstanceError,
    parse_instance,
    serialize_instance,
    small_units,
)
from binprice.rounding import (
    compose_policies,
    extract_all,
    extract_pricing,
    mark_laminar,
)

from conftest import (
    criterion_6_production,
    criterion_7_laminar,
    desk_scale,
    model_from_arrays,
    oracle_lp_vertices,
    perturbed_dp_points,
    random_laminar,
    random_production,
    reference_dense_simplex,
    reference_emitter,
    reference_highs,
    solution_value,
    solve_with,
)

U02 = DiscreteDistribution.uniform([0, 2])


def test_simplex_single_variable():
    m = model_from_arrays([1.0], [[1.0]], [3.0])
    sol = reference_dense_simplex(m)
    assert sol.objective == 3.0
    assert solution_value(sol, "x0") == 3.0


def test_simplex_degenerate_split():
    m = model_from_arrays([1.0, 1.0], [[1.0, 1.0]], [1.0])
    sol = reference_dense_simplex(m)
    assert abs(sol.objective - 1.0) <= 1e-12


def test_simplex_detects_infeasible_and_unbounded():
    m = model_from_arrays([1.0], [[-1.0]], [-2.0], [[1.0]], [1.0])
    assert reference_dense_simplex(m).status == "infeasible"
    m2 = model_from_arrays([1.0], [[-1.0]], [1.0])
    assert reference_dense_simplex(m2).status == "unbounded"


def test_simplex_against_vertex_enumeration():
    rng = random.Random(97)
    for _ in range(60):
        n = 5
        n_ub = rng.randint(1, 4)
        n_eq = rng.randint(0, 1)
        c = [rng.randint(-3, 5) for _ in range(n)]
        a_ub = [[rng.randint(-2, 4) for _ in range(n)] for _ in range(n_ub)]
        b_ub = [rng.randint(1, 9) for _ in range(n_ub)]
        a_ub.append([1] * n)  # boundedness
        b_ub.append(rng.randint(3, 12))
        a_eq = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n_eq)]
        b_eq = [rng.randint(0, 6) for _ in range(n_eq)]
        m = model_from_arrays(c, a_ub, b_ub, a_eq, b_eq)
        sol = reference_dense_simplex(m)
        best = oracle_lp_vertices(c, a_ub, b_ub, a_eq, b_eq)
        if best is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert abs(sol.objective - best) <= 1e-7, (sol.objective, best)


def test_engines_agree_on_random_models():
    rng = random.Random(15)
    for _ in range(10):
        n = 20
        c = [rng.randint(-2, 6) for _ in range(n)]
        a_ub = [[rng.randint(0, 4) for _ in range(n)] for _ in range(20)]
        b_ub = [rng.randint(4, 20) for _ in range(20)]
        m = model_from_arrays(c, a_ub, b_ub)
        s1 = reference_dense_simplex(m)
        s2 = reference_highs(m)
        assert s1.status == s2.status == "optimal"
        assert abs(s1.objective - s2.objective) <= 1e-7


def test_simplex_is_deterministic():
    rng = random.Random(5)
    n = 12
    c = [rng.randint(-2, 6) for _ in range(n)]
    a_ub = [[rng.randint(0, 4) for _ in range(n)] for _ in range(12)]
    b_ub = [rng.randint(4, 20) for _ in range(12)]
    m = model_from_arrays(c, a_ub, b_ub)
    s1 = reference_dense_simplex(m)
    s2 = reference_dense_simplex(m)
    assert s1.assignment == s2.assignment and s1.iterations == s2.iterations


def test_lp_optimal_small_examples():
    inst = LaminarInstance.build((DiscreteDistribution.point(5),),
                                 {"cap": 1, "children": [{"element": 0}]})
    sol = solve(build_lp_optimal(inst).model)
    assert abs(sol.objective - 5.0) <= 1e-9
    capped = LaminarInstance.build((DiscreteDistribution.point(5),),
                                   {"cap": 0, "children": [{"element": 0}]})
    sol0 = solve(build_lp_optimal(capped).model)
    assert abs(sol0.objective) <= 1e-9


def test_lp_optimal_equals_dp_on_corpus_sample(corpus):
    for entry in corpus[:40]:
        tbl, _ = solve_full_dp(entry.laminar)
        sol = solve(build_lp_optimal(entry.laminar).model)
        assert abs(sol.objective - tbl.optimal) <= 1e-6, entry.name


def test_exante_gap_instance():
    p = ProductionInstance(
        dists=(DiscreteDistribution.point(1),
               DiscreteDistribution.of([(0.0, 0.5), (2.0, 0.5)])),
        types=(0, 1), days=(0, 0), production=((1,), (1,)), shipping=1)
    sol = solve(build_lp_exante(p, 1.0).model)
    assert abs(sol.objective - 1.5) <= 1e-9
    tbl, _ = solve_full_dp(production_to_laminar(p))
    assert abs(tbl.optimal - 1.0) <= 1e-9
    scaled = solve(build_lp_exante(p, 0.9).model)
    assert scaled.objective >= 0.9 * 1.5 - 1e-9


def test_exante_equals_optimal_for_single_type_ample_shipping():
    rng = random.Random(61)
    for _ in range(10):
        p = random_production(rng, m_max=1, days_max=2)
        p = ProductionInstance(dists=p.dists, types=p.types, days=p.days,
                               production=p.production,
                               shipping=sum(col[-1] for col in p.production))
        s2 = solve(build_lp_exante(p, 1.0).model)
        s1 = solve(build_lp_optimal(production_to_laminar(p)).model)
        assert abs(s1.objective - s2.objective) <= 1e-6


def test_hierarchy_markings_bracket_the_instance():
    p = ProductionInstance(
        dists=(DiscreteDistribution.point(1),
               DiscreteDistribution.of([(0.0, 0.5), (2.0, 0.5)])),
        types=(0, 1), days=(0, 0), production=((1,), (1,)), shipping=1)
    lam = production_to_laminar(p)
    s1 = solve(build_lp_optimal(lam).model)
    all_small = solve(
        build_lp_hierarchy(lam, Marking(), 1.0).model)
    assert abs(all_small.objective - s1.objective) <= 1e-9
    root_large = Marking(large=frozenset({0}))
    s_rl = solve(build_lp_hierarchy(lam, root_large, 1.0).model)
    s2 = solve(build_lp_exante(p, 1.0).model)
    assert abs(s_rl.objective - s2.objective) <= 1e-9
    all_large = solve(
        build_lp_hierarchy(
            lam, Marking(large=frozenset(range(lam.num_bins))), 1.0).model)
    assert all_large.objective >= s_rl.objective - 1e-9
    assert s_rl.objective >= s1.objective - 1e-9


def test_hierarchy_coarser_marking_relaxes():
    rng = random.Random(71)
    for _ in range(12):
        inst = random_laminar(rng)
        fine = mark_laminar(inst, 0.9)   # most bins small
        coarse = mark_laminar(inst, 0.2)
        if not fine.large <= coarse.large:
            continue
        v_fine = solve(build_lp_hierarchy(inst, fine, 1.0).model)
        v_coarse = solve(build_lp_hierarchy(inst, coarse, 1.0).model)
        assert v_coarse.objective >= v_fine.objective - 1e-6


@pytest.mark.parametrize("scale", [0.0, -0.5, 1.5, math.nan])
def test_relaxations_reject_a_capacity_scale_outside_0_1(scale):
    p = ProductionInstance(dists=(U02, U02), types=(0, 1), days=(0, 0),
                           production=((1,), (1,)), shipping=1)
    lam = production_to_laminar(p)
    with pytest.raises(ValueError, match="capacity_scale must be in"):
        build_lp_exante(p, scale)
    with pytest.raises(ValueError, match="capacity_scale must be in"):
        build_lp_hierarchy(lam, Marking(), scale)


def test_hierarchy_rejects_an_invalid_marking():
    inst = LaminarInstance.build(
        (U02, U02, U02), {"cap": 2, "children": [
            {"cap": 1, "children": [{"element": 0}, {"element": 1}]},
            {"element": 2}]})
    # bin 1 large under a small root, and large indices that are no bin
    for large, error in ((1, "bin 1 is large under small bin 0"),
                         (5, "large index 5 is not a bin"),
                         (-1, "large index -1 is not a bin")):
        mk = Marking(large=frozenset({large}))
        for build in (lambda: build_lp_hierarchy(inst, mk, 1.0),
                      lambda: compose_policies(inst, {}, mk)):
            with pytest.raises(InstanceError) as exc:
                build()
            assert exc.value.violations == [f"marking: {error}"]


def test_solutions_satisfy_tolerances_on_both_engines(corpus):
    from binprice.lp import check_solution
    for entry in corpus[:10]:
        built = build_lp_optimal(entry.laminar)
        for engine in ("simplex", "highs"):
            sol = solve_with(built.model, engine)
            assert check_solution(built.model, sol) == [], (entry.name, engine)


def test_state_probabilities_conserve_mass(corpus):
    for entry in corpus[:15]:
        built = build_lp_optimal(entry.laminar)
        sol = solve(built.model)
        info = built.block("root")
        for lvl in range(len(info.levels)):
            tlab = info.time_label(lvl)
            total = sum(solution_value(sol, y_name("root", tlab, s))
                        for s in info.levels[lvl])
            assert abs(total - 1.0) <= 1e-7, entry.name
            for s in info.levels[lvl]:
                y = solution_value(sol, y_name("root", tlab, s))
                assert -1e-9 <= y <= 1.0 + 1e-9


def test_text_format_roundtrips_tokens():
    m = model_from_arrays([1.0, -2.5], [[1.0, 1.0]], [4.0], [[0.0, 1.0]], [1.0])
    text = m.to_text()
    assert text.splitlines()[0] == "maximize"
    assert "subject to" in text and "bounds" in text and text.endswith("end\n")
    # every token is whitespace-delimited; variable names carry no spaces
    for name in m.names:
        assert " " not in name and name in text


def test_rising_day_cap_has_no_y_for_the_over_pick_state():
    # the day cap rises from 0 to 1: sold count 1 is where a pick of buyer
    # 0 would lead, and reachable only after buyer 1.  The LP has no Y for
    # it before buyer 1; buyer 0's X(0,(0),atom) are held at 0 by their own
    # rows.  The LP that held that state, pinned to zero by its own row,
    # had the same optimum
    p = ProductionInstance(dists=(U02, U02), types=(0, 0), days=(0, 1),
                           production=((0, 1),), shipping=1)
    model = build_lp_exante(p).model
    with reference_emitter(forbidden=True):
        former = build_lp_exante(p).model
    assert "Y[type:0](1,(1))" not in model.index
    assert "Y[type:0](end,(1))" in model.index
    pinned = former.index["Y[type:0](1,(1))"]
    assert {pinned: 1.0} in [dict(coeffs) for coeffs, _, _ in former.rows]
    for a in range(2):
        x = model.index[f"X[type:0](0,(0),{a})"]
        assert ([(x, 1.0)], "<=", 0.0) in model.rows
    for engine in ("simplex", "highs"):
        assert solve_with(model, engine).objective == 1.0
        assert solve_with(former, engine).objective == 1.0


def test_x_le_y_rows_present_for_every_conditional():
    inst = LaminarInstance.build((U02, U02),
                                 {"cap": 1, "children": [{"element": 0},
                                                         {"element": 1}]})
    model = build_lp_optimal(inst).model
    xc = [n for n in model.names if n.startswith("X[root]")]
    le_rows = [r for r in model.rows if r[1] == "<="]
    assert len(le_rows) >= len(xc)


def test_check_solution_reports_non_finite_values():
    m = LpModel()
    m.add_vars(2, "ab".__getitem__)
    m.add_objective_term(0, 1.0)
    m.append_row([0, 1], [1.0, 1.0], "<=", 1.0)
    m.append_row([0], [1.0], "=", 0.5)
    for bad in (math.nan, math.inf):
        sol = LpSolution("optimal", 0.0, np.array([bad, bad]), "simplex",
                         model=m)
        assert check_solution(m, sol) == [
            f"2 variables not finite, first a: {bad!r}",
            f"row c0 violated by {bad!r}", f"row c1 off by {bad!r}"]
    sol = LpSolution("optimal", 0.0, np.array([-math.inf, 0.0]), "simplex",
                     model=m)
    assert check_solution(m, sol) == [
        "1 variables not finite, first a: -inf",
        "variable a below bound: -inf", "row c1 off by -inf"]


def test_check_solution_prints_plain_floats():
    m = model_from_arrays([1.0, 0.0], [[1.0, 1.0]], [1.0], [[0.0, 1.0]], [1.0])
    sol = LpSolution("optimal", 3.0, np.array([3.0, -1.0]), "simplex", model=m)
    assert check_solution(m, sol) == ["variable x1 below bound: -1.0",
                                      "row c0 violated by 1.0",
                                      "row c1 off by -2.0"]
    inf = LpSolution("optimal", 0.0, np.array([math.inf, 0.0]), "simplex",
                     model=m)
    msgs = check_solution(m, inf)
    assert "row c0 violated by inf" in msgs
    assert not any("np." in msg for msg in msgs)


def test_check_solution_accepts_solver_output(corpus):
    for entry in corpus[:20]:
        built = build_lp_optimal(entry.laminar)
        sol = reference_dense_simplex(built.model)
        assert check_solution(built.model, sol) == []
        assert sol.assignment == {name: solution_value(sol, name)
                                  for name in built.model.names}


# ---------------------------------------------------------------------------
# Certified DP points: solve's one solver, an uncoupled LP's at the units'
# DP policies and a coupled one's at the mixture of its dual
# ---------------------------------------------------------------------------

CAP1_PAIR = LaminarInstance.build(
    (U02, U02), {"cap": 1, "children": [{"element": 0}, {"element": 1}]})


def two_bins_under(cap):
    """A root of ``cap`` over two cap-2 bins, whose picks can reach 4."""
    return LaminarInstance.build(
        (U02,) * 8, {"cap": cap, "children": [
            {"cap": 2, "children": [{"element": e} for e in range(4)]},
            {"cap": 2, "children": [{"element": e} for e in range(4, 8)]}]})


# a root of cap 101 over two cap-2 bins: large at delta 0.1, never full
LARGE_ROOT = two_bins_under(101)
# five buyers of two types over two days: type 0 sells at most 2 (its
# buyers 0 and 2) and type 1 at most 3 (cumulative production 3 by day 1),
# so a shipping capacity of 5 can never fill, and one of 0.8 * 5 can
SLACK_SHIPPING = ProductionInstance(
    dists=(U02,) * 5, types=(0, 1, 0, 1, 1), days=(0, 0, 1, 1, 1),
    production=((1, 2), (1, 3)), shipping=5)
ROOT_MARKED_LARGE = Marking(large=frozenset({0}))


def bound_lp(entry, scale=1.0):
    """The exactness chain's relaxation bound: the ex-ante LP, or the
    hierarchy LP marked at delta 0.6, at capacity scale 1 (or ``scale``)."""
    if entry.production is not None:
        return build_lp_exante(entry.production, scale)
    return build_lp_hierarchy(entry.laminar, mark_laminar(entry.laminar, 0.6),
                              scale)


def assert_certified(model):
    """``solve`` certifies ``model``'s DP point, within 1e-9 of the dense
    simplex at desk scale and of HiGHS beyond."""
    sol = solve(model)
    assert (sol.status, sol.engine, sol.iterations) == \
        ("optimal", "certificate", 0)
    other = solve_with(model, "simplex" if desk_scale(model) else "highs")
    assert abs(sol.objective - other.objective) <= 1e-9
    assert check_solution(model, sol) == []
    return sol


def test_certificate_solves_every_corpus_exact_lp(corpus):
    # the exact LP has no coupling row, so it takes the units' DP point,
    # and its rounding replays the point
    for entry in corpus:
        built = build_lp_optimal(entry.laminar)
        assert not built.model.coupled
        sol = assert_certified(built.model)
        welfare, trace = harness.evaluate_exact(
            extract_pricing(sol, built, "root"), entry.laminar)
        assert abs(welfare - sol.objective) <= 1e-6
        assert cli._trace_deviation(sol, built, trace) <= 1e-7


def test_certificate_solves_every_bound_lp_binding_or_slack(corpus):
    # a bound whose units can fill a large row takes the mixture of its
    # dual, one whose units cannot the units' DP policies: both certify,
    # and the coupled ones match HiGHS too
    coupled = 0
    for entry in corpus:
        model = bound_lp(entry).model
        x, u = model.dp_point()
        primal, dual, gap = certify(model, x, u)
        assert primal <= lp.CERT_PRIMAL_TOL and dual <= lp.CERT_TOL
        assert gap <= lp.CERT_TOL * (1.0 + abs(model.objective_value(x)))
        sol = assert_certified(model)
        if model.coupled:
            coupled += 1
            assert abs(sol.objective
                       - reference_highs(model).objective) <= 1e-9
    assert coupled == 66


@pytest.mark.parametrize("scale", [1.0, 0.8])
def test_certificate_solves_every_bound_whose_rows_cannot_fill(corpus,
                                                               scale):
    # the units' most picks fit under every large row: the model is
    # uncoupled, and solve returns the certified point
    uncoupled = {"none": 0, "shipping": 0, "bin": 0}
    for entry in corpus:
        built = bound_lp(entry, scale)
        if built.model.coupled:
            continue
        sol = solve(built.model)
        assert (sol.status, sol.engine, sol.iterations) == \
            ("optimal", "certificate", 0)
        uncoupled["shipping" if entry.production is not None
                  else "bin" if built.marking.large else "none"] += 1
    assert uncoupled == ({"none": 37, "shipping": 83, "bin": 14}
                         if scale == 1.0 else
                         {"none": 37, "shipping": 63, "bin": 7})


def assert_certified_against_highs(built):
    """``solve`` certifies ``built``'s coupled LP within 1e-9 of HiGHS, its
    rounding replays the certified objective exactly, and the rounding
    composed behind the counters oversells nothing in simulation."""
    model = built.model
    assert model.coupled
    sol = solve(model)
    assert (sol.status, sol.engine, sol.iterations) == \
        ("optimal", "certificate", 0)
    assert abs(sol.objective - reference_highs(model).objective) <= 1e-9
    assert check_solution(model, sol) == []
    policy = compose_policies(built.instance, extract_all(sol, built),
                              built.marking)
    welfare, _ = harness.evaluate_exact(policy, built.instance)
    assert abs(welfare - sol.objective) <= 1e-9
    report = harness.simulate(policy, built.instance, 100, seed=5)
    assert report.total_violations == 0


def test_certificate_solves_every_coupled_corpus_lp(corpus):
    # the ex-ante and the hierarchy LPs (marked at delta 0.6) at scales 1
    # and 0.8 whose units can fill a large row: under one row or up to four
    # nested ones, solve certifies the mixture of their dual
    rows = collections.Counter()
    for entry in corpus:
        lam = entry.laminar
        for scale in (1.0, 0.8):
            builds = [build_lp_hierarchy(lam, mark_laminar(lam, 0.6), scale)]
            if entry.production is not None:
                builds.append(build_lp_exante(entry.production, scale))
            for built in builds:
                if built.model.coupled:
                    assert_certified_against_highs(built)
                    rows[1 if built.marking is None
                         else len(built.marking.large)] += 1
    assert rows == {1: 160, 2: 22, 3: 8, 4: 4}


def test_certificate_solves_the_corpus_four_row_hierarchy_lp(corpus):
    # the deepest coupling in the corpus: a root over nested large bins
    four = [build_lp_hierarchy(entry.laminar,
                               mark_laminar(entry.laminar, 0.6), scale)
            for entry in corpus for scale in (1.0, 0.8)
            if len(mark_laminar(entry.laminar, 0.6).large) == 4]
    assert len(four) == 4
    for built in four:
        assert_certified_against_highs(built)


@pytest.mark.parametrize("scale", [1.0, 0.8])
def test_certificate_solves_criterion_6_exante_lp(scale):
    # 200 buyers of three types under shipping 30: HiGHS takes seconds,
    # the dual over the three chains a few sweeps
    assert_certified_against_highs(build_lp_exante(criterion_6_production(),
                                                   scale))


def test_certificate_solves_a_fillable_criterion_7_variant():
    # criterion 7's bins under a root of 20 where it had 101, marked large
    # over the four small bins: they can pick 32, so the root binds
    c7 = criterion_7_laminar()
    inst = LaminarInstance.build(c7.dists, dict(c7.to_tree(), cap=20))
    assert_certified_against_highs(
        build_lp_hierarchy(inst, ROOT_MARKED_LARGE, 1.0))


def test_certificate_solves_an_uncoupled_desk_scale_lp():
    model = build_lp_optimal(CAP1_PAIR).model
    assert not model.coupled and desk_scale(model)
    assert_certified(model)


def test_certificate_solves_a_desk_scale_lp_whose_rows_cannot_fill():
    # 2 + 3 sold against shipping 5; 2 + 2 picked under a large root of 4
    for model in (build_lp_exante(SLACK_SHIPPING, 1.0).model,
                  build_lp_hierarchy(two_bins_under(4), ROOT_MARKED_LARGE,
                                     1.0).model):
        assert not model.coupled and desk_scale(model)
        assert_certified(model)


def test_certificate_solves_a_coupled_desk_scale_lp():
    # rows their units can fill: 2 + 3 sold against 0.8 * 5, and 2 + 2
    # picked under a large root of 3
    for model in (build_lp_exante(SLACK_SHIPPING, 0.8).model,
                  build_lp_hierarchy(two_bins_under(3), ROOT_MARKED_LARGE,
                                     1.0).model):
        assert model.coupled and desk_scale(model)
        assert_certified(model)


def rejected(model, x, u):
    """``solve`` rejects ``(x, u)`` as the DP point: it raises ``LpError``
    naming ``certify``'s residuals of the point, which it returns."""
    model.dp_point = lambda: (x, u)
    primal, dual, gap = certify(model, x, u)
    with pytest.raises(lp.LpError) as exc:
        solve(model)
    assert str(exc.value) == (
        f"DP point not certified: primal residual {primal!r}, "
        f"dual residual {dual!r}, gap {gap!r}")
    return primal, dual, gap


@pytest.mark.parametrize("coupled", [False, True])
def test_solve_raises_where_the_certificate_rejects_the_point(monkeypatch,
                                                              coupled):
    # the initial row's dual raised by 1e-3 opens a gap of 1e-3 and keeps
    # the point and the other duals feasible
    perturbed_dp_points(monkeypatch)
    built = (build_lp_exante(SLACK_SHIPPING, 0.8) if coupled
             else build_lp_optimal(CAP1_PAIR))
    assert built.model.coupled == coupled
    x, u = built.model.dp_point()
    primal, dual, gap = rejected(built.model, x, u)
    assert primal <= lp.CERT_PRIMAL_TOL and dual <= lp.CERT_TOL
    assert gap == pytest.approx(1e-3)


def test_solve_raises_on_a_model_with_no_dp_point():
    # a hand-built model has no DP point to certify; one with no variable
    # is solved trivially
    model = model_from_arrays([1.0], [[1.0]], [3.0])
    assert model.dp_point is None
    with pytest.raises(lp.LpError, match="^no DP point to certify$"):
        solve(model)
    sol = solve(LpModel())
    assert (sol.status, sol.engine, sol.objective) == \
        ("optimal", "trivial", 0.0)


def test_dp_point_reads_the_blocks_levels(monkeypatch):
    built = build_lp_hierarchy(LARGE_ROOT, mark_laminar(LARGE_ROOT, 0.1), 1.0)
    want = built.model.dp_point()

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the blocks' levels were enumerated again")

    monkeypatch.setattr(dp, "state_levels", no_enumeration)
    got = built.model.dp_point()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_dp_point_from_stored_tables_keeps_its_bits(corpus, monkeypatch):
    # the unit tables an instance keeps (solve_full_dp's root, each type's
    # chain, the hierarchy's units) give the DP point that a fresh equal
    # instance computes, bit for bit, and it then runs no backward pass
    backward = dp.backward

    def no_backward(*args, **kwargs):
        raise AssertionError("a stored table's unit was solved again")

    for entry in corpus:
        lam, p = entry.laminar, entry.production
        cases = [(lam, Marking(), lambda: solve_full_dp(lam))]
        if p is not None:
            cases.append((p, None, lambda: [
                solve_subproblem_dp(p, j, 0.0)
                for j in range(p.num_types) if p.buyers_of_type(j)]))
        else:
            mk = mark_laminar(lam, 0.6)
            cases.append((lam, mk, lambda: [
                dp.unit_table(lam, key) for key in small_units(lam, mk)]))
        for inst, mk, solve_units in cases:
            fresh = parse_instance(serialize_instance(inst))
            want = lp._build(fresh, mk, 1.0, DEFAULT_STATE_CAP).model.dp_point()
            solve_units()
            monkeypatch.setattr(dp, "backward", no_backward)
            got = lp._build(inst, mk, 1.0, DEFAULT_STATE_CAP).model.dp_point()
            monkeypatch.setattr(dp, "backward", backward)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def point_over_a_copy(monkeypatch, built, field, level, nudge):
    """``built``'s DP point over a copy (``dataclasses.replace``) of each
    unit table whose ``field`` at ``level`` is ``nudge`` of the stored one,
    which stays as it is."""
    unit_table = dp.unit_table

    def copied(*args, **kwargs):
        table = unit_table(*args, **kwargs)
        levels = list(getattr(table, field))
        levels[level] = nudge(levels[level])
        return dataclasses.replace(table, **{field: tuple(levels)})

    with monkeypatch.context() as m:
        m.setattr(dp, "unit_table", copied)
        return built.model.dp_point()


def nudged_point(monkeypatch, built):
    """``built``'s DP point with the first threshold nudged up by 1e-3,
    which still takes v=2."""
    return point_over_a_copy(monkeypatch, built, "thresholds", 0,
                             lambda tau: tau + 1e-3)


def test_certificate_rejects_a_nudged_threshold(monkeypatch):
    built = build_lp_optimal(CAP1_PAIR)
    _, dual, _ = rejected(built.model, *nudged_point(monkeypatch, built))
    assert dual == pytest.approx(0.5e-3)


def test_certificate_rejects_a_nudged_threshold_at_desk_scale(
        monkeypatch):
    # a coupled desk-scale LP is rejected too
    built = build_lp_hierarchy(two_bins_under(3), ROOT_MARKED_LARGE, 1.0)
    assert built.model.coupled and desk_scale(built.model)
    x, u = built.model.dp_point()
    u[built.block("bin:1").rows[0][1]] += 1e-3  # the first X <= Y row
    _, dual, _ = rejected(built.model, x, u)
    assert dual == pytest.approx(1e-3)


def test_certificate_rejects_a_raised_value(monkeypatch):
    built = build_lp_optimal(CAP1_PAIR)
    info = built.block("root")
    # the value of the initial state after the first arrival, which is the
    # dual of the update row into it
    at = info.levels[1].index((1,))
    x, u = point_over_a_copy(monkeypatch, built, "values", 1,
                             lambda v: v + 0.1 * (np.arange(len(v)) == at))
    _, dual, _ = rejected(built.model, x, u)
    assert dual == pytest.approx(0.1)


def test_certificate_rejects_a_zeroed_forbidden_dual():
    built = build_lp_optimal(CAP1_PAIR)
    info = built.block("root")
    assert info.forbidden[2] == [(-1,)]
    x, u = built.model.dp_point()
    # the X <= 0 row of the over-pick at the second arrival from (0,),
    # at the atom of value 2
    row = info.rows[1][1] + 2 * info.levels[1].index((0,)) + 1
    assert built.model.rows[row][1:] == ("<=", 0.0)
    assert u[row] == 1.0  # p * v of the forbidden pick
    u[row] = 0.0
    _, dual, _ = rejected(built.model, x, u)
    assert dual == pytest.approx(1.0)


def test_certificate_rejects_a_large_row_below_the_expected_count():
    built = build_lp_hierarchy(LARGE_ROOT, mark_laminar(LARGE_ROOT, 0.1), 1.0)
    model = built.model
    assert_certified(model)
    x, u = model.dp_point()
    rows, cols, coefs = model.coo()
    root = model.num_rows - 1  # the one large-bin row comes last
    expected = float(coefs[rows == root] @ x[cols[rows == root]])
    assert 0.0 < expected < 101.0
    model.rhs[root] = expected / 2.0
    primal, _, _ = rejected(model, x, u)
    assert primal == pytest.approx(expected / 2.0)
    # the row now binds: the LP optimum is below the units' DP optimum
    assert reference_highs(model).objective < model.objective_value(x) - 1e-3
