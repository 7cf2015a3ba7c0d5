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
    solve_optimal,
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
from binprice.rounding import compose_policies, extract_pricing, mark_laminar

from conftest import (
    model_from_arrays,
    oracle_lp_vertices,
    random_laminar,
    random_production,
    reference_emitter,
    solution_value,
)

U02 = DiscreteDistribution.uniform([0, 2])


def test_simplex_single_variable():
    m = model_from_arrays([1.0], [[1.0]], [3.0])
    sol = solve_optimal(m, "simplex")
    assert sol.objective == 3.0
    assert solution_value(sol, "x0") == 3.0


def test_simplex_degenerate_split():
    m = model_from_arrays([1.0, 1.0], [[1.0, 1.0]], [1.0])
    sol = solve_optimal(m, "simplex")
    assert abs(sol.objective - 1.0) <= 1e-12


def test_simplex_detects_infeasible_and_unbounded():
    m = model_from_arrays([1.0], [[-1.0]], [-2.0], [[1.0]], [1.0])
    assert solve(m, "simplex").status == "infeasible"
    m2 = model_from_arrays([1.0], [[-1.0]], [1.0])
    assert solve(m2, "simplex").status == "unbounded"


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
        sol = solve(m, "simplex")
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
        s1 = solve(m, "simplex")
        s2 = solve(m, "highs")
        assert s1.status == s2.status == "optimal"
        assert abs(s1.objective - s2.objective) <= 1e-7


def test_simplex_is_deterministic():
    rng = random.Random(5)
    n = 12
    c = [rng.randint(-2, 6) for _ in range(n)]
    a_ub = [[rng.randint(0, 4) for _ in range(n)] for _ in range(12)]
    b_ub = [rng.randint(4, 20) for _ in range(12)]
    m = model_from_arrays(c, a_ub, b_ub)
    s1 = solve(m, "simplex")
    s2 = solve(m, "simplex")
    assert s1.assignment == s2.assignment and s1.iterations == s2.iterations


def test_lp_optimal_small_examples():
    inst = LaminarInstance.build((DiscreteDistribution.point(5),),
                                 {"cap": 1, "children": [{"element": 0}]})
    sol = solve_optimal(build_lp_optimal(inst).model)
    assert abs(sol.objective - 5.0) <= 1e-9
    capped = LaminarInstance.build((DiscreteDistribution.point(5),),
                                   {"cap": 0, "children": [{"element": 0}]})
    sol0 = solve_optimal(build_lp_optimal(capped).model)
    assert abs(sol0.objective) <= 1e-9


def test_lp_optimal_equals_dp_on_corpus_sample(corpus):
    for entry in corpus[:40]:
        tbl, _ = solve_full_dp(entry.laminar)
        sol = solve_optimal(build_lp_optimal(entry.laminar).model)
        assert abs(sol.objective - tbl.optimal) <= 1e-6, entry.name


def test_exante_gap_instance():
    p = ProductionInstance(
        dists=(DiscreteDistribution.point(1),
               DiscreteDistribution.of([(0.0, 0.5), (2.0, 0.5)])),
        types=(0, 1), days=(0, 0), production=((1,), (1,)), shipping=1)
    sol = solve_optimal(build_lp_exante(p, 1.0).model)
    assert abs(sol.objective - 1.5) <= 1e-9
    tbl, _ = solve_full_dp(production_to_laminar(p))
    assert abs(tbl.optimal - 1.0) <= 1e-9
    scaled = solve_optimal(build_lp_exante(p, 0.9).model)
    assert scaled.objective >= 0.9 * 1.5 - 1e-9


def test_exante_equals_optimal_for_single_type_ample_shipping():
    rng = random.Random(61)
    for _ in range(10):
        p = random_production(rng, m_max=1, days_max=2)
        p = ProductionInstance(dists=p.dists, types=p.types, days=p.days,
                               production=p.production,
                               shipping=sum(col[-1] for col in p.production))
        s2 = solve_optimal(build_lp_exante(p, 1.0).model)
        s1 = solve_optimal(build_lp_optimal(production_to_laminar(p)).model)
        assert abs(s1.objective - s2.objective) <= 1e-6


def test_hierarchy_markings_bracket_the_instance():
    p = ProductionInstance(
        dists=(DiscreteDistribution.point(1),
               DiscreteDistribution.of([(0.0, 0.5), (2.0, 0.5)])),
        types=(0, 1), days=(0, 0), production=((1,), (1,)), shipping=1)
    lam = production_to_laminar(p)
    s1 = solve_optimal(build_lp_optimal(lam).model)
    all_small = solve_optimal(
        build_lp_hierarchy(lam, Marking(), 1.0).model)
    assert abs(all_small.objective - s1.objective) <= 1e-9
    root_large = Marking(large=frozenset({0}))
    s_rl = solve_optimal(build_lp_hierarchy(lam, root_large, 1.0).model)
    s2 = solve_optimal(build_lp_exante(p, 1.0).model)
    assert abs(s_rl.objective - s2.objective) <= 1e-9
    all_large = solve_optimal(
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
        v_fine = solve_optimal(build_lp_hierarchy(inst, fine, 1.0).model)
        v_coarse = solve_optimal(build_lp_hierarchy(inst, coarse, 1.0).model)
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
            sol = solve_optimal(built.model, engine)
            assert check_solution(built.model, sol) == [], (entry.name, engine)


def test_state_probabilities_conserve_mass(corpus):
    for entry in corpus[:15]:
        built = build_lp_optimal(entry.laminar)
        sol = solve_optimal(built.model)
        info = built.block("root")
        for lvl in range(len(info.levels)):
            tlab = info.time_label(lvl)
            total = sum(solution_value(sol, y_name("root", tlab, s))
                        for s in list(info.levels[lvl]) + list(info.forbidden[lvl]))
            assert abs(total - 1.0) <= 1e-7, entry.name
            for s in list(info.levels[lvl]) + list(info.forbidden[lvl]):
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


def test_state_update_row_leaves_out_the_pinned_state_of_the_same_tuple():
    # the day cap rises from 0 to 1: sold count 1 is a forbidden state
    # before buyer 1 (its Y pinned to zero) and reachable after it.  The
    # row into Y(end,(1)) takes no term on the pinned Y(1,(1)), which keeps
    # its pin row.  The emitter that also wrote that Y at -1 into the row
    # had the same optimum: the term is zero at every feasible point.
    p = ProductionInstance(dists=(U02, U02), types=(0, 0), days=(0, 1),
                           production=((0, 1),), shipping=1)
    model = build_lp_exante(p).model
    with reference_emitter(aliases=True):
        aliased = build_lp_exante(p).model
    pinned = model.index["Y[type:0](1,(1))"]
    end = model.index["Y[type:0](end,(1))"]
    for m, term in ((model, None), (aliased, -1.0)):
        rows = [dict(coeffs) for coeffs, _, _ in m.rows]
        assert {pinned: 1.0} in rows
        into_end = [row for row in rows if end in row]
        assert len(into_end) == 1
        assert into_end[0][end] == 1.0 and into_end[0].get(pinned) == term
    for engine in ("simplex", "highs"):
        assert solve_optimal(model, engine).objective == 1.0
        assert solve_optimal(aliased, engine).objective == 1.0


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
        sol = solve_optimal(built.model, "simplex")
        assert check_solution(built.model, sol) == []
        assert sol.assignment == {name: solution_value(sol, name)
                                  for name in built.model.names}


# ---------------------------------------------------------------------------
# Certified DP points: tried on an uncoupled LP at every size, on a coupled
# one past the dense limit (at 0, every LP is past it)
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


@pytest.fixture
def no_dense(monkeypatch):
    monkeypatch.setattr(lp, "DENSE_CELL_LIMIT", 0)


def desk_scale(model):
    cells = (model.num_rows + 2) * (model.num_vars + model.num_rows + 1)
    return cells <= lp.DENSE_CELL_LIMIT


def bits(sol):
    return (sol.status, sol.engine, sol.iterations, sol.objective,
            sol.x.tobytes())


def bound_lp(entry, scale=1.0):
    """The exactness chain's relaxation bound: the ex-ante LP, or the
    hierarchy LP marked at delta 0.6, at capacity scale 1 (or ``scale``)."""
    if entry.production is not None:
        return build_lp_exante(entry.production, scale)
    return build_lp_hierarchy(entry.laminar, mark_laminar(entry.laminar, 0.6),
                              scale)


def assert_certified(model):
    sol = solve(model)
    assert (sol.status, sol.engine, sol.iterations) == \
        ("optimal", "certificate", 0)
    assert abs(sol.objective - solve(model, "simplex").objective) <= 1e-9
    assert check_solution(model, sol) == []
    return sol


def test_certificate_solves_every_corpus_exact_lp(corpus):
    # under plain auto: the exact LP has no coupling row, so it takes the
    # DP point at desk scale too, and its rounding replays the point
    for entry in corpus:
        built = build_lp_optimal(entry.laminar)
        assert not built.model.coupled
        sol = assert_certified(built.model)
        welfare, trace = harness.evaluate_exact(
            extract_pricing(sol, built, "root"), entry.laminar)
        assert abs(welfare - sol.objective) <= 1e-6
        assert cli._trace_deviation(sol, built, trace) <= 1e-7


def test_certificate_solves_slack_bound_lps_and_binding_ones_fall_back(
        corpus, no_dense):
    binding = 0
    for entry in corpus:
        model = bound_lp(entry).model
        x, u = model.dp_point()
        primal, dual, gap = certify(model, x, u)
        # the dual is feasible and closes the gap whether or not a coupling
        # row binds; only the primal can fail
        assert dual <= lp.CERT_TOL
        assert gap <= lp.CERT_TOL * (1.0 + abs(model.objective_value(x)))
        # in the corpus, a bound binds exactly where its units can fill a
        # large row
        assert model.coupled == (primal > lp.CERT_PRIMAL_TOL)
        if primal <= lp.CERT_PRIMAL_TOL:
            assert_certified(model)
        else:
            binding += 1
            assert bits(solve(model)) == bits(solve(model, "highs"))
    assert binding == 66


@pytest.mark.parametrize("scale", [1.0, 0.8])
def test_certificate_solves_every_bound_whose_rows_cannot_fill(corpus,
                                                               scale):
    # the units' most picks fit under every large row: the model is
    # uncoupled, and auto returns the certified point, with no fallback
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


def fail():
    raise AssertionError("DP point computed")


def test_certificate_is_not_computed_for_a_coupled_desk_scale_lp():
    # rows their units can fill: 2 + 3 sold against 0.8 * 5, and 2 + 2
    # picked under a large root of 3
    for model in (build_lp_exante(SLACK_SHIPPING, 0.8).model,
                  build_lp_hierarchy(two_bins_under(3), ROOT_MARKED_LARGE,
                                     1.0).model):
        assert model.coupled and desk_scale(model)
        model.dp_point = fail
        assert solve(model).engine == "simplex"


@pytest.mark.parametrize("limit", [lp.DENSE_CELL_LIMIT, 0],
                         ids=["desk", "past"])
def test_certificate_is_not_computed_under_a_forced_engine(monkeypatch,
                                                           limit):
    monkeypatch.setattr(lp, "DENSE_CELL_LIMIT", limit)
    for built in (build_lp_optimal(CAP1_PAIR),
                  build_lp_hierarchy(LARGE_ROOT,
                                     mark_laminar(LARGE_ROOT, 0.1), 1.0)):
        built.model.dp_point = fail
        assert solve(built.model, "simplex").engine == "simplex"
        assert solve(built.model, "highs").engine == "highs"


def falls_back(model, x, u, engine="highs"):
    """``solve`` rejects ``(x, u)`` as the DP point and returns the bits
    of ``engine``, its choice by size; returns ``certify``'s residuals of
    the point."""
    model.dp_point = lambda: (x, u)
    assert bits(solve(model)) == bits(solve(model, engine))
    return certify(model, x, u)


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


def test_certificate_rejects_a_nudged_threshold(no_dense, monkeypatch):
    built = build_lp_optimal(CAP1_PAIR)
    _, dual, _ = falls_back(built.model, *nudged_point(monkeypatch, built))
    assert dual == pytest.approx(0.5e-3)


def test_certificate_rejects_a_nudged_threshold_at_desk_scale(
        monkeypatch):
    built = build_lp_optimal(CAP1_PAIR)
    assert desk_scale(built.model)
    _, dual, _ = falls_back(built.model, *nudged_point(monkeypatch, built),
                            "simplex")
    assert dual == pytest.approx(0.5e-3)


def test_certificate_rejects_a_raised_value(no_dense, monkeypatch):
    built = build_lp_optimal(CAP1_PAIR)
    info = built.block("root")
    # the value of the initial state after the first arrival, which is the
    # dual of the update row into it
    at = info.levels[1].index((1,))
    x, u = point_over_a_copy(monkeypatch, built, "values", 1,
                             lambda v: v + 0.1 * (np.arange(len(v)) == at))
    _, dual, _ = falls_back(built.model, x, u)
    assert dual == pytest.approx(0.1)


def test_certificate_rejects_a_zeroed_forbidden_dual(no_dense):
    built = build_lp_optimal(CAP1_PAIR)
    info = built.block("root")
    assert info.forbidden[2] == [(-1,)]
    x, u = built.model.dp_point()
    # the update row into (-1,): a pick at the second arrival from (0,)
    row = info.rows[1][2] + len(info.levels[2])
    assert u[row] < 0.0
    u[row] = 0.0
    _, dual, _ = falls_back(built.model, x, u)
    assert dual == pytest.approx(1.0)  # p * v of the forbidden pick


def test_certificate_rejects_a_large_row_below_the_expected_count(no_dense):
    built = build_lp_hierarchy(LARGE_ROOT, mark_laminar(LARGE_ROOT, 0.1), 1.0)
    model = built.model
    assert_certified(model)
    x, u = model.dp_point()
    rows, cols, coefs = model.coo()
    root = model.num_rows - 1  # the one large-bin row comes last
    expected = float(coefs[rows == root] @ x[cols[rows == root]])
    assert 0.0 < expected < 101.0
    model.rhs[root] = expected / 2.0
    primal, _, _ = falls_back(model, x, u)
    assert primal == pytest.approx(expected / 2.0)
    # the row now binds: the LP optimum is below the units' DP optimum
    assert solve(model).objective < model.objective_value(x) - 1e-3
