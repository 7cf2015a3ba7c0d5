"""An instance derives its forms once.

The calls one bench round makes on an instance (the PTAS at both corpus
settings, the full DP, the exact and the bound LP, the cylinder and
concavity checks, ``simulate`` and the prophet samples) enumerate each
unit's states once and solve each unit's DP once, since the instance's
store keeps its laminar form, its dynamics, their levels and each unit's
shift-0 table.  The PTAS's large branch sweeps each unit once at
multiplier 0 to pick its route, and the dual search (the PTAS's, or that
of a coupled LP's DP point) sweeps its units at 0 and at each further
multiplier it tries; neither keeps these sweeps.  What the store shares refuses writes, and running the calls
again, or on a fresh equal instance, gives the same bytes.
"""

import collections
import copy
import dataclasses
import inspect
import json
import pickle

import numpy as np
import pytest

from binprice import dp, harness, lp, model, ptas, rounding
from binprice.model import (
    DiscreteDistribution,
    LaminarInstance,
    ProductionInstance,
    as_laminar,
    bind_dynamics,
    parse_instance,
    serialize_instance,
)

from conftest import BENCH_SETTINGS, build_corpus

# a production instance whose PTAS takes the root DP at eps 0.2 and the
# dual of its shipping row at delta 0.6 (five buyers, three types,
# shipping 3), and a laminar one whose PTAS takes the dual over its nested
# bins at delta 0.6
PRODUCTION_AT, LAMINAR_AT = 47, 9


def corpus_instances():
    """Fresh copies of the two corpus instances, with empty stores."""
    corpus = build_corpus(size=max(PRODUCTION_AT, LAMINAR_AT) + 1)
    return [parse_instance(serialize_instance(inst)) for inst in (
        corpus[PRODUCTION_AT].production, corpus[LAMINAR_AT].laminar)]


def bench_round(inst) -> list:
    """What one bench round computes on ``inst``, as bytes and text."""
    production = isinstance(inst, ProductionInstance)
    solve = ptas.ptas_production if production else ptas.ptas_laminar
    results = [solve(inst, cfg) for cfg in BENCH_SETTINGS.values()]
    out = [rounding.policy_to_json(r.policy) for r in results]
    lam = as_laminar(inst)
    out.append(repr(dp.solve_full_dp(lam)[0].optimal))
    delta = BENCH_SETTINGS["eps0.2_delta0.6"].delta
    bound = (lp.build_lp_exante(inst, 1.0) if production else
             lp.build_lp_hierarchy(lam, rounding.mark_laminar(lam, delta)))
    exact = lp.build_lp_optimal(lam)
    for built in (bound, exact):
        sol = lp.solve_optimal(built.model)
        out += [built.model.to_text(), repr(sol.objective), sol.x.tobytes()]
    policy = rounding.extract_pricing(sol, exact, "root")
    welfare, trace = harness.evaluate_exact(policy, lam)
    out += [repr(welfare), b"".join(y.tobytes() for y in trace)]
    for j in range(inst.num_types if production else 0):
        if inst.buyers_of_type(j):
            out.append(repr(harness.check_negative_cylinder(inst, j, 0.0)))
            chain = dp.solve_subproblem_dp(inst, j, 0.0)
            out.append(repr(dp.concavity_check(chain)))
    report = harness.simulate(results[0].policy, inst, 500, seed=21)
    out.append(json.dumps(report.to_json_dict(), sort_keys=True))
    out.append(harness.prophet_samples(inst, 250, 21).tobytes())
    return out


def count_kernel_calls(monkeypatch) -> collections.Counter:
    """Count the level-by-level kernels' calls by the scope of the
    dynamics they run for: ``model``'s enumeration grows one level per
    arrival, ``dp``'s backward induction solves one, counted under
    ``dual`` where it carries the PTAS's expected picks, keyed also by
    whether it runs at multiplier 0; and count the production-to-laminar
    conversions."""
    calls = collections.Counter()

    def counted(module, name):
        kernel = getattr(module, name)

        def call(*args):
            caller = inspect.currentframe().f_back.f_locals
            if len(args) > 4 and args[4] is not None:
                calls["dual", caller["dyn"].key, caller["shift"] == 0.0] += 1
            else:
                calls[module.__name__, caller["dyn"].key] += 1
            return kernel(*args)

        monkeypatch.setattr(module, name, call)

    for name in ("_grow_lists", "_grow_arrays"):
        counted(model, name)
    for name in ("_level_lists", "_level_arrays"):
        counted(dp, name)
    convert = model.production_to_laminar
    monkeypatch.setattr(model, "production_to_laminar", lambda p: (
        calls.update(["production_to_laminar"]), convert(p))[1])
    return calls


def test_derived_forms_solve_each_unit_once(monkeypatch):
    for inst in corpus_instances():
        with monkeypatch.context() as m:
            calls = count_kernel_calls(m)
            bench_round(inst)
        production = isinstance(inst, ProductionInstance)
        assert calls.pop("production_to_laminar", 0) == production
        dual = {key[1:]: calls.pop(key) for key in list(calls)
                if key[0] == "dual"}
        units = {key for _, key in calls}
        # the root, and each unit of the relaxation the PTAS solved
        assert "root" in units
        assert units > {"root"}
        for (kernel, key), count in calls.items():
            arrivals = len(bind_dynamics(key, inst).elements)
            assert count == arrivals, (kernel, key, count, arrivals)
        assert {key for kernel, key in calls if kernel == "binprice.dp"} \
            == units
        # each unit of the relaxation sweeps once at multiplier 0, which
        # picks the route, and once more for the bound LP's DP point where
        # that LP is coupled; each dual search sweeps it at every further
        # multiplier it tries.  The production instance's units overfill
        # its one row, whose dual search stops at 0 (the tie-rejecting
        # policies fit), and its bound is uncoupled; the laminar one's
        # nested rows are searched past 0 by the PTAS and the bound alike
        for key in units - {"root"}:
            arrivals = len(bind_dynamics(key, inst).elements)
            assert dual.pop((key, True)) == (2 - production) * arrivals
            further = dual.pop((key, False), 0)
            assert further % arrivals == 0
            assert (further > 0) == (not production)
        assert not dual


def test_derived_forms_give_the_same_bytes_again_and_fresh(monkeypatch):
    # again on one instance: every form is stored, so no kernel runs but
    # the dual searches' carried sweeps, which store nothing and run as
    # before
    for inst in corpus_instances():
        with monkeypatch.context() as m:
            first_calls = count_kernel_calls(m)
            first = bench_round(inst)
        with monkeypatch.context() as m:
            calls = count_kernel_calls(m)
            assert bench_round(inst) == first
        assert calls == {key: count for key, count in first_calls.items()
                         if key[0] == "dual"}
        assert bench_round(parse_instance(serialize_instance(inst))) == first


def test_derived_forms_stay_out_of_pickles_and_deep_copies():
    # the store holds weak references, which do not pickle: a used
    # instance pickles and deep-copies with an empty store, which derives
    # the same forms again
    for inst in corpus_instances():
        first = bench_round(inst)
        for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
            assert serialize_instance(twin) == serialize_instance(inst)
            assert not twin._derived
            assert bench_round(twin) == first


def test_derived_forms_refuse_writes():
    # a root of 101 over two cap-2 bins: past SMALL_CODES, so its levels
    # are arrays
    lam = LaminarInstance.build(
        (DiscreteDistribution.uniform([0, 2]),) * 8, {"cap": 101, "children": [
            {"cap": 2, "children": [{"element": e} for e in range(4)]},
            {"cap": 2, "children": [{"element": e} for e in range(4, 8)]}]})
    table = dp.unit_table(lam, "root")
    assert dp.solve_full_dp(lam)[0] is table
    levels = table.levels
    assert isinstance(levels.codes[-1], np.ndarray)
    for arrays in (table.values, table.thresholds, levels.codes,
                   levels.skips, levels.picks):
        with pytest.raises(ValueError):
            arrays[-1][0] = arrays[-1][0]
        with pytest.raises(TypeError):
            arrays[0] = arrays[-1]
    # the table and its levels are frozen
    for obj, field in ((table, "values"), (table, "shift"),
                       (levels, "codes"), (levels, "picks")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))
    p = corpus_instances()[0]
    chain = dp.solve_subproblem_dp(p, 0, 0.0)
    assert chain is dp.unit_table(p, "type:0")
    assert dp.solve_subproblem_dp(p, 0, 0.5) is not chain
    with pytest.raises(ValueError):
        chain.values[0][0] = 0.0
    # a chain of at most SMALL_CODES codes keeps its levels as tuples
    for levels in (chain.levels.codes, chain.levels.skips,
                   chain.levels.picks):
        assert all(isinstance(level, tuple) for level in levels)
        with pytest.raises(AttributeError):
            levels[-1].append(99)
        with pytest.raises(TypeError):
            levels[-1][0] = 99
    assert dp.unit_table(p, "type:0").levels.codes[-1] == (0, 1)
    assert dp.unit_table(p, "root") is dp.solve_full_dp(as_laminar(p))[0]
