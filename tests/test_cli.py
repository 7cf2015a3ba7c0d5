import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from binprice import cli, dp, harness, lp
from binprice.cli import main
from binprice.model import as_laminar, dump_instance, parse_instance
from binprice.rounding import mark_laminar

from conftest import criterion_7_laminar, perturbed_dp_points, reference_highs


GAP_INSTANCE = {
    "kind": "production",
    "elements": [{"dist": [[1.0, 1.0]]}, {"dist": [[0.0, 0.5], [2.0, 0.5]]}],
    "types": [0, 1],
    "days": [0, 0],
    "production": {"0": [1], "1": [1]},
    "shipping": 1,
}

CHAIN_INSTANCE = {
    "kind": "production",
    "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]},
                 {"dist": [[1.0, 1.0]]}],
    "types": [0, 0],
    "days": [0, 0],
    "production": {"0": [1]},
    "shipping": 1,
}

# optimal policy fails the per-subset cylinder inequality on buyers 2 and 3
# (gap 1/4 - 3/16) but meets the summed form
COUNTEREXAMPLE_INSTANCE = {
    "kind": "production",
    "elements": [{"dist": [[0.5, 0.5], [10.0, 0.5]]},
                 {"dist": [[0.5, 0.5], [10.0, 0.5]]},
                 {"dist": [[2.0, 1.0]]},
                 {"dist": [[1.0, 1.0]]}],
    "types": [0, 0, 0, 0],
    "days": [0, 0, 0, 0],
    "production": {"0": [2]},
    "shipping": 4,
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(GAP_INSTANCE))
    return str(path)


@pytest.fixture
def chain_path(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_INSTANCE))
    return str(path)


def test_solve_dp_objective(instance_path):
    code, out, err = run_cli(["solve", "--instance", instance_path,
                              "--alg", "dp"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["objective"] - 1.0) <= 1e-9


def test_solve_exante_gap_value(instance_path):
    code, out, _ = run_cli(["solve", "--instance", instance_path,
                            "--alg", "ex-ante"])
    assert code == 0
    assert abs(json.loads(out)["objective"] - 1.5) <= 1e-9


def test_solve_ptas_small_branch(tmp_path, instance_path):
    doc = dict(GAP_INSTANCE, shipping=2)
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["solve", "--instance", str(path), "--alg", "ptas",
                            "--epsilon", "0.5"])
    assert code == 0
    rep = json.loads(out)
    assert rep["branch"] == "small"
    assert rep["lp"] == "dp"
    code, out2, _ = run_cli(["solve", "--instance", str(path), "--alg", "dp"])
    assert abs(rep["objective"] - json.loads(out2)["objective"]) <= 1e-6


def test_dual_search_past_its_step_cap_exits_4(instance_path, monkeypatch):
    # two types selling 1 each against shipping 1: the ex-ante LP is
    # coupled, and its dual search needs three cutting-plane steps
    monkeypatch.setattr(dp, "DUAL_ITERATIONS", 1)
    code, out, err = run_cli(["solve", "--instance", instance_path,
                              "--alg", "ex-ante"])
    assert code == 4 and out == ""
    assert err == ("lp failure: dual search: no multiplier within 1 "
                   "cutting-plane steps (last 1.3333333333333333)\n")

def test_invalid_instance_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(GAP_INSTANCE, types=[0, 9])))
    code, out, err = run_cli(["solve", "--instance", str(bad), "--alg", "dp"])
    assert code == 2
    assert out == ""
    assert "types" in err


def test_sizing_abort_exits_3(instance_path):
    code, _, err = run_cli(["solve", "--instance", instance_path,
                            "--alg", "dp", "--state-cap", "1"])
    assert code == 3
    assert "cap" in err


def test_simulate_requires_seed(instance_path, tmp_path, capsys):
    pol = tmp_path / "p.json"
    run_cli(["solve", "--instance", instance_path, "--alg", "lp-opt",
             "--policy-out", str(pol)])
    with pytest.raises(SystemExit):
        main(["simulate", "--instance", instance_path, "--policy", str(pol),
              "--trials", "10"])


def test_simulate_deterministic_across_threads(instance_path, tmp_path):
    pol = tmp_path / "p.json"
    code, _, _ = run_cli(["solve", "--instance", instance_path,
                          "--alg", "lp-opt", "--policy-out", str(pol)])
    assert code == 0
    runs = []
    for threads in ("1", "1", "3"):
        code, out, _ = run_cli(["simulate", "--instance", instance_path,
                                "--policy", str(pol), "--trials", "9000",
                                "--seed", "17", "--threads", threads,
                                "--format", "csv"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].splitlines()[0] == "metric,value,stderr,trials,seed"


def test_simulate_single_trial_exact_path(tmp_path):
    doc = {"kind": "production",
           "elements": [{"dist": [[2.0, 1.0]]}, {"dist": [[3.0, 1.0]]}],
           "types": [0, 1], "days": [0, 0],
           "production": {"0": [1], "1": [1]}, "shipping": 2}
    inst = tmp_path / "det.json"
    inst.write_text(json.dumps(doc))
    pol = tmp_path / "p.json"
    run_cli(["solve", "--instance", str(inst), "--alg", "lp-opt",
             "--policy-out", str(pol)])
    code, out, _ = run_cli(["simulate", "--instance", str(inst),
                            "--policy", str(pol), "--trials", "1",
                            "--seed", "5"])
    assert code == 0
    assert json.loads(out)["welfare_mean"] == 5.0


def test_policy_instance_mismatch_exits_6(instance_path, chain_path, tmp_path):
    pol = tmp_path / "p.json"
    run_cli(["solve", "--instance", chain_path, "--alg", "lp-opt",
             "--policy-out", str(pol)])
    code, _, err = run_cli(["simulate", "--instance", instance_path,
                            "--policy", str(pol), "--trials", "10",
                            "--seed", "1"])
    assert code == 6
    assert "mismatch" in err


def test_verify_passes_on_chain(chain_path, instance_path):
    code, out, _ = run_cli(["verify", "--instance", chain_path,
                            "--trials", "400", "--seed", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "negative cylinder type 0" in names
    assert "feasibility simulation" in names
    # the exact LP, which has no coupling row, takes its certified DP
    # point, and so does the ex-ante LP, whose one type sells at most 1
    # against shipping 1; the detail names each engine
    details = {c["name"]: c["detail"] for c in doc["checks"]}
    assert details["lp-opt equals dp"].endswith(" engine=certificate")
    assert details["ex-ante relaxes dp"].endswith(" engine=certificate")
    # two types selling 1 each can fill shipping 1: the ex-ante LP is
    # coupled, and the mixture of its dual is certified
    code, out, _ = run_cli(["verify", "--instance", instance_path,
                            "--trials", "400", "--seed", "2"])
    assert code == 0
    details = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}
    assert details["lp-opt equals dp"].endswith(" engine=certificate")
    assert details["ex-ante relaxes dp"].endswith(" engine=certificate")


def test_verify_certifies_criterion_7(tmp_path):
    # the exact LP (161,541 states), which is also the hierarchy at the
    # default delta's marking, takes the certified DP point, so no solver
    # runs (HiGHS took about 15 minutes here)
    path = tmp_path / "c7.json"
    dump_instance(criterion_7_laminar(), path)
    code, out, err = run_cli(["verify", "--instance", str(path),
                              "--trials", "500"])
    assert code == 0, err
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["lp-opt equals dp"]["ok"]
    assert checks["rounding exactness"]["ok"]
    assert checks["rounding exactness"]["detail"].endswith(" ydev=0.0")
    for name in ("lp-opt equals dp", "hierarchy relaxes dp"):
        assert checks[name]["detail"].endswith(" engine=certificate")


# the installed-command smoke instance: a root of cap 5 over two cap-2
# bins and three lone elements; at delta 0.5 the root is large
HIERARCHY_INSTANCE = {
    "kind": "laminar",
    "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]}] * 6
                + [{"dist": [[1.0, 1.0]]}] * 3,
    "bins": {"cap": 5, "children": [
        {"cap": 2, "children": [{"element": e} for e in (0, 1, 2)]},
        {"cap": 2, "children": [{"element": e} for e in (3, 4, 5)]},
        {"element": 6}, {"element": 7}, {"element": 8}]},
}


def verify_hierarchy_instance(tmp_path, *options):
    path = tmp_path / "hierarchy.json"
    path.write_text(json.dumps(HIERARCHY_INSTANCE))
    return run_cli(["verify", "--instance", str(path), "--trials", "200",
                    "--seed", "1", *options])


def test_verify_bounds_the_dp_by_the_hierarchy_at_its_marking(tmp_path):
    code, out, err = verify_hierarchy_instance(tmp_path, "--delta", "0.5")
    assert code == 0, err
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["hierarchy relaxes dp"] == {
        "name": "hierarchy relaxes dp", "ok": True,
        "detail": "hierarchy=7.75 dp=7.625 engine=certificate"}


def test_verify_fails_a_hierarchy_below_the_dp(tmp_path, monkeypatch):
    # the relaxation of the same tree with every value halved
    halved = parse_instance(dict(HIERARCHY_INSTANCE, elements=[
        {"dist": [[v / 2, q] for v, q in element["dist"]]}
        for element in HIERARCHY_INSTANCE["elements"]]))
    build = lp.build_lp_hierarchy
    monkeypatch.setattr(lp, "build_lp_hierarchy",
                        lambda inst, *args, **kw: build(halved, *args, **kw))
    code, out, err = verify_hierarchy_instance(tmp_path, "--delta", "0.5")
    assert code == 5
    assert err == "failed properties: hierarchy relaxes dp\n"
    assert json.loads(out)["ok"] is False


def test_verify_builds_the_exact_lp_once(tmp_path, monkeypatch):
    # at the default delta no bin is large: the relaxation is the exact LP
    built = []
    build = lp._build
    monkeypatch.setattr(lp, "_build",
                        lambda *args: built.append(args) or build(*args))
    code, out, err = verify_hierarchy_instance(tmp_path)
    assert code == 0, err
    assert len(built) == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["hierarchy relaxes dp"]["detail"].startswith(
        "hierarchy=7.625 dp=7.625 ")


# the installed-command smoke instances: two buyers under a root of 1;
# two types over two days whose chains can sell 2 + 1 against shipping
# 2, so that the ex-ante row binds; and a day cap that rises from 0 to 1
SMOKE_INSTANCE = {
    "kind": "laminar",
    "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]}, {"dist": [[1.0, 1.0]]}],
    "bins": {"cap": 1, "children": [{"element": 0}, {"element": 1}]},
}
SMOKE_PRODUCTION = {
    "kind": "production",
    "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]},
                 {"dist": [[1.0, 0.5], [3.0, 0.5]]},
                 {"dist": [[0.0, 0.25], [1.5, 0.75]]},
                 {"dist": [[1.0, 1.0]]},
                 {"dist": [[0.5, 0.5], [2.5, 0.5]]}],
    "types": [0, 1, 0, 1, 0], "days": [0, 0, 1, 1, 1],
    "production": {"0": [1, 2], "1": [1, 1]}, "shipping": 2,
}
RISING_CAP = {
    "kind": "production",
    "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]}] * 2,
    "types": [0, 0], "days": [0, 1], "production": {"0": [0, 1]},
    "shipping": 1,
}


def exact_lp(inst):
    return lp.build_lp_optimal(as_laminar(inst))


def exante_lp(inst):
    return lp.build_lp_exante(inst, 1.0)


def hierarchy_lp(inst):
    return lp.build_lp_hierarchy(inst, mark_laminar(inst, 0.5), 1.0)


SMOKE_LPS = pytest.mark.parametrize("doc, argv, build, coupled", [
    (SMOKE_INSTANCE, ["--alg", "lp-opt"], exact_lp, False),
    (CHAIN_INSTANCE, ["--alg", "lp-opt"], exact_lp, False),
    (CHAIN_INSTANCE, ["--alg", "ex-ante"], exante_lp, False),
    (RISING_CAP, ["--alg", "ex-ante"], exante_lp, False),
    (SMOKE_PRODUCTION, ["--alg", "ex-ante"], exante_lp, True),
    (HIERARCHY_INSTANCE, ["--alg", "hierarchy", "--delta", "0.5"],
     hierarchy_lp, True),
], ids=["smoke-lp-opt", "chain-lp-opt", "chain-ex-ante", "rising-cap",
        "production-ex-ante", "hierarchy"])


def solved_against_highs(tmp_path, doc, argv, build, coupled):
    """The certified solve report's objective on ``doc`` less HiGHS's on
    the same LP."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["solve", "--instance", str(path), *argv])
    assert code == 0, err
    rep = json.loads(out)
    assert rep["engine"] == "certificate"
    model = build(parse_instance(doc)).model
    assert model.coupled == coupled
    return rep["objective"] - reference_highs(model).objective


@SMOKE_LPS
def test_certified_objectives_of_the_smoke_instances_match_highs(
        tmp_path, doc, argv, build, coupled):
    assert abs(solved_against_highs(tmp_path, doc, argv, build,
                                    coupled)) <= 1e-9


@SMOKE_LPS
@pytest.mark.parametrize("factor", [1e9, 1e12])
def test_certified_objectives_hold_at_large_values(
        tmp_path, doc, argv, build, coupled, factor):
    # every value scaled up: the duals, value functions as large as the
    # welfare, carry round-off of an ulp of that size, which the
    # certificate's dual tolerance scales with
    scaled = dict(doc, elements=[
        {"dist": [[v * factor, q] for v, q in element["dist"]]}
        for element in doc["elements"]])
    assert abs(solved_against_highs(tmp_path, scaled, argv, build,
                                    coupled)) <= 1e-9 * factor


def test_rejected_dp_point_exits_4(instance_path, monkeypatch):
    # the coupled ex-ante LP's DP point, its gap opened by 1e-3: with no
    # other solver, the command fails
    perturbed_dp_points(monkeypatch)
    code, out, err = run_cli(["solve", "--instance", instance_path,
                              "--alg", "ex-ante"])
    assert code == 4 and out == ""
    assert err.startswith("lp failure: DP point not certified: "
                          "primal residual ")
    assert ", dual residual " in err and ", gap " in err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_engine_is_not_an_option(capsys, instance_path, command):
    argv = [command, "--instance", instance_path, "--engine", "auto"]
    if command == "solve":
        argv += ["--alg", "lp-opt"]
    err = _argument_error(capsys, argv)
    assert "unrecognized arguments: --engine auto" in err


# imports every binprice module with scipy unimportable, then runs
# cli.main on each argument list of argv[1] (JSON) and exits non-zero at
# the first run that does
SCIPY_FREE = """
import importlib
import json
import pkgutil
import sys

sys.modules["scipy"] = None
import binprice
for module in pkgutil.iter_modules(binprice.__path__):
    importlib.import_module(f"binprice.{module.name}")
from binprice import cli

for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code:
        sys.exit(f"{argv}: exit {code}")
"""


def test_the_program_runs_without_scipy(tmp_path):
    runs = []
    for name, doc, delta in (("production", SMOKE_PRODUCTION, []),
                             ("hierarchy", HIERARCHY_INSTANCE,
                              ["--delta", "0.5"])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        policy = str(tmp_path / f"{name}-policy.json")
        algs = ["dp", "lp-opt", "hierarchy"]
        algs += ["ex-ante"] if doc["kind"] == "production" else []
        runs += [["solve", "--instance", str(path), "--alg", alg, *delta,
                  "--output", str(tmp_path / f"{name}-{alg}.json")]
                 for alg in algs]
        runs.append(["solve", "--instance", str(path), "--alg", "ptas",
                     *delta, "--policy-out", policy,
                     "--output", str(tmp_path / f"{name}-ptas.json")])
        trials = ["--trials", "200", "--seed", "1"]
        runs.append(["simulate", "--instance", str(path), "--policy",
                     policy, *trials,
                     "--output", str(tmp_path / f"{name}-sim.json")])
        # a policy of a scaled relaxation is not the exact optimum
        exact = ["--policy", policy] if doc["kind"] == "production" else []
        runs.append(["verify", "--instance", str(path), *exact, *delta,
                     *trials,
                     "--output", str(tmp_path / f"{name}-verify.json")])
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE,
                           json.dumps(runs)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert len(runs) == 13
    hierarchy = json.loads((tmp_path / "hierarchy-hierarchy.json")
                           .read_text())
    exante = json.loads((tmp_path / "production-ex-ante.json").read_text())
    assert hierarchy["engine"] == exante["engine"] == "certificate"


def test_verify_gates_cylinder_on_summed_form(tmp_path):
    inst = tmp_path / "counterexample.json"
    inst.write_text(json.dumps(COUNTEREXAMPLE_INSTANCE))
    code, out, err = run_cli(["verify", "--instance", str(inst),
                              "--trials", "400", "--seed", "2"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["ok"] is True
    check = next(c for c in doc["checks"]
                 if c["name"] == "negative cylinder type 0")
    assert check["ok"] is True
    assert "per-subset worst subset=(2, 3) gap=0.0625" in check["detail"]


def test_verify_corrupted_policy_exits_5(chain_path, tmp_path):
    pol = tmp_path / "p.json"
    run_cli(["solve", "--instance", chain_path, "--alg", "lp-opt",
             "--policy-out", str(pol)])
    doc = json.loads(open(pol).read())
    for rule in doc["rules"]:
        if rule["tau"] != "inf":
            rule["tau"] = float(rule["tau"]) + 0.7  # perturb a price
    pol.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", "--instance", chain_path,
                              "--policy", str(pol), "--trials", "200",
                              "--seed", "2"])
    assert code == 5
    assert "supplied policy exactness" in err


def test_transform_rewrites_values(tmp_path):
    doc = {"kind": "production",
           "elements": [{"dist": [[1.0, 0.5], [2.0, 0.5]]}],
           "types": [0], "days": [0], "production": {"0": [1]},
           "shipping": 1}
    inst = tmp_path / "t.json"
    inst.write_text(json.dumps(doc))
    code, out, _ = run_cli(["transform", "--instance", str(inst)])
    assert code == 0
    got = json.loads(out)
    assert got["elements"][0]["dist"] == [[0.0, 0.5], [2.0, 0.5]]


def test_transform_takes_an_atom_too_light_to_move_the_tail(tmp_path):
    doc = {"kind": "laminar", "elements": [{"dist": [[0.0, 1e-17],
                                                     [2.0, 1.0]]}],
           "bins": {"cap": 1, "children": [{"element": 0}]}}
    inst = tmp_path / "t.json"
    inst.write_text(json.dumps(doc))
    code, out, err = run_cli(["transform", "--instance", str(inst)])
    assert (code, err) == (0, "")
    assert json.loads(out)["elements"][0]["dist"] == [[2.0, 1.0]]


def test_transform_rejects_negative_values(tmp_path):
    doc = {"kind": "production",
           "elements": [{"dist": [[-1.0, 0.5], [2.0, 0.5]]}],
           "types": [0], "days": [0], "production": {"0": [1]},
           "shipping": 1}
    inst = tmp_path / "t.json"
    inst.write_text(json.dumps(doc))
    code, _, err = run_cli(["transform", "--instance", str(inst)])
    assert code == 2


def test_stdout_carries_only_the_report(instance_path):
    code, out, err = run_cli(["verify", "--instance", instance_path,
                              "--trials", "300", "--seed", "3"])
    assert code == 0
    json.loads(out)  # a single JSON document, nothing else


def test_search_flag_reports_result(tmp_path):
    # tiny laminar instance: search completes and reports "no hit"
    doc = {"kind": "laminar",
           "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]},
                        {"dist": [[0.0, 0.5], [2.0, 0.5]]}],
           "bins": {"cap": 1, "children": [{"element": 0}, {"element": 1}]}}
    inst = tmp_path / "l.json"
    inst.write_text(json.dumps(doc))
    code, out, _ = run_cli(["verify", "--instance", str(inst), "--search",
                            "--trials", "100", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["counterexample"] == "no hit"


def search_production(n):
    """A production document of ``n`` buyers of one type valued as
    criterion 8's elements, uniform on ``{0, 2}`` but the third on
    ``{0, 1}``."""
    return {"kind": "production",
            "elements": [{"dist": [[0.0, 0.5], [1.0 if e == 2 else 2.0, 0.5]]}
                         for e in range(n)],
            "types": [0] * n, "days": [0] * n,
            "production": {"0": [2]}, "shipping": 2}


def test_search_flag_searches_a_production_document(tmp_path):
    # the search reads only the distributions: on criterion 8's it finds
    # the canonical price drop from 1.25 to 1 whatever the document's kind
    inst = tmp_path / "p.json"
    inst.write_text(json.dumps(search_production(5)))
    code, out, _ = run_cli(["verify", "--instance", str(inst), "--search",
                            "--trials", "100", "--seed", "1"])
    assert code == 0
    hits = json.loads(out)["counterexample"]
    assert hits and all(h["price_after_pick"] < h["price_after_skip"]
                        for h in hits)
    assert any(h["price_after_pick"] == 1.0 and h["price_after_skip"] == 1.25
               for h in hits)


def test_search_flag_reports_not_searched_past_its_bound(tmp_path):
    n = harness.SEARCH_MAX_ELEMENTS + 1
    inst = tmp_path / "p.json"
    inst.write_text(json.dumps(search_production(n)))
    code, out, _ = run_cli(["verify", "--instance", str(inst), "--search",
                            "--trials", "100", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["counterexample"] == (
        f"not searched ({n} elements > {harness.SEARCH_MAX_ELEMENTS})")


def test_verify_checks_types_beyond_the_per_subset_limit(tmp_path):
    # 14 buyers of one type: the summed cylinder and concavity checks run,
    # only the 2^14-subset detail is skipped
    doc = {"kind": "production",
           "elements": [{"dist": [[0.0, 0.5], [1.0 + (t % 3), 0.5]]}
                        for t in range(14)],
           "types": [0] * 14, "days": [0] * 7 + [1] * 7,
           "production": {"0": [2, 3]}, "shipping": 3}
    inst = tmp_path / "wide.json"
    inst.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", "--instance", str(inst),
                              "--trials", "200", "--seed", "2"])
    assert code == 0, err
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    cyl = checks["negative cylinder type 0"]
    assert cyl["ok"] is True
    assert cyl["detail"].startswith("summed worst k=")
    assert "per-subset not computed (14 buyers > 12)" in cyl["detail"]
    assert checks["value concavity type 0"]["ok"] is True


def test_verify_solves_each_type_chain_once(tmp_path, monkeypatch):
    # the root DP feeds the exact LP's DP point and the PTAS's small
    # branch; one chain DP per type feeds both cylinder checks, the
    # concavity check and the ex-ante LP's DP point, whether or not the
    # types' most sales (2 and 1) can fill the shipping row
    solved = []
    backward = dp.backward

    def counted(dyn, *args, **kwargs):
        solved.append(dyn.key)
        return backward(dyn, *args, **kwargs)

    monkeypatch.setattr(dp, "backward", counted)
    for shipping in (2, 3):
        doc = {"kind": "production",
               "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]},
                            {"dist": [[1.0, 0.5], [3.0, 0.5]]},
                            {"dist": [[0.0, 0.25], [1.5, 0.75]]},
                            {"dist": [[1.0, 1.0]]},
                            {"dist": [[0.5, 0.5], [2.5, 0.5]]}],
               "types": [0, 1, 0, 1, 0], "days": [0, 0, 1, 1, 1],
               "production": {"0": [1, 2], "1": [1, 1]},
               "shipping": shipping}
        inst = tmp_path / f"production-{shipping}.json"
        inst.write_text(json.dumps(doc))
        solved.clear()
        code, out, err = run_cli(["verify", "--instance", str(inst),
                                  "--trials", "200", "--seed", "1"])
        assert code == 0, err
        assert sorted(solved) == ["root", "type:0", "type:1"]
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["ex-ante relaxes dp"]["detail"].endswith(
            " engine=certificate")
        for j in (0, 1):
            assert checks[f"negative cylinder type {j}"]["ok"] is True
            assert checks[f"value concavity type {j}"]["ok"] is True
    # a large root (cap 101) over two cap-2 bins: each bin's DP feeds the
    # hierarchy LP's DP point and the PTAS large branch
    two = {"cap": 2, "children": [{"element": e} for e in range(4)]}
    doc = {"kind": "laminar",
           "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]}] * 8,
           "bins": {"cap": 101, "children": [two, {"cap": 2, "children": [
               {"element": e} for e in range(4, 8)]}]}}
    inst = tmp_path / "large-root.json"
    inst.write_text(json.dumps(doc))
    solved.clear()
    code, out, err = run_cli(["verify", "--instance", str(inst), "--trials",
                              "200", "--seed", "1", "--epsilon", "0.2",
                              "--delta", "0.1"])
    assert code == 0, err
    assert sorted(solved) == ["bin:1", "bin:2", "root"]
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["hierarchy relaxes dp"]["detail"].endswith(
        " engine=certificate")


@pytest.mark.parametrize("atoms", [
    [[0.0, 0.5], [math.inf, 0.5]],
    [[-math.inf, 0.5], [1.0, 0.5]],
    [[math.nan, 1.0]],
    [[1.0, math.nan]],
    [[0.0, math.inf]],
    [["abc", 1.0]],
    [[None, 1.0]],
    [["2.5", 1.0]],
    [[True, 1.0]],
    [[1.0, "1"]],
    [[1.0, True]],
])
def test_non_finite_atoms_exit_2(tmp_path, atoms):
    # json writes (and reads) the non-finite floats as the literals NaN,
    # Infinity and -Infinity; atoms are JSON numbers, and true is not one
    doc = dict(GAP_INSTANCE,
               elements=[GAP_INSTANCE["elements"][0], {"dist": atoms}])
    bad = tmp_path / "nonfinite.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(["solve", "--instance", str(bad), "--alg", "dp"])
    assert code == 2
    assert out == ""
    assert "elements[1].dist" in err


@pytest.mark.parametrize("alg, fields", [
    ("dp", {"elements": [{"dist": [[10 ** 400, 1.0]]}] * 2}),
    ("ex-ante", {"shipping": 10 ** 400}),
    ("hierarchy", {"production": {"0": [1], "1": [10 ** 400]}}),
])
def test_integers_beyond_the_float_range_exit_2(tmp_path, alg, fields):
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(dict(GAP_INSTANCE, **fields)))
    code, out, err = run_cli(["solve", "--instance", str(bad), "--alg", alg])
    assert code == 2
    assert out == ""
    assert err == ("invalid instance: instance: invalid JSON (integer of 401 "
                   "digits is beyond the float range)\n")


# finite values whose largest welfare, 1e308 + 1.7e308, is not
HUGE_VALUES = {"kind": "laminar",
               "elements": [{"dist": [[1e308, 0.5], [1.7e308, 0.5]]},
                            {"dist": [[1e308, 1.0]]}],
               "bins": {"cap": 2, "children": [{"element": 0},
                                               {"element": 1}]}}


@pytest.mark.parametrize("argv", [
    ["solve", "--alg", "dp"], ["solve", "--alg", "lp-opt"],
    ["solve", "--alg", "ptas"], ["verify"], ["transform"],
    ["simulate", "--policy", "missing.json", "--trials", "50", "--seed",
     "1"]])
@pytest.mark.parametrize("cap", [2, 1])
def test_welfare_beyond_the_float_range_exits_2(tmp_path, argv, cap):
    # it would read "Infinity", which is not JSON, in every report
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(dict(HUGE_VALUES, bins=dict(
        HUGE_VALUES["bins"], cap=cap))))
    code, out, err = run_cli([argv[0], "--instance", str(bad), *argv[1:]])
    assert (code, out) == (2, "")
    assert err == ("invalid instance: elements: the largest welfare (the sum "
                   "of each element's largest |value|) is beyond the float "
                   "range\n")


def test_a_report_number_not_finite_exits_7(instance_path, monkeypatch):
    # the program never reports infinity: JSON cannot write it, in a JSON
    # report or beside a CSV one
    table = dp.unit_table(parse_instance(GAP_INSTANCE), "root")
    table = dataclasses.replace(table, values=(np.full(1, math.inf),))
    monkeypatch.setattr(cli, "solve_full_dp",
                        lambda *args, **kwargs: (table, None))
    for fmt in ("json", "csv"):
        code, out, err = run_cli(["solve", "--instance", instance_path,
                                  "--alg", "dp", "--format", fmt])
        assert (code, out) == (7, "")
        assert err.startswith("report not written: Out of range float "
                              "values are not JSON compliant")


BOOLEAN_FIELDS = {"shipping": True, "types": [0, False], "days": [False, 0],
                  "production": {"0": [True]}}


@pytest.mark.parametrize("alg", ["dp", "lp-opt", "ex-ante", "hierarchy",
                                 "ptas"])
@pytest.mark.parametrize("field", [*sorted(BOOLEAN_FIELDS), "all"])
def test_booleans_in_production_documents_exit_2(tmp_path, alg, field):
    fields = BOOLEAN_FIELDS if field == "all" else {field: BOOLEAN_FIELDS[field]}
    bad = tmp_path / "bools.json"
    bad.write_text(json.dumps(dict(CHAIN_INSTANCE, **fields)))
    code, out, err = run_cli(["solve", "--instance", str(bad), "--alg", alg])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines and all(line.startswith("invalid instance: ")
                         for line in lines)
    named = {line.split(": ")[1].split("[")[0] for line in lines}
    assert named == (set(BOOLEAN_FIELDS) if field == "all" else {field})


@pytest.mark.parametrize("production", [
    {"0": [1], "00": [0]},
    {"00": [1]},
    {"0": [1], " 1": [1]},
    {"0": [1], "+1": [1]},
    {"0": [1], "1 ": [1]},
])
def test_non_canonical_type_keys_exit_2(tmp_path, production):
    # type keys are exactly "0".."m-1"; "00" must not alias (and shadow) "0"
    doc = dict(GAP_INSTANCE, types=[0] * 2, production=production)
    bad = tmp_path / "keys.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(["solve", "--instance", str(bad), "--alg", "dp"])
    assert code == 2
    assert out == ""
    assert err.startswith("invalid instance: production: bad type key ")


def _argument_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_trials_must_be_positive(capsys, instance_path, command):
    argv = [command, "--instance", instance_path, "--trials", "0",
            "--seed", "1"]
    if command == "simulate":
        argv += ["--policy", "unused.json"]
    err = _argument_error(capsys, argv)
    assert "argument --trials: 0 is not a positive integer" in err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_must_fit_64_bits(capsys, instance_path, seed):
    err = _argument_error(capsys, ["verify", "--instance", instance_path,
                                   "--seed", seed])
    assert f"argument --seed: {seed} is not in [0, 2^64)" in err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_epsilon_must_be_in_range(capsys, tmp_path, instance_path, command):
    argv = [command, "--instance", instance_path, "--epsilon", "1.5"]
    if command == "solve":
        argv += ["--alg", "ptas"]
    err = _argument_error(capsys, argv)
    assert "argument --epsilon: 1.5 is not in (0, 0.99)" in err
    # delta = eps^2 / ln(1/eps) leaves (0, 1) from eps = 0.653 up and where
    # eps^2 underflows: an argument error on either instance kind, unless
    # --delta is given
    laminar = tmp_path / "laminar.json"
    laminar.write_text(json.dumps(TWO_ELEMENT_INSTANCE))
    runs = ([["--alg", "ptas"], ["--alg", "hierarchy"]] if command == "solve"
            else [["--trials", "10"]])
    for path in (instance_path, str(laminar)):
        for run in runs:
            for eps in ("0.9", "1e-200"):
                err = _argument_error(capsys, [command, "--instance", path,
                                               "--epsilon", eps] + run)
                assert f"argument --epsilon: {eps} gives delta" in err
            code, _, err = run_cli([command, "--instance", path, "--epsilon",
                                    "0.9", "--delta", "0.5"] + run)
            assert (code, err) == (0, "")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_delta_must_be_in_range(capsys, instance_path, command):
    argv = [command, "--instance", instance_path, "--delta", "0"]
    if command == "solve":
        argv += ["--alg", "ptas"]
    err = _argument_error(capsys, argv)
    assert "argument --delta: 0 is not in (0, 1)" in err


@pytest.mark.parametrize("alg", ["ex-ante", "hierarchy"])
def test_scale_must_be_in_range(capsys, instance_path, alg):
    err = _argument_error(capsys, ["solve", "--instance", instance_path,
                                   "--alg", alg, "--scale", "0"])
    assert "argument --scale: 0 is not in (0, 1]" in err


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("flag", ["--threads", "--state-cap"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_threads_and_state_cap_must_be_positive(capsys, instance_path,
                                                command, flag, value):
    argv = [command, "--instance", instance_path, flag, value,
            "--trials", "10", "--seed", "1"]
    if command == "simulate":
        argv += ["--policy", "unused.json"]
    err = _argument_error(capsys, argv)
    assert f"argument {flag}: {value} is not a positive integer" in err


@pytest.mark.parametrize("command", ["solve", "transform"])
def test_state_cap_must_be_positive(capsys, instance_path, command):
    # transform enumerates no state, so it takes no --state-cap at all
    argv = [command, "--instance", instance_path, "--state-cap", "0"]
    if command == "solve":
        argv += ["--alg", "dp"]
    err = _argument_error(capsys, argv)
    assert ("argument --state-cap: 0 is not a positive integer"
            if command == "solve"
            else "unrecognized arguments: --state-cap 0") in err


MALFORMED_POLICIES = {
    "no rules": json.dumps({"scope": "root"}),
    "not json": "scope: root\n",
    "rule without tau": json.dumps(
        {"scope": "root", "rules": [{"t": 0, "state": [1, 1, 1], "p": 1.0}]}),
    "composed without element_block": json.dumps(
        {"scope": "composed", "blocks": {}, "counter_caps": {},
         "counter_keys": {}}),
    "no scope": json.dumps({"rules": []}),
    "counter without a cap": json.dumps(
        {"scope": "composed", "blocks": {}, "element_block": {},
         "counter_caps": {}, "counter_keys": {"0": ["shipping"]}}),
    "fractional counter cap": json.dumps(
        {"scope": "composed", "blocks": {}, "element_block": {},
         "counter_caps": {"shipping": 0.5}, "counter_keys": {}}),
}


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("shape", sorted(MALFORMED_POLICIES))
def test_malformed_policy_exits_6(tmp_path, instance_path, command, shape):
    pol = tmp_path / "p.json"
    pol.write_text(MALFORMED_POLICIES[shape])
    code, out, err = run_cli([command, "--instance", instance_path,
                              "--policy", str(pol), "--trials", "10",
                              "--seed", "1"])
    assert code == 6
    assert out == ""
    assert err.startswith("policy/instance mismatch: policy: ")


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("field, value", [("tau", "nan"), ("p", math.nan),
                                          ("p", 7.0), ("p", -0.5)])
def test_unexecutable_rule_exits_6(tmp_path, instance_path, command, field,
                                   value):
    # the DP's own policy with one rule no executor can follow: a NaN
    # price, or a coin bias outside [0, 1]
    pol = tmp_path / "p.json"
    code, _, _ = run_cli(["solve", "--instance", instance_path,
                          "--alg", "dp", "--policy-out", str(pol)])
    assert code == 0
    doc = json.loads(pol.read_text())
    doc["rules"][0][field] = value
    pol.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--instance", instance_path,
                              "--policy", str(pol), "--trials", "10",
                              "--seed", "1"])
    assert code == 6
    assert out == ""
    assert err.startswith("policy/instance mismatch: policy: malformed")


TWO_ELEMENT_INSTANCE = {
    "kind": "laminar",
    "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]}, {"dist": [[1.0, 1.0]]}],
    "bins": {"cap": 1, "children": [{"element": 0}, {"element": 1}]},
}


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("field, value", [
    ("t", 0.0), ("t", "0"), ("t", True), ("state", [True]),
    ("state", "1"), ("state", [1.0]), ("tau", "1.0"), ("tau", "Infinity"),
    ("tau", True), ("tau", None), ("p", True), ("p", "1.0"), ("p", [1.0]),
])
def test_rule_fields_of_the_wrong_json_type_exit_6(tmp_path, command, field,
                                                   value):
    # the DP's own policy with one rule field of another JSON type: t and
    # the state's entries are integers, p a number, tau a number or the
    # strings "inf" and "-inf" the writer emits
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(TWO_ELEMENT_INSTANCE))
    pol = tmp_path / "p.json"
    code, _, _ = run_cli(["solve", "--instance", str(inst), "--alg", "dp",
                          "--policy-out", str(pol)])
    assert code == 0
    doc = json.loads(pol.read_text())
    assert [rule["t"] for rule in doc["rules"]][0] == 0
    doc["rules"][0][field] = value
    pol.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--instance", str(inst), "--policy",
                              str(pol), "--trials", "10", "--seed", "1"])
    assert code == 6
    assert out == ""
    assert err.startswith("policy/instance mismatch: policy: malformed")


# element 2 sits in the root; elements 0 and 1 in bin 1 of capacity 1
TWO_BIN_INSTANCE = {
    "kind": "laminar",
    "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]}, {"dist": [[1.0, 1.0]]},
                 {"dist": [[0.0, 0.5], [3.0, 0.5]]}],
    "bins": {"cap": 3, "children": [
        {"cap": 1, "children": [{"element": 0}, {"element": 1}]},
        {"element": 2}]},
}


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("block, scope", [
    (None, "bin:abc"), (None, "bin:00"),
    ("bin:1", "bin:abc"), ("bin:1", "bin:01"), ("bin:1", "bin: 1"),
    ("bin:1", "bin:+1"), ("bin:1", "bin:-1"), ("bin:1", "bin:"),
    ("elem:2", "elem:7"), ("elem:2", "elem:-1"), ("elem:2", "elem:02"),
])
def test_policy_scope_keys_are_canonical_and_exist(tmp_path, command, block,
                                                   scope):
    # Renames the DP's root policy (block None), or one block of a composed
    # policy, to a scope that is not "root", "bin:b", "type:j" or "elem:e"
    # with a canonical index the instance has: an alias, a negative or
    # missing index or not a number at all.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(TWO_BIN_INSTANCE))
    pol = tmp_path / "p.json"
    alg = ["dp"] if block is None else ["hierarchy", "--delta", "0.9"]
    code, _, _ = run_cli(["solve", "--instance", str(inst), "--alg", *alg,
                          "--policy-out", str(pol)])
    assert code == 0
    doc = json.loads(pol.read_text())
    if block is None:
        doc["scope"] = scope
    else:
        assert sorted(doc["blocks"]) == ["bin:1", "elem:2"]
        doc["blocks"][scope] = dict(doc["blocks"].pop(block), scope=scope)
        doc["element_block"] = {e: scope if k == block else k
                                for e, k in doc["element_block"].items()}
    pol.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--instance", str(inst),
                              "--policy", str(pol), "--trials", "10",
                              "--seed", "1"])
    assert code == 6
    assert out == ""
    assert err.startswith("policy/instance mismatch: scope ")


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("scope", ["x", "elem:2", "elem:3", "root"])
def test_block_scope_other_than_its_key_exits_6(tmp_path, command, scope):
    # block "bin:1" of a composed policy whose own scope names something
    # else: an unknown scope, another block, an element the instance lacks
    # or the root
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(TWO_BIN_INSTANCE))
    pol = tmp_path / "p.json"
    code, _, _ = run_cli(["solve", "--instance", str(inst), "--alg",
                          "hierarchy", "--delta", "0.9", "--policy-out",
                          str(pol)])
    assert code == 0
    doc = json.loads(pol.read_text())
    doc["blocks"]["bin:1"]["scope"] = scope
    pol.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--instance", str(inst),
                              "--policy", str(pol), "--trials", "10",
                              "--seed", "1"])
    assert code == 6
    assert out == ""
    assert err.startswith("policy/instance mismatch: policy: malformed")
    assert f"block 'bin:1' has scope '{scope}'" in err


def test_verify_foreign_policy_scope_exits_6(tmp_path, instance_path):
    # a well-formed policy for a bin the instance does not have
    pol = tmp_path / "p.json"
    pol.write_text(json.dumps({"scope": "bin:9", "rules": []}))
    code, out, err = run_cli(["verify", "--instance", instance_path,
                              "--policy", str(pol), "--trials", "10"])
    assert code == 6
    assert out == ""
    assert "policy/instance mismatch" in err and "no such bin" in err


def test_policy_with_foreign_counter_exits_6(tmp_path, instance_path):
    # a well-formed composed policy metering a bin the instance lacks
    pol = tmp_path / "p.json"
    code, _, _ = run_cli(["solve", "--instance", instance_path,
                          "--alg", "ex-ante", "--policy-out", str(pol)])
    assert code == 0
    doc = json.loads(pol.read_text())
    doc["counter_caps"] = {"bin:7": 1}
    doc["counter_keys"] = {e: ["bin:7"] for e in doc["counter_keys"]}
    pol.write_text(json.dumps(doc))
    code, out, err = run_cli(["simulate", "--instance", instance_path,
                              "--policy", str(pol), "--trials", "10",
                              "--seed", "1"])
    assert code == 6
    assert out == ""
    assert "['bin:7'] are not capacities of the instance" in err


# a root of cap 5 over two cap-2 bins and three lone elements (6, 7, 8):
# at delta 0.5 the PTAS composes the bins and lone elements behind a root
# counter that every element keys
COUNTER_INSTANCE = {
    "kind": "laminar",
    "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]}] * 8,
    "bins": {"cap": 5, "children": [
        {"cap": 2, "children": [{"element": e} for e in (0, 1, 2)]},
        {"cap": 2, "children": [{"element": e} for e in (3, 4, 5)]},
        {"element": 6}, {"element": 7}]},
}


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("field", ["element_block", "counter_keys"])
@pytest.mark.parametrize("alias", ["07", "+7", " 7"])
def test_element_keys_are_canonical(tmp_path, command, field, alias):
    # an element key other than the decimal index itself would alias
    # element 7: read as an int, "07": [] in counter_keys would replace
    # element 7's keys and drop its root counter
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(COUNTER_INSTANCE))
    pol = tmp_path / "p.json"
    code, _, _ = run_cli(["solve", "--instance", str(inst), "--alg", "ptas",
                          "--epsilon", "0.2", "--delta", "0.5",
                          "--policy-out", str(pol)])
    assert code == 0
    doc = json.loads(pol.read_text())
    assert doc["counter_keys"]["7"] == ["bin:0"]
    doc[field][alias] = {"element_block": doc["element_block"]["7"],
                         "counter_keys": []}[field]
    pol.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--instance", str(inst),
                              "--policy", str(pol), "--trials", "10",
                              "--seed", "1"])
    assert code == 6
    assert out == ""
    assert err.startswith("policy/instance mismatch: policy: malformed")
    assert f"element key {alias!r} is not a decimal index" in err


def _without(keyed, key):
    return {k: v for k, v in keyed.items() if k != key}


LARGE_BRANCH = ["--alg", "ptas", "--epsilon", "0.2", "--delta", "0.5"]
# (instance, solve options, edit of the policy document): each document
# does not fit its instance
MISMATCHED_POLICIES = {
    "counter_keys-omits": (COUNTER_INSTANCE, LARGE_BRANCH, lambda d: {
        **d, "counter_keys": _without(d["counter_keys"], "7")}),
    "counter_keys-foreign": (COUNTER_INSTANCE, LARGE_BRANCH, lambda d: {
        **d, "counter_keys": {**d["counter_keys"], "99": []}}),
    "element_block-omits": (COUNTER_INSTANCE, LARGE_BRANCH, lambda d: {
        **d, "element_block": _without(d["element_block"], "7")}),
    "element_block-foreign": (COUNTER_INSTANCE, LARGE_BRANCH, lambda d: {
        **d, "element_block": {**d["element_block"], "99": "elem:7"}}),
    # at the default epsilon every bin is small: the root is the one block
    "small-branch-foreign-counter": (
        COUNTER_INSTANCE, ["--alg", "ptas"], lambda d: {
            **d, "counter_caps": {"bin:9": 1},
            "counter_keys": {**d["counter_keys"], "0": ["bin:9"]}}),
    "missing-block": (COUNTER_INSTANCE, LARGE_BRANCH, lambda d: {
        **d, "blocks": _without(d["blocks"], "bin:1")}),
    "extra-block": (COUNTER_INSTANCE, LARGE_BRANCH, lambda d: {
        **d, "blocks": {**d["blocks"],
                        "elem:3": {"scope": "elem:3", "rules": []}}}),
    "lone-type-block": (GAP_INSTANCE, ["--alg", "ex-ante"],
                        lambda d: d["blocks"]["type:0"]),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_POLICIES))
def test_mismatched_policy_exits_6_under_simulate_and_verify(tmp_path, case):
    instance, solve, edit = MISMATCHED_POLICIES[case]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    pol = tmp_path / "p.json"
    code, _, _ = run_cli(["solve", "--instance", str(inst), *solve,
                          "--policy-out", str(pol)])
    assert code == 0
    pol.write_text(json.dumps(edit(json.loads(pol.read_text()))))
    simulated, verified = (
        run_cli([command, "--instance", str(inst), "--policy", str(pol),
                 "--trials", "10", "--seed", "1"])
        for command in ("simulate", "verify"))
    assert simulated == verified
    code, out, err = simulated
    assert code == 6
    assert out == ""
    assert err.startswith("policy/instance mismatch: policy: ")


def test_verify_checks_the_fit_without_compiling_the_policy(tmp_path,
                                                           monkeypatch):
    instance, solve, edit = MISMATCHED_POLICIES["counter_keys-omits"]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    pol = tmp_path / "p.json"
    code, _, _ = run_cli(["solve", "--instance", str(inst), *solve,
                          "--policy-out", str(pol)])
    assert code == 0
    pol.write_text(json.dumps(edit(json.loads(pol.read_text()))))

    def no_plan(*args):
        raise AssertionError("verify compiled the supplied policy")

    # the decision tables are what simulate compiles; the fit needs none
    monkeypatch.setattr(harness, "Plan", no_plan)
    code, out, err = run_cli(["verify", "--instance", str(inst), "--policy",
                              str(pol), "--trials", "10", "--seed", "1"])
    assert (code, out) == (6, "")
    assert err.startswith("policy/instance mismatch: policy: counter_keys ")


def _unreadable(tmp_path, shape, name):
    path = tmp_path / name
    if shape == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"scope": "\xff"}')
    return str(path)


@pytest.mark.parametrize("command", ["solve", "simulate", "verify"])
@pytest.mark.parametrize("shape", ["directory", "not UTF-8"])
def test_unreadable_instance_exits_2(tmp_path, command, shape):
    argv = [command, "--instance", _unreadable(tmp_path, shape, "inst.json")]
    if command == "solve":
        argv += ["--alg", "dp"]
    else:
        argv += ["--trials", "10", "--seed", "1"]
    if command == "simulate":
        argv += ["--policy", str(tmp_path / "p.json")]  # never opened
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith({"directory": "cannot open file: ",
                           "not UTF-8": "invalid instance: instance: "
                                        "not UTF-8 text"}[shape])


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("shape", ["directory", "not UTF-8"])
def test_unreadable_policy_exits(tmp_path, instance_path, command, shape):
    code, out, err = run_cli([command, "--instance", instance_path,
                              "--policy", _unreadable(tmp_path, shape, "p.json"),
                              "--trials", "10", "--seed", "1"])
    want_code, want_err = {
        "directory": (2, "cannot open file: "),
        "not UTF-8": (6, "policy/instance mismatch: policy: not UTF-8 text"),
    }[shape]
    assert code == want_code
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(want_err)


# JSON alone keeps the last of two equal keys; a document must not rely on
# which one that is
DUPLICATE_KEY_INSTANCE = (
    '{"kind": "laminar", "elements": [{"dist": [[1.0, 1.0]]}], '
    '"bins": {"cap": 1, "cap": 2, "children": [{"element": 0}]}}')


@pytest.mark.parametrize("command", ["solve", "simulate", "verify"])
def test_instance_with_a_repeated_key_exits_2(tmp_path, command):
    inst = tmp_path / "inst.json"
    inst.write_text(DUPLICATE_KEY_INSTANCE)
    argv = [command, "--instance", str(inst)]
    if command == "solve":
        argv += ["--alg", "dp"]
    else:
        argv += ["--trials", "10", "--seed", "1"]
    if command == "simulate":
        argv += ["--policy", str(tmp_path / "p.json")]  # never opened
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err == ("invalid instance: instance: invalid JSON "
                   "(repeated key 'cap')\n")


def _two_element_dp_policy(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(TWO_ELEMENT_INSTANCE))
    pol = tmp_path / "p.json"
    code, _, _ = run_cli(["solve", "--instance", str(inst), "--alg", "dp",
                          "--policy-out", str(pol)])
    assert code == 0
    return str(inst), pol


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("shape", ["scope twice", "rule twice"])
def test_policy_that_repeats_a_key_or_a_rule_exits_6(tmp_path, command,
                                                     shape):
    inst, pol = _two_element_dp_policy(tmp_path)
    doc = json.loads(pol.read_text())
    if shape == "scope twice":
        text = '{"scope": "bin:0", ' + json.dumps(doc)[1:]
        want = "invalid JSON (repeated key 'scope')"
    else:
        # the same (t, state) again, with a rule that never sells
        doc["rules"].append({**doc["rules"][0], "tau": "inf", "p": 0.0})
        text = json.dumps(doc)
        want = "repeats an earlier t and state"
    pol.write_text(text)
    code, out, err = run_cli([command, "--instance", inst, "--policy",
                              str(pol), "--trials", "10", "--seed", "1"])
    assert code == 6
    assert out == ""
    assert err.startswith("policy/instance mismatch: policy: ")
    assert want in err
