"""Batch command-line front end.

Sub-commands::

    binprice solve     --instance f.json --alg dp|lp-opt|ex-ante|hierarchy|ptas
    binprice simulate  --instance f.json --policy p.json --trials N --seed S
    binprice verify    --instance f.json [--policy p.json] [--search]
    binprice transform --instance f.json

Reports go to stdout (or ``--output``) as JSON or CSV; diagnostics go to
stderr.  Exit codes: 0 ok, 2 invalid instance (or a missing or unreadable
file), 3 state-space cap exceeded, 4 LP failure (a DP point the
certificate rejects, or a dual search past ``dp.DUAL_ITERATIONS`` steps),
5 verification property failed, 6 policy/instance mismatch (or a malformed
policy document), 7 a report number not finite (the report is not
written).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness, lp, myerson, ptas
from .dp import concavity_check, solve_full_dp, solve_subproblem_dp
from .model import (
    DEFAULT_STATE_CAP,
    InstanceError,
    LaminarInstance,
    ProductionInstance,
    SizingError,
    as_laminar,
    bind_dynamics,
    load_instance,
    serialize_instance,
    small_bins,
    small_units,
)
from .rounding import (
    PolicyError,
    RoundingError,
    compose_policies,
    extract_all,
    extract_pricing,
    mark_laminar,
    policy_from_json,
    policy_to_json,
)

EXIT_OK = 0
EXIT_INSTANCE = 2
EXIT_SIZING = 3
EXIT_LP = 4
EXIT_PROPERTY = 5
EXIT_MISMATCH = 6
EXIT_REPORT = 7


class ReportError(ValueError):
    """A report holds a number JSON cannot write, such as infinity."""


def _diag(msg):
    print(msg, file=sys.stderr)


def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(doc, fmt, path, csv_rows=None):
    try:  # in either format, refuse what JSON cannot write
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ReportError(str(exc)) from None
    if fmt == "csv":
        rows = csv_rows if csv_rows is not None else [
            (k, v, "", doc.get("trials", ""), doc.get("seed", ""))
            for k, v in doc.items()
            if isinstance(v, (int, float, str))]
        _emit(harness.report_to_csv(rows), path)
    else:
        _emit(text + "\n", path)


def _ptas(inst, cfg, **kwargs) -> ptas.PtasResult:
    if isinstance(inst, ProductionInstance):
        return ptas.ptas_production(inst, cfg, **kwargs)
    return ptas.ptas_laminar(inst, cfg, **kwargs)


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    state_cap = args.state_cap
    doc = {"command": "solve", "algorithm": args.alg}
    policy = None
    if args.alg == "dp":
        table, policy = solve_full_dp(as_laminar(inst), state_cap=state_cap)
        doc["objective"] = table.optimal
    elif args.alg == "lp-opt":
        built = lp.build_lp_optimal(as_laminar(inst), state_cap=state_cap)
        sol = lp.solve(built.model)
        policy = extract_pricing(sol, built, "root")
        doc["objective"] = sol.objective
        doc["engine"] = sol.engine
    elif args.alg == "ex-ante":
        if not isinstance(inst, ProductionInstance):
            raise InstanceError("ex-ante solve requires a production instance")
        built = lp.build_lp_exante(inst, args.scale, state_cap=state_cap)
        sol = lp.solve(built.model)
        policy = compose_policies(inst, extract_all(sol, built))
        doc["objective"] = sol.objective
        doc["engine"] = sol.engine
        doc["capacity_scale"] = args.scale
    elif args.alg == "hierarchy":
        lam = as_laminar(inst)
        delta = args.delta if args.delta else ptas.delta_of(args.epsilon)
        mk = mark_laminar(lam, delta)
        built = lp.build_lp_hierarchy(lam, mk, args.scale, state_cap=state_cap)
        sol = lp.solve(built.model)
        policy = compose_policies(lam, extract_all(sol, built), mk)
        doc["objective"] = sol.objective
        doc["engine"] = sol.engine
        doc["capacity_scale"] = args.scale
        doc["marking"] = {"large": sorted(mk.large),
                          "small_maximal": sorted(small_bins(lam, mk)[0])}
    else:  # ptas
        cfg = ptas.PtasConfig(epsilon=args.epsilon, delta=args.delta)
        result = _ptas(inst, cfg, state_cap=state_cap)
        policy = result.policy
        doc["objective"] = result.objective
        doc["branch"] = result.branch
        doc["lp"] = result.lp_kind
        doc["epsilon"] = cfg.epsilon
        doc["delta"] = cfg.resolved_delta
        if result.marking is not None:
            doc["marking"] = result.marking_summary(inst)
    if args.policy_out and policy is not None:
        _emit(policy_to_json(policy), args.policy_out)
        doc["policy_path"] = args.policy_out
    elif policy is not None and args.format == "json":
        doc["policy"] = policy.to_json_dict()
    _report(doc, args.format, args.output)
    return EXIT_OK


def _load_policy(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise PolicyError(f"policy: not UTF-8 text ({exc})") from None
    return policy_from_json(text)


def cmd_simulate(args) -> int:
    inst = load_instance(args.instance)
    policy = _load_policy(args.policy)
    try:
        report = harness.simulate(policy, inst, args.trials, args.seed,
                                  threads=args.threads,
                                  state_cap=args.state_cap)
    except (InstanceError, harness.CoverageError) as exc:
        _diag(f"policy/instance mismatch: {exc}")
        return EXIT_MISMATCH
    doc = {"command": "simulate", **report.to_json_dict()}
    _report(doc, args.format, args.output, csv_rows=report.to_csv_rows())
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    given = _load_policy(args.policy) if args.policy else None
    lam = as_laminar(inst)
    state_cap = args.state_cap
    checks = []
    if given is not None:
        try:  # a policy simulate would refuse is a mismatch here too
            harness.fit_policy(given, inst)
        except InstanceError as exc:
            _diag(f"policy/instance mismatch: {exc}")
            return EXIT_MISMATCH

    table, _ = solve_full_dp(lam, state_cap=state_cap)
    dp_value = table.optimal
    # the instance keeps each unit's DP for the LPs, the PTAS and the checks
    built1 = lp.build_lp_optimal(lam, state_cap=state_cap)
    sol1 = lp.solve(built1.model)
    checks.append(("lp-opt equals dp", abs(sol1.objective - dp_value) <= 1e-6,
                   f"lp={sol1.objective!r} dp={dp_value!r} "
                   f"engine={sol1.engine}"))

    lp_policy = extract_pricing(sol1, built1, "root")
    welfare, trace = harness.evaluate_exact(lp_policy, lam, state_cap=state_cap)
    ydev = _trace_deviation(sol1, built1, trace)
    checks.append(("rounding exactness",
                   abs(welfare - sol1.objective) <= 1e-6 and ydev <= 1e-7,
                   f"welfare={welfare!r} ydev={ydev!r}"))

    if given is not None:
        try:
            got, _ = harness.evaluate_exact(given, inst, state_cap=state_cap)
            ok = abs(got - sol1.objective) <= 1e-6
        except harness.CoverageError as exc:
            got, ok = None, False
            _diag(f"supplied policy does not cover the instance: {exc}")
        checks.append(("supplied policy exactness", ok,
                       f"welfare={got!r} lp={sol1.objective!r}"))

    cfg = ptas.PtasConfig(epsilon=args.epsilon, delta=args.delta)
    production = isinstance(inst, ProductionInstance)
    mk = None if production else mark_laminar(lam, cfg.resolved_delta)
    if production:
        built2 = lp.build_lp_exante(inst, 1.0, state_cap=state_cap)
        sol2 = lp.solve(built2.model)
        checks.append(("ex-ante relaxes dp", sol2.objective >= dp_value - 1e-6,
                       f"exante={sol2.objective!r} dp={dp_value!r} "
                       f"engine={sol2.engine}"))
        for key, buyers in small_units(inst).items():
            j = bind_dynamics(key, inst).type_index
            # gated on the summed form the concentration bound uses; the
            # per-subset form, which optimal chains can fail, is reported
            # where its 2^l subsets are affordable
            ok, k, gap = harness.check_summed_cylinder(inst, j, 0.0)
            if len(buyers) <= harness.PER_SUBSET_MAX_BUYERS:
                _, subset, subset_gap = harness.check_negative_cylinder(
                    inst, j, 0.0)
                per_subset = f"worst subset={subset} gap={subset_gap!r}"
            else:
                per_subset = (f"not computed ({len(buyers)} buyers > "
                              f"{harness.PER_SUBSET_MAX_BUYERS})")
            checks.append((f"negative cylinder type {j}", ok,
                           f"summed worst k={k} gap={gap!r}; "
                           f"per-subset {per_subset}"))
            conc, worst = concavity_check(solve_subproblem_dp(inst, j))
            checks.append((f"value concavity type {j}", conc, f"worst={worst}"))
    else:
        # the relaxation at this run's own marking; with no large bin it
        # is the exact program already solved above
        sol4 = sol1
        if mk.large:
            built4 = lp.build_lp_hierarchy(lam, mk, 1.0, state_cap=state_cap)
            sol4 = lp.solve(built4.model)
        checks.append(("hierarchy relaxes dp",
                       sol4.objective >= dp_value - 1e-6,
                       f"hierarchy={sol4.objective!r} dp={dp_value!r} "
                       f"engine={sol4.engine}"))

    result = _ptas(inst, cfg, state_cap=state_cap)
    sim = harness.simulate(result.policy, inst, args.trials, args.seed,
                           threads=args.threads, state_cap=state_cap)
    checks.append(("feasibility simulation", sim.total_violations == 0,
                   f"violations={sim.total_violations}"))

    doc = {"command": "verify",
           "checks": [{"name": n, "ok": ok, "detail": d}
                      for n, ok, d in checks]}
    if args.search and isinstance(inst, LaminarInstance):
        hits = harness.search_dependency_counterexample(inst.dists)
        doc["counterexample"] = ([
            {"tree": h.tree, "price_after_pick": h.price_after_pick,
             "price_after_skip": h.price_after_skip} for h in hits[:5]]
            if hits else "no hit")
    failed = [n for n, ok, _ in checks if not ok]
    doc["ok"] = not failed
    _report(doc, args.format, args.output)
    if failed:
        _diag("failed properties: " + ", ".join(failed))
        return EXIT_PROPERTY
    return EXIT_OK


def _trace_deviation(sol, built, trace) -> float:
    """The largest gap between the root block's replayed state
    probabilities (``evaluate_exact``'s trace) and the LP's ``Y``."""
    info = built.block("root")  # its Y columns run from y[0] to xc[0]
    y = sol.x[info.y[0]:info.xc[0]]
    return float(np.abs(np.concatenate(trace) - y).max())


def cmd_transform(args) -> int:
    inst = load_instance(args.instance)
    try:
        out = myerson.revenue_transform(inst)
    except ValueError as exc:
        raise InstanceError(str(exc)) from None
    _report(serialize_instance(out), "json", args.output)
    return EXIT_OK


def _bounded(kind, ok, requirement):
    """argparse type: parse with ``kind`` and reject values failing ``ok``."""

    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {requirement}")
        return value

    parse.__name__ = kind.__name__  # "invalid int value: ..." on bad syntax
    return parse


_positive = _bounded(int, lambda v: v >= 1, "a positive integer")
# trial substreams are keyed by the seed's 64 bits; nothing may alias
_seed = _bounded(int, lambda v: 0 <= v < 2 ** 64, "in [0, 2^64)")
_epsilon = _bounded(float, lambda v: 0.0 < v < ptas.EPSILON_MAX,
                    f"in (0, {ptas.EPSILON_MAX})")
_delta = _bounded(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_scale = _bounded(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binprice",
        description="Posted-price policies for Bayesian online selection "
                    "under production and laminar capacity constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, fmt=True):
        sp.add_argument("--instance", required=True, help="instance JSON path")
        sp.add_argument("--output", default=None, help="report path (stdout)")
        if fmt:
            sp.add_argument("--format", choices=("json", "csv"),
                            default="json")
            sp.add_argument("--state-cap", type=_positive,
                            default=DEFAULT_STATE_CAP)

    sp = sub.add_parser("solve", help="solve an instance")
    common(sp)
    sp.add_argument("--alg", required=True,
                    choices=("dp", "lp-opt", "ex-ante", "hierarchy", "ptas"))
    sp.add_argument("--epsilon", type=_epsilon, default=0.2)
    sp.add_argument("--delta", type=_delta, default=None)
    sp.add_argument("--scale", type=_scale, default=1.0,
                    help="capacity scale for ex-ante/hierarchy")
    sp.add_argument("--policy-out", default=None,
                    help="write the policy JSON here instead of inline")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("simulate", help="simulate a policy")
    common(sp)
    sp.add_argument("--policy", required=True, help="policy JSON path")
    sp.add_argument("--trials", type=_positive, required=True)
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("--threads", type=_positive, default=1)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="run the property checks")
    common(sp)
    sp.add_argument("--policy", default=None,
                    help="externally supplied policy to check")
    sp.add_argument("--trials", type=_positive, default=2000)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--threads", type=_positive, default=1)
    sp.add_argument("--epsilon", type=_epsilon, default=0.2)
    sp.add_argument("--delta", type=_delta, default=None)
    sp.add_argument("--search", action="store_true",
                    help="also search for a conditional-price drop")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("transform",
                        help="rewrite values as ironed virtual values")
    common(sp, fmt=False)
    sp.set_defaults(func=cmd_transform)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    derives_delta = args.command == "verify" or (
        args.command == "solve" and args.alg in ("ptas", "hierarchy"))
    if derives_delta and args.delta is None:
        try:
            ptas.delta_of(args.epsilon)
        except ValueError as exc:
            parser.error(f"argument --epsilon: {exc}")
    try:
        return args.func(args)
    except InstanceError as exc:
        for msg in exc.violations:
            _diag(f"invalid instance: {msg}")
        return EXIT_INSTANCE
    except FileNotFoundError as exc:
        _diag(f"missing file: {exc}")
        return EXIT_INSTANCE
    except (IsADirectoryError, PermissionError) as exc:
        _diag(f"cannot open file: {exc}")
        return EXIT_INSTANCE
    except SizingError as exc:
        _diag(str(exc))
        return EXIT_SIZING
    except (lp.LpError, RoundingError) as exc:
        _diag(f"lp failure: {exc}")
        return EXIT_LP
    except PolicyError as exc:
        _diag(f"policy/instance mismatch: {exc}")
        return EXIT_MISMATCH
    except ReportError as exc:
        _diag(f"report not written: {exc}")
        return EXIT_REPORT


if __name__ == "__main__":
    sys.exit(main())
