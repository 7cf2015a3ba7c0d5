"""binprice benchmark: one workload per invocation, timed, checked, printed.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 32 --trace 0

Workloads (see README.md for why each exists): ``corpus``,
``production-n200``, ``laminar-depth2``.  The instances are fixed per
workload; ``--seed`` seeds every Monte Carlo stream (``simulate`` and the
prophet benchmark), so one seed always gives the same inputs and outputs.

One process, one closed-loop caller.  The run repeats rounds, each over
the next slice of 25 instances, until ``--seconds`` have passed and every
slice has had a round.  Each round starts with set-ups (a fresh import of
binprice, then generating the instances, writing their documents and
parsing them back), as many as take SETUP_MIN_S, then solves its
instances with the PTAS to policy JSON (``solve``), runs the exactness
chain (``exact``), simulates each policy (``simulate``) and samples the
prophet benchmark (``prophet``).  A fixed reference task before and after
the round scales its timings to one machine speed (see ``end_to_end``).
Every round's outputs must match those of the first round over its slice,
every exactness gate must hold, and one policy is simulated at 1 and
``nproc`` threads with byte-identical reports; each miss counts as a
failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, then runs the ``binprice`` CLI in process, and
prints the per-layer metrics derived from the spans; the spans themselves go
to ``.bench_out/``.  The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SLICE = 25              # instances per round of a plain run
PHASES = ("solve", "exact", "simulate", "prophet")
SETUP_MIN_S = 0.15      # set-ups per round: as many as fill this time
REFERENCE_CALLS = 150   # size of the reference task
REFERENCE_S = 0.003     # near its median time on the tuning machine
TRACED_LOADS = 9
GATE_TOL = 1e-6
VERIFY_TRIALS = 2000


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "production-n200", "laminar-depth2"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def percentile(xs, q):
    import numpy as np
    return float(np.percentile(np.asarray(xs), q))


def environment(nproc):
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": nproc,
           "machine": platform.machine(), "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        env["caches"][f"L{level}-{kind}"] = size
    return env


# ---------------------------------------------------------------------------
# The work
# ---------------------------------------------------------------------------


class Bench:
    """Runs one workload's rounds and keeps the failures seen."""

    def __init__(self, workload, seed, workdir, nproc):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.nproc = nproc
        self.attempted = 0
        self.failures = []
        self.instances = []
        self.paths = []

    # -- bookkeeping ------------------------------------------------------

    def op(self, what, fn, *args):
        """Run one operation; an exception counts it as failed.  ``what``
        is a tuple, joined into a label only on failure."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            label = " ".join(map(str, what))
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return False, None

    def gate(self, what, errors):
        """A checked operation whose error messages count it as failed."""
        self.attempted += 1
        if errors:
            self.failures.append(f"{what}: " + "; ".join(errors[:3]))

    # -- set-up -----------------------------------------------------------

    def setup(self):
        """Import binprice afresh, then ``load``; returns the seconds taken.
        numpy and scipy stay imported: they are not the program's."""
        t0 = time.perf_counter()
        for name in [k for k in sys.modules
                     if k in ("binprice", "workloads")
                     or k.startswith("binprice.")]:
            del sys.modules[name]
        import workloads
        from binprice import cli, dp, harness, lp, model, myerson, ptas, rounding
        self.m, self.dp, self.lp, self.rounding = model, dp, lp, rounding
        self.ptas, self.harness, self.myerson, self.cli = (ptas, harness,
                                                           myerson, cli)
        self.wl = workloads.WORKLOADS[self.workload]
        self.sim_threads = self.nproc if self.wl.multi_thread else 1
        self.load()
        return time.perf_counter() - t0

    def load(self):
        """Generate the instances, write their documents, parse them back."""
        generated = self.wl.make()
        paths = []
        for i, inst in enumerate(generated):
            path = self.workdir / f"instance-{i}.json"
            self.m.dump_instance(inst, path)
            paths.append(path)
        parsed = []
        for path in paths:
            inst = self.m.load_instance(path)
            errs = self.m.validate(inst)
            if errs:
                raise self.m.InstanceError(errs)
            parsed.append(inst)
        self.instances, self.paths = parsed, paths

    # -- one round --------------------------------------------------------

    def solve_one(self, inst, cfg):
        if isinstance(inst, self.m.ProductionInstance):
            result = self.ptas.ptas_production(inst, cfg)
        else:
            result = self.ptas.ptas_laminar(inst, cfg)
        return result.policy, self.rounding.policy_to_json(result.policy)

    def simulate_one(self, policy, inst, trials, threads):
        return self.harness.simulate(policy, inst, trials, self.seed,
                                     threads=threads)

    def transform_one(self, inst):
        out = self.myerson.revenue_transform(inst)
        return json.dumps(self.m.serialize_instance(out), sort_keys=True)

    def exact_one(self, inst):
        """The verify chain: DP optimum, relaxation bound, and where the
        exact LP is affordable its rounding replay.  Returns the DP optimum
        and the missed gates.  The negative-cylinder property is known to
        fail on some optimal chains, so its result is never a gate (the
        traced run counts its violations)."""
        lam = self.m.as_laminar(inst)
        table, _ = self.dp.solve_full_dp(lam)
        opt = table.optimal
        errors = []
        if isinstance(inst, self.m.ProductionInstance):
            bound = self.lp.build_lp_exante(inst, 1.0)
        else:
            mk = self.rounding.mark_laminar(lam, self.wl.configs[-1].delta)
            bound = self.lp.build_lp_hierarchy(lam, mk, 1.0)
        sol = self.lp.solve_optimal(bound.model)
        errors += self.lp.check_solution(bound.model, sol)
        if sol.objective < opt - GATE_TOL:
            errors.append(f"relaxation {sol.objective!r} below dp {opt!r}")
        if self.wl.desk_scale:
            built = self.lp.build_lp_optimal(lam)
            sol1 = self.lp.solve_optimal(built.model)
            errors += self.lp.check_solution(built.model, sol1)
            pol = self.rounding.extract_pricing(sol1, built, "root")
            welfare, trace = self.harness.evaluate_exact(pol, lam)
            ydev = self.cli._trace_deviation(sol1, built, trace)
            if abs(sol1.objective - opt) > GATE_TOL:
                errors.append(f"lp-opt {sol1.objective!r} != dp {opt!r}")
            if abs(welfare - sol1.objective) > GATE_TOL or ydev > GATE_TOL:
                errors.append(f"rounding replay off: welfare {welfare!r} "
                              f"vs lp {sol1.objective!r}, ydev {ydev!r}")
            if isinstance(inst, self.m.ProductionInstance):
                for j in range(inst.num_types):
                    if not 0 < len(inst.buyers_of_type(j)) <= 12:
                        continue
                    self.harness.check_negative_cylinder(inst, j, 0.0)
                    chain = self.dp.solve_subproblem_dp(inst, j, 0.0)
                    conc, worst = self.dp.concavity_check(chain)
                    if not conc:
                        errors.append(f"type {j} value not concave: {worst}")
        return opt, errors

    def run_round(self, phase, indices):
        """One round over the instances at ``indices``; returns phase
        times, solve latencies keyed by (instance, setting), the simulated
        and optimal welfare, and a fingerprint of every output, which later
        rounds over the same instances must reproduce."""
        wl = self.wl
        times, latencies = {}, {}
        policies = {}
        fp = hashlib.sha256()

        with phase("solve"):
            t0 = time.perf_counter()
            for i in indices:
                inst = self.instances[i]
                for k, cfg in enumerate(wl.configs):
                    a = time.perf_counter()
                    ok, out = self.op(("solve", i, cfg), self.solve_one,
                                      inst, cfg)
                    latencies[i, k] = time.perf_counter() - a
                    if ok:
                        fp.update(out[1].encode())
                        if k == 0:
                            policies[i] = out[0]
                ok, text = self.op(("transform", i), self.transform_one, inst)
                if ok:
                    fp.update(text.encode())
            times["solve"] = time.perf_counter() - t0

        optima = {}
        with phase("exact"):
            t0 = time.perf_counter()
            for i in indices:
                ok, out = self.op(("exact", i), self.exact_one,
                                  self.instances[i])
                if ok:
                    optima[i], errors = out
                    self.gate(f"exactness #{i}", errors)
                    fp.update(repr(optima[i]).encode())
            times["exact"] = time.perf_counter() - t0

        reports = {}
        with phase("simulate"):
            t0 = time.perf_counter()
            for i in indices:
                if i not in policies:
                    self.gate(f"simulate #{i}", ["no policy to simulate"])
                    continue
                ok, rep = self.op(("simulate", i), self.simulate_one,
                                  policies[i], self.instances[i],
                                  wl.sim_trials, self.sim_threads)
                if ok:
                    reports[i] = rep
                    fp.update(report_bytes(rep))
            times["simulate"] = time.perf_counter() - t0
        for i, rep in reports.items():
            self.gate(f"capacity #{i}",
                      [f"{rep.total_violations} violations"]
                      if rep.total_violations else [])

        with phase("prophet"):
            t0 = time.perf_counter()
            for i in indices:
                ok, samples = self.op(("prophet", i),
                                      self.harness.prophet_samples,
                                      self.instances[i], wl.prophet_trials,
                                      self.seed)
                if ok:
                    fp.update(samples.tobytes())
            times["prophet"] = time.perf_counter() - t0

        both = [i for i in reports if i in optima]
        return {"times": times, "latencies": latencies,
                "fingerprint": fp.hexdigest(),
                "welfare": (sum(reports[i].mean for i in both),
                            sum(optima[i] for i in both))}

    # -- checks and the CLI outside the rounds -------------------------------

    def check_threads(self, index):
        """One policy, solved afresh, must report identically at 1 and
        ``nproc`` threads."""
        inst = self.instances[index]
        ok, out = self.op(("solve", index), self.solve_one, inst,
                          self.wl.configs[0])
        if not ok:
            return
        policy = out[0]
        trials = 4 * self.harness.CHUNK
        reps = []
        for threads in (1, self.nproc):
            ok, rep = self.op(("simulate threads", threads),
                              self.simulate_one, policy, inst, trials, threads)
            reps.append(report_bytes(rep) if ok else None)
        self.gate("thread determinism",
                  [] if reps[0] is not None and reps[0] == reps[1]
                  else [f"reports differ between 1 and {self.nproc} threads"])

    def run_cli(self, index):
        """``binprice solve``/``simulate`` (and ``verify`` on the corpus)
        in process on one instance."""
        inst_path = str(self.paths[index])
        policy = str(self.workdir / "cli-policy.json")
        out = self.workdir / "cli-report.json"
        cfg = self.wl.configs[0]
        solve = ["solve", "--instance", inst_path, "--alg", "ptas",
                 "--epsilon", repr(cfg.epsilon), "--policy-out", policy,
                 "--output", str(out)]
        if cfg.delta is not None:
            solve += ["--delta", repr(cfg.delta)]
        simulate = ["simulate", "--instance", inst_path, "--policy", policy,
                    "--trials", str(self.wl.sim_trials), "--seed",
                    str(self.seed), "--threads", str(self.sim_threads),
                    "--output", str(out)]
        verify = ["verify", "--instance", inst_path, "--trials",
                  str(VERIFY_TRIALS), "--seed", str(self.seed),
                  "--output", str(out)]
        for argv in [solve, simulate] + ([verify] if self.wl.desk_scale
                                         else []):
            ok, code = self.op(("cli", argv[0]), self.cli.main, argv)
            if not ok:
                continue
            errors = [] if code == 0 else [f"exit code {code}"]
            if argv[0] == "verify" and code == 5:
                # only the known-false cylinder property may fail
                doc = json.loads(out.read_text(encoding="utf-8"))
                errors = [c["name"] for c in doc["checks"]
                          if not c["ok"]
                          and not c["name"].startswith("negative cylinder")]
            self.gate(f"cli {argv[0]}", errors)


def report_bytes(rep) -> bytes:
    return json.dumps(rep.to_json_dict(), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def reference_s():
    """Seconds the reference task takes now, the median of three runs of
    it, so that one preempted run does not count.  The task is Python-level
    calls into numpy, per-trial generator construction and small-array
    operations, the kind of work binprice's own calls are made of.  It uses
    no binprice code, so no change to the program moves it; only the
    machine's speed does."""
    import numpy as np
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        for t in range(REFERENCE_CALLS):
            x = np.random.Generator(np.random.Philox(t)).random(64)
            float(np.maximum(x, 0.5).sum())
        runs.append(time.perf_counter() - t0)
    return median(runs)


def end_to_end(bench, rounds, scaled=True):
    """Each timing is the median of its samples: set-ups, or one phase of
    the rounds over one slice of the instances, summed over the slices.
    Rates divide the trials by such a timing, and the solve latencies are
    percentiles over (instance, setting) pairs of each pair's median.

    With ``scaled`` every sample is first multiplied by REFERENCE_S over
    the mean reference time just before and after its step: the timings
    then read as on the machine the benchmark was tuned on, at one fixed
    speed.  That machine's speed changed by up to 1.6 times, in stretches
    that could outlast a run, while binprice's times over the reference
    task's stayed within a few percent."""
    wl = bench.wl
    n = len(bench.instances)
    by_slice = {}
    for r in rounds:
        by_slice.setdefault(r["slice"], []).append(r)

    def at(r, step, secs):
        if not scaled:
            return secs
        before, after = r["references"][step]
        return secs * 2 * REFERENCE_S / (before + after)

    def phase_s(phase):
        return sum(median([at(r, phase, r["times"][phase]) for r in rs])
                   for rs in by_slice.values())

    latencies = {}
    for r in rounds:
        for key, secs in r["latencies"].items():
            latencies.setdefault(key, []).append(at(r, "solve", secs))
    typical = [median(xs) for xs in latencies.values()]
    welfare = [rs[0]["welfare"] for rs in by_slice.values()]
    simulated = sum(w[0] for w in welfare)
    best = sum(w[1] for w in welfare)

    return {
        "setup_s": (median([at(r, "setup", secs) for r in rounds
                            for secs in r["setups"]]), "s"),
        "solve_s": (phase_s("solve"), "s"),
        "solve_p50_ms": (percentile(typical, 50) * 1e3, "ms"),
        "solve_p95_ms": (percentile(typical, 95) * 1e3, "ms"),
        "exact_s": (phase_s("exact"), "s"),
        "simulate_trials_per_s": (n * wl.sim_trials / phase_s("simulate"),
                                  "trials/s"),
        "prophet_trials_per_s": (n * wl.prophet_trials / phase_s("prophet"),
                                 "trials/s"),
        "welfare_ratio": (simulated / best if best else float("nan"),
                          "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(tracer, setup_roots, round_roots, cli_root, rng_s, walls):
    import spans as sp
    S = tracer.spans
    setup_groups = [sp.subtree(S, r) for r in setup_roots]
    groups = [sp.subtree(S, r) for r in round_roots]

    def timed(names):
        return median([sp.seconds(g, set(names)) for g in groups])

    def counts(g):
        named = {}
        for s in g:
            named.setdefault(s[2], []).append(s[5])

        def total(name, key):
            return sum(a.get(key, 0) for a in named.get(name, []))

        builds = ("lp.build_lp_optimal", "lp.build_lp_exante",
                  "lp.build_lp_hierarchy")
        lp_vars = sum(total(b, "vars") for b in builds)
        solves = named.get("lp.solve", [])
        sims = named.get("harness.simulate", [])
        arrivals = sum(a["trials"] * a["n"] for a in sims)
        ptas_runs = (named.get("ptas.ptas_production", [])
                     + named.get("ptas.ptas_laminar", []))
        return {
            "model.states": total("model.reachable_profile", "states"),
            "model.widest_level": max(
                [a["widest"] for a in named.get("model.reachable_profile", [])]
                or [0]),
            "model.forbidden_states": total("model.reachable_profile",
                                            "forbidden"),
            "lp.vars": lp_vars,
            "lp.rows": sum(total(b, "rows") for b in builds),
            "lp.nnz": sum(total(b, "nnz") for b in builds),
            "lp.forbidden_var_fraction": (
                sum(total(b, "forbidden_vars") for b in builds) / lp_vars
                if lp_vars else 0.0),
            "lp.simplex_pivots": sum(a["iterations"] for a in solves
                                     if a["engine"] == "simplex"),
            "lp.highs_iterations": sum(a["iterations"] for a in solves
                                       if a["engine"] == "highs"),
            "rounding.rules": total("rounding.extract_pricing", "rules"),
            "rounding.policy_bytes": total("rounding.policy_to_json", "bytes"),
            "ptas.large_branch": sum(a["branch"] == "large" for a in ptas_runs),
            "harness.uniforms": 2 * arrivals,
            "harness.blocked_fraction": (
                sum(a["ignored"] for a in sims) / arrivals if arrivals else 0.0),
            "harness.cylinder_violations": sum(
                not a["ok"] for a in named.get("harness.check_negative_cylinder",
                                               [])),
        }

    def engine_seconds(g, engine):
        return sum(s[4] - s[3] for s in g
                   if s[2] == "lp.solve" and s[5].get("engine") == engine) / 1e9

    round_counts = [counts(g) for g in groups]
    # counts are a function of the inputs alone
    mismatched = [f"traced round {i} counts differ from round 1"
                  for i, c in enumerate(round_counts[1:], start=2)
                  if c != round_counts[0]]
    first = groups[0]
    residuals = [sp.max_residual(s[5]["model"], s[5]["solution"])
                 for s in first if s[2] == "lp.check_solution"]
    sims = [s for g in groups for s in g if s[2] == "harness.simulate"]
    sim_wall = sum(s[4] - s[3] for s in sims) / 1e9
    cli_group = sp.subtree(S, cli_root)

    def cli_seconds(command):
        return sum(s[4] - s[3] for s in cli_group
                   if s[2] == "cli.main" and s[5].get("command") == command) / 1e9

    selfs = [sp.self_times(g) for g in groups]
    out = {
        "model.parse_s": median([sp.seconds(g, {"model.load_instance",
                                                "model.validate"})
                                 for g in setup_groups]),
        "model.enumerate_s": timed(["model.reachable_profile"]),
        "dp.full_s": timed(["dp.solve_full_dp"]),
        "dp.chain_s": timed(["dp.solve_subproblem_dp"]),
        "lp.build_s": timed(["lp.build_lp_optimal", "lp.build_lp_exante",
                             "lp.build_lp_hierarchy"]),
        "lp.simplex_s": median([engine_seconds(g, "simplex") for g in groups]),
        "lp.highs_s": median([engine_seconds(g, "highs") for g in groups]),
        "lp.check_s": timed(["lp.check_solution"]),
        "lp.max_residual": max(residuals or [0.0]),
        "rounding.extract_s": timed(["rounding.extract_pricing",
                                     "rounding.extract_all"]),
        "rounding.compose_s": timed(["rounding.compose_policies"]),
        "rounding.policy_json_s": timed(["rounding.policy_to_json"]),
        "ptas.s": timed(["ptas.ptas_production", "ptas.ptas_laminar"]),
        "harness.simulate_s": timed(["harness.simulate"]),
        "harness.simulate_cpu_per_wall": (
            sum(s[5]["cpu_s"] for s in sims) / sim_wall if sim_wall else 0.0),
        "harness.rng_s": rng_s,
        "harness.evaluate_exact_s": timed(["harness.evaluate_exact"]),
        "harness.prophet_s": timed(["harness.prophet_samples"]),
        "harness.cylinder_s": timed(["harness.check_negative_cylinder"]),
        "myerson.transform_s": timed(["myerson.revenue_transform"]),
        "cli.solve_s": cli_seconds("solve"),
        "cli.simulate_s": cli_seconds("simulate"),
        "cli.verify_s": cli_seconds("verify"),
        "trace.round_s": median(walls["traced"]),
        "trace.slowdown": median(walls["traced"]) / median(walls["untraced"]),
        "trace.spans": len(first),
    }
    out.update(round_counts[0])
    for layer in sp.LAYERS + ("bench",):
        if layer == "cli":
            out["cli.self_s"] = sp.self_times(cli_group)["cli"]
        else:
            out[f"{layer}.self_s"] = median([t[layer] for t in selfs])
    return out, mismatched


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _untraced(name):
    return contextlib.nullcontext()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "binprice" / "__init__.py").is_file():
        print(f"bench: no binprice sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401  (the HiGHS engine's import)
    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(ROOT / "src"))

    nproc = len(os.sched_getaffinity(0))
    env = environment(nproc)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        bench = Bench(args.workload, args.seed, workdir, nproc)
        run = traced_run if args.trace else plain_run
        body = run(bench, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, samples, extra = body
    samples["numpy_scipy_import_s"] = import_s
    wl = bench.wl

    result = {"correct": not bench.failures, "attempted": bench.attempted,
              "failed": len(bench.failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "samples": samples,
              "error_rate": len(bench.failures) / bench.attempted,
              "failures": bench.failures, "result": result, **extra}
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{name}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for line in bench.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for k, (v, u) in metrics.items():
        print(f"  {k:<{width}}  {v:.6g} {u}", file=sys.stderr)
    print(f"  error_rate  {record['error_rate']:.6g} "
          f"({len(bench.failures)} of {bench.attempted})", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    print(json.dumps(result))
    return 0


def _cli_index(bench):
    """The instance the CLI and the thread check use: the largest."""
    sizes = [len(inst.dists) for inst in bench.instances]
    return sizes.index(max(sizes))


def _rounds(seconds, run, at_least=1):
    """Call ``run(k)`` for k = 0, 1, ... until the time is up and at least
    ``at_least`` calls are made, starting another one only while at least
    half of a median call's time is left, so that runs end near
    ``seconds`` on average."""
    deadline = time.perf_counter() + seconds
    out, durations = [], []
    while True:
        t0 = time.perf_counter()
        out.append(run(len(out)))
        durations.append(time.perf_counter() - t0)
        if (len(out) >= at_least
                and time.perf_counter() + median(durations) / 2 > deadline):
            return out


def _check_rounds(bench, rounds):
    first = {}
    for i, r in enumerate(rounds, start=1):
        j, fp = first.setdefault(r["slice"], (i, r["fingerprint"]))
        if j != i:
            bench.gate(f"round {i} determinism",
                       [] if r["fingerprint"] == fp
                       else [f"outputs differ from round {j}"])


def plain_run(bench, args):
    bench.setup()
    n = len(bench.instances)
    slices = [range(a, min(a + SLICE, n)) for a in range(0, n, SLICE)]

    def one_round(k):
        # the reference task between every two timed steps
        refs = [reference_s()]

        @contextlib.contextmanager
        def bracketed(name):
            yield
            refs.append(reference_s())

        # set-ups in every round, so they see the machine's speeds as the
        # rounds do; each starts from a collected heap, as collections of
        # earlier garbage falling inside set-ups at random widened their
        # spread about fivefold
        setups = []
        with bracketed("setup"):
            while sum(setups) < SETUP_MIN_S:
                gc.collect()
                setups.append(bench.setup())
        r = bench.run_round(bracketed, slices[k % len(slices)])
        steps = ("setup",) + PHASES
        return dict(r, slice=k % len(slices), setups=setups,
                    references=dict(zip(steps, zip(refs, refs[1:]))))

    rounds = _rounds(args.seconds, one_round, len(slices))
    _check_rounds(bench, rounds)
    bench.check_threads(_cli_index(bench))
    metrics = end_to_end(bench, rounds)
    samples = {"rounds": len(rounds), "slices": len(slices),
               "solve_latency_pairs": len({key for r in rounds
                                           for key in r["latencies"]}),
               "solve_latency_samples": sum(len(r["latencies"])
                                            for r in rounds),
               "unscaled": {k: v for k, (v, _) in
                            end_to_end(bench, rounds, scaled=False).items()},
               "round_s": [dict(r["times"], slice=r["slice"],
                                setups=r["setups"],
                                references=r["references"])
                           for r in rounds]}
    return metrics, samples, {}


def traced_run(bench, args):
    bench.setup()
    import spans as sp
    tracer = sp.Tracer()
    tracer.install()

    def phase(name):
        return tracer.span(f"bench.{name}")

    setup_roots = []
    for _ in range(TRACED_LOADS):
        tracer.on = True
        with phase("setup") as root:
            bench.load()
        tracer.on = False
        setup_roots.append(root[0])

    walls = {"untraced": [], "traced": []}
    round_roots = []
    everything = range(len(bench.instances))

    def untraced():
        t0 = time.perf_counter()
        out = bench.run_round(_untraced, everything)
        walls["untraced"].append(time.perf_counter() - t0)
        return dict(out, slice=0)

    def traced():
        tracer.on = True
        t0 = time.perf_counter()
        with phase("round") as root:
            out = bench.run_round(phase, everything)
        walls["traced"].append(time.perf_counter() - t0)
        tracer.on = False
        round_roots.append(root[0])
        return dict(out, slice=0)

    def pair(k):
        # alternate which side goes first, so warm-up favours neither
        return [traced(), untraced()] if k % 2 else [untraced(), traced()]

    rounds = [r for p in _rounds(args.seconds, pair) for r in p]
    _check_rounds(bench, rounds)
    i = _cli_index(bench)
    bench.check_threads(i)

    tracer.on = True
    with phase("cli") as cli_root:
        bench.run_cli(i)
    # the per-trial generators of one round's simulate calls, alone
    with tracer.span("harness.rng") as rng:
        for inst in bench.instances:
            width = 2 * len(inst.dists)
            for t in range(bench.wl.sim_trials):
                bench.harness.trial_generator(bench.seed, t).random(width)
    tracer.on = False
    tracer.uninstall()
    rng_s = (rng[4] - rng[3]) / 1e9

    base = median(walls["untraced"])
    over = median(walls["traced"]) - base
    metrics, mismatched = per_layer(tracer, setup_roots, round_roots,
                                    cli_root[0], rng_s, walls)
    bench.gate("per-layer counts", mismatched)

    for s in tracer.spans:
        s[5].pop("model", None)
        s[5].pop("solution", None)
    first = sp.subtree(tracer.spans, round_roots[0])
    table = sp.self_times(first)
    with open(OUT / f"spans-{bench.wl.name}-seed{bench.seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns",
                              "attrs"], "spans": tracer.spans}, fh)
    print("self time per layer, first traced round (s):", file=sys.stderr)
    for layer, secs in sorted(table.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<9} {secs:.4f}", file=sys.stderr)
    print(f"  tracing overhead {over:.4f} s per round "
          f"({100 * over / base:.2f}% of {base:.3f} s)", file=sys.stderr)
    samples = {"pairs": len(round_roots), "round_s": walls,
               "spans": len(tracer.spans)}
    return ({k: (v, unit_of(k)) for k, v in metrics.items()}, samples,
            {"self_time_first_round_s": table})


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_fraction", "_per_wall", "slowdown")):
        return "ratio"
    if name.endswith("max_residual"):
        return "abs"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
