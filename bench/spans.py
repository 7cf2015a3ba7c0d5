"""Spans around the calls into each binprice module, for the traced run.

``Tracer.install`` replaces the layer-boundary functions listed in
``BOUNDARIES`` with wrappers wherever a ``binprice`` module binds them, so
the spans also cover the calls one module makes into another (``ptas`` into
``lp`` and ``rounding``, ``dp`` into ``model``).  Functions called once per
trial or per LP variable (``trial_generator``, the variable-name helpers)
are left out: a span there would cost more than the work it measures.

A span is ``[id, parent, name, start_ns, end_ns, attrs]``; ``attrs`` holds
the counts read off the call's arguments and result.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

from binprice import cli, dp, harness, lp, model, myerson, ptas, rounding

LAYERS = ("model", "dp", "lp", "rounding", "ptas", "harness", "myerson", "cli")


def _profile_counts(args, kwargs, result):
    levels, forbidden = result
    return {"states": sum(len(lv) for lv in levels),
            "widest": max(len(lv) for lv in levels),
            "forbidden": sum(len(f) for f in forbidden)}


def _lp_counts(args, kwargs, result):
    m = result.model
    forbidden = sum(len(f) for info in result.blocks.values()
                    for f in info.forbidden)
    return {"vars": m.num_vars, "rows": m.num_rows,
            "nnz": sum(len(coeffs) for coeffs, _, _ in m.rows),
            "forbidden_vars": forbidden}


def _solve_counts(args, kwargs, result):
    return {"engine": result.engine, "iterations": result.iterations}


def _check_counts(args, kwargs, result):
    # the model and solution are kept until the run ends, when their
    # largest residual is computed outside every timed interval
    return {"violations": len(result), "model": args[0], "solution": args[1]}


def _simulate_counts(args, kwargs, result):
    n = len(args[1].dists)
    return {"trials": result.trials, "n": n,
            "ignored": result.ignored_fraction * result.trials * n,
            "violations": result.total_violations}


BOUNDARIES = {
    model: {"load_instance": None, "validate": None,
            "production_to_laminar": None,
            "reachable_profile": _profile_counts},
    dp: {"solve_full_dp": None, "solve_subproblem_dp": None,
         "concavity_check": None},
    lp: {"build_lp_optimal": _lp_counts, "build_lp_exante": _lp_counts,
         "build_lp_hierarchy": _lp_counts, "solve_optimal": None,
         "solve": _solve_counts, "check_solution": _check_counts},
    rounding: {"extract_pricing": lambda a, k, r: {"rules": len(r.rules)},
               "extract_all": None, "compose_policies": None,
               "mark_laminar": None,
               "policy_to_json": lambda a, k, r: {"bytes": len(r)},
               "policy_from_json": None},
    ptas: {"ptas_production": lambda a, k, r: {"branch": r.branch},
           "ptas_laminar": lambda a, k, r: {"branch": r.branch}},
    harness: {"simulate": _simulate_counts, "evaluate_exact": None,
              "prophet_samples": None,
              "check_negative_cylinder": lambda a, k, r: {"ok": r[0]}},
    myerson: {"revenue_transform": None},
    cli: {"main": lambda a, k, r: {"command": (a[0] if a else k["argv"])[0],
                                    "code": r}},
}

# spans whose wall time is paired with process CPU time
CPU_SPANS = {"harness.simulate"}


class Tracer:
    """Records spans while ``on``; installed wrappers cost one flag test
    per call while it is off."""

    def __init__(self):
        self.spans: list = []
        self.on = False
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, counts):
        cpu = name in CPU_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            with self.span(name) as span:
                c0 = time.process_time() if cpu else 0.0
                result = fn(*args, **kwargs)
                if cpu:
                    span[5]["cpu_s"] = time.process_time() - c0
            if counts is not None:
                span[5].update(counts(args, kwargs, result))
            return result

        return wrapper

    def span(self, name):
        return _Span(self, name)

    def install(self):
        loaded = [m for key, m in sys.modules.items()
                  if key == "binprice" or key.startswith("binprice.")]
        for module, funcs in BOUNDARIES.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for fname, counts in funcs.items():
                orig = getattr(module, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig, counts)
                for m in loaded:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.record = [len(t.spans), parent, self.name,
                       time.perf_counter_ns(), 0, {}]
        t.spans.append(self.record)
        t._stack.append(self.record[0])
        return self.record

    def __exit__(self, *exc):
        self.record[4] = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False


# ---------------------------------------------------------------------------
# Reading spans back
# ---------------------------------------------------------------------------


def subtree(spans, root_id):
    """Spans under ``root_id`` (inclusive); ids are creation-ordered, so a
    subtree is a contiguous run starting at its root."""
    out = [spans[root_id]]
    inside = {root_id}
    for s in spans[root_id + 1:]:
        if s[1] not in inside:
            break
        inside.add(s[0])
        out.append(s)
    return out


def outermost(group, names):
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    by_id = {s[0]: s for s in group}
    out = []
    for s in group:
        if s[2] not in names:
            continue
        p = s[1]
        while p in by_id and by_id[p][2] not in names:
            p = by_id[p][1]
        if p not in by_id:
            out.append(s)
    return out


def seconds(group, names):
    return sum(s[4] - s[3] for s in outermost(group, names)) / 1e9


def self_times(group):
    """Self time per layer: span duration minus the time of its children.
    Spans the benchmark opens itself count as layer ``bench``."""
    child = {}
    for s in group:
        child[s[1]] = child.get(s[1], 0) + (s[4] - s[3])
    out = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for s in group:
        layer = s[2].split(".", 1)[0]
        out[layer] += (s[4] - s[3] - child.get(s[0], 0)) / 1e9
    return out


def max_residual(m, sol) -> float:
    """Largest row or bound residual of an LP solution."""
    x = [0.0] * m.num_vars
    for name, val in sol.assignment.items():
        x[m.index[name]] = val
    worst = max([0.0] + [-v for v in x])
    for coeffs, rel, rhs in m.rows:
        r = sum(c * x[j] for j, c in coeffs) - rhs
        worst = max(worst, abs(r) if rel == "=" else r)
    return worst
