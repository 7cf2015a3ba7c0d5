"""Run the benchmark on several seeds and summarise each metric.

Run from the repository root:

    python3 bench/repeat.py --seeds 1-10 [--seconds 32] [--workload corpus ...]
                            [--trace 0] [--json FILE] [--against FILE]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  It checks each
spread against the metric's bound in ``BENCHMARK.json`` and, with
``--against`` an earlier ``--json`` summary, that no median is worse than
the earlier one by more than the bound.  It exits 1 if a run fails, prints
an incorrect result, or a check misses.  ``--json`` writes the summary
with the environment of the last run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="default: every workload in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, default=None)
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = (json.loads(args.against.read_text(encoding="utf-8"))
               if args.against else {"workloads": {}})

    ok = True
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for name in names:
        values, units = {}, {}
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                ["python3", "bench/run.py", "--workload", name, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace)], cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if lines[0].startswith("environment "):
                summary["environment"] = json.loads(lines[0].split(" ", 1)[1])
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                  f"correct {result['correct']}, failed {result['failed']} "
                  f"of {result['attempted']}", flush=True)
            ok &= result["correct"]
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
        rows = {}
        for k, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = (statistics.quantiles(xs, n=4) if len(xs) > 1
                         else (xs[0], xs[0], xs[0]))
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(k) if args.trace == 0 else None
            over = bound is not None and not spread <= bound
            flag = "  OVER BOUND" if over else ""
            third = (f" (bound {bound}, {spread / bound:.2f} of it)"
                     if bound else "")
            before = earlier["workloads"].get(name, {}).get(k)
            if bound is not None and before is not None:
                change = med / before["median"] - 1
                worse = change if lower[k] else -change
                third += f", median {change:+.4f} on the earlier set"
                if not worse <= bound:
                    over = True
                    flag += "  WORSE THAN EARLIER"
            ok &= not over
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "unit": units[k], "values": xs}
            print(f"  {k:<30} {med:12.6g} {units[k]:<9} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{third}{flag}")
        summary["workloads"][name] = rows
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n",
                             encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
