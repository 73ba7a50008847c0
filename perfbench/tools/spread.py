#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: runs one workload at several seeds and
prints, per metric, the median, the quartiles and the interquartile range as a
share of the median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/tools/spread.py --workload flat_scan --seeds 1-10
    python3 perfbench/tools/spread.py --workload shared_reuse --seeds 1,5,9 --out runs.json

Quartiles are Python's statistics.quantiles(values, n=4). A metric is flagged
when its spread exceeds a third of its bound (setup_s is exempt).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def bench_spec():
    """(bound per end-to-end metric, run_seconds) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}, spec["run_seconds"]


def run_seeds(workload, seeds, seconds, trace="0"):
    """Runs the benchmark once per seed; returns the result lines (with "seed")."""
    runs = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        print("%s seed %d done" % (workload, seed), file=sys.stderr)
    return runs


def summarize(runs):
    """Per metric: unit, median, quartiles and (q3 - q1) / median over the runs."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) > 1:
            q1, med, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = med = q3 = values[0]
        out[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                     "iqr_over_median": (q3 - q1) / med if med else 0.0}
    return out


def print_table(summary, bounds):
    print("%-34s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "iqr/med",
                                            "bound"))
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = (" !" if bound is not None and name != "setup_s"
                and s["iqr_over_median"] > bound / 3 else "")
        print("%-34s %14.6g %14.6g %14.6g %8.4f %6s%s" % (
            name, s["median"], s["q1"], s["q3"], s["iqr_over_median"],
            "-" if bound is None else bound, flag))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--out", help="write every run's result line here (JSON list)")
    args = parser.parse_args()
    bounds, run_seconds = bench_spec()
    seconds = args.seconds if args.seconds is not None else run_seconds

    runs = run_seeds(args.workload, parse_seeds(args.seeds), seconds, args.trace)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    print_table(summarize(runs), bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
