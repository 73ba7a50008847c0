#!/usr/bin/env python3
"""The repo benchmark: builds the benchmark binary from source, then runs one workload.

    python3 perfbench/run.py --workload flat_scan --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to .bench_build/ (configured on
first use, incremental afterwards); build output goes to stderr, so the last
line of stdout is the binary's result line. --trace 1 also writes the span
trace to .bench_build/traces/<workload>_seed<seed>.jsonl. The exit code is the
binary's (see perfbench/src/main.cc).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_metis")
RUN_TIMEOUT_S = 175


def build(targets):
    """Configures (once) and builds the given targets; False on failure."""
    if not os.path.exists(os.path.join(ROOT, "src", "runner", "runner.h")):
        print("perfbench: no METIS sources next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", *targets, "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build(["perfbench_metis"]):
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s_seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark binary timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
