#!/usr/bin/env python3
"""Records a reference point of the benchmark: every workload at several seeds
(end-to-end medians and quartiles), one traced run per workload (per-layer
metrics), and the host fingerprint, as one JSON file.

    python3 perfbench/tools/record.py --seeds 1-10 --label seed \\
        --out perfbench/results/seed.json

Run from the repository root; it drives perfbench/run.py (see spread.py).
"""

import argparse
import json
import os
import platform
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spread  # noqa: E402


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def fingerprint():
    out = subprocess.run([os.path.join(spread.ROOT, ".bench_build", "perfbench_metis"),
                          "--fingerprint"], stdout=subprocess.PIPE, text=True, check=True)
    host = json.loads(out.stdout)
    host["cpu_model"] = cpu_model()
    host["os_cpu_count"] = os.cpu_count()
    return host


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="flat_scan,shared_reuse,ingest_overload")
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bounds, run_seconds = spread.bench_spec()
    seeds = spread.parse_seeds(args.seeds)

    record = {"label": args.label, "seeds": seeds, "run_seconds": run_seconds,
              "bounds": bounds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = spread.run_seeds(workload, seeds, run_seconds)
        traced = spread.run_seeds(workload, seeds[:1], run_seconds, trace="1")[0]
        layers = traced["metrics"]
        record["workloads"][workload] = {
            "corpus_rows": layers["workload.corpus_rows"]["value"],
            "stream_len": layers["workload.stream_len"]["value"],
            "end_to_end": spread.summarize(runs),
            "per_layer_seed": traced["seed"],
            "per_layer": {name: m["value"] for name, m in layers.items()},
            "runs": [{"seed": r["seed"],
                      "metrics": {n: m["value"] for n, m in r["metrics"].items()}}
                     for r in runs],
        }
        print(workload)
        spread.print_table(record["workloads"][workload]["end_to_end"], bounds)
    record["host"] = fingerprint()
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
