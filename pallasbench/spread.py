#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports each
end-to-end metric's spread: the distance between the first and third
quartile of its values as a share of their median, next to the bound
BENCHMARK.json fixes for it.

Run from the repository root:

    python3 pallasbench/spread.py [--seeds 10] [--first-seed 1] [--workload batch ...]

Each run's result line is appended to pallasbench/.out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs("pallasbench/.out", exist_ok=True)
    log = open("pallasbench/.out/spread.jsonl", "a")
    worst = 0.0
    units = {}
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            log.flush()
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: output check failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}:")
        for name, vals in values.items():
            median = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / median if median else float("inf")
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:14} median {median:12.4f} {units[name]:6}  spread {spread:6.3f}  bound {bound}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
