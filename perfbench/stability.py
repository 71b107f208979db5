#!/usr/bin/env python3
"""Stability self-check: runs the benchmark repeatedly and reports, per
workload and end-to-end metric, the median and the quartile spread
(Q3 - Q1 as a share of the median) against the metric's bound.

    python3 perfbench/stability.py [--runs 10] [--seed0 1] [--workload NAME ...]

Run it from the repository root. Each run gets its own seed. A spread
above a third of its bound is flagged, `setup_s` included. Exits 1 when
any run fails or any spread is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            code, result = run_once(spec, workload, args.seed0 + i)
            if result is None:
                print(f"{workload} seed {args.seed0 + i}: no result (exit {code})")
                ok = False
                continue
            if code != 0:
                print(f"{workload} seed {args.seed0 + i}: exit {code}, correct={result['correct']}")
                ok = False
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            print(f"{workload} seed {args.seed0 + i}: failed {result['failed']}/{result['attempted']}",
                  flush=True)
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= metric["bound"] / 3 else "  <-- above bound/3"
            if flag:
                ok = False
            print(f"  {workload:13s} {metric['name']:17s} median {med:12.6g} "
                  f"spread {spread:7.2%} bound {metric['bound']:.2f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
