#!/usr/bin/env python3
"""Seed-to-seed steadiness of the end-to-end metrics.

Runs the benchmark command of BENCHMARK.json ten times per workload, each
time with another --seed, and prints for every end-to-end metric the
distance between the first and third quartile of its ten values as a share
of their median, beside the metric's bound. This is the acceptance rule the
benchmark is held to; aim for every spread below a third of its bound.

    python3 benchmark/spread.py [--rounds N] [--workload NAME] [--first-seed K]

With --rounds 2 it also prints how far each metric's median moved between
the two rounds. Run from the repository root. Exits non-zero if a run
fails, a spread exceeds its bound, or a second median is worse than the
first by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + 10)
    ok = True
    for workload in workloads:
        medians = []
        for rnd in range(args.rounds):
            runs = [run(spec["command"], workload, s, spec["run_seconds"]) for s in seeds]
            print(f"\n{workload}, round {rnd + 1}")
            print(f"  {'metric':<22} {'median':>16} {'IQR/median %':>13} {'bound %':>8}")
            meds = {}
            for m in spec["end_to_end"]:
                values = [r[m["name"]] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                meds[m["name"]] = med
                spread = (q3 - q1) / med
                flag = ""
                if m["name"] != "setup_s" and spread > m["bound"]:
                    flag, ok = "  OUTSIDE BOUND", False
                elif m["name"] != "setup_s" and spread > m["bound"] / 3:
                    flag = "  (above a third of the bound)"
                print(f"  {m['name']:<22} {med:>16.6f} {spread * 100:>13.3f} {m['bound'] * 100:>8.1f}{flag}")
            medians.append(meds)
        if len(medians) > 1:
            print(f"\n{workload}, medians of round 2 against round 1")
            for m in spec["end_to_end"]:
                a, b = medians[0][m["name"]], medians[-1][m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = ""
                if worse > m["bound"]:
                    flag, ok = "  OUTSIDE BOUND", False
                print(f"  {m['name']:<22} {a:>16.6f} {b:>16.6f} {worse * 100:>+9.3f} % worse{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
