#!/usr/bin/env python3
"""Steadiness report: runs every workload of BENCHMARK.json once for each of
the seeds 1 to 10, with its run_seconds, and prints for every end-to-end
metric the median over the runs and the spread — the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median — next to the metric's bound. This is the evidence behind the bounds.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py
"""
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"{workload}: {len(SEEDS)} seeds, {seconds} s each")
        runs = []
        for seed in SEEDS:
            runs.append(run_once(bench["command"], workload, seed, seconds))
            print(f"  seed {seed:2}: " + ", ".join(
                f"{name} {runs[-1][name]:.6g}" for name in sorted(bounds)))
            sys.stdout.flush()
        print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in sorted(bounds):
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / bounds[name])
            print(f"  {name:<14} {med:14.4f} {q1:14.4f} {q3:14.4f} "
                  f"{spread:8.4f} {bounds[name]:6.2f}")
        sys.stdout.flush()
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
