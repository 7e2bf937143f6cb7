#!/usr/bin/env python3
"""Compares two checkouts of the repository on one benchmark workload.

    python3 perfbench/compare.py --parent <checkout> --change <checkout> \\
        --workload <name> [--seeds 1,2,...,10] [--seconds S]

Runs <checkout>/perfbench/run.py in both trees once per seed, alternating
which side goes first, and prints for every end-to-end metric each side's
median and quartiles, how many pairs the change won, and a verdict against
the metric's bound in BENCHMARK.json: "better" when the change wins at
least nine tenths of the pairs and the medians differ by more than the
parent's own quartile spread, "worse" when the change's median is worse by
more than the bound, otherwise "same" (or "unresolved" when the parent's
spread exceeds the bound).
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, workload, seed, seconds):
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{checkout}: run failed\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: outputs incorrect on seed {seed}\n{done.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = {}, {}
    for i, seed in enumerate(int(s) for s in args.seeds.split(",")):
        order = [(args.parent, parent), (args.change, change)]
        for checkout, into in (order if i % 2 == 0 else order[::-1]):
            for name, value in run(checkout, args.workload, seed, seconds).items():
                into.setdefault(name, []).append(value)
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{'metric':14s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} "
          f"wins  verdict")
    for name, metric in metrics.items():
        p, c = parent.get(name, []), change.get(name, [])
        if not p or not c:
            continue
        lower = metric["better"] == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        p_med, c_med = statistics.median(p), statistics.median(c)
        p_q1, p_q3 = quartiles(p)
        c_q1, c_q3 = quartiles(c)
        spread = (p_q3 - p_q1) / p_med
        change_ratio = (c_med - p_med) / p_med * (1 if lower else -1)  # > 0 is worse
        bound = metric.get("bound", 0.25)
        if change_ratio > bound:
            verdict = "worse"
        elif wins >= 0.9 * len(p) and abs(c_med - p_med) > p_q3 - p_q1:
            verdict = "better"
        elif spread > bound:
            verdict = "unresolved"
        else:
            verdict = "same"
        print(f"{name:14s} {p_med:12.6g} [{p_q1:.6g}, {p_q3:.6g}]".ljust(49) +
              f" {c_med:12.6g} [{c_q1:.6g}, {c_q3:.6g}]".ljust(35) +
              f" {wins}/{len(p)}  {verdict}")


if __name__ == "__main__":
    main()
