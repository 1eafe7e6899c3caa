#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs BENCHMARK.json's command on every workload (or the ones named with
--workload) for --runs seeds, from the repository root, and prints for each
end-to-end metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)), and the spread (q3 - q1) / median next
to the metric's bound. With --compare it instead reads two earlier --save
files and prints how far the second set's medians moved from the first's.

    python3 perfbench/steady.py --runs 10 --first-seed 100 --save set1.json
    python3 perfbench/steady.py --compare set1.json set2.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    t = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, wall, result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def report(bench, results):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for workload, runs in results.items():
        ok = all(r["correct"] for r in runs)
        print(f"\n## {workload}: {len(runs)} runs, all correct: {ok}")
        print(f"| metric | unit | median | q1 | q3 | spread | bound |")
        print(f"|---|---|---|---|---|---|---|")
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(vals)
            print(f"| {name} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {m['bound']} |")


def compare(bench, first, second):
    for workload in first:
        print(f"\n## {workload}: second-set median against first")
        print("| metric | first median | second median | worse by | bound |")
        print("|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            name = m["name"]
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            print(f"| {name} | {a:.6g} | {b:.6g} | {worse:+.4f} | {m['bound']} |")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        with open(args.compare[0]) as f1, open(args.compare[1]) as f2:
            compare(bench, json.load(f1), json.load(f2))
        return
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    results = {}
    for w in workloads:
        results[w] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            code, wall, result = run_once(bench, w, seed)
            print(f"{w} seed {seed}: exit {code}, {wall:.1f} s", file=sys.stderr)
            if code != 0 or result is None:
                sys.exit(f"{w} seed {seed} failed with exit code {code}")
            results[w].append(result)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)
    report(bench, results)


if __name__ == "__main__":
    main()
