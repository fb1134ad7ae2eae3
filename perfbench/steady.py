#!/usr/bin/env python3
"""Steadiness check: repeats one workload and reports the spread of each metric.

    python3 perfbench/steady.py --workload warm_hybrid --runs 10
    python3 perfbench/steady.py --workload warm_hybrid --runs 10 \
        --save a.json
    python3 perfbench/steady.py --workload warm_hybrid --runs 10 \
        --against a.json

Run from the repository root. Each run uses a different seed (seed-base,
seed-base + 1, ...) and the run length from BENCHMARK.json. For every metric
it prints the median, the quartiles (statistics.quantiles(values, n=4)), the
min and max, the spread (third minus first quartile, as a share of the
median) and spread / bound. A metric whose spread exceeds its bound is
flagged; so is one whose spread exceeds a third of it, the margin a set of
runs should keep. With --against it also compares this set's medians with a
saved set and flags any metric that got worse by more than its bound, which
is how two sets of runs of the same code are shown to agree. setup_s is
exempt from the spread rule but not from the median rule.

Exits 1 when any run fails, reports correct=false, or a flag is raised.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("run failed (exit %d) for seed %d"
                           % (done.returncode, seed))
    # Host steal per slice, to tell a disturbed run from a slow one.
    steal = [float(x) for line in lines if line.startswith("slices steal")
             for x in line.split()[2:]]
    return json.loads(lines[-1]), steal


def main():
    bench = load_bench()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--save", help="write the raw values to this file")
    parser.add_argument("--against",
                        help="compare medians with a set saved by --save")
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    values = {m["name"]: [] for m in metrics}
    flagged = False
    for i in range(args.runs):
        seed = args.seed_base + i
        result, steal = run_once(args.workload, seed, args.seconds)
        if not result["correct"] or result["failed"] != 0:
            print("seed %d: correct=%s failed=%d" %
                  (seed, result["correct"], result["failed"]))
            flagged = True
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: host steal %.1f%% (max slice %.1f%%)" %
              (seed, 100 * statistics.fmean(steal or [0]),
               100 * max(steal or [0])))

    saved = None
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)

    print("%-34s %12s %12s %12s %12s %12s %8s %8s %s" %
          ("metric", "median", "q1", "q3", "min", "max", "spread",
           "/bound", "flag"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        flag = ""
        if name != "setup_s":
            if spread > bound:
                flag = "SPREAD>BOUND"
            elif spread > bound / 3:
                flag = "spread>bound/3"
        if saved is not None:
            old = statistics.median(saved[name])
            change = (med - old) / old if old else 0.0
            worse = change if better[name] == "lower" else -change
            if worse > bound:
                flag += " MEDIAN-WORSE(%.3f)" % worse
        if "SPREAD>BOUND" in flag or "MEDIAN" in flag:
            flagged = True
        print("%-34s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %8.3f %s" %
              (name, med, q1, q3, min(vals), max(vals), spread,
               spread / bound, flag))

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
