#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. `--workload all` runs every workload traced
(--trace is ignored): a traced run measures and prints the end-to-end metrics
of an untraced window before its traced one. It exits non-zero if any run
fails or reports a wrong result. The engine is compiled from ../src together
with the benchmark program (perfbench/CMakeLists.txt) into .bench_build/; the
first run builds, later runs only relink what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. With
--trace 1 the recorded spans are written to .bench_build/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("warm_hybrid", "cache_spill")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: engine sources (src/) are missing from this checkout")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "blendbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def run(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, last stdout line)."""
    cmd = [os.path.join(BUILD, "blendbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, workload + ".csv")]
    sys.stdout.flush()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build()
    if args.workload != "all":
        return run(args.workload, args.seed, args.seconds, args.trace)[0]
    status = 0
    for workload in WORKLOADS:
        code, last = run(workload, args.seed, args.seconds, 1)
        if code != 0 or not json.loads(last or "{}").get("correct"):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
