#!/usr/bin/env python3
"""Build and run the µSuite service benchmark.

Usage (from the repository root):

    python3 svcbench/run.py --workload setalgebra_high --seed 1 \
        --seconds 15 --trace 0
    python3 svcbench/run.py --workload all --seconds 5

The first call configures and builds svcbench/ (and the src/ tree it
links) under .bench_build/svcbench in Release mode; later calls only
rebuild what changed. Build output goes to stderr. The benchmark
binary prints a metric table and, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones. `--workload all` runs every workload in both
modes and prints one table; it exits non-zero if any run does.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "svcbench")
BINARY = os.path.join(BUILD, "svcbench")
WORKLOADS = ["router_sat", "setalgebra_high"]
RUN_TIMEOUT_S = 175


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("svcbench: src/ is missing; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "svcbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("svcbench: build failed: " + " ".join(step))


def run_one(workload, seed, seconds, trace, capture):
    argv = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(
            argv, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("svcbench: run timed out")
    return done.returncode, (done.stdout.decode() if capture else "")


def run_all(seed, seconds):
    status = 0
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_one(workload, seed, seconds, trace, True)
            sys.stderr.write(out)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= 0 if result["correct"] else 1
            for name, metric in result["metrics"].items():
                rows.append((workload, name, metric["value"],
                             metric["unit"]))
    for workload, name, value, unit in rows:
        print(f"{workload:16s} {name:32s} {value:14.6g} {unit}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, _ = run_one(args.workload, args.seed, args.seconds, args.trace,
                      False)
    return code


if __name__ == "__main__":
    sys.exit(main())
