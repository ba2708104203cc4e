#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload dba_mix --seed 7 --seconds 10 --trace 0

The engine is compiled from ./src into ./.bench_build (Release) on first use;
later runs only re-check that the build is current. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. Traced
runs (--trace 1) also write their spans to
.bench_build/spans/<workload>.csv. The result's "correct" field says whether
every fidelity check passed; the exit code is non-zero only when no result
was produced.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("e2_rules", "dba_mix", "deferred_fanin")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sqlcm", "monitor_engine.h")):
        sys.exit("perfbench: no engine sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        span_dir = os.path.join(BUILD, "spans")
        os.makedirs(span_dir, exist_ok=True)
        cmd += ["--span-out", os.path.join(span_dir, args.workload + ".csv")]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
