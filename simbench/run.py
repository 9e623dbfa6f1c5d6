#!/usr/bin/env python3
"""Build the simulator-speed benchmark from source and run one workload.

Run from the repository root:

    python3 simbench/run.py --workload fwd64 --seed 1 --seconds 10 --trace 0

The benchmark and the library it measures are built (Release) into
.bench_build/simbench on first use; later runs rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit code is the benchmark's: nonzero when a correctness
check failed, the build failed, or the library sources are missing.

    python3 simbench/run.py --selftest

runs the benchmark's own self-test (simbench/selftest.cc) with the
mcycles_per_s bound from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
TARGETS = ("simbench", "simbench_selftest", "simbench_probe")


def build():
    """Configure (once) and build the benchmark targets; exit on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.h")):
        sys.exit("simbench: library sources (src/) not found next to simbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *TARGETS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("simbench: build failed: " + " ".join(cmd))


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"]
                     if m["name"] == "mcycles_per_s")
    build()
    cmd = [os.path.join(BUILD, "simbench_selftest"), "--bound", str(bound)]
    sys.exit(subprocess.run(cmd).returncode)


def main():
    if sys.argv[1:] == ["--selftest"]:
        selftest()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["fwd64", "fwd1500", "ips1k"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    cmd = [os.path.join(BUILD, "simbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
