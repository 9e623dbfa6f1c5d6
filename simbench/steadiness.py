#!/usr/bin/env python3
"""Run every workload N times and report how steady each metric is.

Run from the repository root:

    python3 simbench/steadiness.py --runs 10 --seconds 20

Rounds alternate the workload order (forward, then reversed), and each run
uses another seed. Beside every run the memory-bound host probe
(simbench_probe) is logged, so a contended run can be told apart from a
regression; no metric is ever divided by it. For each workload and metric
the script prints the median, quartiles, min/max and IQR/median, with
quartiles as statistics.quantiles(values, n=4) gives them. This output is
the evidence behind the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BUILD, HERE, ROOT, build

WORKLOADS = ["fwd64", "fwd1500", "ips1k"]
FIRST_SEED = 1


def probe():
    out = subprocess.run([os.path.join(BUILD, "simbench_probe")], check=True,
                         capture_output=True, text=True).stdout
    return float(out.split()[1])


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"simbench: {workload} seed {seed} failed ({p.returncode}):\n"
                 + p.stdout + p.stderr)
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "iqr_over_median": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be >= 2 for quartiles")
    build()

    values = {w: {} for w in WORKLOADS}
    units = {}
    for r in range(args.runs):
        order = WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]
        seed = FIRST_SEED + r
        for w in order:
            probe_ns = probe()
            result = run(w, seed, args.seconds)
            metrics = result["metrics"]
            for name, m in metrics.items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            shown = "  ".join(f"{n}={m['value']:.6g}" for n, m in metrics.items())
            print(f"run {r + 1:2d} {w:8s} seed {seed:3d}  probe_ns {probe_ns:7.3f}  {shown}",
                  flush=True)

    print()
    print(f"{'workload':8s} {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'min':>12s} {'max':>12s} {'iqr/med':>8s}")
    for w in WORKLOADS:
        for name, vals in values[w].items():
            s = summary(vals)
            print(f"{w:8s} {name:28s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['min']:12.6g} {s['max']:12.6g} {s['iqr_over_median']:8.4f}  {units[name]}")


if __name__ == "__main__":
    main()
