#!/usr/bin/env python3
"""Perf-regression gate for bench JSON results (bench_simspeed).

Compares a current run (e.g. bench-json/simspeed.json) against a blessed
baseline (bench/baselines/<bench>.json, itself a verbatim bench output).
Machines differ in absolute speed, so raw throughput is never compared
directly: the `reference` mode of each workload calibrates a per-workload
machine-speed scale, and the GATED_MODES rows are gated against the
baseline *scaled to the current machine*. A >10% (default) drop in scaled
throughput, a speedup-ratio regression, a health-layer overhead above 2x
its 5% target, or any fingerprint mismatch fails the gate with a nonzero
exit.

Usage:
    check_regression.py <baseline.json> <current.json> [--tolerance 0.10]
    check_regression.py --update <baseline.json> <current.json>

--update blesses the current run as the new baseline (copies it over).
"""

import argparse
import json
import shutil
import sys

# Absolute ceiling for the production-health overhead ratio: 2x the 5%
# design target, matching the hard gate inside bench_simspeed itself.
HEALTH_OVERHEAD_MAX = 0.10
# Modes whose host-time numbers are stable enough to gate.
GATED_MODES = ("tuned", "tuned+health")


def row_key(row):
    """Identity of a row: workload plus mode when present."""
    return (row.get("workload", "?"), row.get("mode", ""))


def index_rows(doc):
    out = {}
    for row in doc.get("rows", []):
        # Per-epoch rows (no workload) are not gated.
        if "workload" in row:
            out[row_key(row)] = row
    return out


def check(base_path, cur_path, tolerance):
    base = index_rows(json.load(open(base_path)))
    cur = index_rows(json.load(open(cur_path)))
    failures = []
    checked = 0

    def fail(key, msg):
        failures.append("%s/%s: %s" % (key[0], key[1] or "-", msg))

    # Fingerprint equality is machine-independent: any "NO" is a hard fail.
    for key, row in cur.items():
        if row.get("fingerprint_match") not in (None, "yes"):
            fail(key, "fingerprint mismatch")
        checked += 1

    # Per-workload machine-speed scale from the reference-mode rows.
    scales = {}
    for (workload, mode), row in base.items():
        if mode != "reference":
            continue
        ckey = (workload, "reference")
        if ckey not in cur:
            fail(ckey, "reference row missing from current run")
            continue
        scales[workload] = cur[ckey]["cycles_per_s"] / row["cycles_per_s"]

    for key, brow in base.items():
        workload, mode = key
        crow = cur.get(key)
        if crow is None:
            fail(key, "row missing from current run")
            continue

        # Throughput gate, scaled to the current machine's reference speed.
        if mode in GATED_MODES and workload in scales:
            scale = scales[workload]
            for field in ("cycles_per_s", "packets_per_s"):
                if field not in brow or field not in crow:
                    continue
                expected = brow[field] * scale
                if crow[field] < expected * (1.0 - tolerance):
                    fail(key, "%s regressed: %.0f < %.0f (baseline %.0f x "
                              "machine scale %.2f, tolerance %d%%)"
                              % (field, crow[field], expected * (1 - tolerance),
                                 brow[field], scale, tolerance * 100))

        # Speedup ratios are already machine-normalized.
        if "speedup" in brow and "speedup" in crow and mode in GATED_MODES:
            if crow["speedup"] < brow["speedup"] * (1.0 - tolerance):
                fail(key, "speedup regressed: %.2fx < %.2fx (baseline %.2fx)"
                          % (crow["speedup"],
                             brow["speedup"] * (1 - tolerance), brow["speedup"]))

        # Production-health overhead: absolute ceiling, not baseline-relative
        # (the target is a design property, not a measured artifact).
        if "health_overhead" in crow:
            if crow["health_overhead"] > HEALTH_OVERHEAD_MAX:
                fail(key, "health overhead %.1f%% above %.0f%% ceiling"
                          % (crow["health_overhead"] * 100,
                             HEALTH_OVERHEAD_MAX * 100))

    return checked, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="relative slack on throughput/speedup (default 0.10)")
    ap.add_argument("--update", action="store_true",
                    help="bless the current run as the new baseline")
    args = ap.parse_args()

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print("baseline updated from", args.current)
        return 0

    checked, failures = check(args.baseline, args.current, args.tolerance)
    if failures:
        print("PERF REGRESSION GATE: %d failure(s) across %d rows"
              % (len(failures), checked))
        for f in failures:
            print("  FAIL", f)
        return 1
    print("perf regression gate: %d rows checked, all within %d%% of baseline"
          % (checked, int(args.tolerance * 100)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
