#!/usr/bin/env python3
"""Hot-path micro-benchmark regression gate.

Each perf_smoke_baseline entry in BENCH_hotpath.json names one
bench_micro_components row with its committed mean and a regression
factor. The gate reruns exactly those rows (3 repetitions, aggregate
mean of real time) and fails when any exceeds factor x mean. The
factor-of-2 margin absorbs runner-to-runner machine noise; an
accidental return to a scan (scan-at-dispatch, per-word bitmap walks,
per-slab pool lookups, a true-LRU scan per TLB fill) is a far larger
jump. Build the bench as Release: the baselines were measured so.

Usage: scripts/perf_smoke.py BENCH_MICRO_COMPONENTS_BINARY
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

binary = sys.argv[1]
with open(os.path.join(ROOT, "BENCH_hotpath.json")) as f:
    bases = json.load(f)["perf_smoke_baseline"]

# Anchored, so a row name never also selects its longer siblings.
pattern = "|".join("^" + re.escape(b["benchmark"]) + "$" for b in bases)
out = subprocess.run(
    [binary, "--benchmark_filter=" + pattern,
     "--benchmark_repetitions=3",
     "--benchmark_report_aggregates_only=true",
     "--benchmark_format=json"],
    check=True, stdout=subprocess.PIPE, text=True).stdout
runs = json.loads(out)["benchmarks"]

failed = []
for base in bases:
    name = base["benchmark"] + "_mean"
    got = next((b["real_time"] for b in runs if b["name"] == name), None)
    if got is None:
        failed.append(f"{name} did not run")
        continue
    limit = base["mean_ns"] * base["regression_fail_factor"]
    print(f"{name}: {got:.2f} ns "
          f"(baseline {base['mean_ns']} ns, limit {limit:.2f} ns)")
    if got > limit:
        failed.append(f"{name} regressed: {got:.2f} ns > {limit:.2f} ns")
if failed:
    sys.exit("perf smoke FAILED: " + "; ".join(failed))
print(f"perf smoke ok: {len(bases)} rows within their limits")
