#!/bin/sh
# Tier-1 verification: configure, build, run the full test suite,
# repeat the determinism tests on every core, then smoke one bench
# through the parallel runner and sanity-check its structured JSON
# output, gate an audited bench on zero violations, and run the CI
# hot-path micro-benchmark gate on a Release build.
# Usage: scripts/check.sh [build-dir]
set -e

BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir "$BUILD" --output-on-failure -j \
    "$(nproc 2>/dev/null || echo 4)"

# The CI determinism job's stress step: every core, 20 repeats.
"$ROOT"/scripts/stress_determinism.sh "$BUILD" 20

# Smoke sweep: one figure bench on the thread pool with JSON output.
SMOKE_JSON=/tmp/out.json
rm -f "$SMOKE_JSON"
"$BUILD"/bench/bench_fig02_scheduler_impact --jobs 2 \
    --json "$SMOKE_JSON"

# JSON sanity: well-formed, schema v1, runs present, jobs as requested.
python3 - "$SMOKE_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema_version"] == 1, doc.get("schema_version")
assert doc["jobs"] == 2, doc["jobs"]
assert doc["runs"], "no runs in JSON"
assert doc["wall_seconds"] > 0
for run in doc["runs"]:
    assert run["workload"] and run["scheduler"]
    assert run["stats"]["runtime_ticks"] > 0
    assert run["wall_seconds"] > 0
assert doc["config_fingerprint"]
print("JSON sanity ok:", len(doc["runs"]), "runs,",
      "fingerprint", doc["config_fingerprint"],
      "git", doc["git_sha"])
EOF

# Audit gate on a bench that builds its jobs by hand rather than
# through a SweepSpec (the CI audit job runs the same gate).
AUDIT_JSON=/tmp/multiprogram_audit.json
rm -f "$AUDIT_JSON"
"$BUILD"/bench/bench_ablation_multiprogram --jobs 2 --audit \
    --json "$AUDIT_JSON"
python3 "$ROOT"/scripts/check_audited.py "$AUDIT_JSON"

# Hot-path micro-benchmark gate (the CI perf-smoke job), on a Release
# build of the one bench it reads: its baselines were measured so.
cmake -S . -B "$BUILD-perf" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD-perf" -j "$(nproc 2>/dev/null || echo 4)" \
    --target bench_micro_components
python3 "$ROOT"/scripts/perf_smoke.py \
    "$BUILD-perf"/bench/bench_micro_components

echo "check.sh: all green"
