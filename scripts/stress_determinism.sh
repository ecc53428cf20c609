#!/bin/sh
# Repeats the determinism tests on every core at once. Races show up as
# rare divergences, so one pass is not enough: this runs one copy of
# the filter per core (nproc copies), each with --gtest_repeat.
# Usage: scripts/stress_determinism.sh [build-dir] [repeat]
set -e

BUILD="${1:-build}"
REPEAT="${2:-20}"
FILTER='TenantDeterminism.*:OversubDeterminism.*:WaspDeterminism.*:SppDeterminism.*:*DeterminismProperty*:SystemIntegration.RunsAreDeterministic:ParallelRunnerTest.SerialAndParallelRunsAreByteIdentical'
COPIES="$(nproc 2>/dev/null || echo 4)"

pids=""
i=0
while [ "$i" -lt "$COPIES" ]; do
    "$BUILD"/tests/gpuwalk_tests --gtest_filter="$FILTER" \
        --gtest_repeat="$REPEAT" --gtest_brief=1 \
        > "$BUILD/stress_determinism.$i.log" 2>&1 &
    pids="$pids $!"
    i=$((i + 1))
done

failed=0
i=0
for pid in $pids; do
    if ! wait "$pid"; then
        echo "determinism stress copy $i failed:"
        tail -n 40 "$BUILD/stress_determinism.$i.log"
        failed=1
    fi
    i=$((i + 1))
done
[ "$failed" -eq 0 ] || exit 1
echo "determinism stress ok: $COPIES concurrent copies x $REPEAT repeats"
