#!/usr/bin/env python3
"""Gate a bench's --json output on auditing: every run must carry
"audited": true, at least one check and zero violations.

Usage: scripts/check_audited.py BENCH_JSON
"""
import json
import sys

doc = json.load(open(sys.argv[1]))
assert doc["runs"], "no runs in JSON"
bad = 0
for run in doc["runs"]:
    stats = run["stats"]
    assert stats["audited"] is True, f"run not audited: {run['workload']}"
    audit = stats["audit"]
    assert audit["checks"] > 0, run["workload"]
    if audit["violations"]:
        bad += 1
        print(f"VIOLATIONS in {run['workload']}/{run['scheduler']}:")
        for finding in audit["findings"]:
            print("  ", finding)
assert bad == 0, f"{bad} runs with audit violations"
print(f"{doc['experiment']['id']} audit clean: {len(doc['runs'])} runs")
