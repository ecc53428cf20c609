#!/usr/bin/env python3
"""Negative-control self-test of the perfbench benchmark.

From the repository root:

    python3 perfbench/selftest.py [--workload regular] [--seed 42]

Checks, on one workload (regular by default, the fastest):

1. A normal run in each trace mode passes, and prints every metric
   BENCHMARK.json declares for that mode, with the declared unit.
2. An altered expected outcome is reported as failed runs.
3. An undersized trace ring (dropped trace events) is reported as
   failed runs.

Exits non-zero on the first control that does not hold.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")


def bench(workload, seed, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} exited {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="regular")
    p.add_argument("--seed", type=int, default=42)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    # 1. Positive control + every declared metric printed with its unit.
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = bench(args.workload, args.seed, trace)
        expect(out["correct"] and out["failed"] == 0
               and out["attempted"] >= 1,
               f"trace {trace}: clean run is correct "
               f"({out['attempted']} attempted, {out['failed']} failed)")
        printed = out["metrics"]
        for m in spec[key]:
            got = printed.get(m["name"])
            expect(got is not None and got["unit"] == m["unit"]
                   and isinstance(got["value"], (int, float)),
                   f"trace {trace}: {m['name']} printed in {m['unit']}")
        expect(set(printed) == {m["name"] for m in spec[key]},
               f"trace {trace}: no undeclared metrics")

    # 2. An altered expectation must fail the runs it covers.
    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        expected = json.load(f)
    recorded = expected.get(args.workload, {}).get(str(args.seed))
    expect(recorded is not None,
           f"seed {args.seed} has recorded outcomes for {args.workload}")
    recorded[0]["runtime_ticks"] += 1
    altered_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(altered_dir, exist_ok=True)
    altered = os.path.join(altered_dir, "expected-altered.json")
    with open(altered, "w") as f:
        json.dump(expected, f)
    out = bench(args.workload, args.seed, 0, "--expected", altered)
    expect(not out["correct"] and out["failed"] >= 1,
           f"altered expectation reported: {out['failed']} of "
           f"{out['attempted']} runs failed")

    # 3. An undersized trace ring must fail the traced runs.
    out = bench(args.workload, args.seed, 1, "--ring", "1000")
    expect(not out["correct"] and out["failed"] >= 1,
           f"undersized trace ring reported: {out['failed']} of "
           f"{out['attempted']} runs failed")
    print("selftest passed")


if __name__ == "__main__":
    main()
