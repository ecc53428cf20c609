#!/usr/bin/env python3
"""Host-cost benchmark of the gpuwalk simulator.

Builds perfbench/ (which compiles the simulator from src/) into
.bench_build/, runs one workload, checks every simulated run's outcome
and prints the metrics BENCHMARK.json declares. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (host time with
tracing off); with --trace 1 they are the per-layer ones, taken from a
separate traced pass and from replays of each module's public functions
(perfbench/replay.hh).

Usage, from the repository root:

    python3 perfbench/run.py --workload irregular --seed 42 --seconds 10 --trace 0

A run fails when the simulator panics, retires fewer instructions than
were generated, completes a different number of demand walks than it
requested, or produces a simulated outcome (runtime ticks, stall ticks,
walks, events) other than the one perfbench/expected.json records for
that seed. Seeds with no record must agree with themselves across every
run of the invocation. In the traced pass a run also fails on an audit
violation, a dropped trace event, or a replay whose call count differs
from the simulator's own counter.

--record writes the outcomes of one untimed pass into expected.json.
--expected and --ring exist for perfbench/selftest.py.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("irregular", "regular", "tenant_paging")
OUTCOME = ("runtime_ticks", "stall_ticks", "walks", "events")
TICKS_PER_CYCLE = 500.0
# Fig. 8 geomeans read by eye from the paper's bar chart.
PAPER_FIG8 = {"irregular": 1.30, "regular": 1.00}
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: configure failed")
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", "2"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out, "perfbench")


def run_binary(binary, args, extra):
    """Runs the perfbench binary; returns (records, crashed)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log("perfbench: binary timed out")
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            break
    crashed = proc.returncode != 0
    if crashed:
        log(f"perfbench: binary exited with status {proc.returncode}")
    return records, crashed


def source_revision():
    """Git revision, with the source digest appended when the working
    tree has uncommitted changes; the digest alone outside a git
    checkout."""
    try:
        if not os.path.exists(".git"):
            raise OSError("not a git checkout")
        sha = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain"],
                               capture_output=True, text=True, check=True)
        rev = "git " + sha.stdout.strip()
        return rev + (" dirty, " + source_digest() if dirty.stdout else "")
    except (OSError, subprocess.CalledProcessError):
        return source_digest()


def source_digest():
    """Digest of the simulator and benchmark sources."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources sha256 " + h.hexdigest()[:16]


def check_runs(runs, expected, seed_key):
    """Returns (failed, reasons): failed is the number of failed runs."""
    recorded = expected.get(seed_key)
    want = {}
    if recorded is not None:
        for e in recorded:
            want[(e["app"], e["scheduler"])] = tuple(e[k] for k in OUTCOME)
    failed, reasons = 0, []
    for r in runs:
        key = (r["app"], r["scheduler"])
        got = tuple(r[k] for k in OUTCOME)
        why = []
        if r["instructions"] < r["generated"]:
            why.append(f"retired {r['instructions']} of "
                       f"{r['generated']} instructions")
        if r["walks_completed"] - r["prefetch_completed"] != r["walks"]:
            why.append("demand walks completed != requested")
        if recorded is not None:
            if want.get(key) != got:
                why.append(f"outcome {got} != recorded {want.get(key)}")
        elif key in want:
            if want[key] != got:
                why.append(f"outcome {got} != earlier run {want[key]}")
        else:
            want[key] = got
        if r["traced"]:
            if r["audit_violations"]:
                why.append(f"{r['audit_violations']} audit violations")
            if r["trace_dropped"]:
                why.append(f"{r['trace_dropped']} trace events dropped")
            for c in r["checks"]:
                if not c["ok"]:
                    why.append(f"replay drift: {c['what']} = {c['replay']}"
                               f" vs {c['model']} = {c['model_value']}")
        if why:
            failed += 1
            reasons.append(f"{key[0]}/{key[1]} pass {r['pass']}: "
                           + "; ".join(why))
    return failed, reasons


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def by_pass(untraced):
    passes = {}
    for r in untraced:
        passes.setdefault(r["pass"], []).append(r)
    return list(passes.values())


def by_run(untraced):
    runs = {}
    for r in untraced:
        runs.setdefault((r["app"], r["scheduler"]), []).append(r)
    return runs


def sim_speedup(untraced):
    """Geomean over apps of FCFS runtime / policy runtime (pass 0)."""
    first = by_pass(untraced)[0]
    fcfs = {r["app"]: r["runtime_ticks"] for r in first
            if r["scheduler"] == "fcfs"}
    policy = {r["app"]: r["runtime_ticks"] for r in first
              if r["scheduler"] != "fcfs"}
    return geomean([fcfs[a] / policy[a] for a in fcfs if a in policy])


def end_to_end(untraced, done):
    passes = by_pass(untraced)
    return {
        "wall_s": (statistics.median(sum(r["run_s"] for r in p)
                                     for p in passes), "s"),
        # Each run's median over the passes, then the slowest run.
        "run_s_max": (max(statistics.median(r["run_s"] for r in runs)
                          for runs in by_run(untraced).values()), "s"),
        "setup_s": (statistics.median(sum(r["setup_s"] for r in p)
                                      for p in passes), "s"),
        "peak_rss_mb": (done["peak_rss_kb"] / 1024.0, "MB"),
        "sim_speedup": (sim_speedup(untraced), "ratio"),
    }


def per_layer(untraced, traced):
    passes = by_pass(untraced)
    wall = statistics.median(sum(r["run_s"] for r in p) for p in passes)

    def total(key):
        return sum(r["model"].get(key, 0.0) for r in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    def replay(name):
        calls = sum(t["calls"] for r in traced for t in r["replays"]
                    if t["name"] == name)
        secs = sum(t["seconds"] for r in traced for t in r["replays"]
                   if t["name"] == name)
        return ratio(secs * 1e9, calls)

    def share(module):
        # calls the simulator made x replayed ns per call, over wall_s.
        s = 0.0
        for r in traced:
            for t in r["replays"]:
                if t["module"] == module and t["calls"]:
                    s += t["seconds"] / t["calls"] * t["model_calls"]
        return s / wall

    events = sum(r["events"] for r in passes[0])
    instructions = sum(r["instructions"] for r in traced)
    traced_wall = sum(r["run_s"] for r in traced)
    m = {
        "sim.events": (events, "count"),
        "sim.ns_per_event": (wall * 1e9 / events, "ns/event"),
        "workload.generate_s": (statistics.median(
            sum(r["generate_s"] for r in p) for p in passes), "s"),
        "system.construct_s": (statistics.median(
            sum(r["construct_s"] for r in p) for p in passes), "s"),
        "tlb.coalesce_ns": (replay("tlb.coalesce"), "ns"),
        "tlb.pages_per_inst": (ratio(total("tlb.requests"), instructions),
                               "pages/inst"),
        "tlb.requests": (total("tlb.requests"), "count"),
        "tlb.l1_hit_rate": (ratio(total("tlb.l1_hits"),
                                  total("tlb.l1_lookups")), "ratio"),
        "tlb.l2_hit_rate": (ratio(total("tlb.l2_hits"),
                                  total("tlb.l2_lookups")), "ratio"),
        "tlb.inserts_per_lookup": (ratio(total("tlb.inserts"),
                                         total("tlb.l1_lookups")), "ratio"),
        "tlb.lookup_ns": (replay("tlb.lookup"), "ns"),
        "tlb.insert_ns": (replay("tlb.insert"), "ns"),
        "core.walks": (sum(r["walks"] for r in traced), "count"),
        "core.buffer_occupancy_mean": (
            ratio(total("core.occupancy_sum"),
                  total("core.occupancy_count")), "entries"),
        "core.batch_pick_share": (ratio(total("trace.sched.batch"),
                                        total("trace.sched.picks")),
                                  "ratio"),
        "core.queue_wait_cycles_mean": (
            ratio(total("trace.sched.wait_ticks"),
                  total("trace.sched.scheduled")) / TICKS_PER_CYCLE,
            "cycles"),
        "core.dispatch_ns": (replay("core.dispatch"), "ns"),
        "iommu.pwc_hit_rate": (ratio(total("iommu.pwc_hits"),
                                     total("iommu.pwc_lookups")), "ratio"),
        "iommu.walk_accesses_mean": (ratio(total("trace.walk.accesses"),
                                           total("trace.walk.done")),
                                     "accesses/walk"),
        "iommu.walker_service_cycles_mean": (
            ratio(total("trace.walk.service_ticks"),
                  total("trace.walk.done")) / TICKS_PER_CYCLE, "cycles"),
        "iommu.pwc_ns": (replay("iommu.pwc"), "ns"),
        "iommu.prefetch_accuracy": (
            ratio(total("iommu.prefetch_useful"),
                  total("iommu.prefetch_completed")), "ratio"),
        "iommu.spec_promoted_share": (
            ratio(total("iommu.spec_promoted"),
                  total("iommu.spec_admitted")), "ratio"),
        "iommu.prefetch_ns": (replay("iommu.prefetch"), "ns"),
        "mem.l1d_hit_rate": (ratio(total("mem.l1d_hits"),
                                   total("mem.l1d_accesses")), "ratio"),
        "mem.dram_reads": (total("mem.dram_reads"), "count"),
        "mem.dram_row_hit_rate": (ratio(total("mem.row_hits"),
                                        total("mem.row_accesses")),
                                  "ratio"),
        "mem.dram_queue_depth_mean": (ratio(total("mem.qdepth_sum"),
                                            total("mem.qdepth_count")),
                                      "requests"),
        "mem.cache_access_ns": (replay("mem.cache_access"), "ns"),
        "mem.dram_decode_ns": (replay("mem.dram_decode"), "ns"),
        "vm.translate_ns": (replay("vm.translate"), "ns"),
        "vm.faults": (total("vm.faults"), "count"),
        "vm.evictions": (total("vm.evictions"), "count"),
        "vm.fault_batches": (total("vm.fault_batches"), "count"),
        "vm.remap_ns": (replay("vm.remap"), "ns"),
        "trace.overhead": (traced_wall / wall, "ratio"),
        "trace.events": (sum(r["trace_events"] for r in traced), "count"),
        "trace.dropped": (sum(r["trace_dropped"] for r in traced), "count"),
    }
    shares = 0.0
    for module in ("tlb", "core", "iommu", "mem", "vm"):
        s = share(module)
        m[f"{module}.host_share"] = (s, "ratio")
        shares += s
    m["host.unattributed_share"] = (1.0 - shares, "ratio")
    return m


def record(args, untraced, path):
    """Stores pass 0's outcomes as the expectation for this seed."""
    first = by_pass(untraced)[0]
    failed, reasons = check_runs(first, {}, str(args.seed))
    if failed:
        sys.exit("perfbench: not recording failed runs:\n"
                 + "\n".join(reasons))
    with open(path) as f:
        expected = json.load(f)
    expected.setdefault(args.workload, {})[str(args.seed)] = [
        dict({"app": r["app"], "scheduler": r["scheduler"]},
             **{k: r[k] for k in OUTCOME}) for r in first]
    with open(path, "w") as f:
        f.write(format_expected(expected))
    log(f"perfbench: recorded {args.workload} seed {args.seed}")


def format_expected(expected):
    """expected.json text: one run per line, seeds in numeric order."""
    def joined(items, indent):
        return ",\n".join(" " * indent + item for item in items)

    workloads = []
    for w in sorted(expected):
        seeds = []
        for seed in sorted(expected[w], key=int):
            runs = [json.dumps(r, sort_keys=True) for r in expected[w][seed]]
            seeds.append(f"{json.dumps(seed)}: [\n{joined(runs, 3)}\n  ]")
        workloads.append(f"{json.dumps(w)}: {{\n{joined(seeds, 2)}\n }}")
    return "{\n" + joined(workloads, 1) + "\n}\n"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expected",
                   default=os.path.join(BENCH_DIR, "expected.json"))
    p.add_argument("--ring", type=int, default=0,
                   help="trace ring capacity override (self-test)")
    p.add_argument("--record", action="store_true")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")

    binary = build()
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(
        spans_dir, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    extra = ["--spans", spans]
    if args.ring:
        extra += ["--ring", str(args.ring)]
    if args.record:
        args.seconds, args.trace = 0, 0
    started = time.monotonic()
    records, crashed = run_binary(binary, args, extra)
    runs = [r for r in records if r.get("type") == "run"]
    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    done = next((r for r in records if r.get("type") == "done"), None)

    if args.record:
        if crashed or done is None:
            sys.exit("perfbench: binary failed; nothing recorded")
        record(args, untraced, args.expected)
        return

    with open(args.expected) as f:
        expected = json.load(f).get(args.workload, {})
    failed, reasons = check_runs(runs, expected, str(args.seed))
    attempted = len(runs)
    if crashed or done is None:
        attempted += 1   # the run in progress when the binary died
        failed += 1
        reasons.append("binary crashed or timed out")

    metrics = {}
    try:
        if args.trace:
            metrics = per_layer(untraced, traced)
        else:
            metrics = end_to_end(untraced, done)
    except (IndexError, KeyError, ZeroDivisionError, TypeError,
            statistics.StatisticsError) as e:
        reasons.append(f"metrics incomplete: {e!r}")
        failed = max(failed, 1)

    # ---- Human-readable report (everything before the last line). ----
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced runs in "
          f"{len(by_pass(untraced)) if untraced else 0} passes, "
          f"{len(traced)} traced runs, "
          f"{time.monotonic() - started:.1f} s")
    print("note: every run starts with empty simulated caches, TLBs and "
          "page walk caches (cold), as in the paper's runs")
    print("expectation: "
          + ("recorded outcome for this seed" if str(args.seed) in expected
             else "no record for this seed; runs must agree with each "
                  "other"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6g} {unit}")
    if "sim_speedup" in metrics:
        ref = PAPER_FIG8.get(args.workload)
        print(f"sim_speedup {metrics['sim_speedup'][0]:.3f} "
              + (f"vs paper Fig. 8 geomean {ref:.2f} (read by eye from "
                 f"the figure: the model is validated only against "
                 f"approximate values)" if ref else
                 "(no paper reference for this workload)"))
    for r in traced:
        for s in r["skipped"]:
            print(f"replay skipped on {r['app']}/{r['scheduler']}: {s}")
        stale = r["model"].get("trace.remap.stale_refaults", 0)
        if stale:
            print(f"vm.remap replay on {r['app']}/{r['scheduler']}: "
                  f"{stale:.0f} faults on pages its LRU still held "
                  f"(eviction victims are approximate)")
    print(f"runs {max(attempted, 1)} attempted, runs_failed {failed}")
    for reason in reasons:
        print("FAILED " + reason)
    fingerprint = {"source": source_revision()}
    if done:
        fingerprint.update({k: done[k] for k in
                            ("nproc", "cpu", "compiler", "build_type")})
    print("host " + json.dumps(fingerprint, sort_keys=True))
    print(f"spans: {spans}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
