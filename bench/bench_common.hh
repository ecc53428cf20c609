/**
 * @file
 * Shared helpers for the per-figure experiment binaries.
 *
 * Every bench declares a SweepSpec (workloads x schedulers x config
 * variants) over the base config its flags describe (opts.base from
 * exp::parseBenchArgs), executes it on the ParallelRunner (--jobs),
 * and maps the results into a Report: the paper-figure console table
 * plus optional structured JSON (--json). The paper's (approximate,
 * eyeballed-from-figure) values are printed next to ours for easy
 * comparison; EXPERIMENTS.md records the full paper-vs-measured
 * discussion.
 */

#ifndef GPUWALK_BENCH_BENCH_COMMON_HH
#define GPUWALK_BENCH_BENCH_COMMON_HH

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "exp/bench_cli.hh"
#include "exp/metrics.hh"
#include "exp/report.hh"
#include "workload/registry.hh"

namespace bench {

using namespace gpuwalk;

using exp::fmt;
using exp::MeanTracker;

/** True if Table II classifies @p app as irregular. */
inline bool
isIrregular(const std::string &app)
{
    return workload::makeWorkload(app)->info().irregular;
}

} // namespace bench

#endif // GPUWALK_BENCH_BENCH_COMMON_HH
