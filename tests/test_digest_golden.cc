/**
 * @file
 * Differential golden-digest tests: the bit-exact behavioural oracle
 * for hot-path refactors of the simulation core.
 *
 * Each of the five paper schedulers runs three workloads (two
 * irregular, one regular) at a small fixed configuration with
 * walk-lifecycle tracing enabled. The FNV-1a trace digest and the
 * headline RunStats of every run are compared against committed
 * golden values in tests/golden/digests.json. Any change that
 * perturbs simulated behaviour — event ordering, walk scheduling,
 * latencies — fails loudly here; changes that only make the
 * simulator faster leave every value untouched.
 *
 * The golden store is shared with the multi-tenant determinism test
 * ("tenant..." keys); regeneration merges this test's keys into the
 * committed file and preserves the rest.
 *
 * Regenerating goldens (only after an *intentional* behaviour
 * change, with the diff reviewed):
 *
 *     GPUWALK_UPDATE_GOLDEN=1 build/tests/gpuwalk_tests \
 *         --gtest_filter='DigestGolden.*'
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "exp/run.hh"
#include "golden_store.hh"

namespace {

using namespace gpuwalk;
using gpuwalk::testing::GoldenEntry;

/** Grid: the five paper policies x (two irregular + one regular). */
const std::vector<core::SchedulerKind> goldenSchedulers{
    core::SchedulerKind::Fcfs,      core::SchedulerKind::Random,
    core::SchedulerKind::SjfOnly,   core::SchedulerKind::BatchOnly,
    core::SchedulerKind::SimtAware};

const std::vector<std::string> goldenWorkloads{"MVT", "BIC", "KMN"};

/** Small but contended: enough walks to exercise every scheduler
 *  decision path while keeping the full 15-run grid under a few
 *  seconds. Changing any of these invalidates the goldens. */
workload::WorkloadParams
goldenParams()
{
    workload::WorkloadParams params;
    params.wavefronts = 32;
    params.instructionsPerWavefront = 8;
    params.seed = 7;
    params.footprintScale = 0.05;
    params.computeCycles = 20;
    return params;
}

std::string
entryKey(const std::string &workload, core::SchedulerKind sched)
{
    return workload + "/" + core::toString(sched);
}

GoldenEntry
runPoint(const std::string &workload, core::SchedulerKind sched)
{
    system::SystemConfig cfg = system::SystemConfig::baseline();
    cfg.scheduler = sched;
    cfg.trace.enabled = true;
    const exp::RunResult result =
        exp::runOne(cfg, workload, goldenParams());

    EXPECT_EQ(result.stats.traceDropped, 0u)
        << "ring too small for golden runs; digests would depend on "
           "drop behaviour";
    return gpuwalk::testing::goldenEntryOf(result.stats);
}

TEST(DigestGolden, AllSchedulersMatchCommittedDigests)
{
    std::map<std::string, GoldenEntry> computed;
    for (const auto &workload : goldenWorkloads) {
        for (const auto sched : goldenSchedulers)
            computed[entryKey(workload, sched)] =
                runPoint(workload, sched);
    }

    GPUWALK_CHECK_GOLDENS(computed);
}

/** The digest must be a pure function of simulated behaviour: two
 *  identical runs in one process (warm allocator, different object
 *  addresses) digest identically. */
TEST(DigestGolden, DigestIsRunToRunDeterministic)
{
    const auto a = runPoint("MVT", core::SchedulerKind::SimtAware);
    const auto b = runPoint("MVT", core::SchedulerKind::SimtAware);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.traceEvents, b.traceEvents);
}

} // namespace
