/**
 * @file
 * Unit tests for the experiment subsystem (src/exp/): table
 * formatting, run helpers, sweep expansion, the parallel runner's
 * determinism, and the JSON report.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "exp/bench_cli.hh"
#include "exp/metrics.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::exp;
using gpuwalk::system::SystemConfig;

TEST(TablePrinterTest, HeaderRowAndRule)
{
    TablePrinter t({"app", "value"}, 8);
    std::ostringstream os;
    t.printHeader(os);
    t.printRow(os, {"MVT", "1.35"});
    const std::string text = os.str();
    EXPECT_NE(text.find("app"), std::string::npos);
    EXPECT_NE(text.find("value"), std::string::npos);
    EXPECT_NE(text.find("MVT"), std::string::npos);
    EXPECT_NE(text.find("--------"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision)
{
    EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(TablePrinter::fmt(1.0, 3), "1.000");
    EXPECT_EQ(TablePrinter::fmt(0.5, 0), "0");
}

TEST(ExperimentHelpers, WithSchedulerOnlyChangesScheduler)
{
    auto base = SystemConfig::baseline();
    auto changed = withScheduler(base, core::SchedulerKind::Random);
    EXPECT_EQ(changed.scheduler, core::SchedulerKind::Random);
    EXPECT_EQ(changed.iommu.numWalkers, base.iommu.numWalkers);
    EXPECT_EQ(changed.gpuTlb.l2Entries, base.gpuTlb.l2Entries);
}

TEST(ExperimentHelpers, ExperimentParamsAreFullFootprint)
{
    const auto p = experimentParams();
    EXPECT_DOUBLE_EQ(p.footprintScale, 1.0);
    EXPECT_GT(p.wavefronts, 0u);
    EXPECT_GT(p.instructionsPerWavefront, 0u);
}

workload::WorkloadParams
tinyParams()
{
    auto params = experimentParams();
    params.wavefronts = 16;
    params.instructionsPerWavefront = 6;
    params.footprintScale = 0.02;
    return params;
}

TEST(ExperimentHelpers, RunOneProducesConsistentResult)
{
    const auto result =
        runOne(SystemConfig::baseline(), "KMN", tinyParams());
    EXPECT_EQ(result.workload, "KMN");
    EXPECT_EQ(result.scheduler, "fcfs");
    EXPECT_EQ(result.schedulerKind, core::SchedulerKind::Fcfs);
    EXPECT_EQ(result.stats.instructions, 16u * 6u);
}

TEST(ExperimentHelpers, PrintBannerEchoesConfig)
{
    std::ostringstream os;
    printBanner(os, "Figure X", "description here",
                SystemConfig::baseline());
    const auto text = os.str();
    EXPECT_NE(text.find("Figure X"), std::string::npos);
    EXPECT_NE(text.find("description here"), std::string::npos);
    EXPECT_NE(text.find("8 CUs"), std::string::npos);
    EXPECT_NE(text.find("DDR3-1600"), std::string::npos);
}

/** Geomean/speedup edge cases: single element, the identity value. */
TEST(ExperimentMath, GeomeanEdgeCases)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({1.0}), 1.0);
    EXPECT_DOUBLE_EQ(geomean({1.0, 1.0, 1.0}), 1.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
}

TEST(ExperimentMath, SpeedupEdgeCases)
{
    system::RunStats fast, slow;
    fast.runtimeTicks = 100;
    slow.runtimeTicks = 150;
    EXPECT_DOUBLE_EQ(speedup(fast, slow), 1.5);
    EXPECT_DOUBLE_EQ(speedup(slow, fast), 100.0 / 150.0);
    EXPECT_DOUBLE_EQ(speedup(fast, fast), 1.0);
}

TEST(ExperimentMath, MeanTrackerIsGeometric)
{
    MeanTracker m;
    m.add(2.0);
    m.add(8.0);
    EXPECT_DOUBLE_EQ(m.mean(), 4.0);
}

TEST(ExperimentMath, DegenerateInputsReportNaNInsteadOfDying)
{
    // A degenerate metric must not kill a whole sweep: the helpers
    // warn and return NaN, which the JSON writer renders as null.
    EXPECT_TRUE(std::isnan(geomean({})));
    EXPECT_TRUE(std::isnan(geomean({1.0, 0.0})));
    EXPECT_TRUE(std::isnan(geomean({2.0, -4.0})));
    // NaN inputs poison the result explicitly, not via pow/log UB.
    EXPECT_TRUE(std::isnan(
        geomean({1.0, std::numeric_limits<double>::quiet_NaN()})));

    system::RunStats ok, stuck;
    ok.runtimeTicks = 100;
    stuck.runtimeTicks = 0;
    EXPECT_TRUE(std::isnan(speedup(ok, stuck)));
    EXPECT_TRUE(std::isnan(speedup(stuck, ok)));
}

TEST(ExperimentMath, MeanTrackerEmptyIsNaN)
{
    MeanTracker m;
    EXPECT_TRUE(std::isnan(m.mean()));
}

TEST(ReportTest, NonFiniteNumbersSerializeAsNull)
{
    system::RunStats stats;
    stats.avgWavefrontsPerEpoch =
        std::numeric_limits<double>::quiet_NaN();
    stats.walks.interleavedFraction =
        std::numeric_limits<double>::infinity();
    const auto json = statsJsonString(stats);
    EXPECT_NE(json.find("\"avg_wavefronts_per_epoch\": null"),
              std::string::npos);
    EXPECT_NE(json.find("\"interleaved_fraction\": null"),
              std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
}

// --- SweepSpec expansion -------------------------------------------

TEST(SweepSpecTest, ExpandsFullCrossProductInDeterministicOrder)
{
    SweepSpec spec;
    spec.workloads = {"MVT", "HOT"};
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    spec.variants = {{"small", nullptr}, {"large", nullptr}};

    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u * 2u * 2u);
    // Variant-major, then workload, then scheduler.
    EXPECT_EQ(jobs[0].variant, "small");
    EXPECT_EQ(jobs[0].workload, "MVT");
    EXPECT_EQ(jobs[0].scheduler, "fcfs");
    EXPECT_EQ(jobs[1].scheduler, "simt-aware");
    EXPECT_EQ(jobs[2].workload, "HOT");
    EXPECT_EQ(jobs[4].variant, "large");
    EXPECT_EQ(jobs[7].workload, "HOT");
    EXPECT_EQ(jobs[7].scheduler, "simt-aware");
}

TEST(SweepSpecTest, ImplicitSeedKeepsBaselinePairing)
{
    // Without an explicit seeds axis the baseline pairing (workload
    // seed from params, scheduler seed from the config) must survive
    // expansion untouched.
    SweepSpec spec;
    spec.params = tinyParams();
    spec.params.seed = 42;
    spec.base.schedulerSeed = 1;
    spec.workloads = {"KMN"};
    bool checked = false;
    spec.body = [&checked](const JobSpec &job) {
        EXPECT_EQ(job.params.seed, 42u);
        EXPECT_EQ(job.cfg.schedulerSeed, 1u);
        checked = true;
        return RunResult{};
    };
    runSweep(spec, 1);
    EXPECT_TRUE(checked);
}

TEST(SweepSpecTest, ExplicitSeedsOverrideBothStreams)
{
    SweepSpec spec;
    spec.params = tinyParams();
    spec.workloads = {"KMN"};
    spec.seeds = {7, 9};
    std::vector<std::uint64_t> seen;
    spec.body = [&seen](const JobSpec &job) {
        EXPECT_EQ(job.params.seed, job.seed);
        EXPECT_EQ(job.cfg.schedulerSeed, job.seed);
        seen.push_back(job.seed);
        return RunResult{};
    };
    const auto result = runSweep(spec, 1);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{7, 9}));
    EXPECT_EQ(result.runs()[0].seed, 7u);
    EXPECT_EQ(result.runs()[1].seed, 9u);
}

TEST(SweepSpecTest, VariantApplyMutatesConfigAndParams)
{
    SweepSpec spec;
    spec.params = tinyParams();
    spec.workloads = {"KMN"};
    spec.variants = {
        {"tweaked",
         [](system::SystemConfig &cfg,
            workload::WorkloadParams &params) {
             cfg.iommu.numWalkers = 3;
             params.useLargePages = true;
         }},
    };
    bool checked = false;
    spec.body = [&checked](const JobSpec &job) {
        EXPECT_EQ(job.cfg.iommu.numWalkers, 3u);
        EXPECT_TRUE(job.params.useLargePages);
        EXPECT_EQ(job.variant, "tweaked");
        checked = true;
        return RunResult{};
    };
    runSweep(spec, 1);
    EXPECT_TRUE(checked);
}

// --- ParallelRunner ------------------------------------------------

SweepSpec
smallRealSweep()
{
    SweepSpec spec;
    spec.params = tinyParams();
    spec.workloads = {"KMN", "MVT"};
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::Random};
    return spec;
}

TEST(ParallelRunnerTest, SerialAndParallelRunsAreByteIdentical)
{
    // The acceptance property: the same SweepSpec with --jobs 1 and
    // --jobs 8 yields byte-identical per-run statistics (compared via
    // the JSON rendition, which prints doubles at max precision).
    const auto serial = runSweep(smallRealSweep(), 1);
    const auto parallel = runSweep(smallRealSweep(), 8);

    ASSERT_EQ(serial.runs().size(), parallel.runs().size());
    EXPECT_EQ(serial.jobsUsed(), 1u);
    for (std::size_t i = 0; i < serial.runs().size(); ++i) {
        EXPECT_EQ(serial.runs()[i].workload,
                  parallel.runs()[i].workload);
        EXPECT_EQ(serial.runs()[i].scheduler,
                  parallel.runs()[i].scheduler);
        EXPECT_EQ(statsJsonString(serial.runs()[i].stats),
                  statsJsonString(parallel.runs()[i].stats))
            << "run " << i << " diverged between --jobs 1 and "
            << "--jobs 8";
    }
}

TEST(ParallelRunnerTest, ResultsKeepExpansionOrderAndLabels)
{
    const auto result = runSweep(smallRealSweep(), 4);
    ASSERT_EQ(result.runs().size(), 4u);
    EXPECT_EQ(result.runs()[0].workload, "KMN");
    EXPECT_EQ(result.runs()[0].scheduler, "fcfs");
    EXPECT_EQ(result.runs()[1].scheduler, "random");
    EXPECT_EQ(result.runs()[2].workload, "MVT");
    // Lookup helpers resolve by label.
    EXPECT_EQ(&result.at("MVT", core::SchedulerKind::Random),
              &result.runs()[3]);
    EXPECT_GT(result.stats("KMN", core::SchedulerKind::Fcfs)
                  .instructions,
              0u);
}

TEST(ParallelRunnerTest, RecordsWallTimes)
{
    const auto result = runSweep(smallRealSweep(), 2);
    EXPECT_GT(result.wallSeconds(), 0.0);
    EXPECT_EQ(result.jobsUsed(), 2u);
    for (const auto &run : result.runs())
        EXPECT_GT(run.wallSeconds, 0.0);
}

TEST(ParallelRunnerTest, FirstExceptionPropagatesToCaller)
{
    std::vector<Job> jobs;
    for (int i = 0; i < 8; ++i) {
        Job job;
        job.workload = "job" + std::to_string(i);
        job.body = [i]() -> RunResult {
            if (i == 3)
                throw std::runtime_error("boom");
            return RunResult{};
        };
        jobs.push_back(std::move(job));
    }
    EXPECT_THROW(runJobs(jobs, 4), std::runtime_error);
    EXPECT_THROW(runJobs(jobs, 1), std::runtime_error);
}

TEST(ParallelRunnerDeathTest, MissingLabelPanics)
{
    SweepSpec spec;
    spec.params = tinyParams();
    spec.workloads = {"KMN"};
    const auto result = runSweep(spec, 1);
    EXPECT_DEATH(result.at("NOPE"), "no sweep result");
}

// --- Report / JSON -------------------------------------------------

TEST(ReportTest, RendersBannerTablesAndNotes)
{
    Report report("Figure T", "test report",
                  SystemConfig::baseline());
    auto &table = report.addTable({"app", "speedup"});
    table.addRow({"MVT", "1.350"});
    table.addRule();
    table.addRow({"GEOMEAN", "1.350"});
    report.addNote("a note about the figure");

    std::ostringstream os;
    report.render(os);
    const auto text = os.str();
    EXPECT_NE(text.find("Figure T"), std::string::npos);
    EXPECT_NE(text.find("speedup"), std::string::npos);
    EXPECT_NE(text.find("GEOMEAN"), std::string::npos);
    EXPECT_NE(text.find("a note about the figure"),
              std::string::npos);
}

TEST(ReportTest, JsonCarriesRunsSummaryAndFingerprint)
{
    auto spec = smallRealSweep();
    const auto result = runSweep(spec, 2);

    Report report("Figure T", "test report", spec.base);
    auto &table = report.addTable({"app", "speedup"});
    table.addRow({"MVT", "1.350"});
    report.addSummary("geomean_speedup", 1.35);

    std::ostringstream os;
    report.writeJson(os, &result);
    const auto json = os.str();
    EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
    EXPECT_NE(json.find("\"config_fingerprint\""), std::string::npos);
    EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
    EXPECT_NE(json.find("\"runs\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"KMN\""), std::string::npos);
    EXPECT_NE(json.find("\"geomean_speedup\""), std::string::npos);
    EXPECT_NE(json.find("\"runtime_ticks\""), std::string::npos);
    EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
}

TEST(ReportTest, ConfigFingerprintTracksConfig)
{
    const auto base = SystemConfig::baseline();
    auto changed = base;
    changed.iommu.numWalkers = 16;
    EXPECT_EQ(configFingerprint(base), configFingerprint(base));
    EXPECT_NE(configFingerprint(base), configFingerprint(changed));
}

TEST(ReportTest, StatsJsonIsByteStableForEqualStats)
{
    system::RunStats a;
    a.runtimeTicks = 12345;
    a.walks.interleavedFraction = 1.0 / 3.0;
    auto b = a;
    EXPECT_EQ(statsJsonString(a), statsJsonString(b));
}

// --- bench CLI parsing ---------------------------------------------

/** parseBenchArgs over @p args (argv[0] is supplied). */
BenchOptions
parseArgs(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    return parseBenchArgs(static_cast<int>(args.size()),
                          const_cast<char **>(args.data()), "id", "desc");
}

/** The config_fingerprint a Report over @p cfg writes into its JSON. */
std::string
reportFingerprint(const SystemConfig &cfg)
{
    std::ostringstream os;
    Report("id", "desc", cfg).writeJson(os, nullptr);
    const std::string key = "\"config_fingerprint\": \"";
    const auto at = os.str().find(key);
    EXPECT_NE(at, std::string::npos);
    return os.str().substr(at + key.size(), 16);
}

TEST(BenchCliTest, ParsesJobsAndJsonBothSpellings)
{
    {
        const auto opts = parseArgs({"--jobs=4", "--json=/tmp/x"});
        EXPECT_EQ(opts.jobs, 4u);
        EXPECT_EQ(opts.jsonPath, "/tmp/x");
    }
    {
        const auto opts = parseArgs({"--jobs", "2", "--json", "/tmp/y"});
        EXPECT_EQ(opts.jobs, 2u);
        EXPECT_EQ(opts.jsonPath, "/tmp/y");
    }
    {
        const auto opts = parseArgs({});
        EXPECT_EQ(opts.jobs, 0u);
        EXPECT_TRUE(opts.jsonPath.empty());
        EXPECT_FALSE(opts.base.audit.enabled);
    }
}

TEST(BenchCliTest, ParsesAuditFlags)
{
    {
        const auto opts = parseArgs({"--audit"});
        EXPECT_TRUE(opts.base.audit.enabled);
        EXPECT_EQ(opts.base.audit.interval, 0u);
    }
    {
        // --audit-interval implies --audit; both spellings work.
        const auto opts = parseArgs({"--audit-interval=500000"});
        EXPECT_TRUE(opts.base.audit.enabled);
        EXPECT_EQ(opts.base.audit.interval, 500000u);
    }
    {
        const auto opts = parseArgs({"--audit-interval", "250"});
        EXPECT_TRUE(opts.base.audit.enabled);
        EXPECT_EQ(opts.base.audit.interval, 250u);
    }
}

TEST(BenchCliTest, PrefetchTakesBothSpellingsAndABareForm)
{
    EXPECT_EQ(parseArgs({"--prefetch", "spp"}).base.iommu.prefetch.kind,
              iommu::PrefetchKind::Spp);
    EXPECT_EQ(parseArgs({"--prefetch=off"}).base.iommu.prefetch.kind,
              iommu::PrefetchKind::Off);
    // A bare --prefetch, last or followed by another flag, means next.
    EXPECT_EQ(parseArgs({"--prefetch"}).base.iommu.prefetch.kind,
              iommu::PrefetchKind::NextPage);
    const auto opts = parseArgs({"--prefetch", "--jobs", "3"});
    EXPECT_EQ(opts.base.iommu.prefetch.kind,
              iommu::PrefetchKind::NextPage);
    EXPECT_EQ(opts.jobs, 3u);
}

TEST(BenchCliTest, ModelFlagsEditTheBaseConfig)
{
    const auto opts = parseArgs(
        {"--oversubscription", "0.5", "--fault-policy=sjf",
         "--wasp-leaders", "2", "--spec-admission=budget",
         "--trace-ring", "64"});
    EXPECT_TRUE(opts.base.gmmu.enabled);
    EXPECT_DOUBLE_EQ(opts.base.gmmu.oversubscription, 0.5);
    EXPECT_EQ(opts.base.gmmu.order, vm::FaultOrder::Sjf);
    // --wasp-leaders implies --wasp.
    EXPECT_EQ(opts.base.gpu.wavefrontSched,
              gpu::WavefrontSchedPolicy::Wasp);
    EXPECT_EQ(opts.base.gpu.waspLeaders, 2u);
    EXPECT_EQ(opts.base.iommu.specAdmission,
              iommu::SpecAdmission::Budget);
    EXPECT_TRUE(opts.base.trace.enabled);
    EXPECT_EQ(opts.base.trace.ringCapacity, 64u);
}

TEST(BenchCliTest, FlagsReachAHandBuiltJob)
{
    // A bench that builds its own jobs (no SweepSpec) starts them from
    // opts.base, so the model flags reach every run.
    const auto opts = parseArgs({"--audit", "--prefetch", "spp"});
    Job job;
    job.workload = "KMN";
    const auto cfg = opts.base;
    job.body = [cfg] { return runOne(cfg, "KMN", tinyParams()); };
    const auto result = runJobs({job}, 1);

    ASSERT_EQ(result.runs().size(), 1u);
    const auto &stats = result.runs()[0].stats;
    EXPECT_TRUE(stats.audited);
    EXPECT_GT(stats.auditChecks, 0u);
    EXPECT_EQ(stats.auditViolations, 0u);
    EXPECT_TRUE(stats.prefetch.enabled);
    EXPECT_NE(statsJsonString(stats).find("\"prefetch\": {"),
              std::string::npos);
}

TEST(BenchCliTest, FingerprintFollowsModelFlagsButNotAuditing)
{
    const auto baseline = reportFingerprint(SystemConfig::baseline());
    EXPECT_NE(reportFingerprint(parseArgs({"--prefetch", "spp"}).base),
              baseline);
    EXPECT_EQ(reportFingerprint(parseArgs({"--audit"}).base), baseline);
    EXPECT_EQ(reportFingerprint(parseArgs({}).base), baseline);
}

TEST(BenchCliDeathTest, MalformedNumberIsFatalInEveryParser)
{
    // The benches and gpuwalk read model flags through the same
    // table, so a malformed value fails the same way in both.
    const char *message =
        "fatal: --fault-latency needs a non-negative integer, got 'abc'";
    EXPECT_EXIT(parseArgs({"--fault-latency=abc"}),
                ::testing::ExitedWithCode(1), message);
    const auto gpuwalkParse = [] {
        SystemConfig cfg;
        const char *argv[] = {"gpuwalk", "--fault-latency", "abc"};
        parseFlags(3, const_cast<char **>(argv), configFlags(cfg));
    };
    EXPECT_EXIT(gpuwalkParse(), ::testing::ExitedWithCode(1), message);
    EXPECT_EXIT(parseArgs({"--wasp-distance=12x"}),
                ::testing::ExitedWithCode(1),
                "--wasp-distance needs a non-negative integer, got '12x'");
    EXPECT_EXIT(parseArgs({"--gmmu-batch=0"}),
                ::testing::ExitedWithCode(1),
                "--gmmu-batch needs a positive integer, got '0'");
    // A value that would wrap in its narrower field is out of range.
    EXPECT_EXIT(parseArgs({"--wasp-leaders=4294967297"}),
                ::testing::ExitedWithCode(1),
                "--wasp-leaders needs an integer no larger than "
                "4294967295, got '4294967297'");
    EXPECT_EXIT(parseArgs({"--audit=yes"}), ::testing::ExitedWithCode(1),
                "--audit takes no value");
    EXPECT_EXIT(parseArgs({"--json"}), ::testing::ExitedWithCode(1),
                "--json needs a value");
}

TEST(ParallelRunnerTest, AuditedSweepIsCleanAndCarriesAuditStats)
{
    SweepSpec spec;
    spec.params = tinyParams();
    spec.workloads = {"KMN"};
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    spec.base.audit.enabled = true;
    spec.base.audit.interval = 100000;
    const auto result = runSweep(spec, 2);

    ASSERT_EQ(result.runs().size(), 2u);
    for (const auto &run : result.runs()) {
        EXPECT_TRUE(run.stats.audited);
        EXPECT_GT(run.stats.auditChecks, 0u);
        EXPECT_EQ(run.stats.auditViolations, 0u)
            << run.workload << "/" << run.scheduler
            << " violated an invariant";
        const auto json = statsJsonString(run.stats);
        EXPECT_NE(json.find("\"audited\": true"), std::string::npos);
        EXPECT_NE(json.find("\"violations\": 0"), std::string::npos);
    }
}

TEST(ParallelRunnerTest, AuditDoesNotChangeSimulatedResults)
{
    // Auditing is observation-only: the same sweep with and without
    // --audit must produce identical simulated statistics. (The
    // events-executed count differs — the audit drains post-kernel
    // tail work — so compare the simulated-time fields directly.)
    const auto plain = runSweep(smallRealSweep(), 2);
    auto audited = smallRealSweep();
    audited.base.audit.enabled = true;
    audited.base.audit.interval = 250000;
    const auto checked = runSweep(audited, 2);

    ASSERT_EQ(plain.runs().size(), checked.runs().size());
    for (std::size_t i = 0; i < plain.runs().size(); ++i) {
        const auto &a = plain.runs()[i].stats;
        const auto &b = checked.runs()[i].stats;
        EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
        EXPECT_EQ(a.stallTicks, b.stallTicks);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.walkRequests, b.walkRequests);
        EXPECT_EQ(a.walksCompleted, b.walksCompleted);
        EXPECT_EQ(b.auditViolations, 0u);
    }
}

} // namespace
