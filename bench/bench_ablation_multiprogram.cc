/**
 * @file
 * Multi-program translation contention (beyond the paper's figures;
 * its §III and §VII point to QoS-aware walk scheduling as follow-on
 * work, citing the memory-controller literature and MASK).
 *
 * Co-runs an irregular, translation-heavy application with a regular,
 * translation-light one on the same GPU. Under FCFS the regular app's
 * rare walks queue behind the irregular app's floods; the SIMT-aware
 * scheduler's SJF scoring naturally prioritizes them (its "jobs" are
 * tiny), shielding the victim — a QoS effect the paper predicts but
 * does not evaluate.
 */

#include "bench_common.hh"

#include "system/system.hh"

namespace {

using namespace bench;

/** A co-run job: two apps share one System; the per-app finish times
 *  land in RunResult::extra. */
exp::Job
corunJob(const system::SystemConfig &base, core::SchedulerKind kind,
         const std::string &aggressor, const std::string &victim)
{
    exp::Job job;
    job.workload = aggressor + "+" + victim;
    job.scheduler = core::toString(kind);
    const auto cfg = exp::withScheduler(base, kind);
    job.body = [cfg, aggressor, victim] {
        system::System sys(cfg);
        auto params = exp::experimentParams();
        params.wavefronts = 128; // per app; 256 total
        sys.loadBenchmark(aggressor, params, /*app_id=*/0);
        sys.loadBenchmark(victim, params, /*app_id=*/1);
        exp::RunResult res;
        res.stats = sys.run();
        res.extra["aggressor_finish"] = static_cast<double>(
            res.stats.appFinishTicks.at(0));
        res.extra["victim_finish"] = static_cast<double>(
            res.stats.appFinishTicks.at(1));
        return res;
    };
    return job;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Ablation (multi-program)";
    const char *desc = "Irregular aggressor + regular victim sharing "
                       "the translation hardware";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    const std::vector<std::pair<std::string, std::string>> pairs{
        {"MVT", "HOT"}, {"GEV", "KMN"}, {"XSB", "BCK"}};

    // Solo FCFS reference runs at the co-run wavefront count.
    exp::SweepSpec solo(opts.base);
    solo.params.wavefronts = 128;
    solo.workloads = {"MVT", "HOT", "GEV", "KMN", "XSB", "BCK"};
    solo.schedulers = {core::SchedulerKind::Fcfs};

    auto jobs = solo.expand();
    for (const auto &[aggressor, victim] : pairs)
        for (const auto kind :
             {core::SchedulerKind::Fcfs, core::SchedulerKind::SimtAware,
              core::SchedulerKind::FairShare})
            jobs.push_back(corunJob(solo.base, kind, aggressor,
                                    victim));
    const auto result = exp::runJobs(jobs, opts.jobs);

    exp::Report report(id, desc, solo.base);
    auto &table = report.addTable({"pair", "victim:fcfs",
                                   "victim:simt", "victim:fair",
                                   "aggr:fcfs", "aggr:simt",
                                   "aggr:fair"});

    for (const auto &[aggressor, victim] : pairs) {
        const double victim_solo = static_cast<double>(
            result.stats(victim, core::SchedulerKind::Fcfs)
                .runtimeTicks);
        const double aggr_solo = static_cast<double>(
            result.stats(aggressor, core::SchedulerKind::Fcfs)
                .runtimeTicks);
        const std::string pair = aggressor + "+" + victim;
        const auto &fcfs =
            result.at(pair, core::SchedulerKind::Fcfs);
        const auto &simt =
            result.at(pair, core::SchedulerKind::SimtAware);
        const auto &fair =
            result.at(pair, core::SchedulerKind::FairShare);

        // Slowdown of each app relative to running alone under FCFS.
        auto slowdown = [](double corun_t, double solo_t) {
            return corun_t / solo_t;
        };
        table.addRow(
            {pair,
             fmt(slowdown(fcfs.extra.at("victim_finish"),
                          victim_solo), 2) + "x",
             fmt(slowdown(simt.extra.at("victim_finish"),
                          victim_solo), 2) + "x",
             fmt(slowdown(fair.extra.at("victim_finish"),
                          victim_solo), 2) + "x",
             fmt(slowdown(fcfs.extra.at("aggressor_finish"),
                          aggr_solo), 2) + "x",
             fmt(slowdown(simt.extra.at("aggressor_finish"),
                          aggr_solo), 2) + "x",
             fmt(slowdown(fair.extra.at("aggressor_finish"),
                          aggr_solo), 2) + "x"});
    }

    report.addNote(
        "Reading: columns are each app's co-run completion time "
        "over its solo FCFS runtime (lower is\nbetter). SIMT-aware "
        "scheduling shields the translation-light victim (its walks "
        "are always the\nshortest jobs) without starving the "
        "aggressor; fair-share adds an explicit per-app round-robin"
        "\ngrant on top — the QoS direction the paper's conclusion "
        "proposes for follow-on work.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
