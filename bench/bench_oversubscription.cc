/**
 * @file
 * Memory oversubscription sweep: demand paging under shrinking
 * resident-frame budgets, across walk schedulers.
 *
 * For each workload x scheduler the sweep runs a fully resident
 * baseline (GMMU off, eager mapping — the configuration of every
 * paper figure) and three demand-paged variants whose resident-frame
 * cap is 1.0x, 0.75x and 0.5x of the workload footprint. Reported:
 * per-run slowdown vs the resident baseline, per-scheduler geometric
 * means, and the raise-to-service fault latency distribution summed
 * over the workloads of each (scheduler, ratio) cell.
 *
 * Not a paper figure: the source paper assumes fully resident
 * workloads. This is the scheduling-under-faults extension the GMMU
 * subsystem exists for — far-fault batching and migration stretch
 * walk latencies by orders of magnitude, which stresses exactly the
 * queue the walk schedulers arbitrate.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Oversubscription";
    const char *desc =
        "Demand paging under shrinking frame budgets, per scheduler";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    // Two irregular apps plus one regular control: faulting runs cost
    // simulated-tick volume, not host time, but the full Table II set
    // adds nothing the ratio axis doesn't already show.
    const std::vector<std::string> apps{"MVT", "GEV", "KMN"};
    const std::vector<core::SchedulerKind> scheds{
        core::SchedulerKind::Fcfs, core::SchedulerKind::SimtAware};
    // 1.0 isolates cold-start fault-in (the cap never binds); the
    // tighter points sit below the apps' touched working sets (under
    // half the footprint for every Table II app), so capacity
    // eviction and re-faulting genuinely engage.
    const std::vector<double> ratios{1.0, 0.25, 0.10};

    exp::SweepSpec spec(opts.base);
    spec.workloads = apps;
    spec.schedulers = scheds;
    // Variant-applied GMMU settings override the base wholesale for
    // the enable bit and the ratio; latency/policy knobs passed on
    // the command line flow through untouched.
    spec.variants.push_back(
        {"resident", [](system::SystemConfig &cfg,
                        workload::WorkloadParams &) {
             cfg.gmmu.enabled = false;
         }});
    for (const double r : ratios) {
        spec.variants.push_back(
            {"oversub-" + fmt(r, 2),
             [r](system::SystemConfig &cfg,
                 workload::WorkloadParams &) {
                 cfg.gmmu.enabled = true;
                 cfg.gmmu.oversubscription = r;
             }});
    }
    const auto result = exp::runSweep(spec, opts.jobs);

    exp::Report report(id, desc, spec.base);
    auto &table = report.addTable({"app", "scheduler", "ratio",
                                   "slowdown", "faults", "evicted",
                                   "avg fault lat (Mt)"});

    for (const auto &sched : scheds) {
        for (const double r : ratios) {
            const std::string variant = "oversub-" + fmt(r, 2);
            MeanTracker slow_mean;
            std::vector<std::uint64_t> hist(
                vm::faultLatencyBucketBounds().size() + 1, 0);
            std::uint64_t hist_samples = 0;
            for (const auto &app : apps) {
                const auto &base = result.stats(app, sched, "resident");
                const auto &over = result.stats(app, sched, variant);
                // Slowdown: inverse of speedup, > 1 = paging hurts.
                const double s = exp::speedup(base, over);
                slow_mean.add(s);
                const auto &g = over.gmmu;
                for (std::size_t b = 0;
                     b < g.latencyBucketCounts.size()
                     && b < hist.size();
                     ++b) {
                    hist[b] += g.latencyBucketCounts[b];
                }
                hist_samples += g.latencySamples;
                table.addRow(
                    {app, core::toString(sched), fmt(r, 2), fmt(s),
                     std::to_string(g.faultsRaised),
                     std::to_string(g.pagesEvicted),
                     fmt(g.latencyAvg / 1e6, 2)});
            }
            table.addRow({"GEOMEAN", core::toString(sched), fmt(r, 2),
                          fmt(slow_mean.mean()), "", "", ""});
            table.addRule();
            report.addSummary("geomean_slowdown_"
                                  + core::toString(sched) + "_"
                                  + fmt(r, 2),
                              slow_mean.mean());
            report.addSummary("fault_latency_samples_"
                                  + core::toString(sched) + "_"
                                  + fmt(r, 2),
                              static_cast<double>(hist_samples));
        }
    }

    // The fault-latency distribution per (scheduler, ratio) cell,
    // summed over the apps: the scheduler's fingerprint on fault
    // servicing (batch formation changes raise-to-service waits).
    auto &hist_table = report.addTable(
        {"scheduler", "ratio", "bucket (Mt)", "faults"},
        "fault service latency histogram");
    const auto &bounds = vm::faultLatencyBucketBounds();
    for (const auto &sched : scheds) {
        for (const double r : ratios) {
            const std::string variant = "oversub-" + fmt(r, 2);
            std::vector<std::uint64_t> hist(bounds.size() + 1, 0);
            for (const auto &app : apps) {
                const auto &g = result.stats(app, sched, variant).gmmu;
                for (std::size_t b = 0;
                     b < g.latencyBucketCounts.size()
                     && b < hist.size();
                     ++b) {
                    hist[b] += g.latencyBucketCounts[b];
                }
            }
            for (std::size_t b = 0; b < hist.size(); ++b) {
                if (hist[b] == 0)
                    continue; // all-zero buckets add only noise
                const std::string label =
                    b < bounds.size()
                        ? "<= " + fmt(bounds[b] / 1e6, 1)
                        : "> " + fmt(bounds.back() / 1e6, 1);
                hist_table.addRow({core::toString(sched), fmt(r, 2),
                                   label, std::to_string(hist[b])});
            }
            hist_table.addRule();
        }
    }

    report.addNote(
        "slowdown = resident runtime baseline's runtime divided into "
        "the demand-paged runtime (> 1: paging costs time). ratio "
        "1.0 isolates cold-start fault-in; < 1.0 adds capacity "
        "eviction and re-faulting.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
