/**
 * @file
 * Figure 14: sensitivity of the SIMT-aware speedup to the IOMMU
 * buffer size — the scheduler's lookahead window:
 *   (a) 128 entries (half the baseline)
 *   (b) 512 entries (double the baseline)
 * A smaller window limits reordering opportunity; a larger one
 * increases it. Speedups must grow monotonically with buffer size.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Figure 14";
    const char *desc = "SIMT-aware speedup vs FCFS with varying "
                       "IOMMU buffer size (scheduler lookahead)";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    struct Variant
    {
        std::string name;
        unsigned buffer;
        double paperMean;
    };
    const std::vector<Variant> variants{
        {"(a) 128-entry IOMMU buffer", 128, 1.13},
        {"(baseline) 256-entry IOMMU buffer", 256, 1.30},
        {"(b) 512-entry IOMMU buffer", 512, 1.50},
    };

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::irregularWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    for (const auto &v : variants) {
        const unsigned buffer = v.buffer;
        spec.variants.push_back(
            {v.name, [buffer](system::SystemConfig &cfg,
                              workload::WorkloadParams &) {
                 cfg.iommu.bufferEntries = buffer;
             }});
    }
    const auto result = exp::runSweep(spec, opts.jobs);

    exp::Report report(id, desc, spec.base);
    for (const auto &v : variants) {
        auto &table = report.addTable({"app", "speedup"});
        table.title = v.name;

        MeanTracker mean;
        for (const auto &app : spec.workloads) {
            const auto &fcfs = result.stats(
                app, core::SchedulerKind::Fcfs, v.name);
            const auto &simt = result.stats(
                app, core::SchedulerKind::SimtAware, v.name);
            const double s = exp::speedup(simt, fcfs);
            mean.add(s);
            table.addRow({app, fmt(s)});
        }
        table.addRule();
        table.addRow({"GEOMEAN", fmt(mean.mean())});
        report.addNote("paper: mean speedup ~" + fmt(v.paperMean, 2));
        report.addSummary(
            "geomean_speedup_" + std::to_string(v.buffer),
            mean.mean());
    }

    report.addNote(
        "paper (Fig. 14): 13% at 128 entries, 30% at 256, 50% at 512 "
        "— lookahead is the scheduler's\nraw material.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
