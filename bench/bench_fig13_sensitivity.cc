/**
 * @file
 * Figure 13: sensitivity of the SIMT-aware speedup to the shared L2
 * TLB size and the number of page table walkers:
 *   (a) 1024-entry L2 TLB, 8 walkers
 *   (b) 512-entry L2 TLB, 16 walkers
 *   (c) 1024-entry L2 TLB, 16 walkers
 * More translation resources shrink the bottleneck and hence the
 * scheduling headroom — the speedups must shrink monotonically from
 * the baseline through (a)/(b) to (c).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Figure 13";
    const char *desc = "SIMT-aware speedup vs FCFS with more "
                       "translation resources";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    struct Variant
    {
        std::string name;
        unsigned l2Entries;
        unsigned walkers;
        double paperMean;
    };
    const std::vector<Variant> variants{
        {"(a) 1024 L2 TLB, 8 walkers", 1024, 8, 1.25},
        {"(b) 512 L2 TLB, 16 walkers", 512, 16, 1.084},
        {"(c) 1024 L2 TLB, 16 walkers", 1024, 16, 1.053},
    };

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::irregularWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    for (const auto &v : variants) {
        const unsigned l2 = v.l2Entries;
        const unsigned walkers = v.walkers;
        spec.variants.push_back(
            {v.name, [l2, walkers](system::SystemConfig &cfg,
                                   workload::WorkloadParams &) {
                 cfg.gpuTlb.l2Entries = l2;
                 cfg.iommu.numWalkers = walkers;
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
        report.addNote("paper (Fig. 13" + v.name.substr(1, 1)
                       + "): mean speedup ~" + fmt(v.paperMean, 3));
        report.addSummary("geomean_speedup_" + v.name.substr(1, 1),
                          mean.mean());
    }

    report.addNote("paper: benefits shrink as TLB capacity or walker "
                   "bandwidth grow, but SIMT-aware never loses.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
