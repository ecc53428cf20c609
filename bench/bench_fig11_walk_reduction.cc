/**
 * @file
 * Figure 11: number of page walk requests (i.e. TLB misses) with the
 * SIMT-aware scheduler, normalized to FCFS. The reduction comes from
 * better intra-wavefront TLB locality: delaying translation-heavy
 * instructions keeps them from thrashing the shared L2 TLB.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Figure 11";
    const char *desc = "Page walk count under SIMT-aware scheduling "
                       "(normalized to FCFS)";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::irregularWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    const auto result = exp::runSweep(spec, opts.jobs);

    const std::map<std::string, double> paper{
        {"XSB", 0.85}, {"MVT", 0.75}, {"ATX", 0.78},
        {"NW", 0.85},  {"BIC", 0.76}, {"GEV", 0.70}};

    exp::Report report(id, desc, spec.base);
    auto &table = report.addTable(
        {"app", "fcfs", "simt", "normalized", "paper(approx)"});

    MeanTracker mean;
    for (const auto &app : spec.workloads) {
        const auto &fcfs =
            result.stats(app, core::SchedulerKind::Fcfs);
        const auto &simt =
            result.stats(app, core::SchedulerKind::SimtAware);
        const double norm = static_cast<double>(simt.walkRequests)
                            / static_cast<double>(fcfs.walkRequests);
        mean.add(norm);
        table.addRow({app, std::to_string(fcfs.walkRequests),
                      std::to_string(simt.walkRequests), fmt(norm),
                      fmt(paper.at(app), 2)});
    }
    table.addRule();
    table.addRow({"GEOMEAN", "-", "-", fmt(mean.mean()), "0.79"});
    report.addSummary("geomean_norm_walks", mean.mean());

    report.addNote("paper (Fig. 11): 21% average reduction (up to "
                   "30%) in page walks.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
