/**
 * @file
 * Figure 9: GPU execution-stage stall cycles with the SIMT-aware
 * scheduler, normalized to FCFS. Stall cycles are ticks during which
 * a CU has resident wavefronts but none can execute.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Figure 9";
    const char *desc = "CU stall cycles under SIMT-aware scheduling "
                       "(normalized to FCFS)";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::allWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    const auto result = exp::runSweep(spec, opts.jobs);

    const std::map<std::string, double> paper{
        {"XSB", 0.80}, {"MVT", 0.74}, {"ATX", 0.75}, {"NW", 0.85},
        {"BIC", 0.74}, {"GEV", 0.71}, {"SSP", 1.00}, {"MIS", 1.00},
        {"CLR", 1.00}, {"BCK", 1.00}, {"KMN", 1.00}, {"HOT", 1.00}};

    exp::Report report(id, desc, spec.base);
    auto &table = report.addTable(
        {"app", "class", "norm.stalls", "paper(approx)"});

    MeanTracker irregular_mean;
    for (const auto &app : spec.workloads) {
        const bool irregular = isIrregular(app);
        const auto &fcfs =
            result.stats(app, core::SchedulerKind::Fcfs);
        const auto &simt =
            result.stats(app, core::SchedulerKind::SimtAware);
        const double norm =
            fcfs.stallTicks > 0
                ? static_cast<double>(simt.stallTicks)
                      / static_cast<double>(fcfs.stallTicks)
                : 1.0;
        if (irregular)
            irregular_mean.add(norm);
        table.addRow({app, irregular ? "irregular" : "regular",
                      fmt(norm), fmt(paper.at(app), 2)});
    }
    table.addRule();
    table.addRow({"GEOMEAN", "irregular", fmt(irregular_mean.mean()),
                  "0.77"});
    report.addSummary("geomean_norm_stalls_irregular",
                      irregular_mean.mean());

    report.addNote("paper (Fig. 9): 23% average stall reduction (up "
                   "to 29%) on irregular apps; regular apps "
                   "unchanged.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
