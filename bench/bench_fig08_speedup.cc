/**
 * @file
 * Figure 8: speedup of the SIMT-aware page walk scheduler over the
 * FCFS baseline, for all twelve benchmarks (six irregular + six
 * regular). The paper's headline result: +30% geomean (up to +41%)
 * on irregular applications, no change on regular ones.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Figure 8";
    const char *desc =
        "Speedup of SIMT-aware walk scheduling over FCFS";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::allWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    const auto result = exp::runSweep(spec, opts.jobs);

    // Approximate bar heights from the paper's Figure 8.
    const std::map<std::string, double> paper{
        {"XSB", 1.25}, {"MVT", 1.35}, {"ATX", 1.30}, {"NW", 1.15},
        {"BIC", 1.35}, {"GEV", 1.41}, {"SSP", 1.00}, {"MIS", 1.00},
        {"CLR", 1.00}, {"BCK", 1.00}, {"KMN", 1.00}, {"HOT", 1.00}};

    exp::Report report(id, desc, spec.base);
    auto &table = report.addTable(
        {"app", "class", "speedup", "paper(approx)"});

    MeanTracker irregular_mean, regular_mean;
    for (const auto &app : spec.workloads) {
        const bool irregular = isIrregular(app);
        const double s = exp::speedup(
            result.stats(app, core::SchedulerKind::SimtAware),
            result.stats(app, core::SchedulerKind::Fcfs));
        (irregular ? irregular_mean : regular_mean).add(s);
        table.addRow({app, irregular ? "irregular" : "regular", fmt(s),
                      fmt(paper.at(app), 2)});
    }
    table.addRule();
    table.addRow(
        {"GEOMEAN", "irregular", fmt(irregular_mean.mean()), "1.30"});
    table.addRow(
        {"GEOMEAN", "regular", fmt(regular_mean.mean()), "1.00"});
    report.addSummary("geomean_speedup_irregular",
                      irregular_mean.mean());
    report.addSummary("geomean_speedup_regular", regular_mean.mean());

    report.addNote("paper (Fig. 8): +30% geomean, up to +41%, on the "
                   "six irregular apps; regular apps unchanged.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
