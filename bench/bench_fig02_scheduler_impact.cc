/**
 * @file
 * Figure 2: performance impact of page walk scheduling.
 *
 * Four representative irregular applications (MVT, ATX, BIC, GEV)
 * under Random, FCFS, and SIMT-aware scheduling, each normalized to
 * the Random scheduler — the paper's "schedule matters by >2.1x"
 * motivation figure.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Figure 2";
    const char *desc =
        "Performance impact of page walk scheduling (speedup over the "
        "random scheduler)";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::motivationWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Random,
                       core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    const auto result = exp::runSweep(spec, opts.jobs);

    // Approximate values eyeballed from the paper's Figure 2 bars.
    const std::map<std::string, std::pair<double, double>> paper{
        {"MVT", {1.35, 1.75}},
        {"ATX", {1.30, 1.70}},
        {"BIC", {1.35, 1.80}},
        {"GEV", {1.40, 2.10}},
    };

    exp::Report report(id, desc, spec.base);
    auto &table = report.addTable({"app", "random", "fcfs",
                                   "simt-aware", "paper:fcfs",
                                   "paper:simt"});

    MeanTracker mean_fcfs, mean_simt;
    for (const auto &app : spec.workloads) {
        const auto &random =
            result.stats(app, core::SchedulerKind::Random);
        const double f = exp::speedup(
            result.stats(app, core::SchedulerKind::Fcfs), random);
        const double s = exp::speedup(
            result.stats(app, core::SchedulerKind::SimtAware), random);
        mean_fcfs.add(f);
        mean_simt.add(s);
        table.addRow({app, "1.000", fmt(f), fmt(s),
                      fmt(paper.at(app).first, 2),
                      fmt(paper.at(app).second, 2)});
    }
    table.addRule();
    table.addRow({"GEOMEAN", "1.000", fmt(mean_fcfs.mean()),
                  fmt(mean_simt.mean()), "-", "-"});
    report.addSummary("geomean_fcfs_over_random", mean_fcfs.mean());
    report.addSummary("geomean_simt_over_random", mean_simt.mean());

    report.addNote("(paper columns are approximate bar heights from "
                   "Fig. 2; the paper's headline is a >2.1x spread\n"
                   "between the best and worst schedule on GEV)");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
