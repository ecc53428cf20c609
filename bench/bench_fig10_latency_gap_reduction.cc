/**
 * @file
 * Figure 10: the latency gap between the first- and last-completed
 * page walk per instruction with the SIMT-aware scheduler, normalized
 * to the gap under FCFS. Multi-walk instructions only.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Figure 10";
    const char *desc = "First-to-last walk latency gap, SIMT-aware "
                       "normalized to FCFS";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::irregularWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    const auto result = exp::runSweep(spec, opts.jobs);

    const std::map<std::string, double> paper{
        {"XSB", 0.66}, {"MVT", 0.60}, {"ATX", 0.55},
        {"NW", 0.75},  {"BIC", 0.60}, {"GEV", 0.62}};

    exp::Report report(id, desc, spec.base);
    auto &table =
        report.addTable({"app", "norm.gap", "paper(approx)"});

    MeanTracker mean;
    for (const auto &app : spec.workloads) {
        const auto &fcfs =
            result.stats(app, core::SchedulerKind::Fcfs);
        const auto &simt =
            result.stats(app, core::SchedulerKind::SimtAware);
        const double norm =
            fcfs.walks.avgLatencyGap > 0
                ? simt.walks.avgLatencyGap / fcfs.walks.avgLatencyGap
                : 1.0;
        mean.add(norm);
        table.addRow({app, fmt(norm), fmt(paper.at(app), 2)});
    }
    table.addRule();
    table.addRow({"GEOMEAN", fmt(mean.mean()), "0.63"});
    report.addSummary("geomean_norm_latency_gap", mean.mean());

    report.addNote(
        "paper (Fig. 10): batching shrinks the gap by 37% on average. "
        "See EXPERIMENTS.md for where this\nmodel's gap behaviour "
        "deviates (saturated workloads trade gap for walk-count "
        "reduction).");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
