/**
 * @file
 * Figure 6: average latency of the first- vs last-completed page walk
 * per SIMD instruction (FCFS baseline), normalized to the first-
 * completed latency. Multi-walk instructions only.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Figure 6";
    const char *desc = "First- vs last-completed walk latency per "
                       "instruction (FCFS, normalized to first)";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::motivationWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs};
    const auto result = exp::runSweep(spec, opts.jobs);

    // Approximate last/first ratios from the paper's Figure 6.
    const std::map<std::string, double> paper{
        {"MVT", 2.2}, {"ATX", 3.0}, {"BIC", 2.4}, {"GEV", 2.8}};

    exp::Report report(id, desc, spec.base);
    auto &table = report.addTable(
        {"app", "first", "last", "last/first", "paper(approx)"});

    for (const auto &app : spec.workloads) {
        const auto &stats =
            result.stats(app, core::SchedulerKind::Fcfs);
        const double first = stats.walks.avgFirstCompletedLatency;
        const double last = stats.walks.avgLastCompletedLatency;
        const double ratio = first > 0 ? last / first : 0.0;
        table.addRow(
            {app, "1.000", fmt(ratio), fmt(ratio),
             fmt(paper.at(app), 1)});
    }

    report.addNote(
        "paper (Fig. 6): the last-completed walk's latency is 2-3x "
        "the first's, i.e. an\ninstruction keeps stalling long after "
        "its first translation returned — the headroom\nthe "
        "SIMT-aware scheduler's batching recovers.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
