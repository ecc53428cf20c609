/**
 * @file
 * Figure 5: fraction of SIMD instructions whose page walk requests
 * are service-interleaved with requests from other instructions,
 * under the baseline FCFS scheduler. Instructions with fewer than two
 * walks are excluded (they cannot interleave).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Figure 5";
    const char *desc = "Fraction of multi-walk instructions with "
                       "interleaved walk service (FCFS)";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::motivationWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs};
    const auto result = exp::runSweep(spec, opts.jobs);

    // Approximate bar heights from the paper's Figure 5.
    const std::map<std::string, double> paper{
        {"MVT", 0.45}, {"ATX", 0.77}, {"BIC", 0.55}, {"GEV", 0.70}};

    exp::Report report(id, desc, spec.base);
    auto &table =
        report.addTable({"app", "interleaved", "paper(approx)"});

    for (const auto &app : spec.workloads) {
        const auto &stats =
            result.stats(app, core::SchedulerKind::Fcfs);
        table.addRow({app, fmt(stats.walks.interleavedFraction),
                      fmt(paper.at(app), 2)});
    }

    report.addNote("paper (Fig. 5): 45-77% of multi-walk instructions "
                   "interleave under FCFS because the\nshared L2 TLB "
                   "multiplexes the per-CU miss streams.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
