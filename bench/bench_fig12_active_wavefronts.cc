/**
 * @file
 * Figure 12: number of distinct wavefronts accessing the GPU's shared
 * L2 TLB per fixed-size epoch (1024 L2 accesses), SIMT-aware
 * normalized to FCFS. Fewer distinct wavefronts per epoch = less TLB
 * contention = the mechanism behind Figure 11's walk reduction.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Figure 12";
    const char *desc = "Distinct wavefronts per L2 TLB epoch, "
                       "SIMT-aware normalized to FCFS";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::irregularWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    const auto result = exp::runSweep(spec, opts.jobs);

    const std::map<std::string, double> paper{
        {"XSB", 0.60}, {"MVT", 0.55}, {"ATX", 0.55},
        {"NW", 0.70},  {"BIC", 0.55}, {"GEV", 0.52}};

    exp::Report report(id, desc, spec.base);
    auto &table = report.addTable(
        {"app", "fcfs", "simt", "normalized", "paper(approx)"});

    MeanTracker mean;
    for (const auto &app : spec.workloads) {
        const auto &fcfs =
            result.stats(app, core::SchedulerKind::Fcfs);
        const auto &simt =
            result.stats(app, core::SchedulerKind::SimtAware);
        const double norm =
            fcfs.avgWavefrontsPerEpoch > 0
                ? simt.avgWavefrontsPerEpoch
                      / fcfs.avgWavefrontsPerEpoch
                : 1.0;
        mean.add(norm);
        table.addRow({app, fmt(fcfs.avgWavefrontsPerEpoch, 1),
                      fmt(simt.avgWavefrontsPerEpoch, 1), fmt(norm),
                      fmt(paper.at(app), 2)});
    }
    table.addRule();
    table.addRow({"GEOMEAN", "-", "-", fmt(mean.mean()), "0.58"});
    report.addSummary("geomean_norm_wavefronts_per_epoch",
                      mean.mean());

    report.addNote(
        "paper (Fig. 12): 42% average reduction in distinct "
        "wavefronts per epoch — the scheduler\nimplicitly throttles "
        "translation-heavy wavefronts, protecting TLB locality.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
