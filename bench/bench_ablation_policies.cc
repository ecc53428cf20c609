/**
 * @file
 * Grand policy comparison (extension): every scheduling policy in the
 * library side by side on the six irregular benchmarks — the design
 * space the paper's conclusion invites follow-on work to explore.
 *
 *   fcfs        arrival order (the paper's baseline)
 *   random      uniform pick (the paper's strawman)
 *   oldest-job  complete instructions in age order (PAR-BS-flavoured)
 *   sjf-only    paper key idea 1 alone
 *   batch-only  paper key idea 2 alone
 *   simt-aware  the paper's scheduler (1 + 2 + aging)
 *   srpt        selection-time re-scoring "oracle" (quantifies what
 *               the paper's cheap arrival-time estimates give up)
 *   fair-share  per-app round-robin + SIMT-aware within each app
 *               (degenerates to SJF+batching for single-app runs)
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Ablation (policy space)";
    const char *desc =
        "All walk-scheduling policies, speedup vs FCFS";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    const std::vector<core::SchedulerKind> kinds{
        core::SchedulerKind::Random,    core::SchedulerKind::OldestJob,
        core::SchedulerKind::SjfOnly,   core::SchedulerKind::BatchOnly,
        core::SchedulerKind::SimtAware, core::SchedulerKind::Srpt,
        core::SchedulerKind::FairShare,
    };

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::irregularWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs};
    spec.schedulers.insert(spec.schedulers.end(), kinds.begin(),
                           kinds.end());
    const auto result = exp::runSweep(spec, opts.jobs);

    std::vector<std::string> header{"app"};
    for (auto k : kinds)
        header.push_back(core::toString(k));

    exp::Report report(id, desc, spec.base);
    auto &table = report.addTable(header);

    std::vector<MeanTracker> means(kinds.size());
    for (const auto &app : spec.workloads) {
        const auto &fcfs =
            result.stats(app, core::SchedulerKind::Fcfs);
        std::vector<std::string> row{app};
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const double s =
                exp::speedup(result.stats(app, kinds[k]), fcfs);
            means[k].add(s);
            row.push_back(fmt(s));
        }
        table.addRow(row);
    }
    table.addRule();
    std::vector<std::string> mean_row{"GEOMEAN"};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        mean_row.push_back(fmt(means[k].mean()));
        report.addSummary(
            "geomean_speedup_"
                + std::string(core::toString(kinds[k])),
            means[k].mean());
    }
    table.addRow(mean_row);

    report.addNote(
        "Reading: simt-aware vs srpt measures the cost of "
        "arrival-time scoring (the paper argues\nselection-time "
        "re-scoring is infeasible in hardware; srpt does it anyway "
        "as an analysis bound).\noldest-job isolates 'complete "
        "whole instructions' without any length information.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
