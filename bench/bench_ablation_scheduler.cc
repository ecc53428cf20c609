/**
 * @file
 * Ablation study (beyond the paper's figures): how much of the
 * SIMT-aware speedup comes from each of the two key ideas?
 *   - sjf-only:   key idea 1 (shortest-job-first scoring) alone
 *   - batch-only: key idea 2 (same-instruction batching) alone
 *   - simt-aware: both (the paper's scheduler)
 * plus two design-subtlety ablations on MVT: the anti-starvation
 * aging override and the PWC counter-pinned replacement.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Ablation";
    const char *desc = "Decomposing the SIMT-aware speedup "
                       "(all values vs FCFS)";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    // Main grid: every irregular app under the decomposed schedulers.
    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::irregularWorkloadNames();
    spec.schedulers = {
        core::SchedulerKind::Fcfs, core::SchedulerKind::SjfOnly,
        core::SchedulerKind::BatchOnly, core::SchedulerKind::SimtAware};

    // Design-subtlety ablations on MVT, run in the same pool.
    exp::SweepSpec subtle(opts.base);
    subtle.workloads = {"MVT"};
    subtle.schedulers = {core::SchedulerKind::SimtAware};
    subtle.variants = {
        {"no-pwc-pinning",
         [](system::SystemConfig &cfg, workload::WorkloadParams &) {
             cfg.iommu.pwc.pinScoredEntries = false;
         }},
        {"aggressive-aging",
         [](system::SystemConfig &cfg, workload::WorkloadParams &) {
             cfg.simt.agingThreshold = 64;
         }},
    };

    const auto result = exp::runJobs(
        exp::concat(spec.expand(), subtle.expand()), opts.jobs);

    exp::Report report(id, desc, spec.base);
    auto &table = report.addTable(
        {"app", "sjf-only", "batch-only", "simt-aware"});

    MeanTracker mean_sjf, mean_batch, mean_simt;
    for (const auto &app : spec.workloads) {
        const auto &fcfs =
            result.stats(app, core::SchedulerKind::Fcfs);
        const double s_sjf = exp::speedup(
            result.stats(app, core::SchedulerKind::SjfOnly), fcfs);
        const double s_batch = exp::speedup(
            result.stats(app, core::SchedulerKind::BatchOnly), fcfs);
        const double s_simt = exp::speedup(
            result.stats(app, core::SchedulerKind::SimtAware), fcfs);
        mean_sjf.add(s_sjf);
        mean_batch.add(s_batch);
        mean_simt.add(s_simt);
        table.addRow({app, fmt(s_sjf), fmt(s_batch), fmt(s_simt)});
    }
    table.addRule();
    table.addRow({"GEOMEAN", fmt(mean_sjf.mean()),
                  fmt(mean_batch.mean()), fmt(mean_simt.mean())});
    report.addSummary("geomean_speedup_sjf_only", mean_sjf.mean());
    report.addSummary("geomean_speedup_batch_only", mean_batch.mean());
    report.addSummary("geomean_speedup_simt_aware", mean_simt.mean());

    const auto &mvt_fcfs =
        result.stats("MVT", core::SchedulerKind::Fcfs);
    const double s_full = exp::speedup(
        result.stats("MVT", core::SchedulerKind::SimtAware), mvt_fcfs);
    const double s_no_pin = exp::speedup(
        result.stats("MVT", core::SchedulerKind::SimtAware,
                     "no-pwc-pinning"),
        mvt_fcfs);
    const double s_eager = exp::speedup(
        result.stats("MVT", core::SchedulerKind::SimtAware,
                     "aggressive-aging"),
        mvt_fcfs);

    report.addNote("Design subtleties (MVT, speedup vs FCFS):\n"
                   "  full SIMT-aware              " + fmt(s_full)
                   + "\n  without PWC pinning          "
                   + fmt(s_no_pin)
                   + "\n  aggressive aging (thr=64)    "
                   + fmt(s_eager));
    report.addSummary("mvt_speedup_full", s_full);
    report.addSummary("mvt_speedup_no_pwc_pinning", s_no_pin);
    report.addSummary("mvt_speedup_aggressive_aging", s_eager);

    report.addNote(
        "(The paper evaluates only the full scheduler; this ablation "
        "quantifies each mechanism's share,\nwhich DESIGN.md calls out "
        "as an open question the paper leaves to follow-on work.)");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
