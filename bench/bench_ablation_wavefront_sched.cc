/**
 * @file
 * Wasp co-design factorial: de-staggered wavefront scheduling x
 * translation prefetch x page-walk scheduler.
 *
 * The paper (§VI) leaves scheduler coordination as future work; this
 * bench measures one concrete co-design. Wavefront side: Wasp splits
 * each CU's resident slots into leaders (issue first, win arbitration)
 * and followers (first issues pushed out by the issue-distance lead).
 * Walk side: leader-originated walks are classed speculative, so the
 * lookahead they create never delays follower demand walks, and
 * leader streams train the translation prefetcher ahead of the pack.
 *
 * Full factorial over the irregular apps: wavefront policy {rr, wasp}
 * x prefetch {off, next, spp} x walk scheduler {fcfs, simt-aware}.
 * The questions: (a) does Wasp's translation lookahead speed up the
 * follower pack, (b) does it compose with (rather than substitute
 * for) SIMT-aware walk scheduling, and (c) does leader-trained SPP
 * beat SPP alone. Committed as BENCH_wasp.json.
 */

#include "bench_common.hh"

#include "system/system.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Ablation (wasp co-design factorial)";
    const char *desc = "wavefront {rr, wasp} x prefetch {off, next, "
                       "spp} x walk scheduler {fcfs, simt-aware}";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    constexpr iommu::PrefetchKind kinds[] = {
        iommu::PrefetchKind::Off, iommu::PrefetchKind::NextPage,
        iommu::PrefetchKind::Spp};
    constexpr const char *wfNames[] = {"rr", "wasp"};

    exp::SweepSpec spec;
    spec.workloads = workload::irregularWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    for (const char *wf : wfNames) {
        for (const auto kind : kinds) {
            const bool wasp = std::string(wf) == "wasp";
            std::string name = std::string(wf) + "/pf-"
                               + iommu::toString(kind);
            spec.variants.push_back(
                {std::move(name),
                 [wasp, kind](system::SystemConfig &cfg,
                              workload::WorkloadParams &) {
                     cfg.gpu.wavefrontSched =
                         wasp ? gpu::WavefrontSchedPolicy::Wasp
                              : gpu::WavefrontSchedPolicy::RoundRobin;
                     cfg.iommu.prefetch.kind = kind;
                     // Wasp runs at the config default (idle
                     // admission): leader walks ride the speculative
                     // class on idle walk bandwidth and age-promote
                     // into the demand class. Setting walkers aside
                     // for speculation (the retired reserved
                     // admission) starved demand at 8 walkers
                     // (irregular geomean 0.95 vs 1.02; see
                     // EXPERIMENTS.md). The admission axis itself is
                     // swept in bench_ablation_prefetch.
                 }});
        }
    }
    const auto result = exp::runSweep(spec, opts.runner);

    exp::Report report(id, desc, spec.base);

    // Headline per-app table: every cell normalized to RR + no
    // prefetch + FCFS (the baseline of baselines), SIMT-aware walk
    // scheduling in the right half.
    auto &table = report.addTable(
        {"app", "rr:off", "wasp:off", "wasp:spp", "rr:off:simt",
         "wasp:off:simt", "wasp:spp:simt", "leader-walks"},
        "Speedup over rr/pf-off/fcfs", 14);
    for (const auto &app : spec.workloads) {
        const auto &base = result.stats(
            app, core::SchedulerKind::Fcfs, "rr/pf-off");
        const double base_t = static_cast<double>(base.runtimeTicks);
        auto rel = [&](core::SchedulerKind s, const std::string &v) {
            return base_t
                   / static_cast<double>(
                       result.stats(app, s, v).runtimeTicks);
        };
        const auto &waspSpp = result.stats(
            app, core::SchedulerKind::SimtAware, "wasp/pf-spp");
        table.addRow(
            {app, "1.000",
             fmt(rel(core::SchedulerKind::Fcfs, "wasp/pf-off")),
             fmt(rel(core::SchedulerKind::Fcfs, "wasp/pf-spp")),
             fmt(rel(core::SchedulerKind::SimtAware, "rr/pf-off")),
             fmt(rel(core::SchedulerKind::SimtAware, "wasp/pf-off")),
             fmt(rel(core::SchedulerKind::SimtAware, "wasp/pf-spp")),
             std::to_string(waspSpp.spec.leaderWalks)});
    }

    // Factorial geomeans: Wasp's gain within each prefetch/scheduler
    // cell (runtime(rr) / runtime(wasp), same pf + walk scheduler),
    // and SIMT-aware's gain within each wavefront/prefetch cell — if
    // the latter stays near its RR value, co-design composes instead
    // of substituting (ROADMAP item 1).
    auto &cells = report.addTable(
        {"prefetch", "wasp@fcfs", "wasp@simt", "simt@rr", "simt@wasp"},
        "Irregular-app geomeans per factorial cell", 12);
    for (const auto kind : kinds) {
        const std::string pf = iommu::toString(kind);
        std::vector<double> waspFcfs, waspSimt, simtRr, simtWasp;
        for (const auto &app : spec.workloads) {
            const auto &rrF = result.stats(
                app, core::SchedulerKind::Fcfs, "rr/pf-" + pf);
            const auto &rrS = result.stats(
                app, core::SchedulerKind::SimtAware, "rr/pf-" + pf);
            const auto &waF = result.stats(
                app, core::SchedulerKind::Fcfs, "wasp/pf-" + pf);
            const auto &waS = result.stats(
                app, core::SchedulerKind::SimtAware, "wasp/pf-" + pf);
            waspFcfs.push_back(exp::speedup(waF, rrF));
            waspSimt.push_back(exp::speedup(waS, rrS));
            simtRr.push_back(exp::speedup(rrS, rrF));
            simtWasp.push_back(exp::speedup(waS, waF));
        }
        const double wf = exp::geomean(waspFcfs);
        const double ws = exp::geomean(waspSimt);
        const double sr = exp::geomean(simtRr);
        const double sw = exp::geomean(simtWasp);
        cells.addRow({pf, fmt(wf), fmt(ws), fmt(sr), fmt(sw)});
        report.addSummary("wasp_irregular_speedup_" + pf + "_fcfs", wf);
        report.addSummary("wasp_irregular_speedup_" + pf + "_simt", ws);
        report.addSummary("simt_gain_rr_" + pf, sr);
        report.addSummary("simt_gain_wasp_" + pf, sw);
    }

    report.addNote(
        "Reading: wasp@X = geomean runtime(rr)/runtime(wasp) with walk "
        "scheduler X and the row's\nprefetcher; simt@Y = SIMT-aware's "
        "gain over FCFS within wavefront policy Y. If simt@wasp "
        "stays\nnear simt@rr, the co-design composes with page-walk "
        "scheduling rather than substituting for\nit — leaders only "
        "add lookahead, their walks ride the speculative class, and "
        "demand walks still\nbenefit from SJF + batching.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
