/**
 * @file
 * Translation-prefetcher factorial ablation (extension; the paper's
 * related work cites TLB prefetchers [44] as a complementary
 * direction).
 *
 * Full factorial: prefetch policy {off, next-page, spp} x walk
 * scheduler {fcfs, simt-aware} x SIMT-aware aging {on, off}, over all
 * Table II workloads, plus a speculative-admission axis {idle,
 * budget} for the aging-on cells of each live prefetcher.
 * Under idle admission every speculative walk is idle-bandwidth only,
 * so no cell may slow demand traffic down; the interesting questions
 * are (a) whether SPP's signature-path lookahead finds the strided
 * sub-streams inside the irregular apps that next-page misses, (b)
 * whether the benefit survives scheduler and aging interaction, and
 * (c) whether routing predictions through the speculative walk class
 * under a token budget buys coverage without taxing demand latency. Per-cell accuracy/coverage/pollution land in the
 * JSON via each run's stats.prefetch block.
 */

#include "bench_common.hh"

#include "system/system.hh"

namespace {

using namespace bench;

const char *
pfName(iommu::PrefetchKind kind)
{
    return iommu::toString(kind);
}

/** Walk latency the GPU actually waits on: the mean tick count until
 *  an instruction's last outstanding walk completes (demand only). */
double
walkLatency(const system::RunStats &stats)
{
    return stats.walks.avgLastCompletedLatency;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *id = "Ablation (prefetch factorial)";
    const char *desc = "Translation prefetch {off, next, spp} x "
                       "scheduler {fcfs, simt-aware} x aging {on, off}";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    constexpr iommu::PrefetchKind kinds[] = {
        iommu::PrefetchKind::Off, iommu::PrefetchKind::NextPage,
        iommu::PrefetchKind::Spp};
    constexpr bool agings[] = {true, false};
    // Aging off = an unreachable starvation bound: the SIMT-aware
    // scheduler never overrides its batch/SJF pick.
    constexpr std::uint64_t noAgingThreshold = ~std::uint64_t(0);

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::allWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    for (const auto kind : kinds) {
        for (const bool aging : agings) {
            std::string name = std::string("pf-") + pfName(kind)
                               + (aging ? "/aging-on" : "/aging-off");
            spec.variants.push_back(
                {std::move(name),
                 [kind, aging](system::SystemConfig &cfg,
                               workload::WorkloadParams &) {
                     cfg.iommu.prefetch.kind = kind;
                     if (!aging)
                         cfg.simt.agingThreshold = noAgingThreshold;
                 }});
        }
    }
    // Admission axis: route predictions through the speculative walk
    // class under a token budget instead of the idle-walker direct
    // start. Only the aging-on cells of the live prefetchers — idle
    // admission is the "pf-*/aging-on" variants above.
    for (const auto kind :
         {iommu::PrefetchKind::NextPage, iommu::PrefetchKind::Spp}) {
        spec.variants.push_back(
            {std::string("pf-") + pfName(kind) + "/adm-budget",
             [kind](system::SystemConfig &cfg,
                    workload::WorkloadParams &) {
                 cfg.iommu.prefetch.kind = kind;
                 cfg.iommu.specAdmission = iommu::SpecAdmission::Budget;
             }});
    }
    const auto result = exp::runSweep(spec, opts.jobs);

    exp::Report report(id, desc, spec.base);

    // Headline table: the paper's scheduler (SIMT-aware, aging on),
    // per-app demand-walk latency across the three policies plus the
    // SPP pollution-policing counters.
    auto &table = report.addTable(
        {"app", "walklat:off", "walklat:next", "walklat:spp",
         "spp:issued", "spp:accuracy", "spp:coverage", "spp:pollution"},
        "SIMT-aware, aging on", 13);
    for (const auto &app : spec.workloads) {
        const auto &off = result.stats(
            app, core::SchedulerKind::SimtAware, "pf-off/aging-on");
        const auto &next = result.stats(
            app, core::SchedulerKind::SimtAware, "pf-next/aging-on");
        const auto &spp = result.stats(
            app, core::SchedulerKind::SimtAware, "pf-spp/aging-on");
        table.addRow({app, fmt(walkLatency(off)), fmt(walkLatency(next)),
                      fmt(walkLatency(spp)),
                      std::to_string(spp.prefetch.issued),
                      fmt(spp.prefetch.accuracy),
                      fmt(spp.prefetch.coverage),
                      fmt(spp.prefetch.pollution)});
    }

    // Factorial geomeans over the irregular apps (the paper's focus):
    // walk-latency improvement = latency(off) / latency(policy) in the
    // same scheduler/aging cell, > 1 is better.
    auto &cells = report.addTable(
        {"scheduler", "aging", "next:improvement", "spp:improvement",
         "next:pollution", "spp:pollution"},
        "Irregular-app geomeans per factorial cell", 17);
    for (const auto sched : spec.schedulers) {
        for (const bool aging : agings) {
            const std::string suffix =
                aging ? "/aging-on" : "/aging-off";
            std::vector<double> nextImp, sppImp;
            double nextPol = 0.0, sppPol = 0.0;
            unsigned apps = 0;
            for (const auto &app : spec.workloads) {
                if (!isIrregular(app))
                    continue;
                const auto &off =
                    result.stats(app, sched, "pf-off" + suffix);
                const auto &next =
                    result.stats(app, sched, "pf-next" + suffix);
                const auto &spp =
                    result.stats(app, sched, "pf-spp" + suffix);
                nextImp.push_back(walkLatency(off)
                                  / walkLatency(next));
                sppImp.push_back(walkLatency(off) / walkLatency(spp));
                nextPol += next.prefetch.pollution;
                sppPol += spp.prefetch.pollution;
                ++apps;
            }
            const double nextG = exp::geomean(nextImp);
            const double sppG = exp::geomean(sppImp);
            cells.addRow({core::toString(sched),
                          aging ? "on" : "off", fmt(nextG), fmt(sppG),
                          fmt(nextPol / apps), fmt(sppPol / apps)});
            const std::string key = std::string(core::toString(sched))
                                    + (aging ? "_aging_on"
                                             : "_aging_off");
            report.addSummary("next_irregular_improvement_" + key,
                              nextG);
            report.addSummary("spp_irregular_improvement_" + key,
                              sppG);
        }
    }

    // Admission axis: same improvement metric, SIMT-aware scheduler,
    // idle (direct start on an idle walker) vs budget (buffered in the
    // speculative class).
    auto &adm_cells = report.addTable(
        {"prefetch", "admission", "improvement", "coverage",
         "pollution"},
        "Irregular-app geomeans per admission cell (SIMT-aware)", 13);
    for (const auto kind :
         {iommu::PrefetchKind::NextPage, iommu::PrefetchKind::Spp}) {
        const std::string pf = std::string("pf-") + pfName(kind);
        for (const char *adm : {"idle", "budget"}) {
            const std::string variant =
                std::string(adm) == "idle" ? pf + "/aging-on"
                                           : pf + "/adm-" + adm;
            std::vector<double> imp;
            double cov = 0.0, pol = 0.0;
            unsigned apps = 0;
            for (const auto &app : spec.workloads) {
                if (!isIrregular(app))
                    continue;
                const auto &off = result.stats(
                    app, core::SchedulerKind::SimtAware,
                    "pf-off/aging-on");
                const auto &run = result.stats(
                    app, core::SchedulerKind::SimtAware, variant);
                imp.push_back(walkLatency(off) / walkLatency(run));
                cov += run.prefetch.coverage;
                pol += run.prefetch.pollution;
                ++apps;
            }
            const double impG = exp::geomean(imp);
            adm_cells.addRow({pf, adm, fmt(impG), fmt(cov / apps),
                              fmt(pol / apps)});
            report.addSummary(std::string(pfName(kind))
                                  + "_irregular_improvement_admission_"
                                  + adm,
                              impG);
        }
    }

    report.addNote(
        "Reading: improvement = walklat(off) / walklat(policy) within "
        "the same scheduler/aging cell,\ngeomean over the irregular "
        "apps. Next-page only helps streams; SPP's per-wavefront "
        "delta\nsignatures also cover the strided sub-streams inside "
        "the irregular apps, so its column should\ndominate. Pollution "
        "(prefetched translations evicted before first use) polices "
        "the cost side:\nunder idle admission speculative walks burn "
        "only idle walkers, so pollution is the one way a\npolicy can "
        "hurt. The admission table swaps that gate for the speculative "
        "walk class: budget\nmeters predictions per demand-dispatch "
        "window, and aged entries are cancelled before\ndispatch "
        "instead of occupying a walker.");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
