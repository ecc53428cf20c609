/**
 * @file
 * Virtual GPU caches vs walk scheduling (paper §VII / Yoon et al.
 * [43], "Filtering Translation Bandwidth with Virtual Caching").
 *
 * Virtually-addressed L1 data caches defer translation to the L1 miss
 * path, filtering most translation traffic before it exists; the
 * paper positions its scheduler as orthogonal. This bench quantifies
 * both: how much translation traffic the virtual L1 removes per
 * benchmark, and how much scheduling headroom remains in each design.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bench;
    const char *id = "Ablation (virtual caches)";
    const char *desc = "Physical L1s (translate-before-access) vs "
                       "virtual L1s (translate-on-miss)";
    const auto opts = exp::parseBenchArgs(argc, argv, id, desc);

    exp::SweepSpec spec(opts.base);
    spec.workloads = workload::irregularWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    spec.variants = {
        {"phys", nullptr},
        {"virt",
         [](system::SystemConfig &cfg, workload::WorkloadParams &) {
             cfg.gpu.virtualL1Cache = true;
         }},
    };
    const auto result = exp::runSweep(spec, opts.jobs);

    exp::Report report(id, desc, spec.base);
    auto &table = report.addTable(
        {"app", "walks:phys", "walks:virt", "simt:phys", "simt:virt"});

    for (const auto &app : spec.workloads) {
        const auto &pf =
            result.stats(app, core::SchedulerKind::Fcfs, "phys");
        const auto &ps =
            result.stats(app, core::SchedulerKind::SimtAware, "phys");
        const auto &vf =
            result.stats(app, core::SchedulerKind::Fcfs, "virt");
        const auto &vs =
            result.stats(app, core::SchedulerKind::SimtAware, "virt");

        table.addRow({app, std::to_string(pf.walkRequests),
                      std::to_string(vf.walkRequests),
                      fmt(exp::speedup(ps, pf)),
                      fmt(exp::speedup(vs, vf))});
    }

    report.addNote(
        "Reading: virtual L1s filter translations behind L1 data "
        "reuse. Divergent column sweeps reuse\ncache lines across "
        "consecutive column steps, so their translation traffic "
        "drops and the walk\nscheduler's headroom shrinks with it; "
        "access patterns without L1 reuse keep their walk "
        "traffic\nand their scheduling benefit. The two techniques "
        "attack the same bottleneck at different points\n— "
        "consistent with the paper calling them orthogonal (SVII).");
    report.render(std::cout);
    if (!opts.jsonPath.empty())
        report.writeJsonFile(opts.jsonPath, &result);
    return 0;
}
