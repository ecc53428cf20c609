/**
 * @file
 * The gpuwalk command-line simulator driver.
 *
 * One binary to run any (workload, scheduler, configuration)
 * combination, dump component statistics (text or JSON), save/replay
 * workload traces, and compare schedulers — the front door a
 * downstream user scripts experiments through.
 *
 * Run `gpuwalk --help` for the full flag reference.
 */

#include <array>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/bench_cli.hh"
#include "exp/metrics.hh"
#include "exp/run.hh"
#include "exp/runner.hh"
#include "exp/table.hh"
#include "sim/logging.hh"
#include "system/system.hh"
#include "trace/chrome_export.hh"
#include "trace/digest.hh"
#include "workload/registry.hh"
#include "workload/tenant_mix.hh"
#include "workload/trace_io.hh"

using namespace gpuwalk;

namespace {

/**
 * Everything one invocation needs, resolved from the flags up front,
 * before any job body can run on a worker thread.
 */
struct CliOptions
{
    system::SystemConfig cfg = system::SystemConfig::baseline();
    workload::WorkloadParams params = exp::experimentParams();
    std::string traceFile;   ///< "" = generate from the registry
    std::string workload = "MVT";
    std::string saveTrace;   ///< "" = don't save
    bool dumpStats = false;
    std::string jsonPath;    ///< component-stats JSON ("" = off)
    unsigned tenants = 1;    ///< > 1 = multi-tenant mix
    double churnFraction = 0.0;
    bool alternateWeights = false;
    bool compare = false;
    bool listWorkloads = false;
    bool quiet = false;
    unsigned jobs = 0;
};

/** A flag storing its integer value in @p field; the help line ends
 *  with the field's current value as the default. */
template <typename T>
exp::Flag
countFlag(const std::string &name, const std::string &help, T &field)
{
    return {name, "N", help + " (default " + std::to_string(field) + ")",
            [name, &field](const std::string &v) {
                field = exp::parseUint<T>(name, v);
            }};
}

/** A valueless flag setting @p field to @p value. */
exp::Flag
switchFlag(const std::string &name, const std::string &help, bool &field,
           bool value = true)
{
    return {name, "", help,
            [&field, value](const std::string &) { field = value; }};
}

/** A flag storing its (required, non-empty) value in @p field. */
exp::Flag
pathFlag(const std::string &name, const std::string &arg,
         const std::string &help, std::string &field)
{
    return {name, arg, help, [name, &field](const std::string &v) {
                if (v.empty())
                    sim::fatal("--", name, " needs a value");
                field = v;
            }};
}

CliOptions
parseCli(int argc, char **argv)
{
    CliOptions o;
    auto &cfg = o.cfg;
    auto &params = o.params;
    const std::vector<std::pair<std::string, std::vector<exp::Flag>>>
        sections{
            {"Workload selection (one of)",
             {pathFlag("workload", "NAME",
                       "Table II benchmark (XSB MVT ATX NW BIC GEV\n"
                       "SSP MIS CLR BCK KMN HOT; default MVT)",
                       o.workload),
              pathFlag("load-trace", "FILE",
                       "replay a gpuwalk-trace v1 file", o.traceFile),
              switchFlag("list-workloads",
                         "print the benchmark table and exit",
                         o.listWorkloads)}},
            {"Scheduler",
             {{"scheduler", "NAME",
               "fcfs | random | sjf-only | batch-only |\n"
               "simt-aware | oldest-job | srpt | fair-share |\n"
               "token-bucket | weighted-share (default fcfs)",
               [&cfg](const std::string &v) {
                   cfg.scheduler = core::schedulerKindFromString(v);
               }},
              switchFlag("compare",
                         "run fcfs AND simt-aware, report speedup",
                         o.compare),
              {"jobs", "N",
               "worker threads for --compare (default: all\n"
               "cores; results are identical at any N)",
               [&o](const std::string &v) {
                   o.jobs = exp::parseUint<unsigned>("jobs", v);
               }},
              {"seed", "N",
               "RNG seed of the random scheduler and the\n"
               "workloads (default " + std::to_string(cfg.schedulerSeed)
                   + " and " + std::to_string(params.seed) + ")",
               [&cfg, &params](const std::string &v) {
                   cfg.schedulerSeed = params.seed =
                       exp::parseUint("seed", v);
               }}}},
            {"Workload shape",
             {countFlag("wavefronts", "total wavefronts", params.wavefronts),
              countFlag("instructions", "per wavefront",
                        params.instructionsPerWavefront),
              {"footprint-scale", "X",
               "fraction of Table II size (default "
                   + exp::TablePrinter::fmt(params.footprintScale, 1) + ")",
               [&params](const std::string &v) {
                   params.footprintScale =
                       exp::parseDouble("footprint-scale", v);
               }},
              countFlag("compute-cycles", "base ALU gap, cycles",
                        params.computeCycles),
              switchFlag("large-pages", "back buffers with 2 MB pages",
                         params.useLargePages)}},
            {"Multi-tenant (replaces --workload with a generated mix)",
             {countFlag("tenants",
                        "N-tenant mix: each tenant gets its own\n"
                        "address space (ASID) and a benchmark from the\n"
                        "tenant-mix generator, shaped by --wavefronts,\n"
                        "--instructions and --seed",
                        o.tenants),
              {"churn-fraction", "X",
               "fraction of tenants arriving mid-run",
               [&o](const std::string &v) {
                   o.churnFraction = exp::parseDouble("churn-fraction", v);
               }},
              switchFlag("alternate-weights",
                         "odd tenants get QoS weight 2",
                         o.alternateWeights),
              countFlag("token-window",
                        "token-bucket window in dispatches",
                        cfg.qos.tokenWindow),
              countFlag("token-quota",
                        "per-tenant dispatch quota per window",
                        cfg.qos.tokenQuota)}},
            {"Hardware overrides (baseline = the paper's Table I)",
             {{"cus", "N",
               "compute units (default "
                   + std::to_string(cfg.gpu.numCus) + ")",
               [&cfg](const std::string &v) {
                   cfg.gpu.numCus = cfg.gpuTlb.numCus =
                       exp::parseUint<unsigned>("cus", v);
               }},
              countFlag("wavefronts-per-cu", "resident wavefront slots",
                        cfg.gpu.wavefrontsPerCu),
              countFlag("l2tlb-entries", "shared L2 TLB",
                        cfg.gpuTlb.l2Entries),
              countFlag("walkers", "IOMMU page table walkers",
                        cfg.iommu.numWalkers),
              countFlag("buffer-entries", "IOMMU walk buffer",
                        cfg.iommu.bufferEntries),
              countFlag("pwc-entries", "PWC entries per level",
                        cfg.iommu.pwc.entriesPerLevel),
              switchFlag("no-pwc-pinning",
                         "disable counter-pinned PWC replacement",
                         cfg.iommu.pwc.pinScoredEntries, false),
              switchFlag("no-walk-cache",
                         "walker PTEs go straight to DRAM",
                         cfg.iommu.useWalkCache, false),
              countFlag("aging-threshold", "SIMT-aware starvation bound",
                        cfg.simt.agingThreshold),
              switchFlag("virtual-l1",
                         "virtually-addressed L1 data caches\n"
                         "(translate on L1 miss, Yoon et al.)",
                         cfg.gpu.virtualL1Cache)}},
            {"Output",
             {switchFlag("stats", "dump all component statistics (text)",
                         o.dumpStats),
              pathFlag("json", "FILE",
                       "write component statistics as JSON", o.jsonPath),
              pathFlag("save-trace", "FILE",
                       "write the generated workload trace", o.saveTrace),
              switchFlag("quiet", "suppress the run summary", o.quiet)}},
            {"Model flags (shared with the bench binaries)",
             exp::configFlags(cfg)},
        };

    std::vector<exp::Flag> all{
        {"help", "", "this text", [&sections](const std::string &) {
             std::cout << "gpuwalk — GPU page-table-walk scheduling "
                          "simulator\n\nUsage: gpuwalk [flags]; a flag "
                          "takes its value as --flag=VALUE\nor --flag "
                          "VALUE\n";
             for (const auto &[title, flags] : sections) {
                 std::cout << "\n" << title << ":\n";
                 exp::printFlags(std::cout, flags);
             }
             std::exit(0);
         }}};
    for (const auto &section : sections)
        all.insert(all.end(), section.second.begin(),
                   section.second.end());
    exp::parseFlags(argc, argv, all);

    if (o.tenants > 1 && !o.traceFile.empty())
        sim::fatal("--tenants and --load-trace are exclusive "
                   "(the mix generator picks each tenant's workload)");
    return o;
}

void
listWorkloads()
{
    std::cout << "benchmark  class      footprint(MB)  description\n";
    for (const auto &name : workload::allWorkloadNames()) {
        const auto info = workload::makeWorkload(name)->info();
        std::cout.width(11);
        std::cout << std::left << info.abbrev;
        std::cout.width(11);
        std::cout << (info.irregular ? "irregular" : "regular");
        std::cout.width(15);
        std::cout << info.footprintMB;
        std::cout << info.description << "\n";
    }
}

/** Mix shape for --tenants=N, derived from the workload flags. */
workload::TenantMixConfig
mixFromOptions(const CliOptions &opt)
{
    workload::TenantMixConfig mix;
    mix.numTenants = opt.tenants;
    mix.seed = opt.params.seed;
    mix.wavefrontsPerTenant = opt.params.wavefronts;
    mix.instructionsPerWavefront = opt.params.instructionsPerWavefront;
    mix.churnFraction = opt.churnFraction;
    mix.alternateWeights = opt.alternateWeights;
    return mix;
}

/** One simulation's outcome plus its deferred text/JSON dumps
 *  (captured into strings so --compare can run on worker threads and
 *  still print in order). */
struct CliRun
{
    system::RunStats stats;
    std::string statsDump;
    std::string componentJson;
};

CliRun
simulate(const system::SystemConfig &cfg, const CliOptions &opt,
         bool save_trace)
{
    std::unique_ptr<system::System> sys;
    if (opt.tenants > 1) {
        sys = system::makeTenantSystem(
            cfg, workload::generateTenantMix(mixFromOptions(opt)));
    } else if (!opt.traceFile.empty()) {
        sys = std::make_unique<system::System>(cfg);
        auto wl = workload::loadTraceFile(opt.traceFile);
        // External traces reference raw virtual addresses: map them.
        workload::mapTraceAddresses(sys->addressSpace(), wl);
        sys->loadWorkload(std::move(wl));
    } else {
        sys = std::make_unique<system::System>(cfg);
        auto gen = workload::makeWorkload(opt.workload);
        sys->addressSpace().useLargePages(opt.params.useLargePages);
        auto wl = gen->generate(sys->addressSpace(), opt.params);
        if (save_trace && !opt.saveTrace.empty())
            workload::saveTraceFile(opt.saveTrace, wl);
        sys->loadWorkload(std::move(wl));
    }

    CliRun run;
    run.stats = sys->run();

    if (sys->tracer() && !cfg.trace.outPath.empty())
        trace::writeChromeTraceFile(cfg.trace.outPath, *sys->tracer());

    if (opt.dumpStats) {
        std::ostringstream os;
        sys->dumpStats(os);
        run.statsDump = os.str();
    }
    if (!opt.jsonPath.empty()) {
        std::ostringstream os;
        os << "{\"gpu\": ";
        sys->gpu().stats().dumpJson(os);
        os << ", \"gpu_tlb\": ";
        sys->tlbs().stats().dumpJson(os);
        os << ", \"iommu\": ";
        sys->iommu().stats().dumpJson(os);
        os << ", \"dram\": ";
        sys->dram().stats().dumpJson(os);
        os << "}\n";
        run.componentJson = os.str();
    }
    return run;
}

/** Prints the run summary and any dumps, in the classic order. */
void
reportRun(const system::SystemConfig &cfg, const CliOptions &opt,
          const CliRun &run)
{
    if (!opt.quiet) {
        const auto &stats = run.stats;
        std::cout << "scheduler          "
                  << core::toString(cfg.scheduler) << "\n"
                  << "runtime            " << stats.runtimeTicks / 500
                  << " GPU cycles\n"
                  << "instructions       " << stats.instructions << "\n"
                  << "page walks         " << stats.walkRequests << "\n"
                  << "CU stall cycles    " << stats.stallTicks / 500
                  << "\n"
                  << "walk interleaving  "
                  << exp::TablePrinter::fmt(
                         stats.walks.interleavedFraction * 100, 1)
                  << "% of multi-walk instructions\n";
        if (stats.traced) {
            std::cout << "trace digest       "
                      << trace::digestHex(stats.traceDigest) << " ("
                      << stats.traceEvents << " events, "
                      << stats.traceDropped << " dropped)\n";
        }
        if (stats.audited) {
            std::cout << "audit              " << stats.auditChecks
                      << " checks, " << stats.auditViolations
                      << " violations\n";
        }
        if (stats.gmmu.enabled) {
            std::cout << "far faults         " << stats.gmmu.faultsRaised
                      << " raised (" << stats.gmmu.faultsCoalesced
                      << " walks coalesced), " << stats.gmmu.batches
                      << " batches\n"
                      << "residency          peak "
                      << stats.gmmu.residentPeak << " / cap "
                      << stats.gmmu.frameCap << " pages, "
                      << stats.gmmu.pagesEvicted << " evicted, "
                      << stats.gmmu.promotions << " promoted\n";
        }
        if (cfg.gpu.wavefrontSched == gpu::WavefrontSchedPolicy::Wasp) {
            std::cout << "wasp               " << stats.leaderIssues
                      << " leader issues, " << stats.spec.leaderWalks
                      << " leader walks\n"
                      << "spec class         " << stats.spec.admitted
                      << " admitted, " << stats.spec.dispatched
                      << " dispatched, " << stats.spec.promoted
                      << " promoted, " << stats.spec.droppedStale
                      << " dropped\n";
        }
        for (const auto &t : stats.tenants) {
            std::cout << "tenant " << t.ctx << "           walks "
                      << t.walkRequests << ", finish "
                      << t.finishTick / 500 << " GPU cycles\n";
        }
    }
    if (opt.dumpStats)
        std::cout << run.statsDump;
    if (!opt.jsonPath.empty()) {
        std::ofstream os(opt.jsonPath);
        if (!os)
            sim::fatal("cannot open '", opt.jsonPath, "'");
        os << run.componentJson;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = parseCli(argc, argv);
    if (opt.listWorkloads) {
        listWorkloads();
        return 0;
    }

    if (opt.compare) {
        // Both schedulers as one job pool; dumps are captured into
        // per-run slots so output order is independent of execution
        // order.
        const std::array<core::SchedulerKind, 2> kinds{
            core::SchedulerKind::Fcfs, core::SchedulerKind::SimtAware};
        std::array<CliRun, 2> runs;
        std::vector<exp::Job> jobs;
        for (std::size_t i = 0; i < kinds.size(); ++i) {
            exp::Job job;
            job.workload =
                opt.traceFile.empty() ? opt.workload : opt.traceFile;
            job.scheduler = core::toString(kinds[i]);
            auto run_cfg = exp::withScheduler(opt.cfg, kinds[i]);
            // One trace file per scheduler: both runs would otherwise
            // race on (and overwrite) the same --trace-out path.
            if (!run_cfg.trace.outPath.empty()) {
                run_cfg.trace.outPath = exp::withPathSuffix(
                    run_cfg.trace.outPath,
                    "-" + core::toString(kinds[i]));
            }
            job.body = [&runs, i, run_cfg, &opt] {
                // Only the first job writes --save-trace (both would
                // produce identical bytes; avoid the file race).
                runs[i] = simulate(run_cfg, opt, i == 0);
                exp::RunResult res;
                res.stats = runs[i].stats;
                return res;
            };
            jobs.push_back(std::move(job));
        }
        exp::runJobs(jobs, opt.jobs);

        std::cout << "=== fcfs ===\n";
        reportRun(exp::withScheduler(opt.cfg, kinds[0]), opt, runs[0]);
        std::cout << "=== simt-aware ===\n";
        reportRun(exp::withScheduler(opt.cfg, kinds[1]), opt, runs[1]);
        std::cout << "\nspeedup (simt-aware over fcfs): "
                  << exp::TablePrinter::fmt(
                         exp::speedup(runs[1].stats, runs[0].stats))
                  << "\n";
        // Audit violations (already warn()ed as they were recorded)
        // make the whole invocation fail, for scripting.
        return runs[0].stats.auditViolations
                       || runs[1].stats.auditViolations
                   ? 1
                   : 0;
    }

    const auto run = simulate(opt.cfg, opt, true);
    reportRun(opt.cfg, opt, run);
    return run.stats.auditViolations ? 1 : 0;
}
