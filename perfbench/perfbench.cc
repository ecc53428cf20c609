/**
 * @file
 * Host-cost benchmark program for the gpuwalk simulator.
 *
 * Calls the public simulator API from outside — workload generation,
 * System construction, loadWorkload / loadBenchmarkInContext and
 * System::run — timing every call, one run after another on one
 * thread. Prints one JSON object per line: a "run" record per
 * simulation (its timings and simulated outcome), then a "done"
 * record. perfbench/run.py builds this program, checks the outcomes
 * against the recorded expectations and turns the records into the
 * metrics BENCHMARK.json declares.
 *
 * Untraced passes: the workload's run set is repeated until --seconds
 * have been spent (at least once; exactly once with --trace 1). Each
 * run sets up three times and runs the last setup, so set-up time is a
 * median.
 *
 * Traced pass (--trace 1): every run of the set once more, with the
 * walk-lifecycle tracer and the conservation auditor on, followed by
 * the per-module replays (replay.hh). Its runs must reproduce the
 * untraced outcome exactly.
 *
 * Every run starts from empty simulated caches, TLBs and page walk
 * caches, as in the paper's runs.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/run.hh"
#include "replay.hh"
#include "system/system.hh"
#include "workload/registry.hh"
#include "workload/tenant_mix.hh"

namespace {

using namespace gpuwalk;
using Clock = std::chrono::steady_clock;

const Clock::time_point processStart = Clock::now();

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Command line ---------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    /** Trace ring capacity override (0 = size from the untimed run). */
    std::size_t ring = 0;
    /** Where to write the span log. */
    std::string spans;
};

/** Set-ups per untraced run; set-up time is their median. */
constexpr unsigned setupsPerRun = 3;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload irregular|regular|"
                 "tenant_paging --seed N --seconds S --trace 0|1"
                 " --spans PATH [--ring N]\n";
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || v[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseUint(flag, v);
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(parseUint(flag, v));
        else if (flag == "--trace")
            a.trace = parseUint(flag, v) != 0;
        else if (flag == "--ring")
            a.ring = parseUint(flag, v);
        else if (flag == "--spans")
            a.spans = v;
        else
            usage("unknown flag " + flag);
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.spans.empty())
        usage("--spans is required");
    return a;
}

// ---- Workloads --------------------------------------------------------

struct RunSpec
{
    std::string app;   ///< Table II app, or "mix" for the tenant mix
    core::SchedulerKind kind;
};

struct WorkloadDef
{
    std::string name;
    bool tenant = false;
    std::vector<RunSpec> runs;
};

WorkloadDef
workloadDef(const std::string &name)
{
    WorkloadDef w;
    w.name = name;
    if (name == "irregular" || name == "regular") {
        const auto apps = name == "irregular"
                              ? workload::irregularWorkloadNames()
                              : workload::regularWorkloadNames();
        for (const auto &app : apps) {
            w.runs.push_back({app, core::SchedulerKind::Fcfs});
            w.runs.push_back({app, core::SchedulerKind::SimtAware});
        }
    } else if (name == "tenant_paging") {
        w.tenant = true;
        w.runs.push_back({"mix", core::SchedulerKind::Fcfs});
        w.runs.push_back({"mix", core::SchedulerKind::WeightedShare});
    } else {
        usage("unknown workload '" + name + "'");
    }
    return w;
}

/** Table I, plus — for the tenant workload — demand paging at half
 *  the footprint with LRU eviction, the SPP prefetcher and Wasp issue
 *  arbitration. Serial engine always. */
system::SystemConfig
configFor(const WorkloadDef &w, core::SchedulerKind kind)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = kind;
    cfg.simThreads = 1;
    if (w.tenant) {
        cfg.gmmu.enabled = true;
        cfg.gmmu.oversubscription = 0.5;
        cfg.gmmu.evict = vm::EvictPolicy::Lru;
        cfg.iommu.prefetch.kind = iommu::PrefetchKind::Spp;
        cfg.gpu.wavefrontSched = gpu::WavefrontSchedPolicy::Wasp;
    }
    return cfg;
}

/**
 * Four tenants, half of them arriving mid-run, each shaped like one
 * experiment app. The plan (apps, footprints, arrivals) is the one
 * generateTenantMix draws for the default seed, fixed like the app list
 * of the single-tenant workloads; @p seed only seeds the tenants'
 * traces, as the generator itself does. (Footprint draws alone move a
 * mix's host cost by a third, which would swamp any host-time change.)
 */
std::vector<workload::TenantSpec>
tenantMix(std::uint64_t seed)
{
    const auto p = exp::experimentParams();
    workload::TenantMixConfig mix;
    mix.numTenants = 4;
    mix.seed = p.seed;
    mix.wavefrontsPerTenant = p.wavefronts;
    mix.instructionsPerWavefront = p.instructionsPerWavefront;
    mix.churnFraction = 0.5;
    auto specs = workload::generateTenantMix(mix);
    for (unsigned i = 0; i < specs.size(); ++i)
        specs[i].params.seed = seed * 1000003ull + i;
    return specs;
}

// ---- Spans ------------------------------------------------------------

/** In-memory span log, written once at the end. */
class SpanLog
{
  public:
    void
    begin(const std::string &name, const std::string &run)
    {
        Span s;
        s.id = spans_.size() + 1;
        s.parent = open_.empty() ? 0 : open_.back();
        s.run = run;
        s.name = name;
        s.start = since(processStart);
        spans_.push_back(s);
        open_.push_back(s.id);
    }

    void
    end()
    {
        spans_[open_.back() - 1].end = since(processStart);
        open_.pop_back();
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os.precision(9);
        os << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
               << ", \"run\": \"" << s.run << "\", \"name\": \"" << s.name
               << "\", \"start_s\": " << s.start << ", \"end_s\": "
               << s.end << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        os << "]\n";
        if (!os)
            std::cerr << "perfbench: could not write spans to " << path
                      << "\n";
    }

  private:
    struct Span
    {
        std::uint64_t id = 0, parent = 0;
        std::string run, name;
        double start = 0, end = 0;
    };
    std::vector<Span> spans_;
    std::vector<std::uint64_t> open_;
};

/** Times @p fn inside a span. @return its duration in seconds. */
template <typename Fn>
double
timed(SpanLog &log, const std::string &name, const std::string &run,
      Fn &&fn)
{
    log.begin(name, run);
    const auto t0 = Clock::now();
    fn();
    const double s = since(t0);
    log.end();
    return s;
}

// ---- One run ----------------------------------------------------------

/** A System ready to run, with what setting it up cost. */
struct Prepared
{
    std::unique_ptr<system::System> sys;
    double constructS = 0, generateS = 0, loadS = 0, setupS = 0;
    std::uint64_t generated = 0;
    /** The generated instruction traces (kept for the replays). */
    std::vector<gpu::GpuWorkload> inputs;
};

Prepared
prepare(const WorkloadDef &w, const RunSpec &r, std::uint64_t seed,
        const system::SystemConfig &cfg, bool keep_inputs, SpanLog &log,
        const std::string &run_id)
{
    Prepared p;
    p.constructS = timed(log, "system.construct", run_id, [&] {
        p.sys = std::make_unique<system::System>(cfg);
    });
    if (!w.tenant) {
        auto params = exp::experimentParams();
        params.seed = seed;
        gpu::GpuWorkload wl;
        p.generateS = timed(log, "workload.generate", run_id, [&] {
            wl = workload::makeWorkload(r.app)->generate(
                p.sys->addressSpace(), params);
        });
        p.generated = wl.totalInstructions();
        if (keep_inputs)
            p.inputs.push_back(wl);
        p.loadS = timed(log, "system.load", run_id, [&] {
            p.sys->loadWorkload(std::move(wl));
        });
        p.setupS = p.constructS + p.generateS + p.loadS;
        return p;
    }

    const auto specs = tenantMix(seed);
    // loadBenchmarkInContext generates inside the System; generating
    // the same specs into a scratch address space (same VA layout)
    // times the generator on its own and yields the replay inputs.
    // Users do not pay it, so it stays out of setupS.
    p.generateS = timed(log, "workload.generate", run_id, [&] {
        mem::BackingStore store;
        vm::FrameAllocator frames(cfg.physMemBytes, cfg.scrambleFrames);
        for (const auto &spec : specs) {
            vm::AddressSpace as(store, frames);
            as.setDemandPaging(true);
            auto wl = workload::makeWorkload(spec.workload)
                          ->generate(as, spec.params);
            p.generated += wl.totalInstructions();
            if (keep_inputs)
                p.inputs.push_back(std::move(wl));
        }
    });
    p.loadS = timed(log, "system.load", run_id, [&] {
        for (unsigned i = 0; i < specs.size(); ++i) {
            const auto ctx =
                i == 0 ? tlb::defaultContext : p.sys->createContext();
            p.sys->loadBenchmarkInContext(specs[i].workload,
                                          specs[i].params, i, ctx,
                                          specs[i].arrivalTick);
        }
    });
    p.setupS = p.constructS + p.loadS;
    return p;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Upper bound on the trace events one run records, from its untraced
 * statistics, so the traced rerun's ring never drops: per coalesced
 * request one event; per walk Enqueued, Scored, Scheduled, WalkDone;
 * per PTE read MemIssued + MemCompleted; per faulted walk a second
 * Scored + Scheduled plus the fault's raise/service pair; per prefetch
 * its issue and first use; per speculative walk its admission,
 * promotion rescore and leader issue.
 */
std::size_t
ringBound(const system::RunStats &s, const std::map<std::string, double> &m)
{
    using perfbench::stat;
    const double pte = stat(m, "iommu.ptwcache.hits")
                       + stat(m, "iommu.ptwcache.misses")
                       + stat(m, "iommu.ptwcache.mshr_merges");
    const double n = stat(m, "gpu_tlb.requests") + 4.0 * s.walkRequests
                     + 2.0 * pte + 4.0 * s.gmmu.faultsRaised
                     + 2.0 * s.gmmu.faultsCoalesced
                     + 2.0 * s.prefetch.issued + s.spec.admitted
                     + s.spec.promoted + s.leaderIssues + 1024.0;
    return static_cast<std::size_t>(n);
}

std::string
runLabel(const RunSpec &r)
{
    return r.app + "/" + core::toString(r.kind);
}

/** Writes "key": value pairs of a JSON object line. */
class JsonLine
{
  public:
    JsonLine() { os_.precision(17); os_ << "{"; }

    template <typename V>
    JsonLine &
    num(const std::string &k, V v)
    {
        key(k);
        if constexpr (std::is_floating_point_v<V>) {
            if (!std::isfinite(v)) {
                os_ << "null";
                return *this;
            }
        }
        os_ << v;
        return *this;
    }

    JsonLine &
    str(const std::string &k, const std::string &v)
    {
        key(k);
        os_ << quote(v);
        return *this;
    }

    static std::string
    quote(const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c;
        }
        return q + "\"";
    }

    JsonLine &
    raw(const std::string &k, const std::string &json)
    {
        key(k);
        os_ << json;
        return *this;
    }

    std::string done() { return os_.str() + "}"; }

  private:
    void
    key(const std::string &k)
    {
        os_ << (first_ ? "" : ", ") << "\"" << k << "\": ";
        first_ = false;
    }

    std::ostringstream os_;
    bool first_ = true;
};

void
outcome(JsonLine &j, const system::RunStats &s, std::uint64_t generated)
{
    j.num("generated", generated)
        .num("instructions", s.instructions)
        .num("runtime_ticks", s.runtimeTicks)
        .num("stall_ticks", s.stallTicks)
        .num("walks", s.walkRequests)
        .num("walks_completed", s.walksCompleted)
        .num("prefetch_completed", s.prefetch.completed)
        .num("events", s.eventsExecuted);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto c = line.find(':');
            if (c != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", c + 1));
        }
    }
    return "unknown";
}

/** Model counts of one traced run, as raw sums run.py aggregates. */
std::string
modelCounts(const system::RunStats &s, const std::map<std::string, double> &m,
            const perfbench::RunReplay &rr)
{
    const auto at = [&](const std::string &k) {
        return perfbench::stat(m, k);
    };
    const auto sum = [&](const std::string &prefix, const std::string &suf) {
        return perfbench::statSum(m, prefix, suf);
    };
    JsonLine j;
    j.num("tlb.requests", at("gpu_tlb.requests"))
        .num("tlb.l1_hits", sum("gpu_tlb.l1tlb", ".hits"))
        .num("tlb.l1_lookups", sum("gpu_tlb.l1tlb", ".hits")
                                   + sum("gpu_tlb.l1tlb", ".misses"))
        .num("tlb.l2_hits", at("gpu_tlb.l2tlb.hits"))
        .num("tlb.l2_lookups",
             at("gpu_tlb.l2tlb.hits") + at("gpu_tlb.l2tlb.misses"))
        .num("tlb.inserts", sum("gpu_tlb.l1tlb", ".insertions")
                                + at("gpu_tlb.l2tlb.insertions"))
        .num("core.occupancy_sum", at("iommu.buffer_occupancy::mean")
                                       * at("iommu.buffer_occupancy::count"))
        .num("core.occupancy_count", at("iommu.buffer_occupancy::count"))
        .num("iommu.pwc_hits", at("iommu.pwc.hits"))
        .num("iommu.pwc_lookups", at("iommu.pwc.hits") + at("iommu.pwc.misses"))
        .num("iommu.prefetch_useful", s.prefetch.useful)
        .num("iommu.prefetch_completed", s.prefetch.completed)
        .num("iommu.spec_promoted", s.spec.promoted)
        .num("iommu.spec_admitted", s.spec.admitted)
        .num("mem.l1d_hits", sum("l1d", ".hits"))
        .num("mem.l1d_accesses", sum("l1d", ".hits") + sum("l1d", ".misses")
                                     + sum("l1d", ".mshr_merges"))
        .num("mem.dram_reads", at("dram.reads"))
        .num("mem.row_hits", at("dram.row_hits"))
        .num("mem.row_accesses", at("dram.row_hits") + at("dram.row_misses")
                                     + at("dram.row_conflicts"))
        .num("mem.qdepth_sum",
             at("dram.queue_depth::mean") * at("dram.queue_depth::count"))
        .num("mem.qdepth_count", at("dram.queue_depth::count"))
        .num("vm.faults", s.gmmu.faultsRaised)
        .num("vm.evictions", s.gmmu.pagesEvicted)
        .num("vm.fault_batches", s.gmmu.batches);
    for (const auto &[k, v] : rr.traceCounts)
        j.num("trace." + k, v);
    return j.done();
}

std::string
replayJson(const perfbench::RunReplay &rr)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < rr.timings.size(); ++i) {
        const auto &t = rr.timings[i];
        JsonLine j;
        j.str("name", t.name)
            .str("module", t.module)
            .num("calls", t.calls)
            .num("model_calls", t.modelCalls)
            .num("seconds", t.seconds);
        os << (i ? ", " : "") << j.done();
    }
    os << "]";
    return os.str();
}

std::string
checksJson(const perfbench::RunReplay &rr)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < rr.checks.size(); ++i) {
        const auto &c = rr.checks[i];
        JsonLine j;
        j.str("what", c.what)
            .num("replay", c.replay)
            .str("model", c.model)
            .num("model_value", c.modelValue)
            .raw("ok", c.ok() ? "true" : "false");
        os << (i ? ", " : "") << j.done();
    }
    os << "]";
    return os.str();
}

std::string
stringsJson(const std::vector<std::string> &v)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << JsonLine::quote(v[i]);
    os << "]";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadDef w = workloadDef(args.workload);
    SpanLog log;

    std::cout << JsonLine()
                     .str("type", "start")
                     .str("workload", w.name)
                     .num("seed", args.seed)
                     .num("runs_per_pass", w.runs.size())
                     .str("caches", "cold: every run starts with empty "
                                    "simulated caches, TLBs and PWCs")
                     .done()
              << std::endl;

    // ---- Untraced passes: the end-to-end measurement. ----
    // With --trace 1 one pass suffices: it only supplies the untraced
    // wall time the host shares and the tracing overhead divide by.
    const double budget = args.trace ? 0.0 : args.seconds;
    std::vector<std::size_t> rings(w.runs.size(), 0);
    const auto t0 = Clock::now();
    unsigned passes = 0;
    double lastPass = 0;
    do {
        const auto passStart = Clock::now();
        for (std::size_t i = 0; i < w.runs.size(); ++i) {
            const RunSpec &r = w.runs[i];
            const std::string id = "p" + std::to_string(passes) + "/"
                                   + runLabel(r);
            log.begin("run", id);
            const auto cfg = configFor(w, r.kind);
            std::vector<double> construct, generate, load, setup;
            Prepared p;
            for (unsigned k = 0; k < setupsPerRun; ++k) {
                p.sys.reset(); // one System alive at a time
                p = prepare(w, r, args.seed, cfg, false, log, id);
                construct.push_back(p.constructS);
                generate.push_back(p.generateS);
                load.push_back(p.loadS);
                setup.push_back(p.setupS);
            }
            system::RunStats stats;
            const double runS = timed(log, "system.run", id,
                                      [&] { stats = p.sys->run(); });
            if (args.trace && passes == 0) {
                std::ostringstream dump;
                p.sys->dumpStats(dump);
                rings[i] = args.ring ? args.ring
                                     : ringBound(stats,
                                                 perfbench::parseStatDump(
                                                     dump.str()));
            }
            p.sys.reset();
            log.end();

            JsonLine j;
            j.str("type", "run")
                .num("pass", passes)
                .raw("traced", "false")
                .str("app", r.app)
                .str("scheduler", core::toString(r.kind))
                .num("construct_s", median(construct))
                .num("generate_s", median(generate))
                .num("load_s", median(load))
                .num("setup_s", median(setup))
                .num("run_s", runS);
            outcome(j, stats, p.generated);
            std::cout << j.done() << std::endl;
        }
        ++passes;
        lastPass = since(passStart);
    } while (since(t0) + lastPass <= budget);

    // ---- Traced pass: model counts and replays. ----
    if (args.trace) {
        for (std::size_t i = 0; i < w.runs.size(); ++i) {
            const RunSpec &r = w.runs[i];
            const std::string id = "traced/" + runLabel(r);
            log.begin("run", id);
            auto cfg = configFor(w, r.kind);
            cfg.trace.enabled = true;
            cfg.trace.ringCapacity = rings[i];
            cfg.audit.enabled = true;
            Prepared p = prepare(w, r, args.seed, cfg, true, log, id);
            system::RunStats stats;
            const double runS = timed(log, "system.run", id,
                                      [&] { stats = p.sys->run(); });
            std::ostringstream dump;
            p.sys->dumpStats(dump);
            const auto model = perfbench::parseStatDump(dump.str());

            perfbench::ReplayInput in;
            in.sys = p.sys.get();
            in.stats = &stats;
            in.model = &model;
            in.workloads = &p.inputs;
            in.span = [&](const std::string &name, bool begin) {
                if (begin)
                    log.begin(name, id);
                else
                    log.end();
            };
            const perfbench::RunReplay rr = perfbench::replayRun(in);
            p.sys.reset();
            log.end();

            JsonLine j;
            j.str("type", "run")
                .num("pass", passes)
                .raw("traced", "true")
                .str("app", r.app)
                .str("scheduler", core::toString(r.kind))
                .num("construct_s", p.constructS)
                .num("generate_s", p.generateS)
                .num("load_s", p.loadS)
                .num("setup_s", p.setupS)
                .num("run_s", runS);
            outcome(j, stats, p.generated);
            j.num("ring", rings[i])
                .num("trace_events", stats.traceEvents)
                .num("trace_dropped", stats.traceDropped)
                .num("audit_violations", stats.auditViolations)
                .raw("model", modelCounts(stats, model, rr))
                .raw("replays", replayJson(rr))
                .raw("checks", checksJson(rr))
                .raw("skipped", stringsJson(rr.skipped));
            std::cout << j.done() << std::endl;
        }
    }

    log.write(args.spans);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::cout << JsonLine()
                     .str("type", "done")
                     .num("passes", passes)
                     .num("peak_rss_kb", ru.ru_maxrss)
                     .num("nproc", std::thread::hardware_concurrency())
                     .str("cpu", cpuModel())
                     .str("compiler", PERFBENCH_COMPILER)
                     .str("build_type", PERFBENCH_BUILD_TYPE)
                     .num("elapsed_s", since(processStart))
                     .done()
              << std::endl;
    return 0;
}
