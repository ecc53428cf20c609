#include "exp/bench_cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>

#include "sim/logging.hh"

namespace gpuwalk::exp {

std::vector<Flag>
configFlags(system::SystemConfig &cfg)
{
    const auto d = system::SystemConfig::baseline();
    const auto wasp = [&cfg] {
        cfg.gpu.wavefrontSched = gpu::WavefrontSchedPolicy::Wasp;
    };
    return {
        {"trace-out", "PATH",
         "record the walk lifecycle as Chrome trace_event\n"
         "JSON (chrome://tracing, ui.perfetto.dev); benches\n"
         "write one file per run, uniquified from PATH;\n"
         "gpuwalk --compare one per scheduler",
         [&cfg](const std::string &v) {
             if (v.empty())
                 sim::fatal("--trace-out needs a file path");
             cfg.trace.outPath = v;
             cfg.trace.enabled = true;
         }},
        {"trace-ring", "N",
         "trace ring-buffer capacity in events (default\n"
             + std::to_string(d.trace.ringCapacity)
             + "; oldest events drop first)",
         [&cfg](const std::string &v) {
             cfg.trace.ringCapacity =
                 parseUint<std::size_t>("trace-ring", v, true);
             cfg.trace.enabled = true;
         }},
        {"audit", "",
         "check conservation invariants at teardown;\n"
         "violations land in the stats (gpuwalk then exits\n"
         "non-zero)",
         [&cfg](const std::string &) { cfg.audit.enabled = true; }},
        {"audit-interval", "N",
         "additionally check every N ticks during the run\n"
         "(implies --audit)",
         [&cfg](const std::string &v) {
             cfg.audit.interval = parseUint("audit-interval", v, true);
             cfg.audit.enabled = true;
         }},
        {"oversubscription", "R",
         "demand paging: pages fault in on first touch and\n"
         "resident frames are capped at R x the footprint\n"
         "(R in (0,1]; R < 1 forces eviction); every flag\n"
         "from here to --no-contiguity enables demand paging",
         [&cfg](const std::string &v) {
             const double r = parseDouble("oversubscription", v);
             if (r <= 0.0 || r > 1.0)
                 sim::fatal("--oversubscription needs a ratio in "
                            "(0, 1], got '", v, "'");
             cfg.gmmu.oversubscription = r;
             cfg.gmmu.enabled = true;
         }},
        {"fault-latency", "N",
         "host interrupt + runtime cost per fault batch,\n"
         "ticks (default " + std::to_string(d.gmmu.faultLatency) + ")",
         [&cfg](const std::string &v) {
             cfg.gmmu.faultLatency = parseUint("fault-latency", v);
             cfg.gmmu.enabled = true;
         }},
        {"migration-latency", "N",
         "per-page CPU-GPU transfer cost, ticks (default\n"
             + std::to_string(d.gmmu.migrationLatency) + ")",
         [&cfg](const std::string &v) {
             cfg.gmmu.migrationLatency =
                 parseUint("migration-latency", v);
             cfg.gmmu.enabled = true;
         }},
        {"fault-policy", "P", "fault service order: fcfs | sjf",
         [&cfg](const std::string &v) {
             if (v == "fcfs")
                 cfg.gmmu.order = vm::FaultOrder::Fcfs;
             else if (v == "sjf")
                 cfg.gmmu.order = vm::FaultOrder::Sjf;
             else
                 sim::fatal("--fault-policy must be fcfs or sjf, got '",
                            v, "'");
             cfg.gmmu.enabled = true;
         }},
        {"gmmu-batch", "N",
         "max faults serviced per host round trip\n(default "
             + std::to_string(d.gmmu.batchSize) + ")",
         [&cfg](const std::string &v) {
             cfg.gmmu.batchSize =
                 parseUint<unsigned>("gmmu-batch", v, true);
             cfg.gmmu.enabled = true;
         }},
        {"gmmu-evict", "P", "victim policy at the frame cap: lru | random",
         [&cfg](const std::string &v) {
             if (v == "lru")
                 cfg.gmmu.evict = vm::EvictPolicy::Lru;
             else if (v == "random")
                 cfg.gmmu.evict = vm::EvictPolicy::Random;
             else
                 sim::fatal("--gmmu-evict must be lru or random, got '",
                            v, "'");
             cfg.gmmu.enabled = true;
         }},
        {"no-contiguity", "",
         "disable the 2 MB contiguity reservation and\n"
         "promotion",
         [&cfg](const std::string &) {
             cfg.gmmu.contiguity = false;
             cfg.gmmu.enabled = true;
         }},
        {"prefetch", "P",
         "translation prefetch policy: off (default) |\n"
         "next (next-page) | spp (signature-path\n"
         "lookahead); a bare --prefetch means next",
         [&cfg](const std::string &v) {
             cfg.iommu.prefetch.kind = iommu::prefetchKindFromString(v);
         },
         "next"},
        {"prefetch-degree", "N",
         "max speculative walks per trigger (default "
             + std::to_string(d.iommu.prefetch.degree) + ")",
         [&cfg](const std::string &v) {
             cfg.iommu.prefetch.degree =
                 parseUint<unsigned>("prefetch-degree", v, true);
         }},
        {"wasp", "", "Wasp wavefront issue (= --wavefront-sched wasp)",
         [wasp](const std::string &) { wasp(); }},
        {"wavefront-sched", "P",
         "CU issue arbitration: rr (default) | gto | wasp\n"
         "(leader slots issue ahead; their walks are\n"
         "classed speculative)",
         [&cfg](const std::string &v) {
             if (v == "rr")
                 cfg.gpu.wavefrontSched =
                     gpu::WavefrontSchedPolicy::RoundRobin;
             else if (v == "gto")
                 cfg.gpu.wavefrontSched =
                     gpu::WavefrontSchedPolicy::OldestFirst;
             else if (v == "wasp")
                 cfg.gpu.wavefrontSched = gpu::WavefrontSchedPolicy::Wasp;
             else
                 sim::fatal("--wavefront-sched must be rr, gto or wasp, "
                            "got '", v, "'");
         }},
        {"wasp-leaders", "N",
         "Wasp leader slots per CU (default "
             + std::to_string(d.gpu.waspLeaders) + "; implies --wasp)",
         [&cfg, wasp](const std::string &v) {
             cfg.gpu.waspLeaders =
                 parseUint<unsigned>("wasp-leaders", v, true);
             wasp();
         }},
        {"wasp-distance", "N",
         "followers' first-issue delay, cycles (default\n"
             + std::to_string(d.gpu.waspDistanceCycles)
             + "; implies --wasp)",
         [&cfg, wasp](const std::string &v) {
             cfg.gpu.waspDistanceCycles = parseUint("wasp-distance", v);
             wasp();
         }},
        {"spec-admission", "P",
         "speculative-walk admission: idle (default) |\n"
         "budget (tokens per demand-dispatch window)",
         [&cfg](const std::string &v) {
             cfg.iommu.specAdmission = iommu::specAdmissionFromString(v);
         }},
    };
}

void
parseFlags(int argc, char **argv, const std::vector<Flag> &flags)
{
    for (int i = 1; i < argc; ++i) {
        std::string name = argv[i];
        if (name.rfind("--", 0) != 0)
            sim::fatal("unexpected argument '", name,
                       "' (flags start with --; see --help)");
        name.erase(0, 2);
        std::string value;
        const auto eq = name.find('=');
        const bool inline_value = eq != std::string::npos;
        if (inline_value) {
            value = name.substr(eq + 1);
            name.resize(eq);
        }
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&name](const Flag &f) { return f.name == name; });
        if (flag == flags.end())
            sim::fatal("unknown flag --", name, " (see --help)");
        if (flag->arg.empty()) {
            if (inline_value)
                sim::fatal("--", name, " takes no value");
        } else if (!inline_value) {
            // "--flag value" spelling: the next argument, unless it is
            // itself a flag.
            if (i + 1 < argc
                && std::string(argv[i + 1]).rfind("--", 0) != 0)
                value = argv[++i];
            else if (!flag->bare.empty())
                value = flag->bare;
            else
                sim::fatal("--", name, " needs a value");
        }
        flag->apply(value);
    }
}

void
printFlags(std::ostream &os, const std::vector<Flag> &flags)
{
    constexpr std::size_t column = 26;
    for (const auto &flag : flags) {
        std::string lead = "  --" + flag.name;
        if (!flag.bare.empty())
            lead += " [" + flag.arg + "]";
        else if (!flag.arg.empty())
            lead += " " + flag.arg;
        os << lead;
        if (lead.size() + 2 > column)
            os << '\n' << std::string(column, ' ');
        else
            os << std::string(column - lead.size(), ' ');
        for (const char c : flag.help) {
            os << c;
            if (c == '\n')
                os << std::string(column, ' ');
        }
        os << '\n';
    }
}

std::uint64_t
parseUintAtMost(const std::string &flag, const std::string &value,
                bool positive, std::uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(value.c_str(), &end, 0);
    if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0]))
        || *end != '\0' || (positive && n == 0)) {
        sim::fatal("--", flag, " needs a ",
                   positive ? "positive" : "non-negative",
                   " integer, got '", value, "'");
    }
    if (errno == ERANGE || n > max)
        sim::fatal("--", flag, " needs an integer no larger than ", max,
                   ", got '", value, "'");
    return n;
}

double
parseDouble(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const double x = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0')
        sim::fatal("--", flag, " needs a number, got '", value, "'");
    return x;
}

BenchOptions
parseBenchArgs(int argc, char **argv, const std::string &id,
               const std::string &description)
{
    BenchOptions opts;
    const auto model = configFlags(opts.base);
    std::vector<Flag> own{
        {"jobs", "N",
         "worker threads for the sweep (default: all hardware\n"
         "threads; 1 = serial reference execution)",
         [&opts](const std::string &v) {
             opts.jobs = parseUint<unsigned>("jobs", v);
         }},
        {"json", "PATH",
         "write structured results (per-run stats, summary\n"
         "scalars, config fingerprint, git sha, wall time)",
         [&opts](const std::string &v) {
             if (v.empty())
                 sim::fatal("--json needs a file path");
             opts.jsonPath = v;
         }},
    };
    own.push_back({"help", "", "this text", [&](const std::string &) {
                       std::cout << id << ": " << description
                                 << "\n\nFlags (--flag VALUE or "
                                    "--flag=VALUE):\n";
                       printFlags(std::cout, own);
                       std::cout << "\nModel flags, applied to every "
                                    "run (all but tracing and\n"
                                    "auditing also change "
                                    "config_fingerprint):\n";
                       printFlags(std::cout, model);
                       std::exit(0);
                   }});
    auto all = own;
    all.insert(all.end(), model.begin(), model.end());
    parseFlags(argc, argv, all);
    return opts;
}

} // namespace gpuwalk::exp
