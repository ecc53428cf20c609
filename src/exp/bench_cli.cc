#include "exp/bench_cli.hh"

#include <cstdlib>
#include <iostream>

#include "sim/logging.hh"

namespace gpuwalk::exp {

namespace {

[[noreturn]] void
printHelp(const std::string &id, const std::string &description)
{
    std::cout << id << ": " << description << "\n\n"
              << "Flags:\n"
              << "  --jobs N     worker threads for the sweep "
                 "(default: all hardware threads;\n"
              << "               1 = serial reference execution)\n"
              << "  --json PATH  write structured results (per-run "
                 "stats, summary scalars,\n"
              << "               config fingerprint, git sha, wall "
                 "time) as JSON\n"
              << "  --trace-out PATH  record walk-lifecycle traces and "
                 "write one Chrome\n"
              << "               trace_event JSON per run, uniquified "
                 "from PATH\n"
              << "               (load in chrome://tracing or "
                 "ui.perfetto.dev)\n"
              << "  --trace-ring N  trace ring-buffer capacity in "
                 "events (default 1Mi)\n"
              << "  --audit      enable conservation auditing: every "
                 "run's invariants are\n"
              << "               checked at teardown and violations "
                 "land in the JSON output\n"
              << "  --audit-interval N  additionally check every N "
                 "ticks during the run\n"
              << "               (implies --audit)\n"
              << "  --oversubscription R  demand paging: pages fault "
                 "in on first touch and\n"
              << "               resident frames are capped at R x the "
                 "workload footprint\n"
              << "               (R <= 1; R < 1 forces eviction)\n"
              << "  --fault-latency N  host interrupt + runtime cost "
                 "per fault batch, in\n"
              << "               ticks (default 2000000; implies "
                 "--oversubscription 1.0)\n"
              << "  --migration-latency N  per-page CPU-GPU transfer "
                 "cost in ticks\n"
              << "               (default 400000)\n"
              << "  --fault-policy P  fault service order within the "
                 "GMMU: fcfs | sjf\n"
              << "  --gmmu-batch N  max faults serviced per host round "
                 "trip (default 8)\n"
              << "  --gmmu-evict P  victim policy at the frame cap: "
                 "lru | random\n"
              << "  --no-contiguity  disable the 2 MB contiguity "
                 "reservation + promotion\n"
              << "  --prefetch P  translation prefetch policy applied "
                 "to every run:\n"
              << "               off (default) | next (next-page) | "
                 "spp (signature-path\n"
              << "               lookahead)\n"
              << "  --prefetch-degree N  max speculative walks per "
                 "trigger (default 4)\n"
              << "  --wasp       Wasp wavefront scheduling applied to "
                 "every run: leader\n"
              << "               slots issue ahead and their walks are "
                 "classed speculative\n"
              << "  --wasp-leaders N  leader slots per CU (default 1; "
                 "implies --wasp)\n"
              << "  --wasp-distance N  followers' first-issue delay in "
                 "cycles\n"
              << "               (default 2048; implies --wasp)\n"
              << "  --spec-admission P  speculative-walk admission: "
                 "idle (default) |\n"
              << "               budget (tokens per window)\n"
              << "  --help       this text\n";
    std::exit(0);
}

} // namespace

BenchOptions
parseBenchArgs(int argc, char **argv, const std::string &id,
               const std::string &description)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            sim::fatal("unexpected argument '", arg,
                       "' (flags start with --; see --help)");
        arg = arg.substr(2);

        std::string value;
        bool have_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            have_value = true;
        }
        // "--flag value" spelling: consume the next argument.
        auto next_value = [&]() -> std::string {
            if (have_value)
                return value;
            if (i + 1 >= argc)
                sim::fatal("flag --", arg, " needs a value");
            return argv[++i];
        };

        if (arg == "help" || arg == "h") {
            printHelp(id, description);
        } else if (arg == "jobs") {
            const std::string v = next_value();
            char *end = nullptr;
            const unsigned long n = std::strtoul(v.c_str(), &end, 0);
            if (v.empty() || end == nullptr || *end != '\0')
                sim::fatal("--jobs needs a non-negative integer, got '",
                           v, "'");
            opts.runner.jobs = static_cast<unsigned>(n);
        } else if (arg == "json") {
            opts.jsonPath = next_value();
            if (opts.jsonPath.empty())
                sim::fatal("--json needs a file path");
        } else if (arg == "trace-out") {
            opts.runner.trace.outPath = next_value();
            if (opts.runner.trace.outPath.empty())
                sim::fatal("--trace-out needs a file path");
            opts.runner.trace.enabled = true;
        } else if (arg == "trace-ring") {
            const std::string v = next_value();
            char *end = nullptr;
            const unsigned long long n =
                std::strtoull(v.c_str(), &end, 0);
            if (v.empty() || end == nullptr || *end != '\0' || n == 0)
                sim::fatal("--trace-ring needs a positive integer, "
                           "got '", v, "'");
            opts.runner.trace.ringCapacity =
                static_cast<std::size_t>(n);
            opts.runner.trace.enabled = true;
        } else if (arg == "audit") {
            // Valueless flag; "--audit=..." is a spelling error.
            if (have_value)
                sim::fatal("--audit takes no value (use "
                           "--audit-interval N for periodic checks)");
            opts.runner.audit.enabled = true;
        } else if (arg == "audit-interval") {
            const std::string v = next_value();
            char *end = nullptr;
            const unsigned long long n =
                std::strtoull(v.c_str(), &end, 0);
            if (v.empty() || end == nullptr || *end != '\0' || n == 0)
                sim::fatal("--audit-interval needs a positive tick "
                           "count, got '", v, "'");
            opts.runner.audit.interval = static_cast<sim::Tick>(n);
            opts.runner.audit.enabled = true;
        } else if (arg == "oversubscription") {
            const std::string v = next_value();
            char *end = nullptr;
            const double r = std::strtod(v.c_str(), &end);
            if (v.empty() || end == nullptr || *end != '\0' || r <= 0.0
                || r > 1.0) {
                sim::fatal("--oversubscription needs a ratio in "
                           "(0, 1], got '", v, "'");
            }
            opts.runner.gmmu.oversubscription = r;
            opts.runner.gmmu.enabled = true;
        } else if (arg == "fault-latency") {
            const std::string v = next_value();
            char *end = nullptr;
            const unsigned long long n =
                std::strtoull(v.c_str(), &end, 0);
            if (v.empty() || end == nullptr || *end != '\0')
                sim::fatal("--fault-latency needs a tick count, got '",
                           v, "'");
            opts.runner.gmmu.faultLatency = static_cast<sim::Tick>(n);
            opts.runner.gmmu.enabled = true;
        } else if (arg == "migration-latency") {
            const std::string v = next_value();
            char *end = nullptr;
            const unsigned long long n =
                std::strtoull(v.c_str(), &end, 0);
            if (v.empty() || end == nullptr || *end != '\0')
                sim::fatal("--migration-latency needs a tick count, "
                           "got '", v, "'");
            opts.runner.gmmu.migrationLatency =
                static_cast<sim::Tick>(n);
            opts.runner.gmmu.enabled = true;
        } else if (arg == "fault-policy") {
            const std::string v = next_value();
            if (v == "fcfs") {
                opts.runner.gmmu.order = vm::FaultOrder::Fcfs;
            } else if (v == "sjf") {
                opts.runner.gmmu.order = vm::FaultOrder::Sjf;
            } else {
                sim::fatal("--fault-policy must be fcfs or sjf, got '",
                           v, "'");
            }
            opts.runner.gmmu.enabled = true;
        } else if (arg == "gmmu-batch") {
            const std::string v = next_value();
            char *end = nullptr;
            const unsigned long n = std::strtoul(v.c_str(), &end, 0);
            if (v.empty() || end == nullptr || *end != '\0' || n == 0)
                sim::fatal("--gmmu-batch needs a positive integer, "
                           "got '", v, "'");
            opts.runner.gmmu.batchSize = static_cast<unsigned>(n);
            opts.runner.gmmu.enabled = true;
        } else if (arg == "gmmu-evict") {
            const std::string v = next_value();
            if (v == "lru") {
                opts.runner.gmmu.evict = vm::EvictPolicy::Lru;
            } else if (v == "random") {
                opts.runner.gmmu.evict = vm::EvictPolicy::Random;
            } else {
                sim::fatal("--gmmu-evict must be lru or random, got '",
                           v, "'");
            }
            opts.runner.gmmu.enabled = true;
        } else if (arg == "no-contiguity") {
            if (have_value)
                sim::fatal("--no-contiguity takes no value");
            opts.runner.gmmu.contiguity = false;
            opts.runner.gmmu.enabled = true;
        } else if (arg == "prefetch") {
            opts.runner.prefetch.kind =
                iommu::prefetchKindFromString(next_value());
        } else if (arg == "prefetch-degree") {
            const std::string v = next_value();
            char *end = nullptr;
            const unsigned long n = std::strtoul(v.c_str(), &end, 0);
            if (v.empty() || end == nullptr || *end != '\0' || n == 0)
                sim::fatal("--prefetch-degree needs a positive "
                           "integer, got '", v, "'");
            opts.runner.prefetch.degree = static_cast<unsigned>(n);
        } else if (arg == "wasp") {
            if (have_value)
                sim::fatal("--wasp takes no value (use --wasp-leaders "
                           "/ --wasp-distance for the knobs)");
            opts.runner.wasp = true;
        } else if (arg == "wasp-leaders") {
            const std::string v = next_value();
            char *end = nullptr;
            const unsigned long n = std::strtoul(v.c_str(), &end, 0);
            if (v.empty() || end == nullptr || *end != '\0' || n == 0)
                sim::fatal("--wasp-leaders needs a positive integer, "
                           "got '", v, "'");
            opts.runner.waspLeaders = static_cast<unsigned>(n);
            opts.runner.wasp = true;
        } else if (arg == "wasp-distance") {
            const std::string v = next_value();
            char *end = nullptr;
            const unsigned long long n =
                std::strtoull(v.c_str(), &end, 0);
            if (v.empty() || end == nullptr || *end != '\0')
                sim::fatal("--wasp-distance needs a cycle count, "
                           "got '", v, "'");
            opts.runner.waspDistanceCycles =
                static_cast<sim::Cycles>(n);
            opts.runner.wasp = true;
        } else if (arg == "spec-admission") {
            opts.runner.specAdmission =
                iommu::specAdmissionFromString(next_value());
        } else {
            sim::fatal("unknown flag --", arg, " (see --help)");
        }
    }
    return opts;
}

} // namespace gpuwalk::exp
