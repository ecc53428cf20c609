/**
 * @file
 * Per-module host-cost replays.
 *
 * After a traced run, each replay feeds one module's public functions
 * the inputs that run actually gave that module — the generated SIMD
 * instructions, or the walk-lifecycle events the tracer recorded — on
 * fresh instances of the module, and times them. The simulator itself
 * carries no timing instrumentation; these replays are how the
 * benchmark charges host time to modules.
 *
 * Every replay also counts its calls and checks that count against the
 * counter the simulator kept for the same work (a Check). A replay whose
 * calls drift from what the simulator did is reported as failed, not
 * timed silently.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gpu/instruction.hh"
#include "system/system.hh"

namespace perfbench {

/** One call-count identity a replay must satisfy. */
struct Check
{
    std::string what;          ///< e.g. "tlb.coalesce calls"
    std::uint64_t replay = 0;  ///< calls the replay made
    std::string model;         ///< simulator counter it is compared with
    std::uint64_t modelValue = 0;
    /** replay <= model rather than ==, used only where the simulator
     *  also does work the trace never records (prefetch walks), which
     *  the check then names. */
    bool atMost = false;

    bool
    ok() const
    {
        return atMost ? replay <= modelValue : replay == modelValue;
    }
};

/** Host cost of one module function, replayed over one run's inputs. */
struct ReplayTiming
{
    std::string name;          ///< metric stem, e.g. "tlb.lookup"
    std::string module;        ///< host_share bucket, e.g. "tlb"
    std::uint64_t calls = 0;   ///< calls per replay repetition
    /** Calls the simulator made of the same function, when it counts
     *  them; host shares scale the replay to this count. */
    std::uint64_t modelCalls = 0;
    double seconds = 0.0;      ///< median repetition time
};

/** Everything one run's replays produced. */
struct RunReplay
{
    std::vector<ReplayTiming> timings;
    std::vector<Check> checks;
    /** Exact model counts read from the trace (queue waits, pick
     *  reasons, walk accesses, ...), summed by the caller. */
    std::map<std::string, double> traceCounts;
    /** Replays that could not be built for this run, with why. */
    std::vector<std::string> skipped;
};

/** What the replays need from the run they replay. */
struct ReplayInput
{
    gpuwalk::system::System *sys = nullptr;                ///< after run()
    const gpuwalk::system::RunStats *stats = nullptr;
    const std::map<std::string, double> *model = nullptr; ///< stat dump
    const std::vector<gpuwalk::gpu::GpuWorkload> *workloads = nullptr;
    /** Repetitions per replay; replay time is their median. */
    unsigned reps = 3;
    /** Called around each replay with its name, for the span log. */
    std::function<void(const std::string &, bool begin)> span;
};

/** Runs every replay over one traced run. */
RunReplay replayRun(const ReplayInput &in);

/** Stat @p key of a parsed dump, 0 when absent. */
double stat(const std::map<std::string, double> &model,
            const std::string &key);

/** Sum of every stat named "<prefix>*<suffix>" (e.g. all L1 TLBs). */
double statSum(const std::map<std::string, double> &model,
               const std::string &prefix, const std::string &suffix);

/** Parses a System::dumpStats listing into name -> value. */
std::map<std::string, double> parseStatDump(const std::string &dump);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
