/**
 * @file
 * Flag-gated debug tracing, in the spirit of gem5's DPRINTF.
 *
 * Set GPUWALK_DEBUG to a comma-separated flag list to stream
 * component events to stderr with their simulated timestamps:
 *
 *   GPUWALK_DEBUG=walks,sched ./build/tools/gpuwalk --workload=MVT
 *   GPUWALK_DEBUG=all ...
 *
 * Flags used by the library: "walks" (walker start/finish), "sched"
 * (buffer admission and dispatch decisions), "tlb" (IOMMU TLB
 * hits/misses), "dram" (memory controller issue), "gpu" (instruction
 * issue/retire). With GPUWALK_DEBUG unset a log call costs one load
 * and one predictable branch: no string is built and nothing is
 * called out of line.
 */

#ifndef GPUWALK_SIM_DEBUG_HH
#define GPUWALK_SIM_DEBUG_HH

#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "sim/ticks.hh"

namespace gpuwalk::sim::debug {

/** True if GPUWALK_DEBUG contains @p flag (or "all"). */
bool enabled(std::string_view flag);

namespace detail {
void emit(std::string_view flag, Tick now, const std::string &msg);

/** Parses GPUWALK_DEBUG; true if it names any flag. */
bool readAnyFlagSet();

/** readAnyFlagSet(), evaluated on first use (not at static
 *  initialisation, so a process may still set the variable before
 *  its first log call) and cached. */
inline bool
anyFlagSet()
{
    static const bool any = readAnyFlagSet();
    return any;
}
} // namespace detail

/**
 * Emits "tick: [flag] message" to stderr when @p flag is enabled.
 * Arguments are formatted via operator<< only when tracing is on.
 */
template <typename... Args>
void
log(std::string_view flag, Tick now, Args &&...args)
{
    if (!detail::anyFlagSet() || !enabled(flag))
        return;
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    detail::emit(flag, now, os.str());
}

} // namespace gpuwalk::sim::debug

#endif // GPUWALK_SIM_DEBUG_HH
