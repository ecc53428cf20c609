/**
 * @file
 * The command-line surface of the benches and the gpuwalk tool.
 *
 * A binary describes its flags as a table of Flag entries and hands
 * it to parseFlags(); --help prints the same table. configFlags() is
 * the one table of model flags (tracing, auditing, demand paging,
 * prefetch, wavefront issue, speculative admission): each entry edits
 * a SystemConfig, so every bench and gpuwalk parse a model flag the
 * same way and every run starts from the config the flags describe.
 * Unknown flags and malformed values are fatal, so typos never
 * silently run the default configuration.
 */

#ifndef GPUWALK_EXP_BENCH_CLI_HH
#define GPUWALK_EXP_BENCH_CLI_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "system/system_config.hh"

namespace gpuwalk::exp {

/** One command-line flag: spelling, value, help text, effect. */
struct Flag
{
    std::string name;   ///< spelling without the leading "--"
    std::string arg;    ///< value placeholder for --help; "" = no value
    std::string help;   ///< help text; '\n' starts a continuation line
    /** Applies the flag; receives its value ("" for a valueless flag). */
    std::function<void(const std::string &)> apply;
    /** The value a bare "--name" stands for; "" = a value is required. */
    std::string bare = "";
};

/**
 * The model flags, each editing @p cfg (which must outlive the
 * table): --trace-out, --trace-ring, --audit, --audit-interval, the
 * GMMU flags, --prefetch, --prefetch-degree, --wasp,
 * --wavefront-sched, --wasp-leaders, --wasp-distance and
 * --spec-admission.
 */
std::vector<Flag> configFlags(system::SystemConfig &cfg);

/**
 * Applies argv[1..argc) against @p flags in command-line order.
 * "--flag=value" and "--flag value" are both accepted; unknown
 * flags, missing values and values on valueless flags are fatal.
 */
void parseFlags(int argc, char **argv, const std::vector<Flag> &flags);

/** Prints @p flags as an aligned two-column help listing. */
void printFlags(std::ostream &os, const std::vector<Flag> &flags);

/**
 * @p value as an unsigned integer (decimal, 0x-hex or 0-octal);
 * fatal(), naming --@p flag, unless it is one no larger than @p max
 * — and, when @p positive, above zero.
 */
std::uint64_t parseUintAtMost(const std::string &flag,
                              const std::string &value, bool positive,
                              std::uint64_t max);

/** parseUintAtMost up to the largest value of @p T. */
template <typename T = std::uint64_t>
T
parseUint(const std::string &flag, const std::string &value,
          bool positive = false)
{
    return static_cast<T>(parseUintAtMost(
        flag, value, positive, std::numeric_limits<T>::max()));
}

/** @p value as a number; fatal(), naming --@p flag, unless it is one. */
double parseDouble(const std::string &flag, const std::string &value);

/** Parsed bench flags. */
struct BenchOptions
{
    unsigned jobs = 0;     ///< worker threads; 0 = all hardware threads
    std::string jsonPath;  ///< empty = no JSON output
    /** SystemConfig::baseline() with the model flags applied: every
     *  run of the bench starts from it. */
    system::SystemConfig base = system::SystemConfig::baseline();
};

/**
 * Parses --jobs N, --json PATH, --help and the model flags of
 * configFlags(). --help prints @p id / @p description plus the flag
 * reference and exits.
 */
BenchOptions parseBenchArgs(int argc, char **argv,
                            const std::string &id,
                            const std::string &description);

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_BENCH_CLI_HH
