/**
 * @file
 * Shared reader/writer for tests/golden/digests.json.
 *
 * Several golden tests pin entries in the same committed file: the
 * scheduler-grid digests (test_digest_golden.cc) and the multi-tenant
 * mix digests (test_tenant_determinism.cc). Each test computes only
 * its own keys, so regeneration must MERGE into the committed file —
 * overwrite the keys the running test owns, preserve everyone else's —
 * rather than rewriting it wholesale.
 */

#ifndef GPUWALK_TESTS_GOLDEN_STORE_HH
#define GPUWALK_TESTS_GOLDEN_STORE_HH

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "system/system.hh"
#include "trace/digest.hh"

namespace gpuwalk::testing {

/** The values a golden entry pins down. */
struct GoldenEntry
{
    std::string digest; ///< 16-digit hex FNV-1a trace digest
    std::uint64_t runtimeTicks = 0;
    std::uint64_t instructions = 0;
    std::uint64_t translationRequests = 0;
    std::uint64_t walkRequests = 0;
    std::uint64_t walksCompleted = 0;
    std::uint64_t traceEvents = 0;
};

/** The golden entry pinning down traced run @p stats. */
inline GoldenEntry
goldenEntryOf(const system::RunStats &stats)
{
    GoldenEntry e;
    e.digest = trace::digestHex(stats.traceDigest);
    e.runtimeTicks = stats.runtimeTicks;
    e.instructions = stats.instructions;
    e.translationRequests = stats.translationRequests;
    e.walkRequests = stats.walkRequests;
    e.walksCompleted = stats.walksCompleted;
    e.traceEvents = stats.traceEvents;
    return e;
}

inline std::string
goldenPath()
{
    return std::string(GPUWALK_TESTS_SOURCE_DIR) + "/golden/digests.json";
}

/**
 * Parses the committed golden file. The format is the machine-written
 * one-entry-per-line JSON produced by writeGoldensMerged(); parsing
 * scans for the known quoted keys rather than pulling in a JSON
 * library.
 */
inline std::map<std::string, GoldenEntry>
readGoldens()
{
    std::ifstream in(goldenPath());
    if (!in)
        return {};

    auto field = [](const std::string &line, const std::string &key)
        -> std::string {
        const std::string marker = "\"" + key + "\":";
        const auto pos = line.find(marker);
        if (pos == std::string::npos)
            return "";
        std::size_t begin = pos + marker.size();
        while (begin < line.size()
               && (line[begin] == ' ' || line[begin] == '"')) {
            ++begin;
        }
        std::size_t end = begin;
        while (end < line.size() && line[end] != ','
               && line[end] != '"' && line[end] != '}') {
            ++end;
        }
        return line.substr(begin, end - begin);
    };

    std::map<std::string, GoldenEntry> out;
    std::string line;
    while (std::getline(in, line)) {
        const std::string key = field(line, "key");
        if (key.empty())
            continue;
        GoldenEntry e;
        e.digest = field(line, "digest");
        e.runtimeTicks = std::stoull(field(line, "runtime_ticks"));
        e.instructions = std::stoull(field(line, "instructions"));
        e.translationRequests =
            std::stoull(field(line, "translation_requests"));
        e.walkRequests = std::stoull(field(line, "walk_requests"));
        e.walksCompleted = std::stoull(field(line, "walks_completed"));
        e.traceEvents = std::stoull(field(line, "trace_events"));
        out[key] = e;
    }
    return out;
}

/**
 * Merge @p updates into the committed golden file: keys present in
 * @p updates are overwritten, all other committed keys are preserved,
 * and the union is written back sorted. Returns false if the file
 * cannot be opened for writing.
 */
inline bool
writeGoldensMerged(const std::map<std::string, GoldenEntry> &updates)
{
    std::map<std::string, GoldenEntry> merged = readGoldens();
    for (const auto &[key, e] : updates)
        merged[key] = e;

    std::ofstream out(goldenPath());
    if (!out)
        return false;
    out << "{\n";
    out << "  \"comment\": \"machine-written golden store"
           " (GPUWALK_UPDATE_GOLDEN=1); do not edit by hand."
           " Scheduler-grid keys come from test_digest_golden.cc,"
           " tenant keys from test_tenant_determinism.cc\",\n";
    out << "  \"entries\": [\n";
    bool first = true;
    for (const auto &[key, e] : merged) {
        if (!first)
            out << ",\n";
        first = false;
        out << "    {\"key\": \"" << key << "\", \"digest\": \""
            << e.digest << "\", \"runtime_ticks\": " << e.runtimeTicks
            << ", \"instructions\": " << e.instructions
            << ", \"translation_requests\": " << e.translationRequests
            << ", \"walk_requests\": " << e.walkRequests
            << ", \"walks_completed\": " << e.walksCompleted
            << ", \"trace_events\": " << e.traceEvents << "}";
    }
    out << "\n  ]\n}\n";
    return true;
}

inline bool
updateRequested()
{
    const char *env = std::getenv("GPUWALK_UPDATE_GOLDEN");
    return env != nullptr && std::string(env) != "0";
}

/**
 * Compare every computed entry against its committed golden. Each test
 * checks only the keys it computed, so foreign keys in the store never
 * fail a test that did not produce them.
 */
#define GPUWALK_EXPECT_GOLDENS_MATCH(computed)                            \
    do {                                                                  \
        const auto goldens_ = gpuwalk::testing::readGoldens();            \
        ASSERT_FALSE(goldens_.empty())                                    \
            << "no goldens at " << gpuwalk::testing::goldenPath()         \
            << "; run with GPUWALK_UPDATE_GOLDEN=1 to mint them";         \
        for (const auto &[key_, got_] : (computed)) {                     \
            const auto it_ = goldens_.find(key_);                         \
            ASSERT_NE(it_, goldens_.end())                                \
                << "no committed golden for " << key_                     \
                << "; mint with GPUWALK_UPDATE_GOLDEN=1";                 \
            const gpuwalk::testing::GoldenEntry &want_ = it_->second;     \
            EXPECT_EQ(got_.digest, want_.digest)                          \
                << key_ << ": trace digest diverged — simulated "         \
                           "behaviour changed";                           \
            EXPECT_EQ(got_.runtimeTicks, want_.runtimeTicks) << key_;     \
            EXPECT_EQ(got_.instructions, want_.instructions) << key_;     \
            EXPECT_EQ(got_.translationRequests,                           \
                      want_.translationRequests)                          \
                << key_;                                                  \
            EXPECT_EQ(got_.walkRequests, want_.walkRequests) << key_;     \
            EXPECT_EQ(got_.walksCompleted, want_.walksCompleted)          \
                << key_;                                                  \
            EXPECT_EQ(got_.traceEvents, want_.traceEvents) << key_;       \
        }                                                                 \
    } while (0)

/**
 * The body of every golden test: with GPUWALK_UPDATE_GOLDEN set, merge
 * @p computed into the store and skip; otherwise compare it against the
 * committed goldens.
 */
#define GPUWALK_CHECK_GOLDENS(computed)                                   \
    do {                                                                  \
        if (gpuwalk::testing::updateRequested()) {                        \
            ASSERT_TRUE(gpuwalk::testing::writeGoldensMerged(computed))   \
                << "cannot write " << gpuwalk::testing::goldenPath();     \
            GTEST_SKIP() << "goldens rewritten at "                       \
                         << gpuwalk::testing::goldenPath();               \
        }                                                                 \
        GPUWALK_EXPECT_GOLDENS_MATCH(computed);                           \
    } while (0)

} // namespace gpuwalk::testing

#endif // GPUWALK_TESTS_GOLDEN_STORE_HH
