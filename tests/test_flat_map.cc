/**
 * @file
 * sim::FlatMap differential tests against std::unordered_map.
 *
 * The flat map backs every hot in-flight table in the simulator, so
 * any divergence from standard map semantics (lost elements across
 * rehash, probe chains broken by backward-shift erase, stale
 * membership) would corrupt simulation state silently. A randomized
 * mixed workload mirrors every operation into a std::unordered_map
 * reference and compares the full contents at checkpoints.
 */

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/flat_map.hh"

namespace {

using gpuwalk::sim::FlatMap;

/** xorshift64* — deterministic, seedable, no <random> overhead. */
struct Rng
{
    std::uint64_t s;

    explicit Rng(std::uint64_t seed) : s(seed ? seed : 1) {}

    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dull;
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/** Full-content equality, checked through iteration both ways. */
void
expectSameContents(const FlatMap<std::uint64_t, std::uint64_t> &fm,
                   const std::unordered_map<std::uint64_t, std::uint64_t>
                       &ref)
{
    ASSERT_EQ(fm.size(), ref.size());
    std::size_t seen = 0;
    for (const auto &[k, v] : fm) {
        const auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "flat map holds spurious key " << k;
        EXPECT_EQ(v, it->second) << "value mismatch at key " << k;
        ++seen;
    }
    EXPECT_EQ(seen, ref.size());
    for (const auto &[k, v] : ref) {
        const auto it = fm.find(k);
        ASSERT_NE(it, fm.end()) << "flat map lost key " << k;
        EXPECT_EQ(it->second, v);
    }
}

TEST(FlatMap, StartsEmpty)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_EQ(m.size(), 0u);
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), m.end());
    EXPECT_FALSE(m.contains(7));
    EXPECT_EQ(m.begin(), m.end());
    EXPECT_EQ(m.erase(7), 0u);
}

TEST(FlatMap, InsertFindEraseBasics)
{
    FlatMap<std::uint64_t, int> m;
    auto [it, inserted] = m.try_emplace(42, 7);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(it->first, 42u);
    EXPECT_EQ(it->second, 7);

    // Second emplace on the same key is a no-op.
    auto [it2, inserted2] = m.try_emplace(42, 99);
    EXPECT_FALSE(inserted2);
    EXPECT_EQ(it2->second, 7);

    m[42] = 11;
    EXPECT_EQ(m.at(42), 11);
    m[43] += 5; // default-constructed then mutated
    EXPECT_EQ(m.at(43), 5);
    EXPECT_EQ(m.size(), 2u);

    EXPECT_EQ(m.erase(42), 1u);
    EXPECT_FALSE(m.contains(42));
    EXPECT_EQ(m.size(), 1u);
    m.erase(m.find(43));
    EXPECT_TRUE(m.empty());
}

TEST(FlatMap, GrowsThroughManyRehashes)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    // Sequential keys are the adversarial case for linear probing.
    for (std::uint64_t k = 0; k < 10'000; ++k) {
        m[k] = k * 3;
        ref[k] = k * 3;
    }
    expectSameContents(m, ref);
}

TEST(FlatMap, ReserveAvoidsRehashButNotCorrectness)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    m.reserve(1000);
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (std::uint64_t k = 0; k < 2000; ++k) { // past the reserve
        m[k * 977] = k;
        ref[k * 977] = k;
    }
    expectSameContents(m, ref);
}

TEST(FlatMap, BackwardShiftEraseKeepsProbeChainsIntact)
{
    // Erase-heavy churn over a small key universe maximizes probe
    // chain overlap, the case backward-shift deletion must get right.
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(0xfeed);
    for (int step = 0; step < 50'000; ++step) {
        const std::uint64_t k = rng.below(64);
        if (rng.below(2) == 0) {
            const std::uint64_t v = rng.next();
            m[k] = v;
            ref[k] = v;
        } else {
            EXPECT_EQ(m.erase(k), ref.erase(k));
        }
    }
    expectSameContents(m, ref);
}

TEST(FlatMap, RandomizedMixedWorkloadMatchesUnorderedMap)
{
    for (const std::uint64_t seed : {1ull, 2ull, 0xabcdefull}) {
        FlatMap<std::uint64_t, std::uint64_t> m;
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        Rng rng(seed);
        for (int step = 0; step < 30'000; ++step) {
            const std::uint64_t k = rng.below(4096) * 0x1000; // page-ish
            switch (rng.below(4)) {
            case 0: { // insert/overwrite
                const std::uint64_t v = rng.next();
                m[k] = v;
                ref[k] = v;
                break;
            }
            case 1: { // try_emplace (keeps existing)
                const auto [it, ins] = m.try_emplace(k, step);
                const auto [rit, rins] = ref.try_emplace(k, step);
                EXPECT_EQ(ins, rins);
                EXPECT_EQ(it->second, rit->second);
                break;
            }
            case 2: // erase by key
                EXPECT_EQ(m.erase(k), ref.erase(k));
                break;
            default: { // find + compare
                const auto it = m.find(k);
                const auto rit = ref.find(k);
                EXPECT_EQ(it == m.end(), rit == ref.end());
                if (it != m.end() && rit != ref.end()) {
                    EXPECT_EQ(it->second, rit->second);
                }
                break;
            }
            }
            if (step % 10'000 == 9'999)
                expectSameContents(m, ref);
        }
        expectSameContents(m, ref);

        m.clear();
        ref.clear();
        expectSameContents(m, ref);
        // A cleared map must still be usable.
        m[7] = 8;
        ref[7] = 8;
        expectSameContents(m, ref);
    }
}

TEST(FlatMap, IterationOrderIsDeterministicForSameHistory)
{
    auto build = [] {
        FlatMap<std::uint64_t, std::uint64_t> m;
        for (std::uint64_t k = 0; k < 500; ++k)
            m[k * 7919] = k;
        for (std::uint64_t k = 0; k < 500; k += 3)
            m.erase(k * 7919);
        return m;
    };
    const auto a = build();
    const auto b = build();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> va, vb;
    for (const auto &kv : a)
        va.push_back(kv);
    for (const auto &kv : b)
        vb.push_back(kv);
    EXPECT_EQ(va, vb);
}

TEST(FlatMap, MoveTransfersContents)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m[k] = k + 1;
    FlatMap<std::uint64_t, std::uint64_t> n = std::move(m);
    ASSERT_EQ(n.size(), 100u);
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_EQ(n.at(k), k + 1);
}

TEST(FlatMapDeath, AtOnMissingKeyPanics)
{
    FlatMap<std::uint64_t, int> m;
    m[1] = 2;
    EXPECT_DEATH(m.at(99), "missing key");
}

} // namespace
