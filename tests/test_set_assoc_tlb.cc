/**
 * @file
 * Unit tests for the set-associative TLB, plus a differential fuzz
 * against a reference copy of the original column-per-field layout
 * with its two-pass fill (duplicate probe, then victim scan).
 */

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "tlb/set_assoc_tlb.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::tlb;
using gpuwalk::mem::Addr;

constexpr Addr page(std::uint64_t n) { return n << 12; }

TEST(SetAssocTlb, MissOnEmpty)
{
    SetAssocTlb tlb({"t", 32, 32});
    EXPECT_FALSE(tlb.lookup(page(5)).has_value());
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(SetAssocTlb, InsertThenHit)
{
    SetAssocTlb tlb({"t", 32, 32});
    tlb.insert(page(5), page(99));
    auto pa = tlb.lookup(page(5));
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, page(99));
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(SetAssocTlb, ProbeDoesNotTouchStats)
{
    SetAssocTlb tlb({"t", 32, 32});
    tlb.insert(page(5), page(99));
    EXPECT_TRUE(tlb.probe(page(5)).has_value());
    EXPECT_FALSE(tlb.probe(page(6)).has_value());
    EXPECT_EQ(tlb.hits(), 0u);
    EXPECT_EQ(tlb.misses(), 0u);
}

TEST(SetAssocTlb, FullyAssociativeLruEviction)
{
    SetAssocTlb tlb({"t", 4, 4});
    for (std::uint64_t i = 0; i < 4; ++i)
        tlb.insert(page(i), page(100 + i));
    tlb.lookup(page(0)); // refresh 0
    tlb.insert(page(9), page(200)); // evicts page 1 (LRU)
    EXPECT_TRUE(tlb.probe(page(0)).has_value());
    EXPECT_FALSE(tlb.probe(page(1)).has_value());
    EXPECT_TRUE(tlb.probe(page(9)).has_value());
}

TEST(SetAssocTlb, ReinsertRefreshesExistingEntry)
{
    SetAssocTlb tlb({"t", 4, 4});
    tlb.insert(page(1), page(10));
    tlb.insert(page(1), page(20));
    EXPECT_EQ(tlb.population(), 1u);
    EXPECT_EQ(*tlb.probe(page(1)), page(20));
}

TEST(SetAssocTlb, SetAssociativityLimitsConflicts)
{
    // 8 entries, 2-way: 4 sets.
    SetAssocTlb tlb({"t", 8, 2});
    // With the hashed index we can't predict set membership directly,
    // but total population can never exceed capacity.
    for (std::uint64_t i = 0; i < 100; ++i)
        tlb.insert(page(i), page(1000 + i));
    EXPECT_LE(tlb.population(), 8u);
}

TEST(SetAssocTlb, HashedIndexSpreadsStridedPages)
{
    // Pages strided by 8 (matrix-row stride) must not all collide in
    // a few sets: with 512 entries / 16-way = 32 sets, 64 strided
    // pages fit comfortably when hashing works.
    SetAssocTlb tlb({"t", 512, 16});
    for (std::uint64_t i = 0; i < 64; ++i)
        tlb.insert(page(i * 8), page(i));
    unsigned resident = 0;
    for (std::uint64_t i = 0; i < 64; ++i)
        resident += tlb.probe(page(i * 8)).has_value() ? 1 : 0;
    EXPECT_EQ(resident, 64u);
}

TEST(SetAssocTlb, InvalidateSingleEntry)
{
    SetAssocTlb tlb({"t", 32, 32});
    tlb.insert(page(3), page(30));
    EXPECT_TRUE(tlb.invalidate(page(3)));
    EXPECT_FALSE(tlb.invalidate(page(3)));
    EXPECT_FALSE(tlb.probe(page(3)).has_value());
}

TEST(SetAssocTlb, InvalidateAllEmptiesTlb)
{
    SetAssocTlb tlb({"t", 32, 32});
    for (std::uint64_t i = 0; i < 20; ++i)
        tlb.insert(page(i), page(i));
    EXPECT_EQ(tlb.population(), 20u);
    tlb.invalidateAll();
    EXPECT_EQ(tlb.population(), 0u);
}

TEST(SetAssocTlb, HitRate)
{
    SetAssocTlb tlb({"t", 32, 32});
    tlb.insert(page(1), page(1));
    tlb.lookup(page(1));
    tlb.lookup(page(2));
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
}

TEST(SetAssocTlbDeathTest, BadGeometry)
{
    EXPECT_DEATH(SetAssocTlb(TlbConfig{"t", 10, 4}),
                 "not divisible");
}

TEST(SetAssocTlbDeathTest, NonPowerOfTwoSetCount)
{
    // 12 entries / 4 ways = 3 sets: divisible, but set indexing is a
    // mask, so the set count must be a power of two.
    EXPECT_DEATH(SetAssocTlb(TlbConfig{"t", 12, 4}),
                 "power of two");
}

/**
 * The original entry layout — separate vpn/valid/large/ctx columns
 * compared field by field — and its fill: probe for a duplicate, then
 * scan again for the first invalid way or the true-LRU way (first on
 * ties). Same hashed set index as the real TLB.
 */
class ReferenceTlb
{
  public:
    ReferenceTlb(unsigned entries, unsigned ways)
        : ways_(ways), sets_(entries / ways), vpn_(entries),
          ppn_(entries), lastUse_(entries), valid_(entries),
          large_(entries), ctx_(entries)
    {}

    std::optional<Addr>
    lookup(Addr va_page, ContextId ctx)
    {
        const std::size_t i = findAny(va_page, ctx);
        if (i == npos) {
            ++misses;
            return std::nullopt;
        }
        ++hits;
        lastUse_[i] = ++useClock_;
        return hitAt(i, va_page);
    }

    std::optional<Addr>
    probe(Addr va_page, ContextId ctx) const
    {
        const std::size_t i = findAny(va_page, ctx);
        if (i == npos)
            return std::nullopt;
        return hitAt(i, va_page);
    }

    void
    insert(Addr va_page, Addr pa_page, bool large, ContextId ctx)
    {
        const Addr vpn = large ? va_page >> 21 : va_page >> 12;
        const Addr ppn = large ? pa_page >> 21 : pa_page >> 12;
        const std::size_t hit = findSlot(va_page, large, ctx);
        if (hit != npos) {
            ppn_[hit] = ppn;
            lastUse_[hit] = ++useClock_;
            return;
        }
        const std::size_t base = setIndex(vpn, ctx) * ways_;
        std::size_t victim = npos;
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (!valid_[i]) {
                victim = i;
                break;
            }
        }
        if (victim == npos) {
            victim = base;
            for (std::size_t i = base + 1; i < base + ways_; ++i) {
                if (lastUse_[i] < lastUse_[victim])
                    victim = i;
            }
            ++evictions;
        }
        ++insertions;
        vpn_[victim] = vpn;
        ppn_[victim] = ppn;
        valid_[victim] = true;
        large_[victim] = large;
        ctx_[victim] = ctx;
        lastUse_[victim] = ++useClock_;
    }

    bool
    invalidate(Addr va_page, ContextId ctx)
    {
        const std::size_t i = findAny(va_page, ctx);
        if (i == npos)
            return false;
        valid_[i] = false;
        return true;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;

  private:
    static constexpr std::size_t npos = ~std::size_t{0};

    std::size_t
    setIndex(Addr vpn, ContextId ctx) const
    {
        const Addr h = vpn ^ (vpn >> 5) ^ (vpn >> 10)
                       ^ (Addr(ctx) * 0x9e3779b9u);
        return static_cast<std::size_t>(h) & (sets_ - 1);
    }

    std::size_t
    findSlot(Addr va_page, bool large, ContextId ctx) const
    {
        const Addr vpn = large ? va_page >> 21 : va_page >> 12;
        const std::size_t base = setIndex(vpn, ctx) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (vpn_[i] == vpn && valid_[i] && large_[i] == large
                && ctx_[i] == ctx)
                return i;
        }
        return npos;
    }

    std::size_t
    findAny(Addr va_page, ContextId ctx) const
    {
        const std::size_t small = findSlot(va_page, false, ctx);
        return small != npos ? small : findSlot(va_page, true, ctx);
    }

    Addr
    hitAt(std::size_t i, Addr va_page) const
    {
        if (!large_[i])
            return ppn_[i] << 12;
        return (ppn_[i] << 21) | (((va_page >> 12) % 512) << 12);
    }

    std::size_t ways_;
    std::size_t sets_;
    std::vector<Addr> vpn_;
    std::vector<Addr> ppn_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<bool> valid_;
    std::vector<bool> large_;
    std::vector<ContextId> ctx_;
    std::uint64_t useClock_ = 0;
};

/**
 * Random lookups, fills (4 KB and 2 MB, three contexts) and single
 * invalidations over a page universe a few times the TLB's capacity.
 * After every operation the hit counters, the insertions/evictions
 * counts and the full resident set (a probe of every page in the
 * universe, which exposes any different victim) must match.
 */
void
fuzzAgainstReference(unsigned entries, unsigned ways, std::uint32_t seed)
{
    SetAssocTlb tlb({"t", entries, ways});
    ReferenceTlb ref(entries, ways);
    std::mt19937_64 rng(seed);
    const std::uint64_t universe = 4 * entries;
    // Pages sit in two 2 MB regions apart from the small-page range so
    // large fills cover some of them.
    const auto va_of = [](std::uint64_t n) {
        return page(n % 2 ? 0x40000 + n : n * 8);
    };

    for (int op = 0; op < 6000; ++op) {
        const Addr va = va_of(rng() % universe);
        const auto ctx = static_cast<ContextId>(rng() % 3 == 0 ? rng() % 3
                                                               : 0);
        switch (rng() % 8) {
          case 0:
          case 1:
          case 2: {
            const auto got = tlb.lookup(va, ctx);
            const auto want = ref.lookup(va, ctx);
            ASSERT_EQ(got, want) << "op " << op;
            break;
          }
          case 3:
            ASSERT_EQ(tlb.invalidate(va, ctx), ref.invalidate(va, ctx));
            break;
          default: {
            const bool large = rng() % 16 == 0;
            const Addr pa = page(1000 + rng() % 5000);
            tlb.insert(va, pa, large, ctx);
            ref.insert(va, pa, large, ctx);
            break;
          }
        }
        ASSERT_EQ(tlb.hits(), ref.hits);
        ASSERT_EQ(tlb.misses(), ref.misses);
        ASSERT_EQ(tlb.insertions(), ref.insertions) << "op " << op;
        ASSERT_EQ(tlb.evictions(), ref.evictions) << "op " << op;
        for (std::uint64_t n = 0; n < universe; ++n) {
            for (ContextId c = 0; c < 3; ++c) {
                ASSERT_EQ(tlb.probe(va_of(n), c), ref.probe(va_of(n), c))
                    << "op " << op << " page " << n << " ctx " << c;
            }
        }
    }
}

TEST(SetAssocTlbDifferential, FullyAssociativeMatchesReference)
{
    fuzzAgainstReference(32, 32, 1);
    fuzzAgainstReference(32, 32, 2);
}

TEST(SetAssocTlbDifferential, SetAssociativeMatchesReference)
{
    fuzzAgainstReference(8, 2, 3);
    fuzzAgainstReference(64, 16, 4);
}

} // namespace
