/**
 * @file
 * Unit tests for the set-associative timing cache, plus a differential
 * fuzz against a reference model of the original per-set line-vector
 * implementation: the flat tag/LRU/dirty arrays must reproduce its
 * hit/miss, eviction and writeback-address sequence exactly.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "mem/cache.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::mem;

/** Memory stub with fixed latency that records accesses. */
class StubMemory : public MemoryDevice
{
  public:
    StubMemory(sim::EventQueue &eq, sim::Tick latency)
        : eq_(eq), latency_(latency)
    {}

    void
    access(MemoryRequest req) override
    {
        if (req.write)
            writes.push_back(req.addr);
        else
            reads.push_back(req.addr);
        eq_.scheduleIn(latency_,
                       [r = std::move(req)]() mutable { r.complete(); });
    }

    std::vector<Addr> reads;
    std::vector<Addr> writes;

  private:
    sim::EventQueue &eq_;
    sim::Tick latency_;
};

struct CacheFixture : public ::testing::Test
{
    sim::EventQueue eq;
    StubMemory below{eq, 100 * 500};
    CacheConfig cfg{"test_cache", 4 * 1024, 4, 64, 500, 500};
    std::unique_ptr<Cache> cache;

    void SetUp() override
    {
        cache = std::make_unique<Cache>(eq, cfg, below);
    }

    sim::Tick
    access(Addr addr, bool write = false)
    {
        sim::Tick done = 0;
        MemoryRequest req;
        req.addr = addr;
        req.write = write;
        req.onComplete = [&] { done = eq.now(); };
        cache->access(std::move(req));
        eq.run();
        return done;
    }
};

TEST_F(CacheFixture, ColdMissGoesBelow)
{
    access(0x1000);
    EXPECT_EQ(cache->misses(), 1u);
    EXPECT_EQ(cache->hits(), 0u);
    ASSERT_EQ(below.reads.size(), 1u);
    EXPECT_EQ(below.reads[0], 0x1000u);
}

TEST_F(CacheFixture, SecondAccessHits)
{
    access(0x1000);
    const sim::Tick t0 = eq.now();
    const sim::Tick done = access(0x1040); // different line
    (void)done;
    access(0x1000); // hit
    EXPECT_EQ(cache->hits(), 1u);
    // Hit latency is short.
    sim::Tick start = eq.now();
    const sim::Tick hit_done = access(0x1000);
    EXPECT_EQ(hit_done - start, cfg.hitLatency);
    (void)t0;
}

TEST_F(CacheFixture, SameLineDifferentOffsetHits)
{
    access(0x2000);
    access(0x2030); // same 64B line
    EXPECT_EQ(cache->hits(), 1u);
    EXPECT_EQ(cache->misses(), 1u);
}

TEST_F(CacheFixture, MshrMergesConcurrentMisses)
{
    unsigned completed = 0;
    for (int i = 0; i < 3; ++i) {
        MemoryRequest req;
        req.addr = 0x3000 + Addr(i) * 8; // same line
        req.onComplete = [&] { ++completed; };
        cache->access(std::move(req));
    }
    eq.run();
    EXPECT_EQ(completed, 3u);
    EXPECT_EQ(cache->misses(), 1u);
    EXPECT_EQ(cache->mshrMerges(), 2u);
    EXPECT_EQ(below.reads.size(), 1u); // one fill only
}

TEST_F(CacheFixture, DirtyEvictionWritesBack)
{
    // Fill one set (4 ways) with writes, then evict.
    // Set index = (addr/64) % 16; keep the same set via 1 KB stride.
    const Addr stride = 64 * 16;
    for (int i = 0; i < 4; ++i)
        access(Addr(i) * stride, /*write=*/true);
    EXPECT_EQ(below.writes.size(), 0u);
    access(Addr(4) * stride, /*write=*/false); // evicts LRU dirty line
    EXPECT_EQ(cache->evictions(), 1u);
    EXPECT_EQ(cache->writebacks(), 1u);
    ASSERT_EQ(below.writes.size(), 1u);
    EXPECT_EQ(below.writes[0], 0u); // the first (LRU) line
}

TEST_F(CacheFixture, LruKeepsRecentlyUsedLines)
{
    const Addr stride = 64 * 16; // same set
    for (int i = 0; i < 4; ++i)
        access(Addr(i) * stride);
    access(0); // touch line 0 -> most recent
    access(Addr(4) * stride); // evicts line 1 (LRU), not 0
    access(0);
    EXPECT_EQ(cache->misses(), 5u); // line 0 still resident
}

TEST_F(CacheFixture, CleanEvictionDoesNotWriteBack)
{
    const Addr stride = 64 * 16;
    for (int i = 0; i < 5; ++i)
        access(Addr(i) * stride);
    EXPECT_EQ(cache->evictions(), 1u);
    EXPECT_EQ(cache->writebacks(), 0u);
}

TEST_F(CacheFixture, FlushAllInvalidates)
{
    access(0x1000);
    cache->flushAll();
    access(0x1000);
    EXPECT_EQ(cache->misses(), 2u);
    EXPECT_EQ(cache->hits(), 0u);
}

TEST_F(CacheFixture, HitRateComputation)
{
    access(0x1000);
    access(0x1000);
    access(0x1000);
    EXPECT_NEAR(cache->hitRate(), 2.0 / 3.0, 1e-12);
}

TEST_F(CacheFixture, WriteMissAllocatesAndMarksDirty)
{
    access(0x7000, /*write=*/true);
    EXPECT_EQ(cache->misses(), 1u);
    // Force its eviction: fill the rest of the set + 1.
    const Addr stride = 64 * 16;
    for (int i = 1; i <= 4; ++i)
        access(0x7000 + Addr(i) * stride);
    EXPECT_EQ(cache->writebacks(), 1u);
}

TEST(CacheDeathTest, NonPowerOfTwoSetCountPanics)
{
    sim::EventQueue eq;
    StubMemory below{eq, 500};
    // 768 B / (4 ways x 64 B) = 3 sets.
    const CacheConfig cfg{"odd", 768, 4, 64, 500, 500};
    EXPECT_DEATH(Cache(eq, cfg, below), "powers of two");
}

/**
 * The original cache state: one vector of lines per set, indexed by
 * division, first invalid way else true LRU (first on ties). Reports
 * what one access does, with the access completed before the next.
 */
class ReferenceCache
{
  public:
    struct Outcome
    {
        bool hit = false;
        bool evicted = false;
        bool wroteBack = false;
        Addr writebackAddr = 0;
    };

    explicit ReferenceCache(const CacheConfig &cfg)
        : cfg_(cfg), numSets_(cfg.numSets()),
          sets_(numSets_, std::vector<Line>(cfg.associativity))
    {}

    Outcome
    access(Addr addr, bool write)
    {
        Outcome out;
        auto &set = sets_[(addr / cfg_.lineBytes) % numSets_];
        const Addr tag = (addr / cfg_.lineBytes) / numSets_;
        for (auto &line : set) {
            if (line.valid && line.tag == tag) {
                out.hit = true;
                line.lastUse = ++useClock_;
                line.dirty = line.dirty || write;
                return out;
            }
        }
        Line *victim = nullptr;
        for (auto &line : set) {
            if (!line.valid) {
                victim = &line;
                break;
            }
            if (!victim || line.lastUse < victim->lastUse)
                victim = &line;
        }
        if (victim->valid) {
            out.evicted = true;
            if (victim->dirty) {
                out.wroteBack = true;
                out.writebackAddr =
                    (victim->tag * numSets_
                     + (addr / cfg_.lineBytes) % numSets_)
                    * cfg_.lineBytes;
            }
        }
        victim->tag = tag;
        victim->valid = true;
        victim->dirty = write;
        victim->lastUse = ++useClock_;
        return out;
    }

    void
    flushAll()
    {
        for (auto &set : sets_) {
            for (auto &line : set) {
                line.valid = false;
                line.dirty = false;
            }
        }
    }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    CacheConfig cfg_;
    Addr numSets_;
    std::vector<std::vector<Line>> sets_;
    std::uint64_t useClock_ = 0;
};

/** Random read/write stream over a footprint a few times the cache,
 *  mixing re-touches of recent lines (hits, LRU updates) with fresh
 *  lines (misses, evictions). */
void
fuzzAgainstReference(const CacheConfig &cfg, std::uint32_t seed)
{
    sim::EventQueue eq;
    StubMemory below{eq, 100 * 500};
    Cache cache(eq, cfg, below);
    ReferenceCache ref(cfg);
    std::mt19937_64 rng(seed);
    const Addr footprint_lines = 4 * cfg.sizeBytes / cfg.lineBytes;
    std::vector<Addr> recent;

    for (int i = 0; i < 20000; ++i) {
        if (rng() % 5000 == 0) {
            cache.flushAll();
            ref.flushAll();
        }
        Addr addr;
        if (!recent.empty() && rng() % 3 == 0)
            addr = recent[rng() % recent.size()];
        else
            addr = (rng() % footprint_lines) * cfg.lineBytes
                   + rng() % cfg.lineBytes;
        if (recent.size() < 64)
            recent.push_back(addr);
        else
            recent[rng() % recent.size()] = addr;
        const bool write = rng() % 4 == 0;

        const std::uint64_t hits = cache.hits();
        const std::uint64_t evictions = cache.evictions();
        const std::size_t writes = below.writes.size();
        bool done = false;
        MemoryRequest req;
        req.addr = addr;
        req.write = write;
        req.onComplete = [&done] { done = true; };
        cache.access(std::move(req));
        eq.run();
        ASSERT_TRUE(done);

        const ReferenceCache::Outcome want = ref.access(addr, write);
        ASSERT_EQ(cache.hits() - hits, want.hit ? 1u : 0u)
            << cfg.name << " access " << i << " addr " << addr;
        ASSERT_EQ(cache.evictions() - evictions, want.evicted ? 1u : 0u)
            << cfg.name << " access " << i;
        ASSERT_EQ(below.writes.size() - writes, want.wroteBack ? 1u : 0u)
            << cfg.name << " access " << i;
        if (want.wroteBack) {
            ASSERT_EQ(below.writes.back(), want.writebackAddr);
        }
    }
}

TEST(CacheDifferential, DirectMappedMatchesReference)
{
    const CacheConfig cfg{"dm", 2 * 1024, 1, 64, 500, 500}; // 32 sets
    for (std::uint32_t seed = 1; seed <= 3; ++seed)
        fuzzAgainstReference(cfg, seed);
}

TEST(CacheDifferential, SixteenWayMatchesReference)
{
    const CacheConfig cfg{"16way", 16 * 1024, 16, 64, 500, 500};
    for (std::uint32_t seed = 1; seed <= 3; ++seed)
        fuzzAgainstReference(cfg, seed);
}

TEST(CacheDifferential, ThirtyTwoSetsMatchesReference)
{
    const CacheConfig cfg{"32set", 32 * 4 * 64, 4, 64, 500, 500};
    for (std::uint32_t seed = 1; seed <= 3; ++seed)
        fuzzAgainstReference(cfg, seed);
}

} // namespace
