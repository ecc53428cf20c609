/**
 * @file
 * Unit tests for the slab-backed object pool.
 *
 * Covers growth on exhaustion, LIFO recycle identity, capacity
 * retention across acquire/release cycles (the property the simulator's
 * hot paths rely on to stay allocation-free), the in-use accounting,
 * and the always-on release validation: double release and foreign
 * pointers must panic, not corrupt the free list.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "sim/object_pool.hh"

namespace {

using gpuwalk::sim::ObjectPool;

struct Payload
{
    int value = 0;
    std::vector<int> scratch;
};

TEST(ObjectPool, StartsEmptyAndGrowsOnFirstAcquire)
{
    ObjectPool<Payload> pool(4);
    EXPECT_EQ(pool.capacity(), 0u);
    EXPECT_EQ(pool.slabCount(), 0u);

    Payload *p = pool.acquire();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(pool.capacity(), 4u);
    EXPECT_EQ(pool.slabCount(), 1u);
    EXPECT_EQ(pool.inUse(), 1u);
    pool.release(p);
}

TEST(ObjectPool, ExhaustionAddsSlabsAndPointersStayDistinct)
{
    ObjectPool<Payload> pool(4);
    std::set<Payload *> seen;
    std::vector<Payload *> held;
    for (int i = 0; i < 11; ++i) {
        Payload *p = pool.acquire();
        EXPECT_TRUE(seen.insert(p).second) << "duplicate live pointer";
        held.push_back(p);
    }
    EXPECT_EQ(pool.slabCount(), 3u); // ceil(11 / 4)
    EXPECT_EQ(pool.capacity(), 12u);
    EXPECT_EQ(pool.inUse(), 11u);
    EXPECT_EQ(pool.peakInUse(), 11u);

    for (Payload *p : held)
        pool.release(p);
    EXPECT_EQ(pool.inUse(), 0u);
    EXPECT_EQ(pool.peakInUse(), 11u); // high-water mark sticks
    EXPECT_EQ(pool.capacity(), 12u);  // slabs are never returned
}

TEST(ObjectPool, RecycleIsLifo)
{
    ObjectPool<Payload> pool(8);
    Payload *a = pool.acquire();
    Payload *b = pool.acquire();
    pool.release(b);
    pool.release(a);
    // Most recently released comes back first.
    EXPECT_EQ(pool.acquire(), a);
    EXPECT_EQ(pool.acquire(), b);
    pool.release(a);
    pool.release(b);
}

TEST(ObjectPool, RecycledObjectsKeepStateAndCapacity)
{
    // The pool's contract: objects are constructed once and reused
    // as-is, so container capacity grown by one user is still there
    // for the next — that is what makes steady state allocation-free.
    ObjectPool<Payload> pool(2);
    Payload *p = pool.acquire();
    p->value = 42;
    p->scratch.reserve(1024);
    const std::size_t cap = p->scratch.capacity();
    pool.release(p);

    Payload *q = pool.acquire();
    ASSERT_EQ(q, p);
    EXPECT_EQ(q->value, 42);
    EXPECT_GE(q->scratch.capacity(), cap);
    pool.release(q);
}

TEST(ObjectPool, InUseTracksAcquireReleaseCycles)
{
    ObjectPool<Payload> pool(4);
    std::vector<Payload *> held;
    for (int cycle = 0; cycle < 3; ++cycle) {
        for (int i = 0; i < 3; ++i)
            held.push_back(pool.acquire());
        EXPECT_EQ(pool.inUse(), 3u);
        for (Payload *p : held)
            pool.release(p);
        held.clear();
        EXPECT_EQ(pool.inUse(), 0u);
    }
    EXPECT_EQ(pool.peakInUse(), 3u);
    EXPECT_EQ(pool.slabCount(), 1u); // recycling never grew the pool
}

TEST(ObjectPool, LiveCountStaysExactUnderRecycleWhileIterating)
{
    // The merge-pool usage pattern the auditor's live-count invariant
    // depends on: while walking a set of live objects, each step may
    // release the current one and acquire a replacement (a completing
    // merge entry spawning a follow-up). The count must track every
    // interleaved acquire/release exactly — no drift, no double count
    // when LIFO hands the just-released slot straight back.
    ObjectPool<Payload> pool(4);
    std::vector<Payload *> held;
    for (int i = 0; i < 8; ++i) {
        held.push_back(pool.acquire());
        held.back()->value = i;
    }
    ASSERT_EQ(pool.inUse(), 8u);

    for (std::size_t i = 0; i < held.size(); ++i) {
        pool.release(held[i]);
        EXPECT_EQ(pool.inUse(), 7u);
        Payload *fresh = pool.acquire();
        EXPECT_EQ(fresh, held[i]); // LIFO returns the same slot
        EXPECT_EQ(pool.inUse(), 8u);
        held[i] = fresh;
    }
    EXPECT_EQ(pool.peakInUse(), 8u); // churn never inflated the peak
    EXPECT_EQ(pool.slabCount(), 2u); // ...nor grew the pool

    // Tear down half from the middle (arbitrary order): the count
    // must step down one per release, ending exactly at zero.
    std::size_t expect = 8;
    for (std::size_t i = 1; i < held.size(); i += 2) {
        pool.release(held[i]);
        EXPECT_EQ(pool.inUse(), --expect);
    }
    for (std::size_t i = 0; i < held.size(); i += 2) {
        pool.release(held[i]);
        EXPECT_EQ(pool.inUse(), --expect);
    }
    EXPECT_EQ(pool.inUse(), 0u);
}

TEST(ObjectPool, ReleaseFromThirtiethSlabWorks)
{
    // The TLB merge pool reaches ~30 slabs on irregular workloads; a
    // release deep in the slab list must resolve like one in the first.
    ObjectPool<Payload> pool(4);
    std::vector<Payload *> held;
    for (int i = 0; i < 30 * 4; ++i)
        held.push_back(pool.acquire());
    ASSERT_EQ(pool.slabCount(), 30u);

    Payload *deep = held[29 * 4 + 2]; // third object of slab 30
    pool.release(deep);
    EXPECT_EQ(pool.inUse(), 30u * 4 - 1);
    EXPECT_EQ(pool.acquire(), deep); // LIFO hands it straight back
    for (Payload *p : held)
        pool.release(p);
    EXPECT_EQ(pool.inUse(), 0u);
    EXPECT_EQ(pool.slabCount(), 30u);
}

TEST(ObjectPoolDeathTest, DoubleReleasePanics)
{
    ObjectPool<Payload> pool(4);
    Payload *p = pool.acquire();
    pool.release(p);
    EXPECT_DEATH(pool.release(p), "double release");
}

TEST(ObjectPoolDeathTest, ReleaseAfterRecycleByAnotherOwnerPanics)
{
    // The stale-owner variant of double release: the slot has been
    // re-acquired, so the stale release would free it out from under
    // the live owner. Re-acquiring sets the live flag again, so this
    // must trip the same validation only when genuinely stale.
    ObjectPool<Payload> pool(4);
    Payload *p = pool.acquire();
    pool.release(p);
    Payload *q = pool.acquire();
    ASSERT_EQ(q, p); // LIFO: same slot, new owner
    pool.release(q);
    EXPECT_DEATH(pool.release(p), "double release");
}

TEST(ObjectPoolDeathTest, ReleasingForeignPointerPanics)
{
    ObjectPool<Payload> pool(4);
    Payload *p = pool.acquire();
    Payload stack_object;
    EXPECT_DEATH(pool.release(&stack_object), "non-pooled");
    pool.release(p);
}

TEST(ObjectPoolDeathTest, OnePastTheLastSlabPanics)
{
    ObjectPool<Payload> pool(4);
    std::vector<Payload *> held;
    for (int i = 0; i < 8; ++i)
        held.push_back(pool.acquire());
    ASSERT_EQ(pool.slabCount(), 2u);
    // Acquires come out in slab order: held[7] ends the last slab.
    Payload *past_end = held[7] + 1;
    ASSERT_EQ(std::count(held.begin(), held.end(), past_end), 0);
    EXPECT_DEATH(pool.release(past_end), "non-pooled");
    for (Payload *p : held)
        pool.release(p);
}

TEST(ObjectPoolDeathTest, ReleasingAnotherPoolsObjectPanics)
{
    ObjectPool<Payload> pool_a(4);
    ObjectPool<Payload> pool_b(4);
    Payload *p = pool_a.acquire();
    EXPECT_DEATH(pool_b.release(p), "non-pooled");
    pool_a.release(p);
}

} // namespace
