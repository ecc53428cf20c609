/**
 * @file
 * Unit tests for the slab-backed object pool.
 *
 * Covers growth on exhaustion, LIFO recycle identity, capacity
 * retention across acquire/release cycles (the property the simulator's
 * hot paths rely on to stay allocation-free), the in-use accounting,
 * and the always-on release validation: double release, foreign
 * pointers and a pointer released as another object's slot must panic,
 * not corrupt the free list.
 */

#include <gtest/gtest.h>

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

/** An acquired object with the slot number release() takes. */
struct Held
{
    Payload *obj = nullptr;
    std::size_t slot = 0;

    bool operator==(const Held &) const = default;
};

Held
take(ObjectPool<Payload> &pool)
{
    Held h;
    h.obj = pool.acquire(h.slot);
    return h;
}

void
give(ObjectPool<Payload> &pool, Held h)
{
    pool.release(h.obj, h.slot);
}

TEST(ObjectPool, StartsEmptyAndGrowsOnFirstAcquire)
{
    ObjectPool<Payload> pool(4);
    EXPECT_EQ(pool.capacity(), 0u);
    EXPECT_EQ(pool.slabCount(), 0u);

    const Held p = take(pool);
    ASSERT_NE(p.obj, nullptr);
    EXPECT_EQ(pool.capacity(), 4u);
    EXPECT_EQ(pool.slabCount(), 1u);
    EXPECT_EQ(pool.inUse(), 1u);
    give(pool, p);
}

TEST(ObjectPool, ExhaustionAddsSlabsAndPointersStayDistinct)
{
    ObjectPool<Payload> pool(4);
    std::set<Payload *> seen;
    std::vector<Held> held;
    for (std::size_t i = 0; i < 11; ++i) {
        const Held p = take(pool);
        EXPECT_TRUE(seen.insert(p.obj).second) << "duplicate live pointer";
        EXPECT_EQ(p.slot, i); // slots come out in slab order
        held.push_back(p);
    }
    EXPECT_EQ(pool.slabCount(), 3u); // ceil(11 / 4)
    EXPECT_EQ(pool.capacity(), 12u);
    EXPECT_EQ(pool.inUse(), 11u);
    EXPECT_EQ(pool.peakInUse(), 11u);

    for (const Held &p : held)
        give(pool, p);
    EXPECT_EQ(pool.inUse(), 0u);
    EXPECT_EQ(pool.peakInUse(), 11u); // high-water mark sticks
    EXPECT_EQ(pool.capacity(), 12u);  // slabs are never returned
}

TEST(ObjectPool, RecycleIsLifo)
{
    ObjectPool<Payload> pool(8);
    const Held a = take(pool);
    const Held b = take(pool);
    give(pool, b);
    give(pool, a);
    // Most recently released comes back first, with its slot.
    EXPECT_EQ(take(pool), a);
    EXPECT_EQ(take(pool), b);
    give(pool, a);
    give(pool, b);
}

TEST(ObjectPool, RecycledObjectsKeepStateAndCapacity)
{
    // The pool's contract: objects are constructed once and reused
    // as-is, so container capacity grown by one user is still there
    // for the next — that is what makes steady state allocation-free.
    ObjectPool<Payload> pool(2);
    const Held p = take(pool);
    p.obj->value = 42;
    p.obj->scratch.reserve(1024);
    const std::size_t cap = p.obj->scratch.capacity();
    give(pool, p);

    const Held q = take(pool);
    ASSERT_EQ(q, p);
    EXPECT_EQ(q.obj->value, 42);
    EXPECT_GE(q.obj->scratch.capacity(), cap);
    give(pool, q);
}

TEST(ObjectPool, InUseTracksAcquireReleaseCycles)
{
    ObjectPool<Payload> pool(4);
    std::vector<Held> held;
    for (int cycle = 0; cycle < 3; ++cycle) {
        for (int i = 0; i < 3; ++i)
            held.push_back(take(pool));
        EXPECT_EQ(pool.inUse(), 3u);
        for (const Held &p : held)
            give(pool, p);
        held.clear();
        EXPECT_EQ(pool.inUse(), 0u);
    }
    EXPECT_EQ(pool.peakInUse(), 3u);
    EXPECT_EQ(pool.slabCount(), 1u); // recycling never grew the pool
}

TEST(ObjectPool, LiveCountStaysExactUnderRecycleWhileIterating)
{
    // The request-pool usage pattern the auditor's live-count
    // invariant depends on: while walking a set of live objects, each
    // step may release the current one and acquire a replacement (a
    // completing request spawning a follow-up). The count must track every
    // interleaved acquire/release exactly — no drift, no double count
    // when LIFO hands the just-released slot straight back.
    ObjectPool<Payload> pool(4);
    std::vector<Held> held;
    for (int i = 0; i < 8; ++i) {
        held.push_back(take(pool));
        held.back().obj->value = i;
    }
    ASSERT_EQ(pool.inUse(), 8u);

    for (std::size_t i = 0; i < held.size(); ++i) {
        give(pool, held[i]);
        EXPECT_EQ(pool.inUse(), 7u);
        const Held fresh = take(pool);
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
        give(pool, held[i]);
        EXPECT_EQ(pool.inUse(), --expect);
    }
    for (std::size_t i = 0; i < held.size(); i += 2) {
        give(pool, held[i]);
        EXPECT_EQ(pool.inUse(), --expect);
    }
    EXPECT_EQ(pool.inUse(), 0u);
}

TEST(ObjectPool, ReleaseFromThirtiethSlabWorks)
{
    // Request pools grow to tens of slabs on irregular workloads; a
    // release deep in the slab list must resolve like one in the first.
    ObjectPool<Payload> pool(4);
    std::vector<Held> held;
    for (int i = 0; i < 30 * 4; ++i)
        held.push_back(take(pool));
    ASSERT_EQ(pool.slabCount(), 30u);

    const Held deep = held[29 * 4 + 2]; // third object of slab 30
    give(pool, deep);
    EXPECT_EQ(pool.inUse(), 30u * 4 - 1);
    EXPECT_EQ(take(pool), deep); // LIFO hands it straight back
    for (const Held &p : held)
        give(pool, p);
    EXPECT_EQ(pool.inUse(), 0u);
    EXPECT_EQ(pool.slabCount(), 30u);
}

TEST(ObjectPoolDeathTest, DoubleReleasePanics)
{
    ObjectPool<Payload> pool(4);
    const Held p = take(pool);
    give(pool, p);
    EXPECT_DEATH(give(pool, p), "double release");
}

TEST(ObjectPoolDeathTest, ReleaseAfterRecycleByAnotherOwnerPanics)
{
    // The stale-owner variant of double release: the slot has been
    // re-acquired, so the stale release would free it out from under
    // the live owner. Re-acquiring sets the live flag again, so this
    // must trip the same validation only when genuinely stale.
    ObjectPool<Payload> pool(4);
    const Held p = take(pool);
    give(pool, p);
    const Held q = take(pool);
    ASSERT_EQ(q, p); // LIFO: same slot, new owner
    give(pool, q);
    EXPECT_DEATH(give(pool, p), "double release");
}

TEST(ObjectPoolDeathTest, ReleasingForeignPointerPanics)
{
    ObjectPool<Payload> pool(4);
    const Held p = take(pool);
    Payload stack_object;
    EXPECT_DEATH(pool.release(&stack_object, p.slot), "non-pooled");
    give(pool, p);
}

TEST(ObjectPoolDeathTest, OnePastTheLastSlabPanics)
{
    ObjectPool<Payload> pool(4);
    std::vector<Held> held;
    for (int i = 0; i < 8; ++i)
        held.push_back(take(pool));
    ASSERT_EQ(pool.slabCount(), 2u);
    // Acquires come out in slab order: held[7] ends the last slab.
    Payload *past_end = held[7].obj + 1;
    EXPECT_DEATH(pool.release(past_end, held[7].slot), "non-pooled");
    EXPECT_DEATH(pool.release(past_end, held[7].slot + 1), "non-pooled");
    for (const Held &p : held)
        give(pool, p);
}

TEST(ObjectPoolDeathTest, ReleaseAsAnotherSlotPanics)
{
    ObjectPool<Payload> pool(4);
    const Held a = take(pool);
    const Held b = take(pool);
    EXPECT_DEATH(pool.release(a.obj, b.slot), "non-pooled");
    give(pool, a);
    give(pool, b);
}

TEST(ObjectPoolDeathTest, ReleasingAnotherPoolsObjectPanics)
{
    ObjectPool<Payload> pool_a(4);
    ObjectPool<Payload> pool_b(4);
    const Held p = take(pool_a);
    EXPECT_DEATH(give(pool_b, p), "non-pooled");
    const Held q = take(pool_b); // same slot number, other pool's object
    EXPECT_DEATH(pool_b.release(p.obj, q.slot), "non-pooled");
    give(pool_a, p);
    give(pool_b, q);
}

} // namespace
