/**
 * @file
 * Slab-backed free-list pools for hot simulation objects.
 *
 * A pool owns its objects in contiguous slabs and recycles them
 * through a LIFO free list, so the steady-state cost of acquiring a
 * record on the simulator's hot paths (event nodes, request records,
 * MSHRs) is a pointer pop instead of a malloc. Objects are
 * constructed once per slot and *reused as-is* across acquire/release
 * cycles: state they carry (including any container capacity they
 * grew) survives recycling, which is exactly what makes repeated use
 * allocation-free. Callers reset whatever state matters to them.
 *
 * Release is validated unconditionally (not just in debug builds):
 * releasing an object twice, or a pointer the pool never issued,
 * panics immediately instead of corrupting the free list. Both
 * acquire and release are O(1) in the number of slabs: acquire reports
 * the object's slot number, the caller keeps it, and release checks
 * the pointer against that slot's address — without reading through
 * the (possibly foreign) pointer.
 */

#ifndef GPUWALK_SIM_OBJECT_POOL_HH
#define GPUWALK_SIM_OBJECT_POOL_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/logging.hh"

namespace gpuwalk::sim {

/** Growable slab pool of default-constructed, recycled @p T objects. */
template <typename T>
class ObjectPool
{
  public:
    /** @param slab_objects Objects added per exhaustion-triggered
     *  growth step; a power of two. */
    explicit ObjectPool(std::size_t slab_objects = 256)
        : slabObjects_(slab_objects),
          slabShift_(static_cast<unsigned>(std::countr_zero(slab_objects)))
    {
        GPUWALK_ASSERT(std::has_single_bit(slabObjects_),
                       "pool slab size must be a power of two");
    }

    ObjectPool(const ObjectPool &) = delete;
    ObjectPool &operator=(const ObjectPool &) = delete;

    /**
     * Returns a free object, growing the pool by one slab when the
     * free list is exhausted, and stores its slot number in @p slot
     * for release(). The object retains whatever state its previous
     * user left; the caller resets what it needs.
     */
    T *
    acquire(std::size_t &slot)
    {
        if (free_.empty())
            grow();
        const Free f = free_.back();
        free_.pop_back();
        live_[f.slot] = 1;
        ++inUse_;
        if (inUse_ > peakInUse_)
            peakInUse_ = inUse_;
        slot = f.slot;
        return f.obj;
    }

    /**
     * Returns @p obj, acquired as slot @p slot, to the free list.
     * Panics when @p obj is not that slot's object (a foreign pointer
     * or a mismatched slot) and on double release.
     */
    void
    release(T *obj, std::size_t slot)
    {
        GPUWALK_ASSERT(slot < capacity()
                           && slabs_[slot >> slabShift_].get()
                                      + (slot & (slabObjects_ - 1))
                                  == obj,
                       "release of non-pooled object ",
                       static_cast<const void *>(obj), " as slot ", slot);
        GPUWALK_ASSERT(live_[slot] == 1, "double release of pooled object ",
                       static_cast<const void *>(obj));
        live_[slot] = 0;
        GPUWALK_ASSERT(inUse_ > 0, "pool release underflow");
        --inUse_;
        free_.push_back({obj, slot});
    }

    /** Total objects owned (free + in use). */
    std::size_t capacity() const { return slabs_.size() * slabObjects_; }

    /** Objects currently acquired. */
    std::size_t inUse() const { return inUse_; }

    /** High-water mark of simultaneously acquired objects. */
    std::size_t peakInUse() const { return peakInUse_; }

    /** Growth steps taken so far. */
    std::size_t slabCount() const { return slabs_.size(); }

  private:
    struct Free
    {
        T *obj;
        std::size_t slot; ///< slab * slabObjects_ + index in the slab
    };

    void
    grow()
    {
        slabs_.push_back(std::make_unique<T[]>(slabObjects_));
        T *slab = slabs_.back().get();
        const std::size_t first = (slabs_.size() - 1) * slabObjects_;
        live_.resize(capacity(), 0);
        free_.reserve(capacity());
        // LIFO free list: push in reverse so the first acquires come
        // out in slab order (warm, sequential first touch).
        for (std::size_t i = slabObjects_; i-- > 0;)
            free_.push_back({slab + i, first + i});
    }

    std::size_t slabObjects_;
    unsigned slabShift_; ///< log2 of slabObjects_
    std::vector<std::unique_ptr<T[]>> slabs_;
    std::vector<std::uint8_t> live_; ///< per slot
    std::vector<Free> free_;
    std::size_t inUse_ = 0;
    std::size_t peakInUse_ = 0;
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_OBJECT_POOL_HH
