/**
 * @file
 * Slab-backed free-list pools for hot simulation objects.
 *
 * A pool owns its objects in contiguous slabs and recycles them
 * through a LIFO free list, so the steady-state cost of acquiring a
 * record on the simulator's hot paths (event nodes, MSHR/merge
 * entries) is a pointer pop instead of a malloc. Objects are
 * constructed once per slot and *reused as-is* across acquire/release
 * cycles: state they carry (including any container capacity they
 * grew) survives recycling, which is exactly what makes repeated use
 * allocation-free. Callers reset whatever state matters to them.
 *
 * Release is validated unconditionally (not just in debug builds):
 * releasing an object twice, or a pointer the pool never issued,
 * panics immediately instead of corrupting the free list. Both
 * acquire and release are O(1) in the number of slabs: free-list
 * entries carry their slot number, and release finds a pointer's slab
 * with one hash probe on its address chunk (chunks are the largest
 * power of two no bigger than a slab, so at most two slabs overlap
 * any chunk) — without reading through the (possibly foreign)
 * pointer.
 */

#ifndef GPUWALK_SIM_OBJECT_POOL_HH
#define GPUWALK_SIM_OBJECT_POOL_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/logging.hh"

namespace gpuwalk::sim {

/** Growable slab pool of default-constructed, recycled @p T objects. */
template <typename T>
class ObjectPool
{
  public:
    /** @param slab_objects Objects added per exhaustion-triggered
     *  growth step. */
    explicit ObjectPool(std::size_t slab_objects = 256)
        : slabObjects_(slab_objects),
          chunkShift_(static_cast<unsigned>(std::countr_zero(
              std::bit_floor(std::max<std::size_t>(
                  slab_objects * sizeof(T), 1)))))
    {
        GPUWALK_ASSERT(slabObjects_ > 0, "pool needs a slab size");
    }

    ObjectPool(const ObjectPool &) = delete;
    ObjectPool &operator=(const ObjectPool &) = delete;

    /**
     * Returns a free object, growing the pool by one slab when the
     * free list is exhausted. The object retains whatever state its
     * previous user left; the caller resets what it needs.
     */
    T *
    acquire()
    {
        if (free_.empty())
            grow();
        const Free f = free_.back();
        free_.pop_back();
        live_[f.slot] = 1;
        ++inUse_;
        if (inUse_ > peakInUse_)
            peakInUse_ = inUse_;
        return f.obj;
    }

    /** Returns @p obj to the free list. Panics on double release or
     *  on a pointer this pool never issued. */
    void
    release(T *obj)
    {
        const std::size_t slot = slotOf(obj);
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

    static constexpr std::uint32_t noSlab = ~std::uint32_t{0};

    /** The (at most two) slabs overlapping one address chunk. */
    struct ChunkSlabs
    {
        std::uint32_t slab[2] = {noSlab, noSlab};
    };

    void
    grow()
    {
        const auto index = static_cast<std::uint32_t>(slabs_.size());
        slabs_.push_back(std::make_unique<T[]>(slabObjects_));
        T *slab = slabs_.back().get();
        const auto begin = reinterpret_cast<std::uintptr_t>(slab);
        const std::uintptr_t last =
            begin + slabObjects_ * sizeof(T) - 1;
        for (std::uintptr_t c = begin >> chunkShift_;
             c <= last >> chunkShift_; ++c) {
            ChunkSlabs &chunk = chunkSlabs_[c];
            const int k = chunk.slab[0] == noSlab ? 0 : 1;
            GPUWALK_ASSERT(chunk.slab[k] == noSlab,
                           "pool chunk overlaps three slabs");
            chunk.slab[k] = index;
        }
        const std::size_t first = std::size_t(index) * slabObjects_;
        live_.resize(capacity(), 0);
        free_.reserve(capacity());
        // LIFO free list: push in reverse so the first acquires come
        // out in slab order (warm, sequential first touch).
        for (std::size_t i = slabObjects_; i-- > 0;)
            free_.push_back({slab + i, first + i});
    }

    /** Maps @p obj to its slot number; panics on pointers outside
     *  every slab (foreign or misaligned releases). */
    std::size_t
    slotOf(T *obj) const
    {
        const auto addr = reinterpret_cast<std::uintptr_t>(obj);
        const auto it = chunkSlabs_.find(addr >> chunkShift_);
        if (it != chunkSlabs_.end()) {
            for (const std::uint32_t s : it->second.slab) {
                if (s == noSlab)
                    break;
                // Unsigned: an address below the slab wraps to a huge
                // offset and fails the bound.
                const std::uintptr_t offset =
                    addr - reinterpret_cast<std::uintptr_t>(slabs_[s].get());
                if (offset < slabObjects_ * sizeof(T)
                    && offset % sizeof(T) == 0)
                    return s * slabObjects_ + offset / sizeof(T);
            }
        }
        panic("release of non-pooled object ",
              static_cast<const void *>(obj));
    }

    std::size_t slabObjects_;
    unsigned chunkShift_; ///< log2 of the largest power of two <= slab
    std::vector<std::unique_ptr<T[]>> slabs_;
    FlatMap<std::uintptr_t, ChunkSlabs> chunkSlabs_; ///< chunk -> slabs
    std::vector<std::uint8_t> live_; ///< per slot
    std::vector<Free> free_;
    std::size_t inUse_ = 0;
    std::size_t peakInUse_ = 0;
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_OBJECT_POOL_HH
