/**
 * @file
 * Set-associative, write-back, write-allocate timing cache with MSHRs.
 *
 * Used for the GPU's L1 data caches (per CU) and the shared L2 (Table
 * I: 32 KB/16-way and 4 MB/16-way, 64 B lines). The model is timing
 * only — data contents are not stored; functional state (page tables)
 * lives in the BackingStore and is accessed uncached by the walker
 * model's functional reads.
 */

#ifndef GPUWALK_MEM_CACHE_HH
#define GPUWALK_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/object_pool.hh"
#include "sim/stats.hh"

namespace gpuwalk::sim {
class Auditor;
} // namespace gpuwalk::sim

namespace gpuwalk::mem {

/** Geometry and timing of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    Addr sizeBytes = 32 * 1024;
    unsigned associativity = 16;
    Addr lineBytes = cacheLineSize;
    sim::Tick hitLatency = 1 * 500;   ///< ticks (1 GPU cycle default)
    sim::Tick tagLatency = 1 * 500;   ///< added on the miss path

    Addr numSets() const
    {
        return sizeBytes / (lineBytes * associativity);
    }
};

/**
 * A blocking-free (MSHR-based) timing cache.
 *
 * MSHRs are unbounded: every distinct missing line gets one, and
 * later misses to it merge. Line and set counts must be powers of two
 * so indexing is shifts and masks. Way state is one flat
 * structure-of-arrays (slot = set * associativity + way) with three
 * columns: a tag word whose low bit is the valid bit, the LRU stamp,
 * and the dirty flag.
 */
class Cache : public MemoryDevice
{
  public:
    /**
     * @param eq The system event queue.
     * @param cfg Geometry/timing.
     * @param below The next level (L2 or the DRAM controller).
     */
    Cache(sim::EventQueue &eq, const CacheConfig &cfg, MemoryDevice &below);

    void access(MemoryRequest req) override;

    sim::StatGroup &stats() { return statGroup_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }
    std::uint64_t mshrMerges() const { return mshrMerges_.value(); }

    /** Fraction of accesses that hit (0 if none). */
    double
    hitRate() const
    {
        const std::uint64_t total = hits_.value() + misses_.value();
        return total ? static_cast<double>(hits_.value()) / total : 0.0;
    }

    /** Invalidates all lines (e.g., between experiment phases). */
    void flushAll();

    /**
     * Registers this cache's conservation invariants (MSHR table vs.
     * pool accounting), named after the cache so one auditor can hold
     * every cache in the system apart.
     */
    void registerInvariants(sim::Auditor &auditor);

  private:
    /** Pooled and recycled with its waiter-vector capacity intact, so
     *  the steady-state miss path does not allocate. */
    struct Mshr
    {
        std::vector<MemoryRequest> waiters;
        bool anyWrite = false;
    };

    /** Tag words: the line's tag shifted left one, low bit = valid. */
    static constexpr Addr validBit = 1;

    Addr lineOf(Addr addr) const { return addr >> lineShift_; }
    std::size_t setBase(Addr line) const
    {
        return static_cast<std::size_t>(line & setMask_) * ways_;
    }
    Addr tagWord(Addr line) const
    {
        return ((line >> setShift_) << 1) | validBit;
    }

    /** Slot holding @p line, or npos. */
    std::size_t findSlot(Addr line) const;
    void installLine(Addr line_addr, bool dirty);
    void handleFill(Addr line_addr);

    static constexpr std::size_t npos = ~std::size_t{0};

    sim::EventQueue &eq_;
    CacheConfig cfg_;
    MemoryDevice &below_;
    unsigned lineShift_ = 0;
    unsigned setShift_ = 0;
    Addr setMask_ = 0;
    std::size_t ways_ = 0;
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> dirty_;
    sim::FlatMap<Addr, Mshr *> mshrs_; ///< keyed by line base addr
    sim::ObjectPool<Mshr> mshrPool_{64};
    std::uint64_t useClock_ = 0;

    sim::StatGroup statGroup_;
    sim::Counter hits_{"hits", "demand hits"};
    sim::Counter misses_{"misses", "demand misses (MSHR allocations)"};
    sim::Counter mshrMerges_{"mshr_merges",
                             "requests merged into an in-flight miss"};
    sim::Counter evictions_{"evictions", "lines evicted"};
    sim::Counter writebacks_{"writebacks", "dirty lines written back"};
};

} // namespace gpuwalk::mem

#endif // GPUWALK_MEM_CACHE_HH
