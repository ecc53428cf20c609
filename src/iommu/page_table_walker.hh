/**
 * @file
 * A hardware page table walker.
 *
 * Walks the in-memory x86-64 page table one level at a time: each
 * level is a dependent (sequential) memory read of the PTE word,
 * issued to the DRAM controller, followed by a functional decode of
 * the real entry bytes from the BackingStore. Upper-level entries are
 * installed into the PWCs as they are read. The IOMMU owns a pool of
 * these (8 in the baseline, 16 in the Fig. 13 sensitivity sweeps).
 */

#ifndef GPUWALK_IOMMU_PAGE_TABLE_WALKER_HH
#define GPUWALK_IOMMU_PAGE_TABLE_WALKER_HH

#include <array>
#include <cstdint>

#include "core/pending_walk.hh"
#include "iommu/page_walk_cache.hh"
#include "mem/backing_store.hh"
#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "trace/trace.hh"

namespace gpuwalk::iommu {

/** Result of a finished walk, reported back to the IOMMU. */
struct WalkResult
{
    core::PendingWalk walk;
    mem::Addr paPage = 0;       ///< page-aligned translation result
    bool largePage = false;     ///< backed by a 2 MB (PS-bit) mapping
    unsigned memAccesses = 0;   ///< actual accesses performed (1-4)
    unsigned walkerId = 0;      ///< walker that performed the walk
    sim::Tick started = 0;      ///< dispatch time
    sim::Tick finished = 0;     ///< completion time

    /** The walk reached a non-present entry (far fault): paPage is
     *  meaningless and the walk must park until the fault is
     *  serviced. Only possible when the walker allowFaults(). */
    bool faulted = false;
    unsigned faultLevel = 0;    ///< non-present level (4..1)

    /** Memory latency of each level's PTE read; index = level - 1,
     *  0 for levels the walk skipped (PWC hit / 2 MB leaf). */
    std::array<sim::Tick, vm::numPtLevels> levelTicks{};
};

/** One independent walker; busy while a walk is in flight. */
class PageTableWalker
{
  public:
    /** Inline-stored completion callback (the IOMMU passes [this]). */
    using DoneCallback = sim::InlineFunction<void(WalkResult &&), 16>;

    /**
     * @param eq Event queue.
     * @param memory Where PTE reads are issued (the DRAM controller).
     * @param store Functional memory holding real PTE bytes.
     * @param pwc Shared page walk caches.
     * @param id This walker's index in the IOMMU pool (for tracing).
     */
    PageTableWalker(sim::EventQueue &eq, mem::MemoryDevice &memory,
                    mem::BackingStore &store, PageWalkCache &pwc,
                    unsigned id = 0)
        : eq_(eq), memory_(memory), store_(store), pwc_(pwc), id_(id)
    {}

    bool busy() const { return busy_; }

    /** Pool index of this walker. */
    unsigned id() const { return id_; }

    /** Attaches a lifecycle tracer (nullptr = tracing off). */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /**
     * Demand paging: a non-present entry produces a faulted WalkResult
     * instead of being a fatal modeling error. Off by default — fully
     * resident runs treat a non-present entry as a bug.
     */
    void allowFaults(bool on) { faultsAllowed_ = on; }

    /** Total walks completed by this walker. */
    std::uint64_t walksDone() const { return walksDone_; }

    /**
     * Begins walking for @p walk. The PWC is consulted once here
     * (paper action 2-b), then 1-4 dependent memory reads follow.
     * @p on_done fires at completion with the result.
     * @pre !busy()
     */
    void start(core::PendingWalk &&walk, DoneCallback on_done);

  private:
    void step();
    void finish(mem::Addr pa_page, bool large_page);
    void fault();

    sim::EventQueue &eq_;
    mem::MemoryDevice &memory_;
    mem::BackingStore &store_;
    PageWalkCache &pwc_;
    unsigned id_ = 0;
    trace::Tracer *tracer_ = nullptr;
    bool faultsAllowed_ = false;

    bool busy_ = false;
    core::PendingWalk current_{};
    DoneCallback onDone_;
    unsigned level_ = 0;        ///< level about to be read (4..1)
    mem::Addr table_ = 0;       ///< physical base of that level's table
    unsigned accesses_ = 0;
    sim::Tick started_ = 0;
    std::array<sim::Tick, vm::numPtLevels> levelTicks_{};
    std::uint64_t walksDone_ = 0;
};

} // namespace gpuwalk::iommu

#endif // GPUWALK_IOMMU_PAGE_TABLE_WALKER_HH
