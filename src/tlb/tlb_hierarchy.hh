/**
 * @file
 * The GPU's two-level TLB hierarchy (paper §II-B).
 *
 * Per-CU private L1 TLBs back into a GPU-wide shared L2 TLB; L2 misses
 * are forwarded to the IOMMU (a TranslationService). In-flight misses
 * to the same page merge at both levels, like cache MSHRs. The shared
 * L2 also tracks the number of distinct wavefronts touching it per
 * fixed-size epoch — the paper's Figure 12 contention metric.
 *
 * Each request is stored once, in a pooled record whose embedded
 * event is rescheduled for every stage (L1 port, L1 lookup, L2 port,
 * L2 lookup). A miss leader's record itself travels on to the L2, and
 * requests merged behind a miss wait as links on the leader's record,
 * so no request is copied between stages.
 */

#ifndef GPUWALK_TLB_TLB_HIERARCHY_HH
#define GPUWALK_TLB_TLB_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/object_pool.hh"
#include "sim/rate_limiter.hh"
#include "sim/stats.hh"
#include "tlb/set_assoc_tlb.hh"
#include "tlb/translation.hh"
#include "trace/trace.hh"

namespace gpuwalk::sim {
class Auditor;
} // namespace gpuwalk::sim

namespace gpuwalk::tlb {

/** Configuration of the GPU-side TLBs (Table I defaults). */
struct TlbHierarchyConfig
{
    unsigned numCus = 8;

    unsigned l1Entries = 32;         ///< fully associative per CU
    unsigned l2Entries = 512;
    unsigned l2Associativity = 16;

    sim::Tick l1Latency = 1 * 500;   ///< 1 GPU cycle
    sim::Tick l2Latency = 16 * 500;  ///< incl. on-chip interconnect

    /**
     * Lookup issue rate of each single-ported TLB (one per period).
     * These structural limits serialize each CU's request bursts and
     * multiplex the independent per-CU streams at the shared L2 — the
     * mechanism that interleaves walk requests from different
     * instructions (paper §III-B).
     */
    sim::Tick l1PortPeriod = 1 * 500;
    sim::Tick l2PortPeriod = 1 * 500;

    /** L2 accesses per epoch for the distinct-wavefront metric. */
    unsigned epochLength = 1024;
};

/** Per-CU L1 TLBs + shared L2 TLB + miss path to the IOMMU. */
class TlbHierarchy
{
  public:
    TlbHierarchy(sim::EventQueue &eq, const TlbHierarchyConfig &cfg,
                 TranslationService &iommu);

    /** Entry point from a CU's coalescer. @pre req.cu < numCus. */
    void
    translate(TranslationRequest req)
    {
        Request &r = newRequest();
        r.req = std::move(req);
        submit(r);
    }

    /**
     * Like translate(), but builds the request in place in its pooled
     * record: @p fill(TranslationRequest &) must set every field.
     */
    template <typename Fill>
    void
    translateWith(Fill &&fill)
    {
        Request &r = newRequest();
        fill(r.req);
        submit(r);
    }

    /** Attaches a lifecycle tracer (nullptr = tracing off). */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /**
     * Registers this hierarchy's conservation invariants (request
     * records vs. requests in flight; per-wavefront coalesced-in ==
     * responses-out) and enables the request/response accounting they
     * check. Call before the run starts.
     */
    void registerInvariants(sim::Auditor &auditor);

    SetAssocTlb &l1(unsigned cu) { return *l1s_.at(cu); }
    SetAssocTlb &l2() { return l2_; }

    /** Requests forwarded to the IOMMU (unmerged L2 misses). */
    std::uint64_t iommuRequests() const { return iommuRequests_.value(); }

    /** Average distinct wavefronts per L2 epoch (Fig. 12 metric). */
    double avgWavefrontsPerEpoch() const { return epochWavefronts_.mean(); }

    /** Completed epochs observed. */
    std::uint64_t epochs() const { return epochWavefronts_.count(); }

    /** Drops all cached translations (L1s and L2). */
    void invalidateAll();

    sim::StatGroup &stats() { return statGroup_; }

  private:
    /**
     * One request, from arrival to reply. A miss leader heads the list
     * of requests merged behind it at L1 and, once it misses in the L2
     * too, the list of L1 miss leaders merged behind it there. Pooled.
     */
    struct Request final : sim::Event
    {
        enum class Stage : std::uint8_t
        {
            L1Port,
            L1Lookup,
            L2Port,
            L2Lookup,
        };

        /** Runs the current stage. */
        void process() override;

        TlbHierarchy *tlbs = nullptr;
        std::size_t poolSlot = 0; ///< its slot in requestPool_
        TranslationRequest req;
        Stage stage = Stage::L1Port;
        Request *nextL1 = nullptr; ///< next request on this L1 miss
        Request *tailL1 = nullptr; ///< leader: last on its L1 list
        Request *nextL2 = nullptr; ///< next L1 leader on this L2 miss
        Request *tailL2 = nullptr; ///< leader: last on its L2 list
    };

    /** Packs (ctx, cu, vaPage) into one hash key: vaPage is
     *  page-aligned so the CU id fits in the low bits, and simulated
     *  virtual addresses stay below 2^48, leaving the top 16 bits for
     *  the context tag. */
    static std::uint64_t
    l1Key(ContextId ctx, std::uint32_t cu, mem::Addr va_page)
    {
        GPUWALK_ASSERT((va_page & (mem::pageSize - 1)) == 0
                           && cu < mem::pageSize
                           && va_page < (mem::Addr(1) << 48),
                       "cannot pack (ctx, cu, vaPage) key");
        return va_page | cu | (std::uint64_t(ctx) << 48);
    }

    /** Packs (ctx, vaPage) into the L2 miss-table key. */
    static std::uint64_t
    l2Key(ContextId ctx, mem::Addr va_page)
    {
        GPUWALK_ASSERT(va_page < (mem::Addr(1) << 48),
                       "cannot pack (ctx, vaPage) key");
        return va_page | (std::uint64_t(ctx) << 48);
    }

    Request &
    newRequest()
    {
        std::size_t slot;
        Request *r = requestPool_.acquire(slot);
        r->tlbs = this;
        r->poolSlot = slot;
        return *r;
    }

    /** Accounts for @p r and sends it to its CU's L1 port. */
    void submit(Request &r);
    void lookupL1(Request &r);
    void accessL2(Request &r);
    /** L2 fill of the L2 miss led by @p leader (the IOMMU reply). */
    void fillL2(Request &leader, mem::Addr pa_page, bool large);
    /** L1 fill of the L1 miss led by @p leader. */
    void fillL1(Request &leader, mem::Addr pa_page, bool large);
    /** Delivers @p r's translation and returns its record. */
    void reply(Request &r, mem::Addr pa_page, bool large);
    void noteL2Access(std::uint32_t wavefront);

    sim::EventQueue &eq_;
    TlbHierarchyConfig cfg_;
    TranslationService &iommu_;
    trace::Tracer *tracer_ = nullptr;

    std::vector<std::unique_ptr<SetAssocTlb>> l1s_;
    SetAssocTlb l2_;
    std::vector<std::unique_ptr<sim::RateLimiter>> l1Ports_;
    sim::RateLimiter l2Port_;

    // In-flight miss tables are looked up and erased, never iterated,
    // so hashing them is determinism-safe.

    /** In-flight L1 misses: l1Key(ctx, cu, vaPage) -> leader. */
    sim::FlatMap<std::uint64_t, Request *> l1Inflight_;

    /** In-flight L2 misses: l2Key(ctx, vaPage) -> leader. */
    sim::FlatMap<std::uint64_t, Request *> l2Inflight_;

    /** Every request in the hierarchy, merged or not. */
    sim::ObjectPool<Request> requestPool_{256};

    /** Requests answered (each returned its record). */
    std::uint64_t replied_ = 0;

    // Fig. 12 epoch tracking: a wavefront counts once per epoch, when
    // its stamp first differs from the current epoch number.
    std::vector<std::uint32_t> epochStamp_; ///< by wavefront
    std::uint32_t epoch_ = 1;
    unsigned epochDistinct_ = 0;
    unsigned epochAccesses_ = 0;

    /** Per-wavefront request/response tally for the conservation
     *  auditor. Only maintained once registerInvariants() has been
     *  called, so plain runs pay nothing. */
    struct WavefrontIo
    {
        std::uint64_t in = 0;  ///< requests coalesced in
        std::uint64_t out = 0; ///< responses delivered back
    };
    bool auditTracking_ = false;
    std::vector<WavefrontIo> wavefrontIo_;

    sim::StatGroup statGroup_;
    sim::Counter requests_{"requests", "translation requests received"};
    sim::Counter l1Merged_{"l1_merged", "requests merged at L1 miss"};
    sim::Counter l2Merged_{"l2_merged", "requests merged at L2 miss"};
    sim::Counter iommuRequests_{"iommu_requests",
                                "L2 misses forwarded to the IOMMU"};
    sim::Average epochWavefronts_{
        "epoch_wavefronts", "distinct wavefronts per L2 TLB epoch"};
};

} // namespace gpuwalk::tlb

#endif // GPUWALK_TLB_TLB_HIERARCHY_HH
