/**
 * @file
 * Generic set-associative TLB with true-LRU replacement.
 *
 * Instantiated as: per-CU L1 TLB (32-entry fully associative), the
 * GPU-wide shared L2 TLB (512-entry 16-way), and the IOMMU's own two
 * TLB levels (Table I).
 *
 * Entry state is stored structure-of-arrays. The VPN, context, page
 * size and valid bit are packed into one tag word, so matching a way
 * is a single 64-bit compare over a contiguous column; the ppn/lastUse
 * columns are only touched on a hit or a fill. The set count must be
 * a power of two so indexing is a mask, not a division — every
 * Table I geometry qualifies.
 */

#ifndef GPUWALK_TLB_SET_ASSOC_TLB_HH
#define GPUWALK_TLB_SET_ASSOC_TLB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/types.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "tlb/translation.hh"

namespace gpuwalk::tlb {

/** Geometry of one TLB. */
struct TlbConfig
{
    std::string name = "tlb";
    unsigned entries = 32;
    /** Ways; equal to entries for fully associative. */
    unsigned associativity = 32;

    unsigned sets() const { return entries / associativity; }
};

/** A successful TLB lookup: the 4 KB-granular PA + entry size. */
struct TlbHit
{
    mem::Addr paPage = 0;  ///< page-aligned physical address
    bool largePage = false;
};

/**
 * A set-associative translation cache: VPN -> PPN.
 *
 * Supports mixed 4 KB and 2 MB entries in one structure (a MIX-TLB-
 * style design, which the paper cites): large entries are tagged and
 * indexed at 2 MB granularity, so one entry covers 512 base pages —
 * the "reach" benefit the paper's §VI discussion weighs.
 */
class SetAssocTlb
{
  public:
    explicit SetAssocTlb(const TlbConfig &cfg);

    /**
     * Looks up the page-aligned VA @p va_page under context @p ctx,
     * updating LRU on hit. An entry only hits in its own context.
     * @return the page-aligned PA, or nullopt on miss.
     */
    std::optional<mem::Addr> lookup(mem::Addr va_page,
                                    ContextId ctx = defaultContext);

    /** Like lookup, but also reports the hitting entry's page size. */
    std::optional<TlbHit> lookupEntry(mem::Addr va_page,
                                      ContextId ctx = defaultContext);

    /** Lookup without LRU update or stats (for tests/inspection). */
    std::optional<mem::Addr> probe(mem::Addr va_page,
                                   ContextId ctx = defaultContext) const;

    /**
     * Installs a translation for @p ctx, evicting LRU within the set
     * if full. With @p large_page, the entry covers the whole 2 MB
     * region of @p va_page (addresses may be given at 4 KB
     * granularity).
     */
    void insert(mem::Addr va_page, mem::Addr pa_page,
                bool large_page = false,
                ContextId ctx = defaultContext);

    /** Drops every entry. */
    void invalidateAll();

    /** Drops one translation if present. @return true if it existed. */
    bool invalidate(mem::Addr va_page, ContextId ctx = defaultContext);

    const TlbConfig &config() const { return cfg_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t insertions() const { return insertions_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }

    double
    hitRate() const
    {
        const std::uint64_t t = hits_.value() + misses_.value();
        return t ? static_cast<double>(hits_.value()) / t : 0.0;
    }

    /** Number of valid entries currently resident. */
    unsigned population() const;

    sim::StatGroup &stats() { return statGroup_; }

  private:
    static constexpr std::size_t npos = ~std::size_t{0};

    std::size_t
    setIndex(mem::Addr vpn, ContextId ctx) const
    {
        // XOR-folded index: power-of-two strided VPN sequences (page
        // strides of matrix rows) would otherwise collide into a few
        // sets; hardware TLBs hash the index for the same reason. The
        // context term spreads tenants sharing a VA layout across
        // sets; it vanishes at ctx 0, keeping single-tenant indexing
        // bit-identical to the pre-ASID implementation.
        const mem::Addr h = vpn ^ (vpn >> 5) ^ (vpn >> 10)
                            ^ (mem::Addr(ctx) * 0x9e3779b9u);
        return static_cast<std::size_t>(h) & (numSets_ - 1);
    }

    // Tag word layout: valid in bit 0, large in bit 1, the context in
    // bits 2..17 and the (4 KB or 2 MB) VPN above. A word with the
    // valid bit clear never equals a packed lookup key.
    static constexpr mem::Addr validBit = 1;
    static constexpr mem::Addr largeBit = 2;
    static constexpr unsigned vpnShift = 18;

    static mem::Addr
    packTag(mem::Addr vpn, ContextId ctx, bool large)
    {
        GPUWALK_ASSERT(vpn < (mem::Addr(1) << (64 - vpnShift)),
                       "VPN too wide for the packed TLB tag");
        return vpn << vpnShift | mem::Addr(ctx) << 2
               | (large ? largeBit : 0) | validBit;
    }

    /** Slot of the entry matching (@p va_page, @p ctx, @p large), or
     *  npos. */
    std::size_t findSlot(mem::Addr va_page, bool large,
                         ContextId ctx) const;

    /** Small-before-large match of (@p va_page, @p ctx): slot or
     *  npos. */
    std::size_t findAny(mem::Addr va_page, ContextId ctx) const;

    /** The 4 KB-granular PA of @p va_page through slot @p i's entry. */
    TlbHit hitAt(std::size_t i, mem::Addr va_page) const;

    TlbConfig cfg_;
    std::size_t numSets_;

    // Entry columns, slot = set * associativity + way.
    std::vector<mem::Addr> tag_;
    std::vector<mem::Addr> ppn_;
    std::vector<std::uint64_t> lastUse_;

    std::uint64_t useClock_ = 0;

    /** Valid 2 MB entries resident; when zero, the large-tag probe of
     *  every lookup and fill short-circuits (most runs never install
     *  one). */
    std::size_t largeResident_ = 0;

    sim::StatGroup statGroup_;
    sim::Counter hits_{"hits", "TLB hits"};
    sim::Counter misses_{"misses", "TLB misses"};
    sim::Counter insertions_{"insertions", "fills"};
    sim::Counter evictions_{"evictions", "valid entries evicted"};
};

} // namespace gpuwalk::tlb

#endif // GPUWALK_TLB_SET_ASSOC_TLB_HH
