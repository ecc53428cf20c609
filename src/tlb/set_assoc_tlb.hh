/**
 * @file
 * Generic set-associative TLB with true-LRU replacement kept in O(1).
 *
 * Instantiated as: per-CU L1 TLB (32-entry fully associative), the
 * GPU-wide shared L2 TLB (512-entry 16-way), and the IOMMU's own two
 * TLB levels (Table I).
 *
 * Entry state is stored structure-of-arrays. The VPN, context, page
 * size and valid bit are packed into one tag word, so matching a way
 * is a single 64-bit compare over a contiguous column; a probe first
 * filters the set's ways through a one-byte fingerprint per way, eight
 * per word, and compares only the tag words those pass. The ppn column
 * is only touched on a hit or a fill. The set count must be a power of
 * two so indexing is a mask, not a division — every Table I geometry
 * qualifies.
 *
 * Replacement state is a per-set recency list over way indices (MRU
 * at the head, LRU at the tail) plus a bitmask of the set's invalid
 * ways, so picking a victim is a first-set-bit or a tail read, never
 * a scan. The victim is the first invalid way, else the true-LRU way.
 * Associativity is therefore capped at 64.
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
     * if full (the first invalid way is filled before any eviction).
     * With @p large_page, the entry covers the whole 2 MB region of
     * @p va_page (addresses may be given at 4 KB granularity).
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

    /** One-byte digest of a tag word, kept per way to filter probes. */
    static std::uint8_t
    fingerprint(mem::Addr tag)
    {
        return static_cast<std::uint8_t>((tag * 0x9e3779b97f4a7c15ull)
                                         >> 56);
    }

    /** Way of @p set whose tag word is @p want, or npos. */
    std::size_t matchWay(std::size_t set, mem::Addr want) const;

    /** Where an entry sits: its slot (npos when absent) and set. */
    struct Where
    {
        std::size_t slot = npos;
        std::size_t set = 0;
    };

    /** The entry matching (@p va_page, @p ctx, @p large). */
    Where findSlot(mem::Addr va_page, bool large, ContextId ctx) const;

    /** Small-before-large match of (@p va_page, @p ctx). */
    Where findAny(mem::Addr va_page, ContextId ctx) const;

    /** The 4 KB-granular PA of @p va_page through slot @p i's entry. */
    TlbHit hitAt(std::size_t i, mem::Addr va_page) const;

    /** Makes @p way the most recently used way of @p set. */
    void touch(std::size_t set, std::size_t way);

    /** Drops the entry at @p w (its way joins the invalid mask). */
    void drop(Where w);

    /** The invalid mask of a set with every way empty. */
    std::uint64_t
    allWays() const
    {
        return cfg_.associativity == 64
                   ? ~std::uint64_t{0}
                   : (std::uint64_t(1) << cfg_.associativity) - 1;
    }

    TlbConfig cfg_;
    std::size_t numSets_;

    // Entry columns, slot = set * associativity + way.
    std::vector<mem::Addr> tag_;
    std::vector<mem::Addr> ppn_;
    /** fingerprint() of each way's last fill, rows of fpStride_ bytes
     *  per set. Stale for invalid ways: the tag compare decides. */
    std::vector<std::uint8_t> fp_;
    std::size_t fpStride_ = 0;

    /** A way's neighbours on its set's recency list (way indices). */
    struct Link
    {
        std::uint8_t newer; ///< toward the MRU end
        std::uint8_t older; ///< toward the LRU end
    };

    /** A set's replacement state, in one place for the fill path. */
    struct SetState
    {
        std::uint64_t invalid; ///< bit w set iff way w holds no entry
        std::uint8_t mru;      ///< recency list head
        std::uint8_t lru;      ///< recency list tail
    };

    std::vector<Link> links_; ///< by slot
    std::vector<SetState> sets_;

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
