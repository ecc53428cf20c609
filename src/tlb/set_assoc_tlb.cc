#include "tlb/set_assoc_tlb.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace gpuwalk::tlb {

namespace {

/** 2 MB-granular virtual page number. */
constexpr mem::Addr
largeVpn(mem::Addr va)
{
    return va >> 21;
}

constexpr mem::Addr largeOffsetPages = (1 << 21) >> mem::pageShift;

/** Reverses the bytes of @p x (fingerprint words on big-endian hosts,
 *  so byte k of a row is always bits 8k..8k+7). */
constexpr std::uint64_t
byteSwap(std::uint64_t x)
{
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i, x >>= 8)
        out = out << 8 | (x & 0xff);
    return out;
}

} // namespace

SetAssocTlb::SetAssocTlb(const TlbConfig &cfg)
    : cfg_(cfg), statGroup_(cfg.name)
{
    GPUWALK_ASSERT(cfg_.entries > 0, "TLB must have entries");
    GPUWALK_ASSERT(cfg_.associativity > 0 && cfg_.associativity <= 64,
                   "TLB associativity must be 1..64 in ", cfg_.name);
    GPUWALK_ASSERT(cfg_.entries % cfg_.associativity == 0,
                   "entries not divisible by associativity in ",
                   cfg_.name);
    numSets_ = cfg_.sets();
    GPUWALK_ASSERT(std::has_single_bit(numSets_),
                   "TLB set count must be a power of two in ",
                   cfg_.name);
    const std::size_t ways = cfg_.associativity;
    const std::size_t slots = numSets_ * ways;
    tag_.assign(slots, 0);
    ppn_.assign(slots, 0);
    // Rows padded to whole 8-byte words; matchWay skips padding ways.
    fpStride_ = (ways + 7) & ~std::size_t{7};
    fp_.assign(numSets_ * fpStride_, 0);

    // Every set starts empty, its ways listed 0 (MRU) .. ways-1 (LRU).
    links_.resize(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        const std::size_t way = i % ways;
        links_[i].newer = static_cast<std::uint8_t>(way == 0 ? 0 : way - 1);
        links_[i].older =
            static_cast<std::uint8_t>(way + 1 == ways ? way : way + 1);
    }
    sets_.assign(numSets_,
                 SetState{allWays(), 0, static_cast<std::uint8_t>(ways - 1)});

    statGroup_.add(hits_);
    statGroup_.add(misses_);
    statGroup_.add(insertions_);
    statGroup_.add(evictions_);
}

std::size_t
SetAssocTlb::matchWay(std::size_t set, mem::Addr want) const
{
    // Most probes miss the whole set. Compare the set's one-byte
    // fingerprints eight ways per word (SWAR zero-byte test on the XOR
    // with the wanted byte), and read a tag word only for the ways whose
    // fingerprint matches. The zero-byte test can flag a byte above a
    // true match; the tag compare rejects it, and at most one way holds
    // the wanted tag.
    constexpr std::uint64_t ones = 0x0101010101010101ull;
    constexpr std::uint64_t highs = 0x8080808080808080ull;
    const std::uint64_t pattern = fingerprint(want) * ones;
    const std::uint8_t *row = fp_.data() + set * fpStride_;
    const mem::Addr *tags = tag_.data() + set * cfg_.associativity;
    for (std::size_t first = 0; first < cfg_.associativity; first += 8) {
        std::uint64_t word;
        std::memcpy(&word, row + first, sizeof word);
        if constexpr (std::endian::native == std::endian::big)
            word = byteSwap(word);
        const std::uint64_t x = word ^ pattern;
        for (std::uint64_t m = (x - ones) & ~x & highs; m; m &= m - 1) {
            const std::size_t way =
                first + static_cast<std::size_t>(std::countr_zero(m) >> 3);
            if (way < cfg_.associativity && tags[way] == want)
                return way;
        }
    }
    return npos;
}

SetAssocTlb::Where
SetAssocTlb::findSlot(mem::Addr va_page, bool large, ContextId ctx) const
{
    if (large && largeResident_ == 0)
        return {};
    const mem::Addr vpn =
        large ? largeVpn(va_page) : mem::pageNumber(va_page);
    const std::size_t set = setIndex(vpn, ctx);
    // The context is part of the tag: a VPN never hits across address
    // spaces.
    const std::size_t way = matchWay(set, packTag(vpn, ctx, large));
    if (way == npos)
        return {};
    return {set * cfg_.associativity + way, set};
}

SetAssocTlb::Where
SetAssocTlb::findAny(mem::Addr va_page, ContextId ctx) const
{
    // Small entries first (exact match), then the covering 2 MB entry.
    const Where small = findSlot(va_page, /*large=*/false, ctx);
    return small.slot != npos ? small
                              : findSlot(va_page, /*large=*/true, ctx);
}

TlbHit
SetAssocTlb::hitAt(std::size_t i, mem::Addr va_page) const
{
    if (!(tag_[i] & largeBit))
        return TlbHit{ppn_[i] << mem::pageShift, false};
    const mem::Addr base = ppn_[i] << 21;
    const mem::Addr offset =
        (mem::pageNumber(va_page) % largeOffsetPages) << mem::pageShift;
    return TlbHit{base | offset, true};
}

void
SetAssocTlb::touch(std::size_t set, std::size_t way)
{
    const auto w = static_cast<std::uint8_t>(way);
    SetState &s = sets_[set];
    const std::uint8_t head = s.mru;
    if (head == w)
        return;
    Link *links = links_.data() + set * cfg_.associativity;
    // Unlink: a way below the head always has a newer neighbour.
    const std::uint8_t newer = links[way].newer;
    const std::uint8_t older = links[way].older;
    if (s.lru == w) {
        s.lru = newer;
    } else {
        links[older].newer = newer;
    }
    links[newer].older = older;
    // Relink at the MRU end.
    links[way].older = head;
    links[head].newer = w;
    s.mru = w;
}

void
SetAssocTlb::drop(Where w)
{
    if (tag_[w.slot] & largeBit)
        --largeResident_;
    tag_[w.slot] = 0;
    // The way keeps its list position: invalid ways are filled before
    // the LRU end is ever read, and a fill moves its way to the head.
    sets_[w.set].invalid |= std::uint64_t(1)
                            << (w.slot - w.set * cfg_.associativity);
}

std::optional<TlbHit>
SetAssocTlb::lookupEntry(mem::Addr va_page, ContextId ctx)
{
    const Where w = findAny(va_page, ctx);
    if (w.slot == npos) {
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    touch(w.set, w.slot - w.set * cfg_.associativity);
    return hitAt(w.slot, va_page);
}

std::optional<mem::Addr>
SetAssocTlb::lookup(mem::Addr va_page, ContextId ctx)
{
    const auto hit = lookupEntry(va_page, ctx);
    if (!hit)
        return std::nullopt;
    return hit->paPage;
}

std::optional<mem::Addr>
SetAssocTlb::probe(mem::Addr va_page, ContextId ctx) const
{
    const Where w = findAny(va_page, ctx);
    if (w.slot == npos)
        return std::nullopt;
    return hitAt(w.slot, va_page).paPage;
}

void
SetAssocTlb::insert(mem::Addr va_page, mem::Addr pa_page,
                    bool large_page, ContextId ctx)
{
    const mem::Addr vpn = large_page ? largeVpn(va_page)
                                     : mem::pageNumber(va_page);
    const mem::Addr ppn = large_page ? (pa_page >> 21)
                                     : mem::pageNumber(pa_page);

    // A duplicate fill is refreshed in place; otherwise the victim is
    // the first invalid way, or failing that the set's LRU way.
    const mem::Addr want = packTag(vpn, ctx, large_page);
    const std::size_t set = setIndex(vpn, ctx);
    const std::size_t base = set * cfg_.associativity;
    std::size_t way = matchWay(set, want);
    if (way != npos) {
        ppn_[base + way] = ppn;
        touch(set, way);
        return;
    }
    SetState &s = sets_[set];
    if (const std::uint64_t free = s.invalid) {
        way = static_cast<std::size_t>(std::countr_zero(free));
        s.invalid = free & (free - 1);
    } else {
        way = s.lru;
        ++evictions_;
        if (tag_[base + way] & largeBit)
            --largeResident_;
    }

    ++insertions_;
    tag_[base + way] = want;
    ppn_[base + way] = ppn;
    fp_[set * fpStride_ + way] = fingerprint(want);
    touch(set, way);
    if (large_page)
        ++largeResident_;
}

void
SetAssocTlb::invalidateAll()
{
    std::fill(tag_.begin(), tag_.end(), mem::Addr{0});
    for (SetState &s : sets_)
        s.invalid = allWays();
    largeResident_ = 0;
}

bool
SetAssocTlb::invalidate(mem::Addr va_page, ContextId ctx)
{
    const Where w = findAny(va_page, ctx);
    if (w.slot == npos)
        return false;
    drop(w);
    return true;
}

unsigned
SetAssocTlb::population() const
{
    unsigned invalid = 0;
    for (const SetState &s : sets_)
        invalid += static_cast<unsigned>(std::popcount(s.invalid));
    return cfg_.entries - invalid;
}

} // namespace gpuwalk::tlb
