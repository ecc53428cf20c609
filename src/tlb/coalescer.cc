#include "tlb/coalescer.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace gpuwalk::tlb {

namespace {

/**
 * Open-addressed set of aligned addresses for one coalesce call.
 * Starting a call bumps a generation stamp instead of clearing the
 * table, so each call costs O(lanes) regardless of the table size
 * earlier calls grew it to.
 */
class SeenSet
{
  public:
    /** Empties the set and sizes it for up to @p n keys at load <= 1/2. */
    void
    reset(std::size_t n)
    {
        const std::size_t size =
            std::bit_ceil(std::max<std::size_t>(2 * n, 16));
        if (size > slots_.size()) {
            slots_.assign(size, Slot{});
            gen_ = 0;
        }
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
        if (++gen_ == 0) {
            std::fill(slots_.begin(), slots_.end(), Slot{});
            gen_ = 1;
        }
    }

    /** Adds @p key; @return true if it was not already present. */
    bool
    insert(mem::Addr key)
    {
        const std::size_t mask = (std::size_t(1) << (64 - shift_)) - 1;
        std::size_t i = static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift_);
        while (slots_[i].gen == gen_) {
            if (slots_[i].key == key)
                return false;
            i = (i + 1) & mask;
        }
        slots_[i] = Slot{key, gen_};
        return true;
    }

  private:
    struct Slot
    {
        mem::Addr key = 0;
        std::uint32_t gen = 0;
    };

    std::vector<Slot> slots_;
    std::uint32_t gen_ = 0;
    unsigned shift_ = 60;
};

/** Appends @p a to @p out unless @p seen already holds it. A repeat of
 *  the last appended address — adjacent lanes on one line or page —
 *  skips the probe. */
void
appendUnique(std::vector<mem::Addr> &out, SeenSet &seen, mem::Addr a)
{
    if (!out.empty() && out.back() == a)
        return;
    if (seen.insert(a))
        out.push_back(a);
}

} // namespace

CoalescedAccess
coalesce(const std::vector<mem::Addr> &lane_addrs)
{
    thread_local SeenSet seen_pages;
    thread_local SeenSet seen_lines;

    CoalescedAccess out;
    out.activeLanes = static_cast<unsigned>(lane_addrs.size());
    out.pages.reserve(lane_addrs.size());
    out.lines.reserve(lane_addrs.size());
    seen_pages.reset(lane_addrs.size());
    seen_lines.reset(lane_addrs.size());

    for (mem::Addr a : lane_addrs) {
        appendUnique(out.pages, seen_pages, mem::pageAlign(a));
        appendUnique(out.lines, seen_lines, mem::lineAlign(a));
    }
    return out;
}

} // namespace gpuwalk::tlb
