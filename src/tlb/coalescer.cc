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

    /**
     * Adds @p key with value @p value unless it is present.
     * @return the value stored for @p key (@p value if it was added).
     */
    std::uint32_t
    insert(mem::Addr key, std::uint32_t value)
    {
        const std::size_t mask = (std::size_t(1) << (64 - shift_)) - 1;
        std::size_t i = static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift_);
        while (slots_[i].gen == gen_) {
            if (slots_[i].key == key)
                return slots_[i].value;
            i = (i + 1) & mask;
        }
        slots_[i] = Slot{key, gen_, value};
        return value;
    }

  private:
    struct Slot
    {
        mem::Addr key = 0;
        std::uint32_t gen = 0;
        std::uint32_t value = 0;
    };

    std::vector<Slot> slots_;
    std::uint32_t gen_ = 0;
    unsigned shift_ = 60;
};

/** Position of @p a in @p out, appending it unless @p seen already
 *  holds it. A repeat of the last appended address — adjacent lanes on
 *  one line or page — skips the probe. */
std::uint32_t
indexOf(std::vector<mem::Addr> &out, SeenSet &seen, mem::Addr a)
{
    const auto size = static_cast<std::uint32_t>(out.size());
    if (size > 0 && out.back() == a)
        return size - 1;
    const std::uint32_t at = seen.insert(a, size);
    if (at == size)
        out.push_back(a);
    return at;
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
    out.linePage.reserve(lane_addrs.size());
    seen_pages.reset(lane_addrs.size());
    seen_lines.reset(lane_addrs.size());

    for (mem::Addr a : lane_addrs) {
        // A line seen before lies in a page seen before, so only a new
        // line looks its page up. Pages keep first-touch order: a page's
        // first lane always brings a new line.
        const std::size_t lines = out.lines.size();
        if (indexOf(out.lines, seen_lines, mem::lineAlign(a)) != lines)
            continue;
        out.linePage.push_back(
            indexOf(out.pages, seen_pages, mem::pageAlign(a)));
    }
    return out;
}

} // namespace gpuwalk::tlb
