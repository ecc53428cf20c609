/**
 * @file
 * A single-ported resource: executes submitted actions in FIFO order
 * at a maximum rate of one per period.
 *
 * Used to model structural throughput limits — a TLB that performs
 * one lookup per cycle, an IOMMU front-end that accepts one request
 * per cycle. These limits are what multiplex independent request
 * streams into each other (the source of the paper's walk-request
 * interleaving, §III-B).
 */

#ifndef GPUWALK_SIM_RATE_LIMITER_HH
#define GPUWALK_SIM_RATE_LIMITER_HH

#include <utility>

#include "sim/event_queue.hh"
#include "sim/ticks.hh"

namespace gpuwalk::sim {

/** FIFO, one-action-per-period execution port. */
class RateLimiter
{
  public:
    /**
     * @param eq Event queue.
     * @param period Minimum spacing between consecutive actions.
     */
    RateLimiter(EventQueue &eq, Tick period) : eq_(eq), period_(period) {}

    /**
     * Runs @p action at the port's next free slot (>= now), in
     * submission order. @p action is an intrusive sim::Event (scheduled
     * in place) or a callable (forwarded straight into a pooled event
     * node — no intermediate std::function).
     */
    template <typename F>
    void
    submit(F &&action)
    {
        const Tick slot = std::max(eq_.now(), nextFree_);
        nextFree_ = slot + period_;
        eq_.schedule(slot, std::forward<F>(action));
    }

    /** Earliest tick a new submission would execute at. */
    Tick
    nextSlot() const
    {
        return std::max(eq_.now(), nextFree_);
    }

    Tick period() const { return period_; }

  private:
    EventQueue &eq_;
    Tick period_;
    Tick nextFree_ = 0;
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_RATE_LIMITER_HH
