#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/audit.hh"

namespace gpuwalk::mem {

Cache::Cache(sim::EventQueue &eq, const CacheConfig &cfg,
             MemoryDevice &below)
    : eq_(eq), cfg_(cfg), below_(below), statGroup_(cfg.name)
{
    GPUWALK_ASSERT(cfg_.associativity > 0
                       && cfg_.sizeBytes
                                  % (cfg_.lineBytes * cfg_.associativity)
                              == 0,
                   "cache size not divisible by way size");
    const Addr sets = cfg_.numSets();
    GPUWALK_ASSERT(std::has_single_bit(cfg_.lineBytes)
                       && std::has_single_bit(sets),
                   "cache line and set counts must be powers of two in ",
                   cfg_.name);
    lineShift_ = static_cast<unsigned>(std::countr_zero(cfg_.lineBytes));
    setShift_ = static_cast<unsigned>(std::countr_zero(sets));
    setMask_ = sets - 1;
    ways_ = cfg_.associativity;
    const std::size_t slots = static_cast<std::size_t>(sets) * ways_;
    tags_.assign(slots, 0);
    lastUse_.assign(slots, 0);
    dirty_.assign(slots, 0);

    statGroup_.add(hits_);
    statGroup_.add(misses_);
    statGroup_.add(mshrMerges_);
    statGroup_.add(evictions_);
    statGroup_.add(writebacks_);
}

std::size_t
Cache::findSlot(Addr line) const
{
    const std::size_t base = setBase(line);
    const Addr want = tagWord(line);
    for (std::size_t i = base; i < base + ways_; ++i) {
        if (tags_[i] == want)
            return i;
    }
    return npos;
}

void
Cache::installLine(Addr line_addr, bool dirty)
{
    const Addr line = lineOf(line_addr);
    const std::size_t base = setBase(line);
    // Prefer the first invalid way; otherwise evict true-LRU (first
    // on ties).
    std::size_t victim = base;
    for (std::size_t i = base; i < base + ways_; ++i) {
        if (!(tags_[i] & validBit)) {
            victim = i;
            break;
        }
        if (lastUse_[i] < lastUse_[victim])
            victim = i;
    }
    if (tags_[victim] & validBit) {
        ++evictions_;
        if (dirty_[victim]) {
            ++writebacks_;
            MemoryRequest wb;
            wb.addr = (((tags_[victim] >> 1) << setShift_)
                       | (line & setMask_))
                      << lineShift_;
            wb.write = true;
            wb.requester = Requester::GpuData;
            below_.access(std::move(wb));
        }
    }
    tags_[victim] = tagWord(line);
    dirty_[victim] = dirty;
    lastUse_[victim] = ++useClock_;
}

void
Cache::access(MemoryRequest req)
{
    const Addr line = lineOf(req.addr);
    const Addr line_addr = line << lineShift_;

    const std::size_t slot = findSlot(line);
    if (slot != npos) {
        ++hits_;
        lastUse_[slot] = ++useClock_;
        dirty_[slot] |= req.write;
        eq_.scheduleIn(cfg_.hitLatency,
                       [r = std::move(req)]() mutable { r.complete(); });
        return;
    }

    // Miss: merge into an existing MSHR if the line is already inbound.
    auto it = mshrs_.find(line_addr);
    if (it != mshrs_.end()) {
        ++mshrMerges_;
        it->second->anyWrite = it->second->anyWrite || req.write;
        it->second->waiters.push_back(std::move(req));
        return;
    }

    ++misses_;
    Mshr *mshr = mshrPool_.acquire();
    mshr->anyWrite = req.write;
    MemoryRequest fill;
    fill.addr = line_addr;
    fill.size = static_cast<unsigned>(cfg_.lineBytes);
    fill.write = false;
    fill.requester = req.requester;
    fill.instruction = req.instruction;
    fill.wavefront = req.wavefront;
    fill.cu = req.cu;
    fill.onComplete = [this, line_addr] { handleFill(line_addr); };
    mshr->waiters.push_back(std::move(req));
    mshrs_.emplace(line_addr, mshr);

    // Tag lookup happens before the fill is sent downstream.
    eq_.scheduleIn(cfg_.tagLatency,
                   [this, f = std::move(fill)]() mutable {
                       below_.access(std::move(f));
                   });
}

void
Cache::handleFill(Addr line_addr)
{
    auto it = mshrs_.find(line_addr);
    GPUWALK_ASSERT(it != mshrs_.end(), "fill without MSHR for ",
                   line_addr);
    Mshr *mshr = it->second;
    mshrs_.erase(it);

    installLine(line_addr, mshr->anyWrite);

    for (auto &w : mshr->waiters) {
        eq_.scheduleIn(cfg_.hitLatency,
                       [r = std::move(w)]() mutable { r.complete(); });
    }
    mshr->waiters.clear();
    mshrPool_.release(mshr);
}

void
Cache::registerInvariants(sim::Auditor &auditor)
{
    auditor.registerInvariant(
        cfg_.name + ".mshrs", [this](sim::AuditContext &ctx) {
            ctx.require(mshrPool_.inUse() == mshrs_.size(),
                        "MSHR pool live count ", mshrPool_.inUse(),
                        " != tracked in-flight lines ", mshrs_.size());
            if (!ctx.final())
                return;
            ctx.require(mshrs_.empty(), mshrs_.size(),
                        " in-flight misses never filled");
            ctx.require(mshrPool_.inUse() == 0, "MSHR pool leaks ",
                        mshrPool_.inUse(), " entries at drain");
        });
}

void
Cache::flushAll()
{
    std::fill(tags_.begin(), tags_.end(), Addr{0});
    std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
}

} // namespace gpuwalk::mem
