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

    std::size_t pool_slot;
    Reply *r = replyPool_.acquire(pool_slot);
    r->cache = this;
    r->poolSlot = pool_slot;
    r->req = std::move(req);

    const std::size_t slot = findSlot(line);
    if (slot != npos) {
        ++hits_;
        lastUse_[slot] = ++useClock_;
        dirty_[slot] |= r->req.write;
        eq_.scheduleIn(cfg_.hitLatency, *r);
        return;
    }

    // Miss: merge into an existing MSHR if the line is already inbound.
    r->next = nullptr;
    const auto [it, fresh] = mshrs_.try_emplace(line_addr, nullptr);
    if (!fresh) {
        ++mshrMerges_;
        Mshr *mshr = it->second;
        mshr->anyWrite = mshr->anyWrite || r->req.write;
        mshr->tail->next = r;
        mshr->tail = r;
        return;
    }

    ++misses_;
    Mshr *mshr = mshrPool_.acquire(pool_slot);
    mshr->poolSlot = pool_slot;
    it->second = mshr;
    mshr->cache = this;
    mshr->lineAddr = line_addr;
    mshr->anyWrite = r->req.write;
    mshr->head = mshr->tail = r;

    // Tag lookup happens before the fill is sent downstream.
    eq_.scheduleIn(cfg_.tagLatency, *mshr);
}

void
Cache::Mshr::process()
{
    const MemoryRequest &first = head->req;
    MemoryRequest fill;
    fill.addr = lineAddr;
    fill.size = static_cast<unsigned>(cache->cfg_.lineBytes);
    fill.write = false;
    fill.requester = first.requester;
    fill.instruction = first.instruction;
    fill.wavefront = first.wavefront;
    fill.cu = first.cu;
    fill.onComplete = [c = cache, m = this] { c->handleFill(m); };
    cache->below_.access(std::move(fill));
}

void
Cache::Reply::process()
{
    // The record stays live until released: run the callback in place.
    if (req.onComplete)
        req.onComplete();
    cache->replyPool_.release(this, poolSlot);
}

void
Cache::handleFill(Mshr *mshr)
{
    const bool erased = mshrs_.erase(mshr->lineAddr);
    GPUWALK_ASSERT(erased, "fill without MSHR for ", mshr->lineAddr);

    installLine(mshr->lineAddr, mshr->anyWrite);

    for (Reply *r = mshr->head; r; r = r->next)
        eq_.scheduleIn(cfg_.hitLatency, *r);
    mshrPool_.release(mshr, mshr->poolSlot);
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
            ctx.require(replyPool_.inUse() == 0, "request pool leaks ",
                        replyPool_.inUse(), " records at drain");
        });
}

void
Cache::flushAll()
{
    std::fill(tags_.begin(), tags_.end(), Addr{0});
    std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
}

} // namespace gpuwalk::mem
