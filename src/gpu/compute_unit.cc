#include "gpu/compute_unit.hh"

#include <algorithm>

#include "gpu/gpu.hh"
#include "sim/debug.hh"
#include "trace/trace.hh"

namespace gpuwalk::gpu {

ComputeUnit::ComputeUnit(sim::EventQueue &eq, const GpuConfig &cfg,
                         std::uint32_t cu_id, tlb::TlbHierarchy &tlbs,
                         mem::MemoryDevice &l1d, Gpu &gpu)
    : eq_(eq), cfg_(cfg), id_(cu_id), tlbs_(tlbs), l1d_(l1d), gpu_(gpu),
      issuePort_(eq, cfg.issuePortCycles * cfg.clockPeriod),
      arbiter_(cfg.wavefrontSched,
               cfg.wavefrontSched == WavefrontSchedPolicy::Wasp
                   ? std::min(cfg.waspLeaders, cfg.wavefrontsPerCu)
                   : 0),
      statGroup_("cu" + std::to_string(cu_id))
{
    statGroup_.add(instructions_);
    statGroup_.add(translationReqs_);
    statGroup_.add(lineAccesses_);
    if (cfg_.wavefrontSched == WavefrontSchedPolicy::Wasp)
        statGroup_.add(leaderIssues_);
}

void
ComputeUnit::addWavefront(std::uint32_t wavefront_global_id,
                          unsigned app_id, WavefrontTrace trace)
{
    GPUWALK_ASSERT(wavefronts_.size() < cfg_.wavefrontsPerCu,
                   "CU ", id_, " is full");
    Wavefront wf;
    wf.globalId = wavefront_global_id;
    wf.appId = app_id;
    wf.trace = std::move(trace);
    wavefronts_.push_back(std::move(wf));
    arbiter_.addSlot(wavefront_global_id);

    IssueEvent &ev = issueEvents_.emplace_back();
    ev.cu = this;
    ev.wfIndex = wavefronts_.size() - 1;
}

void
ComputeUnit::IssueEvent::process()
{
    cu->requestIssue(wfIndex);
}

void
ComputeUnit::start()
{
    for (std::size_t i = 0; i < wavefronts_.size(); ++i) {
        // Spread initial issues pseudo-randomly over the stagger
        // window: wavefronts are dispatched by the front-end over
        // time, not all in the same cycle.
        sim::Cycles offset =
            1 + (wavefronts_[i].globalId * 2654435761ull)
                    % std::max<sim::Cycles>(1, cfg_.startStaggerCycles);
        // Wasp de-staggering: followers' first issues are pushed out
        // past the leaders' whole stagger window, giving the leader
        // group an issue-distance head start of waspDistanceCycles.
        if (cfg_.wavefrontSched == WavefrontSchedPolicy::Wasp
            && !arbiter_.isLeader(i)) {
            offset += cfg_.waspDistanceCycles;
        }
        eq_.scheduleIn(cfg_.clockPeriod * offset, issueEvents_[i]);
    }
}

void
ComputeUnit::notifyWorkAvailable()
{
    for (std::size_t i = 0; i < wavefronts_.size(); ++i) {
        if (!wavefronts_[i].finished)
            continue;
        auto next = gpu_.dispatchNextWavefront();
        if (!next)
            return;
        Wavefront &wf = wavefronts_[i];
        wf.globalId = next->globalId;
        wf.appId = next->appId;
        wf.trace = std::move(next->trace);
        wf.pc = 0;
        wf.finished = false;
        arbiter_.onRefill(i, wf.globalId);
        --wavefrontsDone_;
        updateStallState();
        eq_.scheduleIn(cfg_.clockPeriod * cfg_.issueCycles,
                       issueEvents_[i]);
    }
}

void
ComputeUnit::requestIssue(std::size_t wf_index)
{
    // The CU front end issues at most one memory instruction per
    // issue-port period; simultaneously-ready wavefronts serialize,
    // and the configured policy picks which ready wavefront takes
    // each slot.
    arbiter_.markReady(wf_index);
    issuePort_.submit([this] { arbitrateIssue(); });
}

void
ComputeUnit::arbitrateIssue()
{
    issueNext(arbiter_.pick());
}

void
ComputeUnit::issueNext(std::size_t wf_index)
{
    Wavefront &wf = wavefronts_[wf_index];
    if (wf.pc >= wf.trace.size()) {
        wf.finished = true;
        ++wavefrontsDone_;
        updateStallState();
        gpu_.onWavefrontDone(wf.appId);

        // The slot is free: dispatch the next queued wavefront into
        // it, as the hardware workgroup dispatcher would.
        if (auto next = gpu_.dispatchNextWavefront()) {
            wf.globalId = next->globalId;
            wf.appId = next->appId;
            wf.trace = std::move(next->trace);
            wf.pc = 0;
            wf.finished = false;
            arbiter_.onRefill(wf_index, wf.globalId);
            --wavefrontsDone_;
            updateStallState();
            eq_.scheduleIn(cfg_.clockPeriod * cfg_.issueCycles,
                           issueEvents_[wf_index]);
        }
        return;
    }

    const SimdMemInstruction &instr = wf.trace[wf.pc];
    ++wf.pc;

    const tlb::InstructionId key = gpu_.nextInstructionId();
    GPUWALK_ASSERT(!wf.inflight, "slot ", wf_index,
                   " issued with an instruction in flight");
    wf.inflight = true;
    wf.instruction = key;
    wf.access = tlb::coalesce(instr.laneAddrs);

    const bool leader = isLeaderSlot(wf_index);
    if (leader) {
        ++leaderIssues_;
        if (tracer_) {
            trace::Event ev;
            ev.tick = eq_.now();
            ev.kind = trace::EventKind::LeaderIssued;
            ev.ctx = gpu_.contextOf(wf.appId);
            ev.wavefront = wf.globalId;
            ev.instruction = key;
            ev.arg0 = id_;
            ev.arg1 = wf.access.pages.size();
            tracer_->record(ev);
        }
    }

    setBlocked(wf_index, true);

    const auto slot = static_cast<std::uint32_t>(wf_index);
    const std::size_t pages = wf.access.pages.size();
    if (pages == 0) {
        // Degenerate empty instruction: retires after the issue cost.
        wf.computeCycles = 0;
        eq_.scheduleIn(cfg_.clockPeriod * cfg_.issueCycles,
                       [this, slot, key] { instructionDone(slot, key); });
        return;
    }

    wf.linesPending = static_cast<unsigned>(wf.access.lines.size());
    wf.isLoad = instr.isLoad;
    wf.computeCycles = instr.computeCycles;

    if (cfg_.virtualL1Cache) {
        // Virtual L1: no up-front translation; data accesses go out
        // at virtual addresses and only L1 misses translate (via the
        // TranslatingPort below the cache).
        wf.translationsPending = 0;
        issueDataAccesses(wf_index, /*virtual_addresses=*/true);
        return;
    }

    wf.translationsPending = static_cast<unsigned>(pages);
    wf.paPages.resize(pages);
    translationReqs_ += pages;

    const tlb::ContextId ctx = gpu_.contextOf(wf.appId);
    for (std::size_t i = 0; i < pages; ++i) {
        const auto index = static_cast<std::uint32_t>(i);
        tlbs_.translateWith([&](tlb::TranslationRequest &req) {
            req.vaPage = wf.access.pages[i];
            req.instruction = key;
            req.wavefront = wf.globalId;
            req.cu = id_;
            req.app = wf.appId;
            req.ctx = ctx;
            req.leader = leader;
            req.onComplete = [this, slot, index,
                              key](mem::Addr pa_page,
                                   bool /*large_page*/) {
                Wavefront &w = inflightOf(slot, key, "translation");
                w.paPages[index] = pa_page;
                GPUWALK_ASSERT(w.translationsPending > 0,
                               "translation underflow");
                if (--w.translationsPending == 0)
                    issueDataAccesses(slot, /*virtual_addresses=*/false);
            };
        });
    }
}

ComputeUnit::Wavefront &
ComputeUnit::inflightOf(std::size_t wf_index, tlb::InstructionId instr,
                        const char *what)
{
    Wavefront &wf = wavefronts_[wf_index];
    GPUWALK_ASSERT(wf.inflight && wf.instruction == instr, what,
                   " for retired instruction ", instr);
    return wf;
}

void
ComputeUnit::issueDataAccesses(std::size_t wf_index,
                               bool virtual_addresses)
{
    Wavefront &wf = wavefronts_[wf_index];
    const tlb::CoalescedAccess &access = wf.access;
    const tlb::InstructionId key = wf.instruction;
    const auto slot = static_cast<std::uint32_t>(wf_index);
    lineAccesses_ += access.lines.size();

    // Physical caches: data could not be touched before translation
    // (paper §I). Virtual L1s issue at the VA and translate on miss.
    for (std::size_t i = 0; i < access.lines.size(); ++i) {
        const mem::Addr line = access.lines[i];
        mem::MemoryRequest req;
        req.addr = virtual_addresses
                       ? line
                       : wf.paPages[access.linePage[i]]
                             | (line & (mem::pageSize - 1));
        req.size = static_cast<unsigned>(mem::cacheLineSize);
        req.write = !wf.isLoad;
        req.requester = mem::Requester::GpuData;
        req.instruction = key;
        req.wavefront = wf.globalId;
        req.cu = id_;
        req.onComplete = [this, slot, key] {
            Wavefront &w = inflightOf(slot, key, "data return");
            GPUWALK_ASSERT(w.linesPending > 0, "line underflow");
            if (--w.linesPending == 0)
                instructionDone(slot, key);
        };
        l1d_.access(std::move(req));
    }
}

void
ComputeUnit::instructionDone(std::size_t wf_index,
                             tlb::InstructionId instr)
{
    Wavefront &wf = inflightOf(wf_index, instr, "retiring");
    wf.inflight = false;

    ++instructions_;
    sim::debug::log("gpu", eq_.now(), "cu", id_, " retired instr ",
                    instr, " (wf ", wf.globalId, ")");
    setBlocked(wf_index, false);

    eq_.scheduleIn(cfg_.clockPeriod * (wf.computeCycles + cfg_.issueCycles),
                   issueEvents_[wf_index]);
}

void
ComputeUnit::setBlocked(std::size_t wf_index, bool blocked)
{
    Wavefront &wf = wavefronts_[wf_index];
    if (wf.blocked == blocked)
        return;
    wf.blocked = blocked;
    if (blocked) {
        ++blockedCount_;
    } else {
        GPUWALK_ASSERT(blockedCount_ > 0, "blocked count underflow");
        --blockedCount_;
    }
    updateStallState();
}

void
ComputeUnit::updateStallState()
{
    const unsigned live =
        static_cast<unsigned>(wavefronts_.size()) - wavefrontsDone_;
    const bool now_stalled = live > 0 && blockedCount_ >= live;
    if (now_stalled && !stalled_) {
        stalled_ = true;
        stallStart_ = eq_.now();
    } else if (!now_stalled && stalled_) {
        stalled_ = false;
        stallAccum_ += eq_.now() - stallStart_;
    }
}

} // namespace gpuwalk::gpu
