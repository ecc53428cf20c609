#include "tlb/tlb_hierarchy.hh"

#include "sim/audit.hh"

namespace gpuwalk::tlb {

TlbHierarchy::TlbHierarchy(sim::EventQueue &eq,
                           const TlbHierarchyConfig &cfg,
                           TranslationService &iommu)
    : eq_(eq), cfg_(cfg), iommu_(iommu),
      l2_(TlbConfig{"l2tlb", cfg.l2Entries, cfg.l2Associativity}),
      l2Port_(eq, cfg.l2PortPeriod), statGroup_("gpu_tlb")
{
    l1s_.reserve(cfg_.numCus);
    for (unsigned cu = 0; cu < cfg_.numCus; ++cu) {
        l1s_.push_back(std::make_unique<SetAssocTlb>(TlbConfig{
            "l1tlb" + std::to_string(cu), cfg.l1Entries,
            cfg.l1Entries}));
        l1Ports_.push_back(std::make_unique<sim::RateLimiter>(
            eq, cfg.l1PortPeriod));
        statGroup_.addChild(l1s_.back()->stats());
    }
    statGroup_.addChild(l2_.stats());
    statGroup_.add(requests_);
    statGroup_.add(l1Merged_);
    statGroup_.add(l2Merged_);
    statGroup_.add(iommuRequests_);
    statGroup_.add(epochWavefronts_);
}

void
TlbHierarchy::submit(Request &r)
{
    const TranslationRequest &req = r.req;
    GPUWALK_ASSERT(req.cu < cfg_.numCus, "bad CU id ", req.cu);
    ++requests_;

    if (auditTracking_) {
        if (wavefrontIo_.size() <= req.wavefront)
            wavefrontIo_.resize(req.wavefront + 1);
        ++wavefrontIo_[req.wavefront].in;
    }

    if (tracer_) {
        trace::Event ev;
        ev.tick = eq_.now();
        ev.kind = trace::EventKind::Coalesced;
        ev.wavefront = req.wavefront;
        ev.instruction = req.instruction;
        ev.vaPage = req.vaPage;
        ev.ctx = req.ctx;
        tracer_->record(ev);
    }

    // Claim the CU's single L1 TLB lookup port, then pay the lookup
    // latency. Bursts from one SIMD instruction serialize here.
    r.stage = Request::Stage::L1Port;
    l1Ports_[req.cu]->submit(r);
}

void
TlbHierarchy::Request::process()
{
    switch (stage) {
      case Stage::L1Port:
        stage = Stage::L1Lookup;
        tlbs->eq_.scheduleIn(tlbs->cfg_.l1Latency, *this);
        return;
      case Stage::L1Lookup:
        tlbs->lookupL1(*this);
        return;
      case Stage::L2Port:
        stage = Stage::L2Lookup;
        tlbs->eq_.scheduleIn(tlbs->cfg_.l2Latency, *this);
        return;
      case Stage::L2Lookup:
        tlbs->accessL2(*this);
        return;
    }
}

void
TlbHierarchy::lookupL1(Request &r)
{
    const TranslationRequest &req = r.req;
    if (auto hit = l1s_[req.cu]->lookupEntry(req.vaPage, req.ctx)) {
        reply(r, hit->paPage, hit->largePage);
        return;
    }

    // Merge with an in-flight miss from this CU to the same page of
    // the same address space.
    r.nextL1 = nullptr;
    const auto [it, fresh] =
        l1Inflight_.try_emplace(l1Key(req.ctx, req.cu, req.vaPage), &r);
    if (!fresh) {
        ++l1Merged_;
        Request *leader = it->second;
        leader->tailL1->nextL1 = &r;
        leader->tailL1 = &r;
        return;
    }
    r.tailL1 = &r;

    // The leader itself goes on to the shared L2 TLB, which is also
    // single-ported: the eight CUs' miss streams multiplex here, which
    // is where walk requests from different instructions start
    // interleaving (paper §III-B).
    r.stage = Request::Stage::L2Port;
    l2Port_.submit(r);
}

void
TlbHierarchy::accessL2(Request &r)
{
    const TranslationRequest &req = r.req;
    noteL2Access(req.wavefront);

    if (auto hit = l2_.lookupEntry(req.vaPage, req.ctx)) {
        fillL1(r, hit->paPage, hit->largePage);
        return;
    }

    r.nextL2 = nullptr;
    const auto [it, fresh] =
        l2Inflight_.try_emplace(l2Key(req.ctx, req.vaPage), &r);
    if (!fresh) {
        ++l2Merged_;
        Request *leader = it->second;
        leader->tailL2->nextL2 = &r;
        leader->tailL2 = &r;
        return;
    }
    r.tailL2 = &r;

    ++iommuRequests_;
    TranslationRequest down;
    down.vaPage = req.vaPage;
    down.instruction = req.instruction;
    down.wavefront = req.wavefront;
    down.cu = req.cu;
    down.app = req.app;
    down.ctx = req.ctx;
    down.leader = req.leader;
    down.onComplete = [this, leader = &r](mem::Addr pa_page, bool large) {
        fillL2(*leader, pa_page, large);
    };
    iommu_.translate(std::move(down));
}

void
TlbHierarchy::fillL2(Request &leader, mem::Addr pa_page, bool large)
{
    const TranslationRequest &req = leader.req;
    const bool erased = l2Inflight_.erase(l2Key(req.ctx, req.vaPage));
    GPUWALK_ASSERT(erased, "orphan L2 fill");
    l2_.insert(req.vaPage, pa_page, large, req.ctx);
    // Each L1 leader replies to its own list; read the link first,
    // since the fill returns the record.
    for (Request *w = &leader; w;) {
        Request *next = w->nextL2;
        fillL1(*w, pa_page, large);
        w = next;
    }
}

void
TlbHierarchy::fillL1(Request &leader, mem::Addr pa_page, bool large)
{
    const TranslationRequest &req = leader.req;
    const std::uint32_t cu = req.cu;
    const bool erased =
        l1Inflight_.erase(l1Key(req.ctx, cu, req.vaPage));
    GPUWALK_ASSERT(erased, "orphan L1 fill");
    l1s_[cu]->insert(req.vaPage, pa_page, large, req.ctx);
    for (Request *w = &leader; w;) {
        Request *next = w->nextL1;
        reply(*w, pa_page, large);
        w = next;
    }
}

void
TlbHierarchy::reply(Request &r, mem::Addr pa_page, bool large)
{
    if (auditTracking_)
        ++wavefrontIo_[r.req.wavefront].out;
    ++replied_;
    // The record stays live until released: run the callback in place.
    if (r.req.onComplete)
        r.req.onComplete(pa_page, large);
    requestPool_.release(&r, r.poolSlot);
}

void
TlbHierarchy::noteL2Access(std::uint32_t wavefront)
{
    if (epochStamp_.size() <= wavefront)
        epochStamp_.resize(std::size_t(wavefront) + 1, 0);
    if (epochStamp_[wavefront] != epoch_) {
        epochStamp_[wavefront] = epoch_;
        ++epochDistinct_;
    }
    if (++epochAccesses_ >= cfg_.epochLength) {
        epochWavefronts_.sample(static_cast<double>(epochDistinct_));
        ++epoch_;
        epochDistinct_ = 0;
        epochAccesses_ = 0;
    }
}

void
TlbHierarchy::registerInvariants(sim::Auditor &auditor)
{
    auditTracking_ = true;

    auditor.registerInvariant(
        "tlb.merge_pool", [this](sim::AuditContext &ctx) {
            // One record per request between arrival and reply, merged
            // or not; each miss table entry names a live leader.
            const std::uint64_t inflight = requests_.value() - replied_;
            ctx.require(requestPool_.inUse() == inflight,
                        "request-pool live count ", requestPool_.inUse(),
                        " != requests in flight ", inflight);
            ctx.require(l1Inflight_.size() <= requestPool_.inUse()
                            && l2Inflight_.size() <= l1Inflight_.size(),
                        l1Inflight_.size(), " L1 and ",
                        l2Inflight_.size(), " L2 misses in flight with ",
                        requestPool_.inUse(), " live records");
            if (!ctx.final())
                return;
            ctx.require(l1Inflight_.empty(), l1Inflight_.size(),
                        " L1 miss merges never filled");
            ctx.require(l2Inflight_.empty(), l2Inflight_.size(),
                        " L2 miss merges never filled");
            ctx.require(requestPool_.inUse() == 0, "request pool leaks ",
                        requestPool_.inUse(), " records at drain");
        });

    auditor.registerInvariant(
        "tlb.wavefront_conservation", [this](sim::AuditContext &ctx) {
            for (std::size_t wf = 0; wf < wavefrontIo_.size(); ++wf) {
                const WavefrontIo &io = wavefrontIo_[wf];
                const bool ok =
                    ctx.final() ? io.out == io.in : io.out <= io.in;
                // One message is enough; thousands of wavefronts leak
                // together when a response goes missing.
                if (!ctx.require(ok, "wavefront ", wf, ": ", io.in,
                                 " requests coalesced in vs ", io.out,
                                 " responses out"))
                    return;
            }
        });
}

void
TlbHierarchy::invalidateAll()
{
    for (auto &l1 : l1s_)
        l1->invalidateAll();
    l2_.invalidateAll();
}

} // namespace gpuwalk::tlb
