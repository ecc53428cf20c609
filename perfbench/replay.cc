#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <list>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/pending_walk.hh"
#include "core/walk_scheduler.hh"
#include "iommu/page_walk_cache.hh"
#include "iommu/prefetch/translation_prefetcher.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "tlb/coalescer.hh"
#include "tlb/set_assoc_tlb.hh"
#include "trace/trace.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"

namespace perfbench {

using namespace gpuwalk;

namespace {

using Clock = std::chrono::steady_clock;

/** Keeps a replay's result observable so the compiler cannot drop
 *  the calls that produce it. */
volatile std::uint64_t sink = 0;

/**
 * Median over @p reps repetitions of @p body's duration. @p fresh
 * builds the module state each repetition starts from; it runs
 * outside the timed interval.
 */
template <typename Fresh, typename Body>
double
medianSeconds(unsigned reps, Fresh &&fresh, Body &&body)
{
    std::vector<double> times;
    for (unsigned r = 0; r < std::max(1u, reps); ++r) {
        auto state = fresh();
        const auto t0 = Clock::now();
        body(*state);
        times.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

/** medianSeconds for replays that need no fresh state. */
template <typename Body>
double
medianSeconds(unsigned reps, Body &&body)
{
    return medianSeconds(
        reps, [] { return std::make_unique<int>(0); },
        [&](int &) { body(); });
}

} // namespace

double
stat(const std::map<std::string, double> &model, const std::string &key)
{
    const auto it = model.find(key);
    return it == model.end() ? 0.0 : it->second;
}

double
statSum(const std::map<std::string, double> &model,
        const std::string &prefix, const std::string &suffix)
{
    double total = 0.0;
    for (auto it = model.lower_bound(prefix);
         it != model.end() && it->first.compare(0, prefix.size(), prefix)
                                  == 0;
         ++it) {
        const std::string &k = it->first;
        if (k.size() >= suffix.size()
            && k.compare(k.size() - suffix.size(), suffix.size(), suffix)
                   == 0)
            total += it->second;
    }
    return total;
}

namespace {

std::uint64_t
u64(double v)
{
    return static_cast<std::uint64_t>(v + 0.5);
}

// ---- Inputs compiled from the trace -------------------------------

struct PageOp
{
    std::uint16_t ctx = 0;
    std::uint32_t wavefront = 0;
    mem::Addr page = 0;
};

struct TouchOp
{
    std::uint16_t ctx = 0;
    std::uint32_t wavefront = 0;
    mem::Addr page = 0;
    bool leader = false;
};

/** One call into the walk buffer and scheduler. */
struct CoreOp
{
    enum Kind : std::uint8_t { Insert, Dispatch } kind = Insert;
    std::uint16_t ctx = 0;
    std::uint32_t wavefront = 0;
    std::uint32_t estimate = 0;
    tlb::InstructionId instruction = 0;
    mem::Addr page = 0;
    sim::Tick arrival = 0;
};

/** One call into the page walk cache. */
struct PwcOp
{
    enum Kind : std::uint8_t { Probe, Lookup, LookupNoPin, Fill } kind =
        Probe;
    std::uint8_t level = 0;
    std::uint16_t ctx = 0;
    mem::Addr page = 0;
    mem::Addr next = 0;
};

struct RemapOp
{
    bool map = true;
    std::uint16_t ctx = 0;
    mem::Addr page = 0;
};

/** Data-path accesses of one instruction, in coalescer order. */
struct LineGroup
{
    std::uint32_t cu = 0;
    bool write = false;
    std::size_t begin = 0, end = 0; ///< range in the line vector
};

/** Walk buffer + scheduler the core replay drives. */
struct CoreState
{
    core::WalkBuffer buffer;
    std::unique_ptr<core::WalkScheduler> scheduler;

    explicit CoreState(const system::SystemConfig &cfg)
        : buffer(cfg.iommu.bufferEntries),
          scheduler(core::makeScheduler(cfg.scheduler, cfg.schedulerSeed,
                                        cfg.simt, cfg.qos))
    {}

    void
    insert(const CoreOp &op, std::uint64_t seq)
    {
        core::PendingWalk w;
        w.request.vaPage = op.page;
        w.request.instruction = op.instruction;
        w.request.wavefront = op.wavefront;
        w.request.ctx = op.ctx;
        w.arrival = op.arrival;
        w.seq = seq;
        if (scheduler->needsScores()) {
            const std::uint64_t score =
                buffer.instructionScore(op.instruction) + op.estimate;
            buffer.rescoreInstruction(op.instruction, score);
            w.estimatedAccesses = op.estimate;
            w.score = score;
        }
        buffer.insert(std::move(w));
    }

    core::PendingWalk
    dispatch()
    {
        const std::size_t idx = scheduler->selectNext(buffer);
        core::PendingWalk w = buffer.extract(idx);
        scheduler->onDispatch(buffer, w);
        return w;
    }
};

/**
 * Rebuilds the walk buffer's call sequence from the Enqueued / Scored /
 * Scheduled events of a single-tenant run, executing it once on a live
 * buffer so every scheduler pick can be compared with the walk the
 * simulator actually dispatched.
 *
 * Mirrors Iommu::enqueueWalk/dispatchIfPossible: an arrival either
 * starts at once on an idle walker (its Scheduled event follows
 * directly, reason Immediate), waits in the overflow FIFO when the
 * buffer is full, or is admitted (scored first when the policy scores).
 * Each policy dispatch frees one slot for the oldest overflowed walk.
 */
class CoreCompiler
{
  public:
    explicit CoreCompiler(const system::SystemConfig &cfg)
        : live_(cfg), scores_(live_.scheduler->needsScores())
    {}

    void
    on(const trace::Event &ev)
    {
        using K = trace::EventKind;
        if (pending_) {
            const bool immediate =
                ev.kind == K::Scheduled
                && ev.arg0
                       == static_cast<std::uint64_t>(
                           core::PickReason::Immediate)
                && ev.instruction == pending_->instruction
                && ev.vaPage == pending_->page && ev.ctx == pending_->ctx;
            if (immediate) {
                pending_.reset();
                ++dispatches_;
                return;
            }
            CoreOp op = *pending_;
            pending_.reset();
            if (live_.buffer.full()) {
                overflow_.push_back(op);
            } else if (scores_) {
                if (ev.kind != K::Scored || !same(ev, op)) {
                    ++drift_;
                    return;
                }
                op.estimate = static_cast<std::uint32_t>(ev.arg0);
                admit(op);
                return;
            } else {
                admit(op);
            }
        }

        switch (ev.kind) {
          case K::Enqueued: {
            CoreOp op;
            op.kind = CoreOp::Insert;
            op.ctx = ev.ctx;
            op.wavefront = ev.wavefront;
            op.instruction = ev.instruction;
            op.page = ev.vaPage;
            op.arrival = ev.tick;
            pending_ = op;
            return;
          }
          case K::Scored:
            if (awaitingScore_) {
                awaitingScore_ = false;
                CoreOp op = overflow_.front();
                overflow_.pop_front();
                if (!same(ev, op)) {
                    ++drift_;
                    return;
                }
                op.estimate = static_cast<std::uint32_t>(ev.arg0);
                admit(op);
            }
            return;
          case K::Scheduled: {
            const auto reason = static_cast<core::PickReason>(ev.arg0);
            if (reason == core::PickReason::Immediate
                || reason == core::PickReason::Speculative
                || live_.buffer.empty() || awaitingScore_) {
                // Fault re-entries and speculative walks reach the
                // walkers without a trace event for their buffer entry.
                ++drift_;
                return;
            }
            CoreOp op;
            op.kind = CoreOp::Dispatch;
            ops.push_back(op);
            const core::PendingWalk w = live_.dispatch();
            ++dispatches_;
            if (w.request.instruction != ev.instruction
                || w.request.vaPage != ev.vaPage)
                ++mismatches_;
            if (!overflow_.empty() && !live_.buffer.full()) {
                if (scores_) {
                    awaitingScore_ = true;
                } else {
                    admit(overflow_.front());
                    overflow_.pop_front();
                }
            }
            return;
          }
          default:
            return;
        }
    }

    std::vector<CoreOp> ops;
    std::uint64_t dispatches() const { return dispatches_; }
    std::uint64_t mismatches() const { return mismatches_; }
    std::uint64_t drift() const { return drift_; }

  private:
    static bool
    same(const trace::Event &ev, const CoreOp &op)
    {
        return ev.instruction == op.instruction && ev.vaPage == op.page
               && ev.ctx == op.ctx;
    }

    void
    admit(const CoreOp &op)
    {
        live_.insert(op, seq_++);
        ops.push_back(op);
    }

    CoreState live_;
    bool scores_ = false;
    std::optional<CoreOp> pending_;
    std::deque<CoreOp> overflow_;
    bool awaitingScore_ = false;
    std::uint64_t seq_ = 0;
    std::uint64_t dispatches_ = 0;
    std::uint64_t mismatches_ = 0;
    std::uint64_t drift_ = 0;
};

/** Completes every access after a fixed delay: the replayed L1 data
 *  cache sees a memory below it without modelling one. */
class StubMemory final : public mem::MemoryDevice
{
  public:
    explicit StubMemory(sim::EventQueue &eq) : eq_(eq) {}

    void
    access(mem::MemoryRequest req) override
    {
        eq_.scheduleIn(100 * 500, [r = std::move(req)]() mutable {
            r.complete();
        });
    }

  private:
    sim::EventQueue &eq_;
};

struct CacheState
{
    sim::EventQueue eq;
    StubMemory below{eq};
    std::vector<std::unique_ptr<mem::Cache>> l1s;
    std::uint64_t completed = 0;
};

struct TlbState
{
    std::vector<std::unique_ptr<tlb::SetAssocTlb>> l1s;
    std::unique_ptr<tlb::SetAssocTlb> l2;
};

std::unique_ptr<TlbState>
freshTlbs(const tlb::TlbHierarchyConfig &c)
{
    auto s = std::make_unique<TlbState>();
    for (unsigned cu = 0; cu < c.numCus; ++cu) {
        s->l1s.push_back(std::make_unique<tlb::SetAssocTlb>(
            tlb::TlbConfig{"l1tlb", c.l1Entries, c.l1Entries}));
    }
    s->l2 = std::make_unique<tlb::SetAssocTlb>(
        tlb::TlbConfig{"l2tlb", c.l2Entries, c.l2Associativity});
    return s;
}

struct RemapState
{
    mem::BackingStore store;
    vm::FrameAllocator frames;
    std::vector<std::unique_ptr<vm::PageTable>> tables;
};

} // namespace

std::map<std::string, double>
parseStatDump(const std::string &dump)
{
    std::map<std::string, double> out;
    std::istringstream in(dump);
    std::string line;
    while (std::getline(in, line)) {
        const auto sp = line.find(' ');
        if (sp == std::string::npos)
            continue;
        out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1,
                                              nullptr);
    }
    return out;
}

RunReplay
replayRun(const ReplayInput &in)
{
    RunReplay out;
    system::System &sys = *in.sys;
    const system::SystemConfig &cfg = sys.config();
    const system::RunStats &stats = *in.stats;
    const auto &model = *in.model;
    const unsigned numCus = cfg.gpu.numCus;
    const bool prefetchOn =
        cfg.iommu.prefetch.kind != iommu::PrefetchKind::Off;
    const auto spanned = [&](const std::string &name, auto &&fn) {
        if (in.span)
            in.span(name, true);
        fn();
        if (in.span)
            in.span(name, false);
    };

    // ---- One pass over the trace builds every trace-fed input. ----
    std::vector<PageOp> coalesced;
    std::vector<PwcOp> pwcOps;
    std::vector<TouchOp> touches;
    std::vector<RemapOp> remapOps;
    std::vector<mem::Addr> ptes;
    const bool coreReplayable =
        !stats.gmmu.enabled && stats.spec.admitted == 0;
    CoreCompiler core(cfg);
    std::vector<int> walkerLevel;
    std::unordered_set<tlb::InstructionId> leaders;
    // LRU of the pages the remap replay holds mapped, for its eviction
    // order. Gmmu's own LRU also sees pins and prefetch walks, which the
    // trace does not record, so the two resident sets can drift apart;
    // evictions are therefore timed by Gmmu's resident count, which the
    // trace does give exactly, and only the victims are the replay's.
    std::list<std::uint64_t> lru;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        resident;
    const std::uint64_t cap = stats.gmmu.frameCap;
    std::uint64_t gmmuResident = 0, staleRefaults = 0, emptyEvictions = 0;
    double scheduled = 0, waitTicks = 0, picks = 0, batchPicks = 0;
    double walksDone = 0, walkAccesses = 0, serviceTicks = 0;

    spanned("replay.compile", [&] {
        sys.tracer()->forEach([&](const trace::Event &ev) {
            using K = trace::EventKind;
            if (coreReplayable)
                core.on(ev);
            switch (ev.kind) {
              case K::Coalesced:
                coalesced.push_back({ev.ctx, ev.wavefront, ev.vaPage});
                break;
              case K::Scored:
                pwcOps.push_back({PwcOp::Probe, 0, ev.ctx, ev.vaPage, 0});
                break;
              case K::Scheduled:
                scheduled += 1;
                waitTicks += static_cast<double>(ev.arg1);
                if (ev.arg0
                        != static_cast<std::uint64_t>(
                            core::PickReason::Immediate)
                    && ev.arg0
                           != static_cast<std::uint64_t>(
                               core::PickReason::Speculative)) {
                    picks += 1;
                    if (ev.arg0
                        == static_cast<std::uint64_t>(
                            core::PickReason::Batch))
                        batchPicks += 1;
                }
                pwcOps.push_back({PwcOp::Lookup, 0, ev.ctx, ev.vaPage, 0});
                if (ev.walker >= walkerLevel.size())
                    walkerLevel.resize(ev.walker + 1, 0);
                walkerLevel[ev.walker] = 0;
                break;
              case K::PrefetchIssued:
                pwcOps.push_back(
                    {PwcOp::LookupNoPin, 0, ev.ctx, ev.vaPage, 0});
                break;
              case K::MemIssued: {
                ptes.push_back(ev.arg0);
                if (ev.walker >= walkerLevel.size())
                    walkerLevel.resize(ev.walker + 1, 0);
                // A deeper read means the previous level's entry was
                // present: the walker filled the PWC with it first.
                const unsigned l = ev.level;
                if (walkerLevel[ev.walker] == static_cast<int>(l) + 1) {
                    const mem::Addr next =
                        ev.arg0
                        - std::uint64_t(vm::PageTable::indexAt(
                              ev.vaPage, vm::PtLevel{l}))
                              * 8;
                    pwcOps.push_back({PwcOp::Fill,
                                      static_cast<std::uint8_t>(l + 1),
                                      ev.ctx, ev.vaPage, next});
                }
                walkerLevel[ev.walker] = static_cast<int>(l);
                break;
              }
              case K::WalkDone: {
                walksDone += 1;
                walkAccesses += static_cast<double>(ev.arg0);
                serviceTicks += static_cast<double>(ev.arg1);
                touches.push_back({ev.ctx, ev.wavefront, ev.vaPage,
                                   leaders.count(ev.instruction) > 0});
                const auto it =
                    resident.find(mem::pageCtxKey(ev.ctx, ev.vaPage));
                if (it != resident.end())
                    lru.splice(lru.end(), lru, it->second);
                break;
              }
              case K::LeaderIssued:
                leaders.insert(ev.instruction);
                break;
              case K::FaultServiced: {
                const std::uint64_t key =
                    mem::pageCtxKey(ev.ctx, ev.vaPage);
                // Gmmu evicted this page, the replay a different one:
                // refresh it so it is held once, and map it again below
                // (an overwrite), as Gmmu does.
                const auto held = resident.find(key);
                if (held != resident.end()) {
                    lru.splice(lru.end(), lru, held->second);
                    ++staleRefaults;
                }
                if (cap > 0 && gmmuResident >= cap) {
                    if (lru.empty() || lru.front() == key) {
                        ++emptyEvictions;
                    } else {
                        const std::uint64_t victim = lru.front();
                        lru.pop_front();
                        resident.erase(victim);
                        remapOps.push_back({false, mem::ctxOfKey(victim),
                                            mem::pageOfKey(victim)});
                    }
                } else {
                    ++gmmuResident;
                }
                if (held == resident.end()) {
                    lru.push_back(key);
                    resident[key] = std::prev(lru.end());
                }
                remapOps.push_back({true, ev.ctx, ev.vaPage});
                break;
              }
              default:
                break;
            }
        });
    });
    out.traceCounts = {{"sched.scheduled", scheduled},
                       {"sched.wait_ticks", waitTicks},
                       {"sched.picks", picks},
                       {"sched.batch", batchPicks},
                       {"walk.done", walksDone},
                       {"walk.accesses", walkAccesses},
                       {"walk.service_ticks", serviceTicks},
                       {"remap.stale_refaults",
                        static_cast<double>(staleRefaults)}};

    // ---- tlb: coalescer over every generated instruction. ----------
    std::vector<mem::Addr> lines;
    std::vector<LineGroup> groups;
    std::uint64_t instructions = 0, pages = 0;
    {
        std::uint32_t wf = 0;
        for (const auto &wl : *in.workloads) {
            for (const auto &trace : wl.traces) {
                for (const auto &inst : trace) {
                    const tlb::CoalescedAccess a =
                        tlb::coalesce(inst.laneAddrs);
                    ++instructions;
                    pages += a.pages.size();
                    LineGroup g;
                    g.cu = wf % numCus;
                    g.write = !inst.isLoad;
                    g.begin = lines.size();
                    lines.insert(lines.end(), a.lines.begin(),
                                 a.lines.end());
                    g.end = lines.size();
                    groups.push_back(g);
                }
                ++wf;
            }
        }
    }
    spanned("replay.tlb.coalesce", [&] {
        const auto *wls = in.workloads;
        const double s = medianSeconds(in.reps, [&] {
            std::uint64_t n = 0;
            for (const auto &wl : *wls)
                for (const auto &trace : wl.traces)
                    for (const auto &inst : trace)
                        n += tlb::coalesce(inst.laneAddrs).pages.size();
            sink = sink + n;
        });
        out.timings.push_back({"tlb.coalesce", "tlb", instructions,
                               stats.instructions, s});
    });
    out.checks.push_back({"tlb.coalesce calls", instructions,
                          "gpu instructions retired", stats.instructions});
    out.checks.push_back({"tlb.coalesce pages", pages, "gpu_tlb.requests",
                          u64(stat(model, "gpu_tlb.requests"))});

    // ---- tlb: Coalesced stream through Table I-sized TLBs. ----------
    {
        // Untimed pass: the insert sequence, for the insert-only timing.
        std::vector<std::pair<std::int32_t, PageOp>> inserts;
        std::uint64_t lookups = 0;
        auto s = freshTlbs(cfg.gpuTlb);
        for (const PageOp &op : coalesced) {
            const unsigned cu = op.wavefront % numCus;
            ++lookups;
            if (s->l1s[cu]->lookup(op.page, op.ctx))
                continue;
            ++lookups;
            if (!s->l2->lookup(op.page, op.ctx)) {
                s->l2->insert(op.page, op.page, false, op.ctx);
                inserts.push_back({-1, op});
            }
            s->l1s[cu]->insert(op.page, op.page, false, op.ctx);
            inserts.push_back({static_cast<std::int32_t>(cu), op});
        }
        double full = 0, ins = 0;
        spanned("replay.tlb.lookup_insert", [&] {
            full = medianSeconds(
                in.reps, [&] { return freshTlbs(cfg.gpuTlb); },
                [&](TlbState &t) {
                    for (const PageOp &op : coalesced) {
                        auto &l1 = *t.l1s[op.wavefront % numCus];
                        if (l1.lookup(op.page, op.ctx))
                            continue;
                        if (!t.l2->lookup(op.page, op.ctx))
                            t.l2->insert(op.page, op.page, false, op.ctx);
                        l1.insert(op.page, op.page, false, op.ctx);
                    }
                });
        });
        spanned("replay.tlb.insert", [&] {
            ins = medianSeconds(
                in.reps, [&] { return freshTlbs(cfg.gpuTlb); },
                [&](TlbState &t) {
                    for (const auto &[cu, op] : inserts) {
                        auto &tlb = cu < 0 ? *t.l2 : *t.l1s[cu];
                        tlb.insert(op.page, op.page, false, op.ctx);
                    }
                });
        });
        const double modelLookups =
            statSum(model, "gpu_tlb.l1tlb", ".hits")
            + statSum(model, "gpu_tlb.l1tlb", ".misses")
            + stat(model, "gpu_tlb.l2tlb.hits")
            + stat(model, "gpu_tlb.l2tlb.misses");
        const double modelInserts =
            statSum(model, "gpu_tlb.l1tlb", ".insertions")
            + stat(model, "gpu_tlb.l2tlb.insertions");
        out.timings.push_back({"tlb.lookup", "tlb", lookups,
                               u64(modelLookups), std::max(0.0, full - ins)});
        out.timings.push_back({"tlb.insert", "tlb", inserts.size(),
                               u64(modelInserts), ins});
        out.checks.push_back({"tlb.lookup L1 calls", coalesced.size(),
                              "gpu_tlb.requests",
                              u64(stat(model, "gpu_tlb.requests"))});
    }

    // ---- core: walk buffer + the run's own scheduler. ---------------
    if (coreReplayable) {
        spanned("replay.core.dispatch", [&] {
            const double s = medianSeconds(
                in.reps, [&] { return std::make_unique<CoreState>(cfg); },
                [&](CoreState &c) {
                    std::uint64_t seq = 0, n = 0;
                    for (const CoreOp &op : core.ops) {
                        if (op.kind == CoreOp::Insert)
                            c.insert(op, seq++);
                        else
                            n += c.dispatch().seq;
                    }
                    sink = sink + n;
                });
            out.timings.push_back({"core.dispatch", "core",
                                   core.dispatches(), stats.walkRequests,
                                   s});
        });
        out.checks.push_back({"core.dispatch walks", core.dispatches(),
                              "iommu.walk_requests", stats.walkRequests});
        out.checks.push_back({"core.dispatch picks differing from the "
                              "traced dispatch",
                              core.mismatches() + core.drift(),
                              "(none)", 0});
    } else {
        out.timings.push_back({"core.dispatch", "core", 0, 0, 0.0});
        out.skipped.push_back(
            "core.dispatch: fault re-entries and speculative-class "
            "promotions enter the walk buffer without a trace event, so "
            "the buffer sequence of this run cannot be rebuilt");
    }

    // ---- iommu: page walk cache over the walk stream. ----------------
    {
        const auto fresh = [&] {
            auto pwc = std::make_unique<iommu::PageWalkCache>(
                cfg.iommu.pwc, sys.addressSpace().pageTable().root());
            for (std::size_t c = 1; c < stats.tenants.size(); ++c) {
                const auto ctx = static_cast<tlb::ContextId>(c);
                pwc->registerContext(
                    ctx, sys.addressSpaceOf(ctx).pageTable().root());
            }
            return pwc;
        };
        const auto run = [&](iommu::PageWalkCache &pwc) {
            std::uint64_t n = 0;
            for (const PwcOp &op : pwcOps) {
                switch (op.kind) {
                  case PwcOp::Probe:
                    n += pwc.probeEstimate(op.page, op.ctx);
                    break;
                  case PwcOp::Lookup:
                    n += pwc.lookup(op.page, op.ctx, true).level;
                    break;
                  case PwcOp::LookupNoPin:
                    n += pwc.lookup(op.page, op.ctx, false).level;
                    break;
                  case PwcOp::Fill:
                    pwc.fill(op.page, vm::PtLevel{op.level}, op.next,
                             op.ctx);
                    break;
                }
            }
            sink = sink + n;
        };
        auto check = fresh();
        run(*check);
        double s = 0;
        spanned("replay.iommu.pwc",
                [&] { s = medianSeconds(in.reps, fresh, run); });
        out.timings.push_back({"iommu.pwc", "iommu", pwcOps.size(),
                               pwcOps.size(), s});
        out.checks.push_back(
            {"iommu.pwc lookups", check->hits() + check->misses(),
             "iommu.pwc.hits + iommu.pwc.misses",
             u64(stat(model, "iommu.pwc.hits")
                 + stat(model, "iommu.pwc.misses"))});
        if (!prefetchOn) {
            // Without prefetch walks the trace holds every PWC call, so
            // the replayed cache must end in the simulator's exact state.
            out.checks.push_back({"iommu.pwc hits", check->hits(),
                                  "iommu.pwc.hits",
                                  u64(stat(model, "iommu.pwc.hits"))});
        }
    }

    // ---- iommu: prefetcher on the demand-walk stream. ----------------
    const std::uint64_t demandDone =
        stats.walksCompleted - stats.prefetch.completed;
    if (prefetchOn) {
        std::vector<iommu::PrefetchCandidate> cands;
        double s = 0;
        spanned("replay.iommu.prefetch", [&] {
            s = medianSeconds(
                in.reps,
                [&] { return iommu::makePrefetcher(cfg.iommu.prefetch); },
                [&](iommu::TranslationPrefetcher &p) {
                    std::uint64_t n = 0;
                    for (const TouchOp &t : touches) {
                        cands.clear();
                        p.onDemandTouch(t.ctx, t.wavefront, t.page, cands,
                                        t.leader);
                        n += cands.size();
                    }
                    sink = sink + n;
                });
        });
        out.timings.push_back({"iommu.prefetch", "iommu", touches.size(),
                               touches.size(), s});
        out.checks.push_back({"iommu.prefetch demand touches",
                              touches.size(),
                              "iommu.walks_completed - "
                              "iommu.prefetch_completed",
                              demandDone});
    } else {
        out.timings.push_back({"iommu.prefetch", "iommu", 0, 0, 0.0});
    }

    // ---- mem: coalesced lines through Table I L1 data caches. --------
    {
        const auto fresh = [&] {
            auto c = std::make_unique<CacheState>();
            for (unsigned cu = 0; cu < numCus; ++cu)
                c->l1s.push_back(
                    std::make_unique<mem::Cache>(c->eq, cfg.l1d, c->below));
            return c;
        };
        std::uint64_t completed = 0;
        double s = 0;
        spanned("replay.mem.cache_access", [&] {
            s = medianSeconds(in.reps, fresh, [&](CacheState &c) {
                for (const LineGroup &g : groups) {
                    for (std::size_t i = g.begin; i < g.end; ++i) {
                        mem::MemoryRequest req;
                        req.addr = lines[i];
                        req.write = g.write;
                        req.requester = mem::Requester::GpuData;
                        req.onComplete = [&c] { ++c.completed; };
                        c.l1s[g.cu]->access(std::move(req));
                    }
                    while (c.eq.runOne()) {
                    }
                }
                completed = c.completed;
            });
        });
        const double modelAccesses = statSum(model, "l1d", ".hits")
                                     + statSum(model, "l1d", ".misses")
                                     + statSum(model, "l1d", ".mshr_merges");
        out.timings.push_back({"mem.cache_access", "mem", lines.size(),
                               u64(modelAccesses), s});
        out.checks.push_back({"mem.cache_access calls", lines.size(),
                              "l1d*.hits + misses + mshr_merges",
                              u64(modelAccesses)});
        out.checks.push_back({"mem.cache_access completions", completed,
                              "(replay calls)", lines.size()});
    }

    // ---- mem: DRAM address decode over data lines + PTE reads. -------
    {
        const mem::DramAddressMapper mapper(cfg.dram);
        double s = 0;
        spanned("replay.mem.dram_decode", [&] {
            s = medianSeconds(in.reps, [&] {
                std::uint64_t n = 0;
                for (const mem::Addr a : lines) {
                    const mem::DramAddress d = mapper.decode(a);
                    n += d.row + d.column + d.bank;
                }
                for (const mem::Addr a : ptes) {
                    const mem::DramAddress d = mapper.decode(a);
                    n += d.row + d.column + d.bank;
                }
                sink = sink + n;
            });
        });
        const std::uint64_t calls = lines.size() + ptes.size();
        out.timings.push_back(
            {"mem.dram_decode", "mem", calls, calls, s});
        const double ptwAccesses =
            stat(model, "iommu.ptwcache.hits")
            + stat(model, "iommu.ptwcache.misses")
            + stat(model, "iommu.ptwcache.mshr_merges");
        Check pte{"mem.dram_decode PTE reads", ptes.size(),
                  "iommu.ptwcache accesses", u64(ptwAccesses)};
        if (prefetchOn) {
            // Prefetch walks read PTEs too, but are not traced.
            pte.model += " (incl. untraced prefetch walks)";
            pte.atMost = true;
        }
        out.checks.push_back(pte);
    }

    // ---- vm: page-table translate over completed walk pages. ---------
    {
        double s = 0;
        spanned("replay.vm.translate", [&] {
            s = medianSeconds(in.reps, [&] {
                std::uint64_t n = 0;
                for (const TouchOp &t : touches) {
                    const auto pa =
                        sys.addressSpaceOf(t.ctx).pageTable().translate(
                            t.page);
                    n += pa ? *pa : 1;
                }
                sink = sink + n;
            });
        });
        out.timings.push_back(
            {"vm.translate", "vm", touches.size(), demandDone, s});
        out.checks.push_back({"vm.translate calls", touches.size(),
                              "iommu.walks_completed - "
                              "iommu.prefetch_completed",
                              demandDone});
    }

    // ---- vm: map/unmap over the fault and eviction sequence. ---------
    if (stats.gmmu.enabled) {
        // Every unmap must hit a page the replay mapped, or PageTable
        // would assert: check the sequence before timing it.
        std::uint64_t maps = 0, badUnmaps = emptyEvictions;
        std::unordered_set<std::uint64_t> mapped;
        for (const RemapOp &op : remapOps) {
            const std::uint64_t key = mem::pageCtxKey(op.ctx, op.page);
            if (op.map) {
                ++maps;
                mapped.insert(key);
            } else if (mapped.erase(key) == 0) {
                ++badUnmaps;
            }
        }
        out.checks.push_back({"vm.remap unmaps of pages not mapped",
                              badUnmaps, "none", 0});
        const std::size_t numCtx =
            std::max<std::size_t>(1, stats.tenants.size());
        double s = 0;
        if (badUnmaps == 0) {
            spanned("replay.vm.remap", [&] {
                s = medianSeconds(
                    in.reps,
                    [&] {
                        auto r = std::make_unique<RemapState>();
                        for (std::size_t c = 0; c < numCtx; ++c)
                            r->tables.push_back(
                                std::make_unique<vm::PageTable>(
                                    r->store, r->frames));
                        return r;
                    },
                    [&](RemapState &r) {
                        for (const RemapOp &op : remapOps) {
                            vm::PageTable &pt = *r.tables.at(op.ctx);
                            if (op.map)
                                pt.map(op.page, r.frames.allocateFrame());
                            else
                                pt.unmap(op.page);
                        }
                    });
            });
        }
        out.timings.push_back({"vm.remap", "vm", remapOps.size(),
                               stats.gmmu.faultsServiced
                                   + stats.gmmu.pagesEvicted,
                               s});
        out.checks.push_back({"vm.remap maps", maps,
                              "gmmu.faults_serviced",
                              stats.gmmu.faultsServiced});
        out.checks.push_back({"vm.remap unmaps", remapOps.size() - maps,
                              "gmmu.pages_evicted",
                              stats.gmmu.pagesEvicted});
    } else {
        out.timings.push_back({"vm.remap", "vm", 0, 0, 0.0});
    }

    return out;
}

} // namespace perfbench
