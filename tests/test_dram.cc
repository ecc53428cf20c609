/**
 * @file
 * Unit tests for DRAM address mapping and the FR-FCFS controller, plus
 * a differential fuzz against a reference copy of the original
 * controller (a deque of whole requests, rescanned and erased in
 * place): the slot-indexed queue must issue in the same order and
 * complete at the same ticks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "mem/dram.hh"
#include "mem/dram_controller.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::mem;

TEST(DramAddressMapper, InterleavesLinesAcrossChannels)
{
    DramConfig cfg;
    DramAddressMapper mapper(cfg);
    const auto a = mapper.decode(0);
    const auto b = mapper.decode(cacheLineSize);
    EXPECT_NE(a.channel, b.channel);
}

TEST(DramAddressMapper, DecodeIsWithinBounds)
{
    DramConfig cfg;
    DramAddressMapper mapper(cfg);
    for (Addr addr = 0; addr < Addr(1) << 24; addr += 4096 + 64) {
        const auto d = mapper.decode(addr);
        EXPECT_LT(d.channel, cfg.channels);
        EXPECT_LT(d.rank, cfg.ranksPerChannel);
        EXPECT_LT(d.bank, cfg.banksPerRank);
        EXPECT_LT(d.column, cfg.rowBytes / cacheLineSize);
    }
}

TEST(DramAddressMapper, DistinctAddressesDistinctCoordinates)
{
    DramConfig cfg;
    DramAddressMapper mapper(cfg);
    std::set<std::tuple<unsigned, unsigned, std::uint64_t,
                        std::uint64_t>>
        seen;
    for (Addr addr = 0; addr < Addr(1) << 20; addr += cacheLineSize) {
        const auto d = mapper.decode(addr);
        auto key = std::make_tuple(d.channel,
                                   mapper.flatBank(d), d.row, d.column);
        EXPECT_TRUE(seen.insert(key).second)
            << "aliased address " << addr;
    }
}

struct ControllerFixture : public ::testing::Test
{
    sim::EventQueue eq;
    DramConfig cfg;
    std::unique_ptr<DramController> ctrl;

    void
    SetUp() override
    {
        ctrl = std::make_unique<DramController>(eq, cfg);
    }

    /** Issues a read and returns its completion tick. */
    sim::Tick
    readAt(Addr addr)
    {
        sim::Tick done = 0;
        MemoryRequest req;
        req.addr = addr;
        req.onComplete = [&] { done = eq.now(); };
        ctrl->access(std::move(req));
        eq.run();
        return done;
    }
};

TEST_F(ControllerFixture, SingleReadCompletesWithClosedBankLatency)
{
    const sim::Tick done = readAt(0);
    // Closed bank: tRCD + tCL + tBURST.
    EXPECT_EQ(done, cfg.rcd() + cfg.cl() + cfg.burst());
    EXPECT_EQ(ctrl->reads(), 1u);
    EXPECT_EQ(ctrl->rowMisses(), 1u);
}

TEST_F(ControllerFixture, RowHitIsFasterThanConflict)
{
    // First access opens the row.
    readAt(0);
    // Same row, next column: row hit. The column stride covers all
    // channel/bank/rank bits below the column bits.
    const Addr col_stride = cacheLineSize * cfg.channels
                            * cfg.banksPerRank * cfg.ranksPerChannel;
    const sim::Tick t0 = eq.now();
    MemoryRequest hit;
    hit.addr = col_stride; // same bank, same row, next column
    sim::Tick hit_done = 0;
    hit.onComplete = [&] { hit_done = eq.now(); };
    ctrl->access(std::move(hit));
    eq.run();
    const sim::Tick hit_lat = hit_done - t0;

    // Different row, same bank: conflict.
    const sim::Tick t1 = eq.now();
    MemoryRequest conf;
    conf.addr = cfg.rowBytes * cfg.channels * cfg.banksPerRank
                * cfg.ranksPerChannel;
    sim::Tick conf_done = 0;
    conf.onComplete = [&] { conf_done = eq.now(); };
    ctrl->access(std::move(conf));
    eq.run();
    const sim::Tick conf_lat = conf_done - t1;

    EXPECT_LT(hit_lat, conf_lat);
    EXPECT_GE(ctrl->rowHits(), 1u);
    EXPECT_GE(ctrl->rowConflicts(), 1u);
}

TEST_F(ControllerFixture, BankParallelismOverlapsAccesses)
{
    // Two reads to different banks of one channel should overlap:
    // total time far less than 2x a serial access.
    std::vector<sim::Tick> done;
    for (int i = 0; i < 2; ++i) {
        MemoryRequest req;
        // Same channel (stride channels*lineSize), different banks.
        req.addr = Addr(i) * cfg.channels * cacheLineSize;
        req.onComplete = [&] { done.push_back(eq.now()); };
        ctrl->access(std::move(req));
    }
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    const sim::Tick serial =
        2 * (cfg.rcd() + cfg.cl() + cfg.burst());
    EXPECT_LT(done.back(), serial);
}

TEST_F(ControllerFixture, FrFcfsPrefersRowHits)
{
    // Occupy bank 0 and open row 0 (do not drain the queue yet), so
    // the two requests below are both pending when the bank frees.
    MemoryRequest opener;
    opener.addr = 0;
    ctrl->access(std::move(opener));
    // Enqueue a conflict (other row, bank 0) first, then a row hit.
    std::vector<int> order;
    MemoryRequest conflict;
    conflict.addr = cfg.rowBytes * cfg.channels * cfg.banksPerRank
                    * cfg.ranksPerChannel;
    conflict.onComplete = [&] { order.push_back(1); };
    MemoryRequest hit;
    hit.addr = cacheLineSize * cfg.channels * cfg.banksPerRank
               * cfg.ranksPerChannel; // row 0, bank 0, col 1
    hit.onComplete = [&] { order.push_back(2); };
    ctrl->access(std::move(conflict));
    ctrl->access(std::move(hit));
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    // The row hit (2) completes before the conflict (1).
    EXPECT_EQ(order.front(), 2);
}

TEST_F(ControllerFixture, WritesAreCountedSeparately)
{
    MemoryRequest w;
    w.addr = 128;
    w.write = true;
    ctrl->access(std::move(w));
    eq.run();
    EXPECT_EQ(ctrl->writes(), 1u);
    EXPECT_EQ(ctrl->reads(), 0u);
}

TEST_F(ControllerFixture, PageWalkRequesterIsAttributed)
{
    MemoryRequest r;
    r.addr = 64;
    r.requester = Requester::PageWalk;
    ctrl->access(std::move(r));
    eq.run();
    EXPECT_EQ(ctrl->pageWalkAccesses(), 1u);
}

TEST_F(ControllerFixture, ManyRequestsAllComplete)
{
    unsigned completed = 0;
    for (unsigned i = 0; i < 500; ++i) {
        MemoryRequest req;
        req.addr = Addr(i) * 4096 + (i % 7) * cacheLineSize;
        req.write = (i % 3) == 0;
        req.onComplete = [&] { ++completed; };
        ctrl->access(std::move(req));
    }
    eq.run();
    EXPECT_EQ(completed, 500u);
    EXPECT_EQ(ctrl->reads() + ctrl->writes(), 500u);
}



TEST_F(ControllerFixture, RefreshClosesRowsAndDelaysCommands)
{
    // Open a row early, then access the same row after a refresh
    // boundary: the row must read as closed (a miss, not a hit).
    readAt(0);
    EXPECT_EQ(ctrl->rowMisses(), 1u);

    // Jump time past the first refresh of rank 0.
    eq.schedule(cfg.tREFI + cfg.tRFC + 1000, [] {});
    eq.run();

    readAt(0);
    EXPECT_EQ(ctrl->rowHits(), 0u);
    EXPECT_EQ(ctrl->rowMisses(), 2u);
}

TEST_F(ControllerFixture, AccessInsideRefreshWindowIsDelayed)
{
    // Land a request exactly at a refresh boundary of rank 0: its
    // completion must be pushed past tRFC.
    sim::Tick done = 0;
    eq.schedule(cfg.tREFI, [&] {
        MemoryRequest req;
        req.addr = 0;
        req.onComplete = [&] { done = eq.now(); };
        ctrl->access(std::move(req));
    });
    eq.run();
    EXPECT_GE(done, cfg.tREFI + cfg.tRFC);
    EXPECT_GE(ctrl->stats().name().size(), 1u);
}

TEST_F(ControllerFixture, RefreshDisabledHasNoWindows)
{
    cfg.enableRefresh = false;
    ctrl = std::make_unique<DramController>(eq, cfg);
    sim::Tick done = 0;
    eq.schedule(cfg.tREFI, [&] {
        MemoryRequest req;
        req.addr = 0;
        req.onComplete = [&] { done = eq.now(); };
        ctrl->access(std::move(req));
    });
    eq.run();
    EXPECT_LT(done, cfg.tREFI + cfg.tRFC);
}

/**
 * The original FR-FCFS controller, kept as the ordering oracle: each
 * queued request is held whole in a per-channel deque, every scan
 * re-decodes its bank and walks the full queue, and the issued request
 * is erased from the middle. Completion ticks and row-buffer outcomes
 * are what the real controller must reproduce.
 */
class ReferenceDram : public MemoryDevice
{
  public:
    ReferenceDram(sim::EventQueue &eq, const DramConfig &cfg)
        : eq_(eq), cfg_(cfg), mapper_(cfg), channels_(cfg.channels)
    {
        for (Channel &ch : channels_)
            ch.banks.resize(mapper_.banksPerChannel());
    }

    void
    access(MemoryRequest req) override
    {
        Pending p;
        p.where = mapper_.decode(req.addr);
        p.req = std::move(req);
        p.arrival = eq_.now();
        const unsigned chan = p.where.channel;
        channels_[chan].queue.push_back(std::move(p));
        trySchedule(chan);
    }

    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;

  private:
    struct Pending
    {
        MemoryRequest req;
        DramAddress where;
        sim::Tick arrival = 0;
    };

    struct BankState
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        sim::Tick readyAt = 0;
        sim::Tick activatedAt = 0;
        sim::Tick lastIssue = 0;
    };

    struct Channel
    {
        std::deque<Pending> queue;
        std::vector<BankState> banks;
        sim::Tick busFreeAt = 0;
        bool drainScheduled = false;
    };

    void
    trySchedule(unsigned chan)
    {
        Channel &ch = channels_[chan];
        if (ch.queue.empty())
            return;
        const sim::Tick now = eq_.now();
        std::size_t best = ch.queue.size();
        bool best_hit = false;
        sim::Tick soonest = sim::maxTick;
        for (std::size_t i = 0; i < ch.queue.size(); ++i) {
            const Pending &p = ch.queue[i];
            const BankState &bank = ch.banks[mapper_.flatBank(p.where)];
            const bool hit = bank.rowOpen && bank.openRow == p.where.row;
            soonest = std::min(soonest, bank.readyAt);
            if (bank.readyAt > now)
                continue;
            if (best == ch.queue.size() || (hit && !best_hit)) {
                best = i;
                best_hit = hit;
            }
        }
        if (best < ch.queue.size()) {
            issue(ch, best);
            if (!ch.queue.empty())
                trySchedule(chan);
            return;
        }
        if (!ch.drainScheduled && soonest != sim::maxTick
            && soonest > now) {
            ch.drainScheduled = true;
            eq_.schedule(soonest, [this, chan] {
                channels_[chan].drainScheduled = false;
                trySchedule(chan);
            });
        }
    }

    void
    issue(Channel &ch, std::size_t idx)
    {
        Pending p = std::move(ch.queue[idx]);
        ch.queue.erase(ch.queue.begin()
                       + static_cast<std::ptrdiff_t>(idx));
        const sim::Tick now = eq_.now();
        BankState &bank = ch.banks[mapper_.flatBank(p.where)];
        sim::Tick cmd_start = std::max(now, bank.readyAt);
        cmd_start = applyRefresh(bank, p.where.rank, cmd_start);
        sim::Tick ready_for_data = 0;
        if (bank.rowOpen && bank.openRow == p.where.row) {
            ++rowHits;
            ready_for_data = cmd_start + cfg_.cl();
        } else if (!bank.rowOpen) {
            ++rowMisses;
            ready_for_data = cmd_start + cfg_.rcd() + cfg_.cl();
            bank.activatedAt = cmd_start;
        } else {
            ++rowConflicts;
            const sim::Tick pre_at =
                std::max(cmd_start, bank.activatedAt + cfg_.ras());
            const sim::Tick act_at = pre_at + cfg_.rp();
            ready_for_data = act_at + cfg_.rcd() + cfg_.cl();
            bank.activatedAt = act_at;
        }
        bank.rowOpen = true;
        bank.openRow = p.where.row;
        const sim::Tick data_start =
            std::max(ready_for_data, ch.busFreeAt);
        const sim::Tick done = data_start + cfg_.burst();
        ch.busFreeAt = done;
        bank.readyAt = data_start + cfg_.ccd();
        if (p.req.write)
            bank.readyAt = done + cfg_.wr();
        bank.lastIssue = cmd_start;
        eq_.schedule(done, [req = std::move(p.req)]() mutable {
            req.complete();
        });
    }

    sim::Tick
    applyRefresh(BankState &bank, unsigned rank, sim::Tick when)
    {
        if (!cfg_.enableRefresh)
            return when;
        const sim::Tick phase =
            cfg_.tREFI * rank / std::max(1u, cfg_.ranksPerChannel);
        if (when < phase + cfg_.tREFI)
            return when;
        const sim::Tick window_start =
            (when - phase) / cfg_.tREFI * cfg_.tREFI + phase;
        if (bank.rowOpen && bank.lastIssue < window_start)
            bank.rowOpen = false;
        if (when >= window_start && when < window_start + cfg_.tRFC)
            return window_start + cfg_.tRFC;
        return when;
    }

    sim::EventQueue &eq_;
    DramConfig cfg_;
    DramAddressMapper mapper_;
    std::vector<Channel> channels_;
};

/** Address of (channel, bank, rank, row, column) under the default
 *  mapping (line offset | channel | bank | rank | column | row). */
Addr
composeAddr(const DramConfig &cfg, unsigned chan, unsigned bank,
            unsigned rank, std::uint64_t row, std::uint64_t col)
{
    const std::uint64_t lines_per_row = cfg.rowBytes / cacheLineSize;
    std::uint64_t line = row * lines_per_row + col;
    line = line * cfg.ranksPerChannel + rank;
    line = line * cfg.banksPerRank + bank;
    line = line * cfg.channels + chan;
    return line * cacheLineSize;
}

/**
 * Schedules the same random arrivals on the real controller and the
 * reference, each on its own queue, and requires the same (tick,
 * request) completion history and the same row-buffer outcomes. A few
 * rows and banks per channel keep hits, conflicts and queueing all
 * frequent; the arrival span crosses several refresh windows.
 */
void
fuzzAgainstReference(std::uint32_t seed, const DramConfig &cfg)
{
    sim::EventQueue eq_real;
    sim::EventQueue eq_ref;
    DramController real(eq_real, cfg);
    ReferenceDram ref(eq_ref, cfg);
    std::vector<std::pair<sim::Tick, int>> got;
    std::vector<std::pair<sim::Tick, int>> want;

    std::mt19937_64 rng(seed);
    sim::Tick t = 0;
    for (int id = 0; id < 3000; ++id) {
        switch (rng() % 4) {
          case 0: break;                           // same-tick burst
          case 1: t += rng() % 2000; break;        // back to back
          case 2: t += rng() % 40000; break;       // a few accesses apart
          default: t += rng() % 400000; break;     // queue drains
        }
        const Addr addr = composeAddr(
            cfg, static_cast<unsigned>(rng() % cfg.channels),
            static_cast<unsigned>(rng() % 4),
            static_cast<unsigned>(rng() % cfg.ranksPerChannel),
            rng() % 3, rng() % 8);
        const bool write = rng() % 5 == 0;
        const auto arrive = [t, addr, write, id](
                                sim::EventQueue &eq, MemoryDevice &dev,
                                std::vector<std::pair<sim::Tick, int>>
                                    &history) {
            eq.schedule(t, [&eq, &dev, &history, addr, write, id] {
                MemoryRequest req;
                req.addr = addr;
                req.write = write;
                req.onComplete = [&eq, &history, id] {
                    history.emplace_back(eq.now(), id);
                };
                dev.access(std::move(req));
            });
        };
        arrive(eq_real, real, got);
        arrive(eq_ref, ref, want);
    }
    eq_real.run();
    eq_ref.run();

    ASSERT_EQ(got.size(), 3000u);
    ASSERT_EQ(got, want) << "completion histories diverged (seed " << seed
                         << ")";
    EXPECT_EQ(real.rowHits(), ref.rowHits);
    EXPECT_EQ(real.rowMisses(), ref.rowMisses);
    EXPECT_EQ(real.rowConflicts(), ref.rowConflicts);
}

TEST(DramDifferential, IssueOrderAndCompletionsMatchReference)
{
    const DramConfig cfg;
    for (std::uint32_t seed = 1; seed <= 6; ++seed)
        fuzzAgainstReference(seed, cfg);
}

TEST(DramDifferential, MatchesReferenceWithoutRefresh)
{
    DramConfig cfg;
    cfg.enableRefresh = false;
    for (std::uint32_t seed = 11; seed <= 13; ++seed)
        fuzzAgainstReference(seed, cfg);
}

} // namespace
