/**
 * @file
 * google-benchmark micro-benchmarks of the building blocks on the
 * simulator's hot paths: event queue throughput, TLB lookups, PWC
 * probes, coalescing, and — most relevantly to the paper's "design
 * subtleties" discussion — the cost of the SIMT-aware scheduler's
 * buffer scans at various occupancies (§IV argues the scan is off the
 * critical path; these numbers quantify it).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fcfs_scheduler.hh"
#include "core/simt_aware_scheduler.hh"
#include "core/srpt_scheduler.hh"
#include "iommu/page_walk_cache.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/dram_controller.hh"
#include "vm/page_table.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "tlb/coalescer.hh"
#include "tlb/set_assoc_tlb.hh"

namespace {

using namespace gpuwalk;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(static_cast<sim::Tick>(i), [] {});
        eq.run();
        benchmark::DoNotOptimize(eq.executed());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_TlbLookupHit(benchmark::State &state)
{
    tlb::SetAssocTlb tlb({"bench", 512, 16});
    for (std::uint64_t i = 0; i < 512; ++i)
        tlb.insert(i << 12, i << 12);
    std::uint64_t vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup((vpn++ % 512) << 12));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupHit);

void
BM_TlbLookupMiss(benchmark::State &state)
{
    tlb::SetAssocTlb tlb({"bench", 512, 16});
    std::uint64_t vpn = 1 << 20;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup((vpn++) << 12));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupMiss);

void
BM_PwcProbe(benchmark::State &state)
{
    iommu::PageWalkCache pwc({}, 0x1000);
    for (mem::Addr r = 0; r < 8; ++r)
        pwc.fill(r << 21, vm::PtLevel::Pd, 0x4000);
    mem::Addr va = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pwc.probeEstimate((va++ % 16) << 21));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PwcProbe);

void
BM_Coalesce64Divergent(benchmark::State &state)
{
    std::vector<mem::Addr> lanes;
    for (mem::Addr i = 0; i < 64; ++i)
        lanes.push_back(i * 32768);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb::coalesce(lanes));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Coalesce64Divergent);

void
BM_Coalesce64Coalesced(benchmark::State &state)
{
    std::vector<mem::Addr> lanes;
    for (mem::Addr i = 0; i < 64; ++i)
        lanes.push_back(0x1000 + i * 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb::coalesce(lanes));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Coalesce64Coalesced);

core::WalkBuffer
filledBuffer(std::size_t n)
{
    core::WalkBuffer buf(n);
    for (std::size_t i = 0; i < n; ++i) {
        core::PendingWalk w;
        w.seq = i;
        w.request.instruction = i / 8;
        w.score = (i * 7) % 97 + 1;
        buf.insert(std::move(w));
    }
    return buf;
}

void
BM_FcfsSelect(benchmark::State &state)
{
    auto buf = filledBuffer(static_cast<std::size_t>(state.range(0)));
    core::FcfsScheduler sched;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched.selectNext(buf));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FcfsSelect)->Arg(64)->Arg(256)->Arg(512);

void
BM_SimtAwareSelect(benchmark::State &state)
{
    auto buf = filledBuffer(static_cast<std::size_t>(state.range(0)));
    core::SimtAwareScheduler sched;
    // Prime the batching register.
    core::PendingWalk primer;
    primer.request.instruction = 1;
    sched.onDispatch(buf, primer);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched.selectNext(buf));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimtAwareSelect)->Arg(64)->Arg(256)->Arg(512);

void
BM_SimtAwareDispatchAging(benchmark::State &state)
{
    auto buf = filledBuffer(static_cast<std::size_t>(state.range(0)));
    core::SimtAwareScheduler sched;
    core::PendingWalk w;
    w.seq = 1u << 30; // younger than everything: ages all entries
    for (auto _ : state) {
        sched.onDispatch(buf, w);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimtAwareDispatchAging)->Arg(64)->Arg(256)->Arg(512);

void
BM_DramDecode(benchmark::State &state)
{
    mem::DramConfig cfg;
    mem::DramAddressMapper mapper(cfg);
    mem::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.decode(addr));
        addr += 4096 + 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramDecode);

/** Completes every access after a fixed delay (a memory below the
 *  cache that models nothing). */
class FixedLatencyMemory final : public mem::MemoryDevice
{
  public:
    explicit FixedLatencyMemory(sim::EventQueue &eq) : eq_(eq) {}

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

/**
 * One streaming miss through the Table I L2 data cache (4 MB, 16-way):
 * tag check, MSHR allocation, fill, LRU victim scan, install and the
 * waiter's completion, events included. The cache is pre-filled so
 * every measured miss also evicts. The CI perf-smoke gate reads it.
 */
void
BM_CacheAccessMiss(benchmark::State &state)
{
    sim::EventQueue eq;
    FixedLatencyMemory below(eq);
    const mem::CacheConfig cfg{"l2d", 4 * 1024 * 1024, 16,
                               mem::cacheLineSize, 16 * 500, 4 * 500};
    mem::Cache cache(eq, cfg, below);
    mem::Addr addr = 0;
    const auto access = [&] {
        mem::MemoryRequest req;
        req.addr = addr;
        addr += mem::cacheLineSize;
        cache.access(std::move(req));
        eq.run();
    };
    for (mem::Addr i = 0; i < cfg.sizeBytes / mem::cacheLineSize; ++i)
        access();
    for (auto _ : state)
        access();
    benchmark::DoNotOptimize(cache.evictions());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessMiss);

/**
 * FR-FCFS scheduling at a steady queue depth of 16 requests per
 * channel: each completion enqueues a replacement, so every arrival
 * and every drain scans a 16-deep queue. Addresses cycle over a few
 * rows of a few banks, mixing row hits and conflicts. One iteration is
 * one completed request. The CI perf-smoke gate reads it.
 */
void
BM_DramScheduleQ16(benchmark::State &state)
{
    sim::EventQueue eq;
    const mem::DramConfig cfg;
    mem::DramController dram(eq, cfg);
    std::uint64_t lcg = 1;
    std::uint64_t completed = 0;
    const unsigned banks = cfg.ranksPerChannel * cfg.banksPerRank;
    std::function<void(unsigned)> issue = [&](unsigned chan) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        // Line bits: channel | bank | rank | column | row.
        const mem::Addr line = ((lcg >> 33) % (banks * 4)) * cfg.channels
                               + chan;
        const mem::Addr row = (lcg >> 20) % 4;
        mem::MemoryRequest req;
        req.addr = line * mem::cacheLineSize
                   + row * cfg.rowBytes * cfg.totalBanks();
        req.onComplete = [&, chan] {
            ++completed;
            issue(chan);
        };
        dram.access(std::move(req));
    };
    for (unsigned chan = 0; chan < cfg.channels; ++chan) {
        for (unsigned i = 0; i < 16; ++i)
            issue(chan);
    }
    for (auto _ : state) {
        const std::uint64_t target = completed + 1;
        while (completed < target)
            eq.runOne();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramScheduleQ16);

/**
 * Dispatch with one pending event re-armed far ahead inside the bucket
 * window — 40,000 ticks (80 GPU cycles), the distance of a DRAM
 * completion behind a queue — so each next-tick search crosses ~600
 * empty occupancy words. The CI perf-smoke gate reads it.
 */
void
BM_EventQueueSparse(benchmark::State &state)
{
    struct Rearm final : sim::Event
    {
        void process() override { eq->scheduleIn(40000, *this); }
        sim::EventQueue *eq = nullptr;
    };
    sim::EventQueue eq;
    Rearm ev;
    ev.eq = &eq;
    eq.schedule(0, ev);
    for (auto _ : state)
        eq.runOne();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSparse);

void
BM_PageTableMap(benchmark::State &state)
{
    mem::BackingStore store;
    vm::FrameAllocator frames(mem::Addr(32) << 30);
    vm::PageTable table(store, frames);
    mem::Addr va = mem::Addr(1) << 32;
    for (auto _ : state) {
        table.map(va, frames.allocateFrame());
        va += mem::pageSize;
    }
    state.SetItemsProcessed(state.iterations());
}
// Each iteration consumes a frame; cap iterations so adaptive timing
// can't exhaust the 32 GB allocator on fast hosts.
BENCHMARK(BM_PageTableMap)->Iterations(1 << 20);

void
BM_PageTableTranslate(benchmark::State &state)
{
    mem::BackingStore store;
    vm::FrameAllocator frames(mem::Addr(4) << 30);
    vm::PageTable table(store, frames);
    for (mem::Addr i = 0; i < 4096; ++i)
        table.map((mem::Addr(1) << 32) + i * mem::pageSize,
                  frames.allocateFrame());
    mem::Addr va = mem::Addr(1) << 32;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.translate(va));
        va = (mem::Addr(1) << 32)
             + (va + mem::pageSize) % (4096 * mem::pageSize);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableTranslate);

void
BM_BackingStoreRead64(benchmark::State &state)
{
    mem::BackingStore store;
    for (mem::Addr a = 0; a < (1 << 22); a += mem::pageSize)
        store.write64(a, a);
    mem::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(store.read64(addr));
        addr = (addr + mem::pageSize) % (1 << 22);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackingStoreRead64);

/** Streaming fills of distinct pages: after warm-up every insert
 *  evicts. Arguments are entries and associativity; 512/16 is the GPU
 *  L2 TLB, 32/32 the fully associative GPU L1 and IOMMU L1 TLBs. The
 *  CI perf-smoke gate reads the 32/32 row. */
void
BM_TlbInsertEvict(benchmark::State &state)
{
    const auto entries = static_cast<unsigned>(state.range(0));
    const auto ways = static_cast<unsigned>(state.range(1));
    tlb::SetAssocTlb tlb({"bench", entries, ways});
    std::uint64_t vpn = 0;
    for (auto _ : state) {
        tlb.insert(vpn << 12, (vpn + 1) << 12);
        ++vpn;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbInsertEvict)
    ->ArgNames({"entries", "ways"})
    ->Args({512, 16})
    ->Args({32, 32});

/**
 * The paper-policy pick cost at a given buffer occupancy, for each of
 * the schedulers whose selection the pick indexes accelerate. The
 * batching register is primed so the Batch rule (the most common pick
 * in steady state) is on the measured path; Fcfs measures the
 * oldest-entry query. BENCH_hotpath.json and the CI perf-smoke gate
 * read the sched:4 (simt-aware) occ:256 row.
 */
void
BM_SchedulerSelectNext(benchmark::State &state)
{
    const auto kind = static_cast<core::SchedulerKind>(state.range(0));
    auto buf = filledBuffer(static_cast<std::size_t>(state.range(1)));
    auto sched = core::makeScheduler(kind);
    core::PendingWalk primer;
    primer.request.instruction = 1;
    sched->onDispatch(buf, primer);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched->selectNext(buf));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerSelectNext)
    ->ArgNames({"sched", "occ"})
    ->ArgsProduct({{static_cast<long>(core::SchedulerKind::Fcfs),
                    static_cast<long>(core::SchedulerKind::SjfOnly),
                    static_cast<long>(core::SchedulerKind::BatchOnly),
                    static_cast<long>(core::SchedulerKind::SimtAware)},
                   {8, 64, 256}});

/** Shared driver for the hash-map lookup benches: n pseudo-random
 *  keys inserted once, then round-robin point lookups (all hits). */
template <typename Map>
void
mapLookupBench(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Map map;
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.push_back(x);
        map[x] = i;
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.find(keys[i]));
        i = (i + 1 == n) ? 0 : i + 1;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_UnorderedMapLookup(benchmark::State &state)
{
    mapLookupBench<std::unordered_map<std::uint64_t, std::uint64_t>>(
        state);
}
BENCHMARK(BM_UnorderedMapLookup)->Arg(256)->Arg(4096)->Arg(65536);

void
BM_FlatMapLookup(benchmark::State &state)
{
    mapLookupBench<sim::FlatMap<std::uint64_t, std::uint64_t>>(state);
}
BENCHMARK(BM_FlatMapLookup)->Arg(256)->Arg(4096)->Arg(65536);

void
BM_SrptSelect(benchmark::State &state)
{
    auto buf = filledBuffer(static_cast<std::size_t>(state.range(0)));
    core::SrptScheduler sched(false);
    sched.setEstimator([](mem::Addr va, tlb::ContextId) -> unsigned {
        return 1 + (va >> 12) % 4;
    });
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched.selectNext(buf));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SrptSelect)->Arg(64)->Arg(256)->Arg(512);

} // namespace

/**
 * Custom main so this binary speaks the same CLI dialect as the other
 * benches: --json maps onto google-benchmark's JSON reporter, --jobs
 * is accepted and ignored (micro-benchmarks are single-threaded by
 * design). Everything else passes through to the library.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> passthrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            const std::string prefix = std::string(flag) + "=";
            if (arg.rfind(prefix, 0) == 0)
                return arg.substr(prefix.size());
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
            (void)value("--jobs");
        } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
            passthrough.push_back("--benchmark_out="
                                  + value("--json"));
            passthrough.push_back("--benchmark_out_format=json");
        } else {
            passthrough.push_back(arg);
        }
    }

    std::vector<char *> args;
    for (auto &s : passthrough)
        args.push_back(s.data());
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
