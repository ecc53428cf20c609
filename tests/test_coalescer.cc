/**
 * @file
 * Unit tests for the access coalescer, plus a differential fuzz
 * against the original quadratic first-occurrence dedup loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "tlb/coalescer.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::tlb;
using gpuwalk::mem::Addr;

TEST(Coalescer, EmptyInput)
{
    const auto out = coalesce({});
    EXPECT_TRUE(out.pages.empty());
    EXPECT_TRUE(out.lines.empty());
    EXPECT_EQ(out.activeLanes, 0u);
    EXPECT_DOUBLE_EQ(out.pageDivergence(), 0.0);
}

TEST(Coalescer, PerfectlyCoalescedBroadcast)
{
    std::vector<Addr> lanes(64, 0x1234);
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.pages.size(), 1u);
    EXPECT_EQ(out.lines.size(), 1u);
    EXPECT_EQ(out.pages[0], 0x1000u);
    EXPECT_EQ(out.lines[0], 0x1200u);
}

TEST(Coalescer, UnitStrideTouchesFewLines)
{
    // 64 lanes x 4-byte elements = 256 bytes = 4 lines, 1 page.
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 64; ++i)
        lanes.push_back(0x10000 + i * 4);
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.pages.size(), 1u);
    EXPECT_EQ(out.lines.size(), 4u);
}

TEST(Coalescer, PageStrideFullyDiverges)
{
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 64; ++i)
        lanes.push_back(0x100000 + i * 32768); // 32 KB row stride
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.pages.size(), 64u);
    EXPECT_EQ(out.lines.size(), 64u);
    EXPECT_DOUBLE_EQ(out.pageDivergence(), 1.0);
}

TEST(Coalescer, SubPageStridePartiallyCoalesces)
{
    // 1 KB stride: 4 lanes per page.
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 64; ++i)
        lanes.push_back(0x100000 + i * 1024);
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.pages.size(), 16u);
    EXPECT_EQ(out.lines.size(), 64u);
}

TEST(Coalescer, PreservesFirstOccurrenceOrder)
{
    std::vector<Addr> lanes{0x3000, 0x1000, 0x3040, 0x2000};
    const auto out = coalesce(lanes);
    ASSERT_EQ(out.pages.size(), 3u);
    EXPECT_EQ(out.pages[0], 0x3000u);
    EXPECT_EQ(out.pages[1], 0x1000u);
    EXPECT_EQ(out.pages[2], 0x2000u);
}

TEST(Coalescer, LinesAndPagesIndependent)
{
    // Two lines on the same page.
    std::vector<Addr> lanes{0x5000, 0x5040};
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.pages.size(), 1u);
    EXPECT_EQ(out.lines.size(), 2u);
}

TEST(Coalescer, DivergenceMetricPartial)
{
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 32; ++i)
        lanes.push_back(i * mem::pageSize);
    for (Addr i = 0; i < 32; ++i)
        lanes.push_back(i * mem::pageSize); // duplicates
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.activeLanes, 64u);
    EXPECT_EQ(out.pages.size(), 32u);
    EXPECT_DOUBLE_EQ(out.pageDivergence(), 0.5);
}

/** The original O(lanes^2) dedup: std::find over the output so far. */
CoalescedAccess
referenceCoalesce(const std::vector<Addr> &lane_addrs)
{
    CoalescedAccess out;
    out.activeLanes = static_cast<unsigned>(lane_addrs.size());
    for (Addr a : lane_addrs) {
        const Addr page = mem::pageAlign(a);
        if (std::find(out.pages.begin(), out.pages.end(), page)
            == out.pages.end())
            out.pages.push_back(page);
        const Addr line = mem::lineAlign(a);
        if (std::find(out.lines.begin(), out.lines.end(), line)
            == out.lines.end())
            out.lines.push_back(line);
    }
    return out;
}

TEST(CoalescerDifferential, ExactOrderMatchesNaiveLoop)
{
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 4000; ++trial) {
        const std::size_t lanes = 1 + rng() % 64;
        // A small pool of pages and lines makes duplicates common,
        // adjacent and far apart; page 0 and high addresses included.
        const std::size_t pool_pages = 1 + rng() % 16;
        const Addr base = (rng() % 2) ? 0 : (rng() % (Addr(1) << 36)) << 12;
        std::vector<Addr> addrs;
        for (std::size_t i = 0; i < lanes; ++i) {
            if (!addrs.empty() && rng() % 3 == 0) {
                addrs.push_back(addrs[rng() % addrs.size()]
                                + rng() % 8);
            } else {
                addrs.push_back(base + (rng() % pool_pages) * mem::pageSize
                                + rng() % mem::pageSize);
            }
        }
        const CoalescedAccess got = coalesce(addrs);
        const CoalescedAccess want = referenceCoalesce(addrs);
        ASSERT_EQ(got.pages, want.pages) << "trial " << trial;
        ASSERT_EQ(got.lines, want.lines) << "trial " << trial;
        ASSERT_EQ(got.activeLanes, want.activeLanes);
    }
}

TEST(CoalescerDifferential, WideInstructionsBeyondSixtyFourLanes)
{
    // More lanes than any Table II instruction: the dedup table grows.
    std::mt19937_64 rng(11);
    for (std::size_t lanes : {65u, 200u, 1000u}) {
        std::vector<Addr> addrs;
        for (std::size_t i = 0; i < lanes; ++i)
            addrs.push_back((rng() % 300) * 1024);
        const CoalescedAccess got = coalesce(addrs);
        const CoalescedAccess want = referenceCoalesce(addrs);
        EXPECT_EQ(got.pages, want.pages);
        EXPECT_EQ(got.lines, want.lines);
    }
}

} // namespace
