/**
 * @file
 * Unit and property tests for the mem module: geometry mapping, the
 * buddy frame allocator (including its three placement paths and its
 * audited run-granular free), and the lazy backing store.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "audit/auditor.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "mem/backing_store.hh"
#include "mem/bit_tree.hh"
#include "mem/frame_allocator.hh"
#include "mem/geometry.hh"
#include "trace/tracer.hh"

#include "interval_set.hh"

namespace upm::mem {
namespace {

MemGeometry
smallGeometry()
{
    MemGeometryConfig cfg;
    cfg.capacityBytes = 64 * MiB;  // 16384 frames
    return MemGeometry(cfg);
}

TEST(Geometry, CapacityAndFrames)
{
    MemGeometry geom = smallGeometry();
    EXPECT_EQ(geom.capacity(), 64 * MiB);
    EXPECT_EQ(geom.numFrames(), 64 * MiB / kPageSize);
    EXPECT_EQ(geom.numStacks(), 8u);
    EXPECT_EQ(geom.numChannels(), 128u);
}

TEST(Geometry, RejectsBadConfig)
{
    MemGeometryConfig cfg;
    cfg.capacityBytes = kPageSize + 1;
    EXPECT_THROW(MemGeometry{cfg}, SimError);
    cfg = {};
    cfg.numStacks = 0;
    EXPECT_THROW(MemGeometry{cfg}, SimError);
}

TEST(Geometry, StackInterleaveAt4KiB)
{
    MemGeometry geom = smallGeometry();
    // Consecutive frames rotate through the eight stacks.
    for (FrameId f = 0; f < 64; ++f)
        EXPECT_EQ(geom.stackOfFrame(f), f % 8);
}

TEST(Geometry, ChannelSpreadWithinStack)
{
    MemGeometry geom = smallGeometry();
    // Within one page, the 16 channels of its stack each serve 256 B.
    std::set<unsigned> channels;
    for (std::uint64_t off = 0; off < kPageSize; off += 256)
        channels.insert(geom.channelOfFrame(0, off));
    EXPECT_EQ(channels.size(), 16u);
    // All channels of stack 0: ids 0..15.
    EXPECT_LE(*channels.rbegin(), 15u);
}

TEST(Geometry, ContiguousRangeIsBalanced)
{
    MemGeometry geom = smallGeometry();
    std::vector<FrameId> frames;
    for (FrameId f = 100; f < 100 + 800; ++f)
        frames.push_back(f);
    EXPECT_DOUBLE_EQ(geom.balanceOfLoad(geom.stackLoad(frames)), 1.0);
}

TEST(Geometry, SkewedRangeHasLowBalance)
{
    MemGeometry geom = smallGeometry();
    std::vector<FrameId> frames;
    for (FrameId f = 0; f < 800; f += 8)  // all on stack 0
        frames.push_back(f);
    EXPECT_NEAR(geom.balanceOfLoad(geom.stackLoad(frames)), 1.0 / 8.0,
                1e-9);
}

TEST(Geometry, EmptyFrameListIsBalanced)
{
    MemGeometry geom = smallGeometry();
    EXPECT_DOUBLE_EQ(geom.balanceOfLoad(geom.stackLoad({})), 1.0);
}

/** Per-frame reference histogram, the definition stackLoad() must
 *  reproduce. */
std::vector<std::uint64_t>
perFrameLoad(const MemGeometry &geom, const std::vector<FrameId> &frames)
{
    std::vector<std::uint64_t> load(geom.numStacks(), 0);
    for (FrameId f : frames)
        ++load[geom.stackOfFrame(f)];
    return load;
}

TEST(Geometry, StackLoadMatchesPerFrameHistogram)
{
    SplitMix64 rng(0x57ac10adu);
    for (unsigned stacks : {1u, 3u, 6u, 8u}) {
        MemGeometryConfig cfg;
        cfg.numStacks = stacks;
        cfg.capacityBytes = 64 * MiB;
        MemGeometry geom(cfg);
        for (int trial = 0; trial < 64; ++trial) {
            // Consecutive stretches of every length up to a few laps,
            // starting on any stack (so stretches wrap past the last
            // stack), mixed with lone frames and repeats.
            std::vector<FrameId> frames;
            std::size_t stretches = rng.nextBelow(12);
            for (std::size_t i = 0; i < stretches; ++i) {
                FrameId base = rng.nextBelow(geom.numFrames() - 64);
                std::uint64_t len = rng.nextBelow(4 * stacks + 3);
                if (rng.nextBelow(4) == 0 && !frames.empty())
                    base = frames.back() + 1;  // extend the last one
                for (std::uint64_t j = 0; j < len; ++j)
                    frames.push_back(base + j);
            }
            auto load = geom.stackLoad(frames);
            ASSERT_EQ(load, perFrameLoad(geom, frames))
                << stacks << " stacks, trial " << trial;
            std::uint64_t max_load =
                *std::max_element(load.begin(), load.end());
            double want = frames.empty()
                              ? 1.0
                              : static_cast<double>(frames.size()) /
                                    stacks / static_cast<double>(max_load);
            EXPECT_EQ(geom.balanceOfLoad(load), want);

            // No two adjacent frames, so every frame is a lone one:
            // stride-numStacks progressions (the interleaved pool's
            // shape; stride 2 at one stack) or random gaps of two or
            // more.
            std::vector<FrameId> lone;
            FrameId f = rng.nextBelow(64);
            for (int k = 0; k < 1000; ++k) {
                lone.push_back(f);
                f += trial % 2 == 0 ? std::max(2u, stacks)
                                    : 2 + rng.nextBelow(2 * stacks);
            }
            ASSERT_EQ(geom.stackLoad(lone), perFrameLoad(geom, lone))
                << stacks << " stacks, lone trial " << trial;

            // Lone frames alternating with pairs, led by either.
            std::vector<FrameId> mixed;
            f = rng.nextBelow(64);
            for (int k = 0; k < 300; ++k) {
                bool pair = (k + trial) % 2 == 0;
                mixed.push_back(f);
                if (pair)
                    mixed.push_back(f + 1);
                f += (pair ? 3 : 2) + rng.nextBelow(stacks);
            }
            ASSERT_EQ(geom.stackLoad(mixed), perFrameLoad(geom, mixed))
                << stacks << " stacks, mixed trial " << trial;
        }
    }
}

TEST(Geometry, FrameStretchesAreMaximalAndInOrder)
{
    SplitMix64 rng(0x5713e7c4u);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<FrameId> frames;
        std::size_t n = rng.nextBelow(40);
        for (std::size_t i = 0; i < n; ++i) {
            bool extend = !frames.empty() && rng.nextBelow(3) == 0;
            frames.push_back(extend ? frames.back() + 1 : rng.nextBelow(64));
        }
        // The per-frame split: every maximal stretch as (first, len).
        std::vector<std::pair<std::uint64_t, std::uint64_t>> want, got;
        for (std::size_t i = 0; i < n; ++i) {
            if (i > 0 && frames[i] == frames[i - 1] + 1)
                ++want.back().second;
            else
                want.emplace_back(i, 1);
        }
        std::uint64_t next = 0;
        bool last_singles = false;
        forEachFrameStretch(
            frames.data(), n,
            [&](std::uint64_t i, std::uint64_t len) {
                EXPECT_EQ(i, next);
                EXPECT_GE(len, 2u);
                got.emplace_back(i, len);
                next = i + len;
                last_singles = false;
            },
            [&](std::uint64_t i, std::uint64_t count) {
                EXPECT_EQ(i, next);
                EXPECT_GE(count, 1u);
                EXPECT_FALSE(last_singles) << "singles blocks not joined";
                for (std::uint64_t k = i; k < i + count; ++k)
                    got.emplace_back(k, 1);
                next = i + count;
                last_singles = true;
            });
        EXPECT_EQ(got, want) << "trial " << trial;
        got.clear();
        forEachFrameStretch(frames.data(), n,
                            [&](std::uint64_t i, std::uint64_t len) {
                                got.emplace_back(i, len);
                            });
        EXPECT_EQ(got, want) << "trial " << trial;
        if (n != 0) {
            EXPECT_EQ(frameStretchEnd(frames.data(), 0, n), want[0].second);
        }
    }
}

TEST(Geometry, AddRunLoadWrapsFromTheFirstStack)
{
    MemGeometryConfig cfg;
    cfg.numStacks = 6;
    MemGeometry geom(cfg);
    std::vector<std::uint64_t> load(6, 0);
    geom.addRunLoad(4, 9, load);  // stacks 4 5 0 1 2 3 4 5 0
    EXPECT_EQ(load, (std::vector<std::uint64_t>{2, 1, 1, 1, 2, 2}));
    geom.addRunLoad(11, 0, load);
    EXPECT_EQ(load, (std::vector<std::uint64_t>{2, 1, 1, 1, 2, 2}));
}

class FrameAllocatorTest : public ::testing::Test
{
  protected:
    FrameAllocatorTest() : geom(smallGeometry()), alloc(geom) {}

    MemGeometry geom;
    FrameAllocator alloc;
};

TEST_F(FrameAllocatorTest, StartsFullyFree)
{
    EXPECT_EQ(alloc.freeFrames(), geom.numFrames());
}

TEST_F(FrameAllocatorTest, RunAllocationIsContiguous)
{
    auto runs = alloc.allocRun(1000);
    ASSERT_TRUE(runs.has_value());
    std::uint64_t total = 0;
    for (const auto &r : *runs)
        total += r.count;
    EXPECT_EQ(total, 1000u);
    EXPECT_EQ(alloc.freeFrames(), geom.numFrames() - 1000);
    // A fresh allocator satisfies this as a single merged range.
    EXPECT_EQ(runs->size(), 1u);
}

TEST_F(FrameAllocatorTest, RunRoundTrip)
{
    auto runs = alloc.allocRun(12345);
    ASSERT_TRUE(runs.has_value());
    for (const auto &r : *runs)
        EXPECT_TRUE(alloc.freeRange(r));
    EXPECT_EQ(alloc.freeFrames(), geom.numFrames());
    // After full free, large runs are available again (buddy merge).
    auto again = alloc.allocRun(8192);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->size(), 1u);
}

TEST_F(FrameAllocatorTest, ZeroFrameRunIsEmptySuccess)
{
    auto runs = alloc.allocRun(0);
    ASSERT_TRUE(runs.has_value());
    EXPECT_TRUE(runs->empty());
    EXPECT_EQ(alloc.freeFrames(), geom.numFrames());
}

TEST_F(FrameAllocatorTest, ScatteredFramesAreDiscontiguous)
{
    std::vector<FrameId> frames;
    ASSERT_TRUE(alloc.allocScattered(256, frames));
    ASSERT_EQ(frames.size(), 256u);
    // Consecutive handed-out frames must not form physical runs (they
    // are grouped by stack: neighbours differ by the stack stride).
    std::size_t adjacent = 0;
    for (std::size_t i = 1; i < frames.size(); ++i) {
        if (frames[i] == frames[i - 1] + 1)
            ++adjacent;
    }
    EXPECT_LT(adjacent, frames.size() / 8);
}

TEST_F(FrameAllocatorTest, ScatteredConsecutiveFramesClusterPerStack)
{
    std::vector<FrameId> frames;
    ASSERT_TRUE(alloc.allocScattered(64, frames));
    // The on-demand pool hands out stack-grouped frames: a small
    // allocation is strongly biased toward few stacks.
    EXPECT_LT(geom.balanceOfLoad(geom.stackLoad(frames)), 0.5);
}

TEST_F(FrameAllocatorTest, InterleavedFramesAreStackBalanced)
{
    std::vector<FrameId> frames;
    ASSERT_TRUE(alloc.allocInterleaved(256, frames));
    EXPECT_GT(geom.balanceOfLoad(geom.stackLoad(frames)), 0.95);
}

TEST_F(FrameAllocatorTest, InterleavedFramesAreDiscontiguous)
{
    std::vector<FrameId> frames;
    ASSERT_TRUE(alloc.allocInterleaved(256, frames));
    std::size_t adjacent = 0;
    for (std::size_t i = 1; i < frames.size(); ++i) {
        if (frames[i] == frames[i - 1] + 1)
            ++adjacent;
    }
    EXPECT_LT(adjacent, frames.size() / 16);
}

TEST_F(FrameAllocatorTest, BatchAllocatesShortRuns)
{
    std::vector<FrameRange> ranges;
    ASSERT_TRUE(alloc.allocBatch(64, ranges));
    std::uint64_t total = 0;
    for (const auto &r : ranges) {
        EXPECT_LE(r.count, 4u);  // default faultBatchRun
        total += r.count;
    }
    EXPECT_EQ(total, 64u);
}

TEST_F(FrameAllocatorTest, DoubleFreeIsRejected)
{
    std::vector<FrameId> frames;
    ASSERT_TRUE(alloc.allocScattered(1, frames));
    EXPECT_TRUE(alloc.freeFrame(frames[0]));
    std::uint64_t free_before = alloc.freeFrames();
    EXPECT_FALSE(alloc.freeFrame(frames[0]));
    EXPECT_EQ(alloc.freeFrames(), free_before);
}

TEST_F(FrameAllocatorTest, OutOfRangeFreeIsRejected)
{
    EXPECT_FALSE(alloc.freeFrame(geom.numFrames()));
    EXPECT_FALSE(alloc.freeRange({geom.numFrames() - 1, 2}));
    EXPECT_EQ(alloc.freeFrames(), geom.numFrames());
}

TEST_F(FrameAllocatorTest, ExhaustionFailsCleanly)
{
    auto runs = alloc.allocRun(geom.numFrames());
    ASSERT_TRUE(runs.has_value());
    EXPECT_EQ(alloc.freeFrames(), 0u);
    std::vector<FrameId> frames;
    EXPECT_FALSE(alloc.allocScattered(1, frames));
    EXPECT_TRUE(frames.empty());
    EXPECT_FALSE(alloc.allocRun(1).has_value());
}

TEST_F(FrameAllocatorTest, ScatteredRollbackOnPartialExhaustion)
{
    auto runs = alloc.allocRun(geom.numFrames() - 10);
    ASSERT_TRUE(runs.has_value());
    std::vector<FrameId> frames;
    EXPECT_FALSE(alloc.allocScattered(100, frames));
    EXPECT_TRUE(frames.empty());
    EXPECT_EQ(alloc.freeFrames(), 10u);
}

TEST_F(FrameAllocatorTest, PerStackFreeSumsToTotal)
{
    ASSERT_TRUE(alloc.allocRun(5000).has_value());
    auto per_stack = alloc.perStackFree();
    std::uint64_t total = 0;
    for (auto n : per_stack)
        total += n;
    EXPECT_EQ(total, alloc.freeFrames());
}

/** Property sweep: alloc/free cycles never leak or corrupt frames. */
class FrameAllocatorProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FrameAllocatorProperty, MixedWorkloadConservesFrames)
{
    MemGeometry geom = smallGeometry();
    FrameAllocator alloc(geom);
    std::uint64_t n = GetParam();

    auto runs = alloc.allocRun(n);
    ASSERT_TRUE(runs.has_value());
    std::vector<FrameId> scattered, interleaved;
    ASSERT_TRUE(alloc.allocScattered(n / 2 + 1, scattered));
    ASSERT_TRUE(alloc.allocInterleaved(n / 3 + 1, interleaved));

    // No frame handed out twice.
    std::set<FrameId> seen;
    for (const auto &r : *runs) {
        for (std::uint64_t i = 0; i < r.count; ++i)
            EXPECT_TRUE(seen.insert(r.base + i).second);
    }
    for (FrameId f : scattered)
        EXPECT_TRUE(seen.insert(f).second);
    for (FrameId f : interleaved)
        EXPECT_TRUE(seen.insert(f).second);

    for (const auto &r : *runs)
        EXPECT_TRUE(alloc.freeRange(r));
    for (FrameId f : scattered)
        EXPECT_TRUE(alloc.freeFrame(f));
    for (FrameId f : interleaved)
        EXPECT_TRUE(alloc.freeFrame(f));
    EXPECT_EQ(alloc.freeFrames(), geom.numFrames());
}

INSTANTIATE_TEST_SUITE_P(Sizes, FrameAllocatorProperty,
                         ::testing::Values(1, 3, 17, 128, 1000, 4096));

// ---- Audited, run-granular frees -----------------------------------------

audit::AuditConfig
quietFrameAudit()
{
    audit::AuditConfig cfg;
    cfg.enabled = true;
    cfg.warnOnViolation = false;
    return cfg;
}

/** (kind, addr, detail) of every recorded violation, in order. */
std::vector<std::tuple<audit::ViolationKind, std::uint64_t, std::string>>
violationList(const audit::Auditor &aud)
{
    std::vector<
        std::tuple<audit::ViolationKind, std::uint64_t, std::string>>
        out;
    for (const auto &v : aud.violations())
        out.emplace_back(v.kind, v.addr, v.detail);
    return out;
}

/** Frames per geometry: a multiple of 64, and one that is not. */
class AuditedFreeRange : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AuditedFreeRange, HolesReportedOnceGoodFramesFreed)
{
    MemGeometryConfig gcfg;
    gcfg.capacityBytes = GetParam() * kPageSize;
    MemGeometry geom(gcfg);
    const std::uint64_t n = geom.numFrames();
    SplitMix64 rng(0xa0d17ed0u + n);

    for (int trial = 0; trial < 24; ++trial) {
        // run: audited, run-granular freeRange under test.
        // per_page: audited, one freeFrame per frame (the reference
        // for which frames are reported, and in what order).
        // unaudited: frees exactly the good frames, one by one.
        audit::Auditor run_aud(quietFrameAudit());
        audit::Auditor page_aud(quietFrameAudit());
        FrameAllocator run(geom, {}, 0, 0, {.aud = &run_aud});
        FrameAllocator per_page(geom, {}, 0, 0, {.aud = &page_aud});
        FrameAllocator unaudited(geom);
        for (FrameAllocator *a : {&run, &per_page, &unaudited})
            ASSERT_TRUE(a->allocRun(n).has_value());

        // A range that starts and ends off 64-frame word boundaries
        // (the last trials cover the whole space and its tail word).
        FrameId begin = trial >= 22 ? 0 : 1 + rng.nextBelow(n / 2);
        if (trial < 22 && begin % 64 == 0)
            ++begin;
        FrameId end = trial >= 22 ? n : begin + 1 + rng.nextBelow(n - begin);
        if (trial < 22 && end % 64 == 0 && end > begin + 1)
            --end;

        // Double-free holes: lone frames, clusters and both ends.
        std::set<FrameId> holes;
        std::size_t want = rng.nextBelow(40);
        for (std::size_t i = 0; i < want; ++i) {
            FrameId h = begin + rng.nextBelow(end - begin);
            std::uint64_t len = 1 + rng.nextBelow(rng.nextBelow(4) == 0
                                                      ? 24
                                                      : 2);
            for (FrameId f = h; f < std::min(end, h + len); ++f)
                holes.insert(f);
        }
        if (trial % 3 == 0) {
            holes.insert(begin);
            holes.insert(end - 1);
        }
        for (FrameId h : holes) {
            for (FrameAllocator *a : {&run, &per_page, &unaudited})
                ASSERT_TRUE(a->freeFrame(h));
        }

        EXPECT_EQ(run.freeRange({begin, end - begin}), holes.empty());
        for (FrameId f = begin; f < end; ++f) {
            bool ok = per_page.freeFrame(f);
            EXPECT_EQ(ok, holes.count(f) == 0);
            if (holes.count(f) == 0) {
                ASSERT_TRUE(unaudited.freeFrame(f));
            }
        }

        // Each bad frame once, ascending, with the per-page text.
        auto got = violationList(run_aud);
        ASSERT_EQ(got, violationList(page_aud)) << "trial " << trial;
        ASSERT_EQ(got.size(), holes.size());
        auto hole = holes.begin();
        for (const auto &[kind, addr, detail] : got) {
            EXPECT_EQ(kind, audit::ViolationKind::FrameDoubleFree);
            EXPECT_EQ(addr, *hole++);
        }

        // Every good frame freed; buddy state as if freed one by one.
        EXPECT_EQ(run.freeFrames(), end - begin);
        EXPECT_EQ(run.freeListNodes(), unaudited.freeListNodes());
        EXPECT_EQ(run.busyMap(), unaudited.busyMap());
        EXPECT_EQ(run.perStackFree(), unaudited.perStackFree());
        EXPECT_EQ(run.freeListNodes(), per_page.freeListNodes());
        EXPECT_EQ(run.busyMap(), per_page.busyMap());

        // And the free lists hand the same blocks back out.
        auto a = run.allocRun(end - begin);
        auto b = unaudited.allocRun(end - begin);
        ASSERT_TRUE(a.has_value());
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(*a, *b);
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, AuditedFreeRange,
                         ::testing::Values(16384, 1000, 777));

TEST(AuditedFrames, BusyBitDivergenceReportsEveryBusyFrame)
{
    MemGeometryConfig gcfg;
    gcfg.capacityBytes = 1000 * kPageSize;  // 1000 frames: 15.6 words
    MemGeometry geom(gcfg);
    audit::Auditor aud(quietFrameAudit());
    FrameAllocator alloc(geom, {}, 0, 0, {.aud = &aud});

    // Busy bits on free frames, straddling word boundaries, inside
    // the first order-9 block the next allocation takes.
    std::vector<FrameId> seeded = {3, 63, 64, 65, 127, 128, 300, 511};
    for (FrameId f : seeded)
        alloc.seedBusyBits({f, 1}, true);
    alloc.seedBusyBits({200, 70}, true);
    for (FrameId f = 200; f < 270; ++f)
        seeded.push_back(f);
    std::sort(seeded.begin(), seeded.end());

    auto runs = alloc.allocRun(512);
    ASSERT_TRUE(runs.has_value());
    ASSERT_EQ(*runs, (std::vector<FrameRange>{{0, 512}}));
    ASSERT_EQ(aud.countOf(audit::ViolationKind::FrameDoubleAlloc),
              seeded.size());
    for (std::size_t i = 0; i < seeded.size(); ++i) {
        const auto &v = aud.violations()[i];
        EXPECT_EQ(v.kind, audit::ViolationKind::FrameDoubleAlloc);
        EXPECT_EQ(v.addr, seeded[i]);
        EXPECT_EQ(v.detail,
                  strprintf("buddy handed out frame %llu, already busy "
                            "(free-list/busy-bit divergence)",
                            static_cast<unsigned long long>(seeded[i])));
    }
    // The block is busy as a whole afterwards and frees cleanly.
    EXPECT_TRUE(alloc.freeRange({0, 512}));
    EXPECT_EQ(alloc.freeFrames(), geom.numFrames());

    // A cleared bit inside a held block. Unaudited, the one block is
    // rejected whole: shown on a twin replayed into the same state
    // (all frames free again, so a fresh allocator's buddy state).
    runs = alloc.allocRun(8);
    ASSERT_TRUE(runs.has_value());
    FrameId base = runs->front().base;
    alloc.seedBusyBits({base + 2, 3}, false);
    FrameAllocator twin(geom);
    auto twin_runs = twin.allocRun(8);
    ASSERT_TRUE(twin_runs.has_value());
    ASSERT_EQ(*twin_runs, *runs);
    twin.seedBusyBits({base + 2, 3}, false);
    ASSERT_EQ(twin.busyMap(), alloc.busyMap());
    EXPECT_FALSE(twin.freeRange({base, 8}));
    EXPECT_EQ(twin.freeFrames(), geom.numFrames() - 8);
    // Audited, each non-busy frame is reported and skipped.
    std::size_t before = aud.violations().size();
    EXPECT_FALSE(alloc.freeRange({base, 8}));
    ASSERT_EQ(aud.violations().size(), before + 3);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(aud.violations()[before + i].addr, base + 2 + i);
}

// ---------------------------------------------------------------------
// Pool refills and rollbacks against the per-stack scans they replace.
// ---------------------------------------------------------------------

/**
 * The on-demand and per-stack pools as they were filled and drained
 * frame by frame: each refill scans its block once per stack through
 * stackOfFrame. Driven by the PoolRefill blocks the allocator traced,
 * so it predicts the exact frame sequence the pools must hand out.
 * Works on global frame ids (the shard base is stack-aligned).
 */
class PerStackScanModel
{
  public:
    PerStackScanModel(const MemGeometry &geometry, std::uint64_t seed)
        : geom(geometry), rng(seed), stackPools(geometry.numStacks())
    {}

    /** Frames a successful allocScattered(n) hands out. */
    std::vector<FrameId>
    scattered(std::uint64_t n, std::deque<trace::TraceEvent> &refills)
    {
        std::vector<FrameId> out;
        for (std::uint64_t i = 0; i < n; ++i) {
            if (onDemandPool.empty())
                refillOnDemand(nextRefill(refills, 0));
            out.push_back(onDemandPool.front());
            onDemandPool.pop_front();
        }
        return out;
    }

    /** Frames a successful allocInterleaved(n) hands out. */
    std::vector<FrameId>
    interleaved(std::uint64_t n, std::deque<trace::TraceEvent> &refills)
    {
        std::vector<FrameId> out;
        unsigned stacks = geom.numStacks();
        for (std::uint64_t i = 0; i < n; ++i) {
            unsigned tried = 0;
            while (stackPools[nextStack].empty() && tried < stacks) {
                nextStack = (nextStack + 1) % stacks;
                ++tried;
            }
            if (stackPools[nextStack].empty())
                refillStacks(nextRefill(refills, 1));
            unsigned stack = nextStack;
            while (stackPools[stack].empty())
                stack = (stack + 1) % stacks;
            out.push_back(stackPools[stack].front());
            stackPools[stack].pop_front();
            nextStack = (stack + 1) % stacks;
        }
        return out;
    }

  private:
    static trace::TraceEvent
    nextRefill(std::deque<trace::TraceEvent> &refills, std::uint64_t kind)
    {
        if (refills.empty() || refills.front().c != kind)
            ADD_FAILURE() << "model refilled where the allocator did not";
        if (refills.empty())
            return {};
        trace::TraceEvent ev = refills.front();
        refills.pop_front();
        return ev;
    }

    void
    refillOnDemand(const trace::TraceEvent &ev)
    {
        FrameId base = ev.a;
        std::uint64_t n = ev.b;
        unsigned stacks = geom.numStacks();
        unsigned start = static_cast<unsigned>(rng.nextBelow(stacks));
        for (unsigned s = 0; s < stacks; ++s) {
            unsigned stack = (start + s) % stacks;
            for (std::uint64_t i = 0; i < n; ++i) {
                FrameId f = base + i;
                if (geom.stackOfFrame(f) == stack)
                    onDemandPool.push_back(f);
            }
        }
    }

    void
    refillStacks(const trace::TraceEvent &ev)
    {
        FrameId base = ev.a;
        std::uint64_t n = ev.b;
        unsigned stacks = geom.numStacks();
        std::vector<std::vector<FrameId>> collected(stacks);
        for (std::uint64_t i = 0; i < n; ++i) {
            FrameId f = base + i;
            collected[geom.stackOfFrame(f)].push_back(f);
        }
        for (unsigned s = 0; s < stacks; ++s) {
            auto &list = collected[s];
            std::size_t rot = list.empty() ? 0 : s % list.size();
            for (std::size_t i = 0; i < list.size(); ++i)
                stackPools[s].push_back(list[(i + rot) % list.size()]);
        }
    }

    const MemGeometry &geom;
    SplitMix64 rng;
    std::deque<FrameId> onDemandPool;
    std::vector<std::deque<FrameId>> stackPools;
    unsigned nextStack = 0;
};

/** Shard base used by the pool tests: nonzero and aligned to 1, 3
 *  and 8 stacks. */
constexpr FrameId kShardBase = 24 * 1024;

MemGeometry
stackGeometry(unsigned stacks)
{
    MemGeometryConfig cfg;
    cfg.numStacks = stacks;
    cfg.capacityBytes = 16 * MiB;  // 4096 frames: eight order-9 blocks
    return MemGeometry(cfg);
}

/**
 * Fragment @p alloc: take every frame, then free random short ranges
 * (1..6 frames, 1..4 apart) below the top two order-9 blocks and those
 * two whole, so refills take the order-9 blocks first and then fall
 * back through orders 2, 1 and 0.
 */
void
fragment(FrameAllocator &alloc, std::uint64_t seed)
{
    std::uint64_t n = alloc.totalFrames();
    ASSERT_TRUE(alloc.allocRun(n).has_value());
    SplitMix64 rng(seed);
    FrameId top = alloc.baseFrame() + n - 1024;
    for (FrameId f = alloc.baseFrame();;) {
        f += 1 + rng.nextBelow(4);
        std::uint64_t len = 1 + rng.nextBelow(6);
        if (f + len > top)
            break;
        ASSERT_TRUE(alloc.freeRange({f, len}));
        f += len;
    }
    ASSERT_TRUE(alloc.freeRange({top, 1024}));
}

class FramePools : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FramePools, RefillMatchesPerStackScan)
{
    MemGeometry geom = stackGeometry(GetParam());
    trace::Tracer tracer(trace::TraceConfig{.enabled = true});
    FrameAllocatorConfig cfg;
    FrameAllocator alloc(geom, cfg, kShardBase, 0, {.tr = &tracer});
    fragment(alloc, 0x9001 + GetParam());
    tracer.clear();

    PerStackScanModel model(geom, cfg.seed);
    SplitMix64 rng(0x9100 + GetParam());
    // Each pool holds less than one order-9 block, so a request within
    // this budget always succeeds.
    std::uint64_t budget = alloc.freeFrames() - 1100;
    std::uint64_t handed = 0;
    std::uint64_t refills = 0;
    std::uint64_t smallest_refill = ~0ull;
    while (true) {
        std::uint64_t n = 1 + rng.nextBelow(150);
        if (n > budget)
            break;
        budget -= n;
        bool interleaved = rng.nextBelow(2) == 1;
        std::vector<FrameId> got;
        ASSERT_TRUE(interleaved ? alloc.allocInterleaved(n, got)
                                : alloc.allocScattered(n, got));
        std::deque<trace::TraceEvent> pulled;
        for (const auto &ev : tracer.events()) {
            if (ev.kind == trace::EventKind::PoolRefill) {
                pulled.push_back(ev);
                smallest_refill = std::min(smallest_refill, ev.b);
            }
        }
        refills += pulled.size();
        tracer.clear();
        std::vector<FrameId> want = interleaved
                                        ? model.interleaved(n, pulled)
                                        : model.scattered(n, pulled);
        ASSERT_EQ(got, want) << "after " << handed << " frames";
        EXPECT_TRUE(pulled.empty());
        handed += n;
    }
    // The walk drained the whole blocks and fell back to blocks
    // smaller than a stack stride, leaving some stacks no frame.
    EXPECT_GT(refills, 100u);
    EXPECT_LE(smallest_refill, 2u);
    EXPECT_GT(handed, 1024u);
}

TEST_P(FramePools, FailedAllocLeavesStateIntact)
{
    MemGeometry geom = stackGeometry(GetParam());
    for (bool interleaved : {false, true}) {
        FrameAllocator alloc(geom, {}, kShardBase);
        fragment(alloc, 0x9200 + GetParam());
        std::uint64_t free_before = alloc.freeFrames();
        std::uint64_t nodes_before = alloc.freeListNodes();
        auto per_stack_before = alloc.perStackFree();
        auto busy_before = alloc.busyMap();
        std::vector<FrameId> out = {7, 9};
        std::uint64_t n = free_before + 1;
        EXPECT_FALSE(interleaved ? alloc.allocInterleaved(n, out)
                                 : alloc.allocScattered(n, out));
        EXPECT_EQ(out, (std::vector<FrameId>{7, 9}));
        EXPECT_EQ(alloc.freeFrames(), free_before);
        EXPECT_EQ(alloc.freeListNodes(), nodes_before);
        EXPECT_EQ(alloc.perStackFree(), per_stack_before);
        EXPECT_EQ(alloc.busyMap(), busy_before);
    }
}

INSTANTIATE_TEST_SUITE_P(Stacks, FramePools, ::testing::Values(1, 3, 8));

// ---------------------------------------------------------------------
// Frame coalescing against the IntervalSet it replaces.
// ---------------------------------------------------------------------

/** The intervals an IntervalSet of @p frames holds, as ranges. */
std::vector<FrameRange>
intervalSetOf(const std::vector<FrameId> &frames)
{
    test::IntervalSet set;
    for (FrameId f : frames)
        set.insert(f);
    std::vector<FrameRange> out;
    set.forEach([&](std::uint64_t begin, std::uint64_t end) {
        out.push_back({begin, end - begin});
    });
    return out;
}

TEST(FrameStretches, MatchIntervalSetDenseAndSparse)
{
    SplitMix64 rng(0x9300);
    for (int round = 0; round < 64; ++round) {
        // Dense rounds draw from a window a few times the count (the
        // bitmap path), sparse ones from one far wider (the sort path).
        bool dense = round % 2 == 0;
        std::uint64_t n = 1 + rng.nextBelow(300);
        std::uint64_t window = dense ? 2 * n + 70 : 1000 * n;
        FrameId base = rng.nextBelow(1u << 20);
        std::set<FrameId> picked;
        while (picked.size() < n)
            picked.insert(base + rng.nextBelow(window));
        std::vector<FrameId> frames(picked.begin(), picked.end());
        for (std::size_t i = frames.size(); i > 1; --i)
            std::swap(frames[i - 1], frames[rng.nextBelow(i)]);

        std::vector<FrameRange> got = {{1, 1}};  // appended after
        appendFrameStretches(frames.data(), frames.size(), got);
        got.erase(got.begin());
        EXPECT_EQ(got, intervalSetOf(frames)) << "round " << round;
    }
}

TEST(FrameStretches, DuplicateFramePanics)
{
    std::vector<FrameId> dense = {5, 6, 7, 6};
    std::vector<FrameId> sparse = {5, 1u << 30, 9, 1u << 30};
    std::vector<FrameRange> out;
    EXPECT_THROW(appendFrameStretches(dense.data(), dense.size(), out),
                 SimError);
    EXPECT_THROW(appendFrameStretches(sparse.data(), sparse.size(), out),
                 SimError);
    std::vector<FrameRange> overlap = {{10, 4}, {2, 3}, {13, 2}};
    EXPECT_THROW(mergeFrameRanges(overlap), SimError);
    std::vector<FrameRange> touching = {{10, 4}, {2, 3}, {14, 2}, {5, 1}};
    mergeFrameRanges(touching);
    EXPECT_EQ(touching, (std::vector<FrameRange>{{2, 4}, {10, 6}}));
}

// ---------------------------------------------------------------------
// Buddy free lists: the bitmap tree against the IntervalSet it
// replaces, and a buddy state that forgets how it was reached.
// ---------------------------------------------------------------------

/** Equal answers from @p tree and @p model for @p key, its two
 *  neighbours, the lowest key, the size and the interval count. */
void
expectSameSet(const BitTree &tree, const test::IntervalSet &model,
              std::uint64_t key)
{
    for (std::uint64_t probe : {key - 1, key, key + 1})
        ASSERT_EQ(tree.contains(probe), model.contains(probe)) << probe;
    ASSERT_EQ(tree.empty(), model.empty());
    ASSERT_EQ(tree.size(), model.size());
    ASSERT_EQ(tree.intervalCount(), model.intervalCount());
    if (!model.empty()) {
        ASSERT_EQ(tree.first(), model.first());
    }
}

/**
 * Random insert/erase on a BitTree over @p universe keys and on an
 * IntervalSet, compared after every op. @p prefilled starts both from
 * a full prefix of random length, as the allocator's carve does.
 */
void
diffAgainstIntervalSet(std::uint64_t universe, bool prefilled)
{
    SplitMix64 rng(0xb17 + universe + (prefilled ? 1 : 0));
    BitTree tree(universe);
    test::IntervalSet model;
    std::set<std::uint64_t> keys;  // picks a present key to erase
    std::uint64_t last = universe - 1;
    std::uint64_t key = 0;
    if (prefilled) {
        key = rng.nextBelow(universe + 1);
        tree.insertPrefix(key);
        for (std::uint64_t k = 0; k < key; ++k) {
            model.insert(k);
            keys.insert(k);
        }
        ASSERT_NO_FATAL_FAILURE(expectSameSet(tree, model, key));
    }
    for (int step = 0; step < 4000; ++step) {
        // Uniform keys, the last key, and neighbours of the previous
        // key, so runs form and split at every level.
        switch (rng.nextBelow(4)) {
        case 0:
            key = rng.nextBelow(universe);
            break;
        case 1:
            key = last;
            break;
        default:
            key = std::min(last, key + rng.nextBelow(3));
            break;
        }
        bool insert = keys.empty() || rng.nextBelow(5) < 3;
        if (insert && keys.count(key) == 0) {
            tree.insert(key);
            model.insert(key);
            keys.insert(key);
        } else if (!keys.empty()) {
            auto it = keys.lower_bound(key);
            key = it == keys.end() ? *keys.begin() : *it;
            tree.erase(key);
            model.erase(key);
            keys.erase(key);
        }
        ASSERT_NO_FATAL_FAILURE(expectSameSet(tree, model, key));
    }
    // Drain from the bottom: first() must walk every level down.
    for (int step = 0; step < 4000 && !keys.empty(); ++step) {
        key = tree.first();
        ASSERT_EQ(key, *keys.begin());
        tree.erase(key);
        model.erase(key);
        keys.erase(key);
        ASSERT_NO_FATAL_FAILURE(expectSameSet(tree, model, key));
    }
}

TEST(BitTree, MatchesIntervalSetAcrossUniverses)
{
    for (std::uint64_t universe :
         {1ull, 63ull, 64ull, 65ull, 4097ull, (1ull << 18) + 5}) {
        for (bool prefilled : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << universe << " keys, prefilled " << prefilled);
            diffAgainstIntervalSet(universe, prefilled);
        }
    }
}

TEST(BitTree, DuplicateInsertAndAbsentErasePanic)
{
    BitTree tree(4097);
    EXPECT_THROW(tree.first(), SimError);
    EXPECT_THROW(tree.erase(4096), SimError);  // no level grown yet
    tree.insert(4096);
    tree.insert(5);
    EXPECT_THROW(tree.insert(4096), SimError);
    EXPECT_THROW(tree.insert(5), SimError);
    EXPECT_THROW(tree.insert(4097), SimError);  // past the bound
    EXPECT_THROW(tree.erase(6), SimError);      // grown, bit clear
    EXPECT_THROW(tree.erase(70000), SimError);  // past every level
    EXPECT_EQ(tree.size(), 2u);
    EXPECT_EQ(tree.first(), 5u);
    tree.erase(5);
    EXPECT_EQ(tree.first(), 4096u);
    EXPECT_THROW(tree.erase(5), SimError);
    EXPECT_THROW(tree.insertPrefix(3), SimError);  // not empty
    EXPECT_THROW(BitTree(64).insertPrefix(65), SimError);
}

/** BuddySplit events (block, order) in emission order, then cleared. */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
takeSplits(trace::Tracer &tracer)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (const auto &ev : tracer.events()) {
        if (ev.kind == trace::EventKind::BuddySplit)
            out.emplace_back(ev.a, ev.b);
    }
    tracer.clear();
    return out;
}

TEST(Buddy, FreeListsDependOnlyOnFreeSet)
{
    for (unsigned stacks : {1u, 3u, 8u}) {
        SCOPED_TRACE(stacks);
        MemGeometryConfig geom_cfg;
        geom_cfg.numStacks = stacks;
        // 4429 frames: eight order-9 blocks and a tail of orders
        // 8, 6, 3, 2 and 0.
        geom_cfg.capacityBytes = 4429 * kPageSize;
        MemGeometry geom(geom_cfg);
        std::uint64_t n = geom.numFrames();
        trace::Tracer trace_a(trace::TraceConfig{.enabled = true});
        trace::Tracer trace_b(trace::TraceConfig{.enabled = true});
        FrameAllocator a(geom, {}, kShardBase, 0, {.tr = &trace_a});
        FrameAllocator b(geom, {}, kShardBase, 0, {.tr = &trace_b});
        SplitMix64 rng(0xb0d + stacks);

        // The free set: alternating free and held stretches of 1..40
        // frames, the tail included.
        std::vector<FrameRange> free_set;
        for (FrameId f = 0; f < n;) {
            std::uint64_t len = std::min<std::uint64_t>(
                n - f, 1 + rng.nextBelow(40));
            if (rng.nextBelow(2) == 0)
                free_set.push_back({kShardBase + f, len});
            f += len;
        }

        // A takes every frame in one run and frees the set as ranges.
        ASSERT_TRUE(a.allocRun(n).has_value());
        for (const FrameRange &r : free_set)
            ASSERT_TRUE(a.freeRange(r));

        // B churns first, so its blocks split elsewhere, then takes
        // what is left and frees the set one frame at a time, in a
        // shuffled order.
        std::vector<FrameRange> held;
        for (int i = 0; i < 60; ++i) {
            std::uint64_t want = 1 + rng.nextBelow(200);
            if (rng.nextBelow(2) == 0) {
                auto runs = b.allocRun(want);
                ASSERT_TRUE(runs.has_value());
                held.insert(held.end(), runs->begin(), runs->end());
            } else {
                ASSERT_TRUE(b.allocBatch(want, held));
            }
            for (std::size_t j = held.size(); j > 0; --j) {
                if (rng.nextBelow(3) == 0) {
                    ASSERT_TRUE(b.freeRange(held[j - 1]));
                    held.erase(held.begin() + j - 1);
                }
            }
        }
        ASSERT_TRUE(b.allocRun(b.freeFrames()).has_value());
        std::vector<FrameId> frames;
        for (const FrameRange &r : free_set) {
            for (FrameId f = r.base; f < r.base + r.count; ++f)
                frames.push_back(f);
        }
        for (std::size_t i = frames.size(); i > 1; --i)
            std::swap(frames[i - 1], frames[rng.nextBelow(i)]);
        for (FrameId f : frames)
            ASSERT_TRUE(b.freeFrame(f));

        EXPECT_EQ(a.freeFrames(), frames.size());
        EXPECT_EQ(b.freeFrames(), frames.size());
        EXPECT_EQ(a.freeListNodes(), b.freeListNodes());
        EXPECT_EQ(a.perStackFree(), b.perStackFree());
        EXPECT_EQ(a.busyMap(), b.busyMap());

        // From here both must hand out the same blocks, split the same
        // blocks, and run out at the same call.
        trace_a.clear();
        trace_b.clear();
        int failures = 0;
        for (int i = 0; i < 200; ++i) {
            std::uint64_t want = 1 + rng.nextBelow(48);
            if (rng.nextBelow(2) == 0) {
                auto got_a = a.allocRun(want);
                auto got_b = b.allocRun(want);
                ASSERT_EQ(got_a, got_b) << "call " << i;
                failures += got_a.has_value() ? 0 : 1;
            } else {
                std::vector<FrameRange> got_a;
                std::vector<FrameRange> got_b;
                bool ok_a = a.allocBatch(want, got_a);
                ASSERT_EQ(ok_a, b.allocBatch(want, got_b)) << "call " << i;
                ASSERT_EQ(got_a, got_b) << "call " << i;
                failures += ok_a ? 0 : 1;
            }
            ASSERT_EQ(takeSplits(trace_a), takeSplits(trace_b))
                << "call " << i;
        }
        EXPECT_EQ(a.freeListNodes(), b.freeListNodes());
        EXPECT_GT(failures, 0);  // the walk reached exhaustion
    }
}

TEST(Buddy, FallBackTakesTheLargestFreeOrderBelow)
{
    // Free {0}, {2, 3} and {6, 7} of 16 frames: blocks of orders 0, 1
    // and 1, nothing of order 2 or above. A request for an order-2
    // block must take the order-1 blocks, lowest first, and never the
    // order-0 block while a larger one is free.
    MemGeometryConfig geom_cfg;
    geom_cfg.capacityBytes = 16 * kPageSize;
    MemGeometry geom(geom_cfg);
    trace::Tracer tracer(trace::TraceConfig{.enabled = true});
    auto fragmented = [&] {
        auto alloc = std::make_unique<FrameAllocator>(
            geom, FrameAllocatorConfig{}, 0, 0, Hooks{.tr = &tracer});
        EXPECT_TRUE(alloc->allocRun(16).has_value());
        for (FrameRange r : {FrameRange{0, 1}, FrameRange{2, 2},
                             FrameRange{6, 2}})
            EXPECT_TRUE(alloc->freeRange(r));
        tracer.clear();
        return alloc;
    };
    auto run_alloc = fragmented();
    EXPECT_EQ(run_alloc->allocRun(4),
              (std::vector<FrameRange>{{2, 2}, {6, 2}}));
    auto batch_alloc = fragmented();
    std::vector<FrameRange> batch;
    ASSERT_TRUE(batch_alloc->allocBatch(4, batch));
    EXPECT_EQ(batch, (std::vector<FrameRange>{{2, 2}, {6, 2}}));
    auto pool_alloc = fragmented();
    std::vector<FrameId> scattered;
    ASSERT_TRUE(pool_alloc->allocScattered(1, scattered));
    std::vector<std::pair<std::uint64_t, std::uint64_t>> refills;
    for (const auto &ev : tracer.events()) {
        if (ev.kind == trace::EventKind::PoolRefill)
            refills.emplace_back(ev.a, ev.b);
    }
    EXPECT_EQ(refills, (std::vector<std::pair<std::uint64_t,
                                              std::uint64_t>>{{2, 2}}));
}

TEST(BackingStore, AttachAndAccess)
{
    BackingStore store;
    store.attach(0x1000, 4096);
    EXPECT_TRUE(store.contains(0x1000));
    EXPECT_TRUE(store.contains(0x1fff));
    EXPECT_FALSE(store.contains(0x2000));
    auto *p = store.hostPtr(0x1200, 16);
    ASSERT_NE(p, nullptr);
    p[0] = 42;
    EXPECT_EQ(store.hostPtr(0x1200)[0], 42);
}

TEST(BackingStore, LazyAllocationZeroInitializes)
{
    BackingStore store;
    store.attach(0x8000, 4096);
    EXPECT_EQ(store.hostPtr(0x8000, 4096)[4095], 0);
}

TEST(BackingStore, OverlapPanics)
{
    BackingStore store;
    store.attach(0x1000, 4096);
    EXPECT_THROW(store.attach(0x1800, 4096), SimError);
    EXPECT_THROW(store.attach(0x0800, 4096), SimError);
}

TEST(BackingStore, OverrunPanics)
{
    BackingStore store;
    store.attach(0x1000, 4096);
    EXPECT_THROW(store.hostPtr(0x1ff0, 32), SimError);
    EXPECT_THROW(store.hostPtr(0x3000, 1), SimError);
}

TEST(BackingStore, DetachReleasesRange)
{
    BackingStore store;
    store.attach(0x1000, 4096);
    store.detach(0x1000);
    EXPECT_FALSE(store.contains(0x1000));
    EXPECT_THROW(store.detach(0x1000), SimError);
    store.attach(0x1000, 8192);  // range reusable
    EXPECT_EQ(store.totalBytes(), 8192u);
}

TEST(BackingStore, TypedAccess)
{
    BackingStore store;
    store.attach(0x4000, 4096);
    auto *words = store.hostPtrAs<std::uint64_t>(0x4000, 512);
    words[511] = 0xdeadbeef;
    EXPECT_EQ(store.hostPtrAs<std::uint64_t>(0x4000, 512)[511],
              0xdeadbeefull);
    EXPECT_THROW(store.hostPtrAs<std::uint64_t>(0x4000, 513), SimError);
}

} // namespace
} // namespace upm::mem
