/**
 * @file
 * Extent-coalescing semantics of the VM structures: merge on adjacent
 * insert, split on mid-run remove/setFlags, flag-boundary non-merge,
 * and randomized parity of the extent-coalesced page tables against
 * per-page reference models (the representation the extent maps
 * replaced), plus the IntervalSet reference model the buddy tests
 * check against.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "exec/task_pool.hh"
#include "gpu_table_util.hh"
#include "interval_set.hh"
#include "vm/gpu_page_table.hh"
#include "vm/page_table.hh"

using namespace upm;
using vm::PteFlags;
using vm::Vpn;

namespace {

PteFlags
pinnedFlags()
{
    PteFlags flags;
    flags.pinned = true;
    return flags;
}

} // namespace

TEST(SystemExtents, AdjacentInsertsMergeIntoOneRun)
{
    vm::SystemPageTable pt;
    pt.insertRange(100, 4, 40);
    EXPECT_EQ(pt.runCount(), 1u);
    pt.insertRange(104, 1, 44);    // contiguous above
    pt.insertRange(96, 4, 36);     // contiguous below
    EXPECT_EQ(pt.runCount(), 1u);
    EXPECT_EQ(pt.presentCount(), 9u);
    auto run = test::runOf(pt, 100);
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(run->vpn, 96u);
    EXPECT_EQ(run->len, 9u);
    EXPECT_EQ(run->frame, 36u);
}

TEST(SystemExtents, DiscontiguousFramesDoNotMerge)
{
    vm::SystemPageTable pt;
    pt.insertRange(10, 1, 100);
    pt.insertRange(11, 1, 200);  // virtually adjacent, physically not
    EXPECT_EQ(pt.runCount(), 2u);
    EXPECT_EQ(pt.lookup(10)->frame, 100u);
    EXPECT_EQ(pt.lookup(11)->frame, 200u);
}

TEST(SystemExtents, FlagBoundaryPreventsMerge)
{
    vm::SystemPageTable pt;
    pt.insertRange(0, 4, 0);
    pt.insertRange(4, 4, 4, pinnedFlags());
    EXPECT_EQ(pt.runCount(), 2u);
    EXPECT_EQ(pt.presentCount(), 8u);
    // Aligning the flags re-merges through setFlagsRange.
    pt.setFlagsRange(4, 8, PteFlags{});
    EXPECT_EQ(pt.runCount(), 1u);
    EXPECT_EQ(test::runOf(pt, 7)->len, 8u);
}

TEST(SystemExtents, MidRunRemoveSplits)
{
    vm::SystemPageTable pt;
    pt.insertRange(0, 8, 100);
    std::vector<mem::FrameId> freed;
    pt.removeRange(3, 4, [&](const vm::PteRun &cut) {
        freed.push_back(cut.frame);
    });
    ASSERT_EQ(freed.size(), 1u);
    EXPECT_EQ(freed[0], 103u);
    EXPECT_EQ(pt.runCount(), 2u);
    EXPECT_FALSE(pt.present(3));
    EXPECT_EQ(test::runOf(pt, 0)->len, 3u);
    EXPECT_EQ(test::runOf(pt, 4)->len, 4u);
    EXPECT_EQ(test::runOf(pt, 4)->frame, 104u);
    EXPECT_EQ(pt.presentCount(), 7u);
}

TEST(SystemExtents, MidRunSetFlagsSplitsAndRemerges)
{
    vm::SystemPageTable pt;
    pt.insertRange(0, 8, 100);
    pt.setFlagsRange(2, 5, pinnedFlags());
    EXPECT_EQ(pt.runCount(), 3u);
    EXPECT_TRUE(pt.lookup(3)->flags.pinned);
    EXPECT_FALSE(pt.lookup(1)->flags.pinned);
    EXPECT_FALSE(pt.lookup(5)->flags.pinned);
    pt.setFlagsRange(2, 5, PteFlags{});
    EXPECT_EQ(pt.runCount(), 1u);
    EXPECT_EQ(test::runOf(pt, 0)->len, 8u);
}

TEST(SystemExtents, RemoveRangeReportsFreedSubRuns)
{
    vm::SystemPageTable pt;
    pt.insertRange(0, 4, 100);
    pt.insertRange(8, 4, 200);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> freed;
    std::uint64_t removed =
        pt.removeRange(2, 10, [&](const vm::PteRun &cut) {
            freed.emplace_back(cut.frame, cut.len);
        });
    EXPECT_EQ(removed, 4u);
    ASSERT_EQ(freed.size(), 2u);
    EXPECT_EQ(freed[0], std::make_pair(std::uint64_t{102}, std::uint64_t{2}));
    EXPECT_EQ(freed[1], std::make_pair(std::uint64_t{200}, std::uint64_t{2}));
    EXPECT_EQ(pt.presentCount(), 4u);
    EXPECT_EQ(pt.runCount(), 2u);
}

TEST(SystemExtents, InsertFramesDetectsStride)
{
    vm::SystemPageTable pt;
    std::vector<mem::FrameId> contiguous = {100, 101, 102, 103};
    pt.insertFrames(0, std::move(contiguous));
    // A frame-contiguous batch degenerates to a strided run and still
    // merges with strided neighbours.
    pt.insertRange(4, 4, 104);
    EXPECT_EQ(pt.runCount(), 1u);
    EXPECT_EQ(test::runOf(pt, 0)->len, 8u);
    EXPECT_EQ(test::runOf(pt, 0)->scatter, nullptr);
    // An empty batch maps nothing; one that breaks stride only at its
    // last frame stays a scatter run.
    pt.insertFrames(20, std::vector<mem::FrameId>{});
    EXPECT_EQ(pt.runCount(), 1u);
    pt.insertFrames(20, std::vector<mem::FrameId>{200, 201, 203});
    EXPECT_NE(test::runOf(pt, 20)->scatter, nullptr);
}

TEST(SystemExtents, ScatterRunSplitsOnRemove)
{
    vm::SystemPageTable pt;
    std::vector<mem::FrameId> frames = {7, 3, 9, 1, 8, 2};
    pt.insertFrames(10, std::vector<mem::FrameId>(frames));
    EXPECT_EQ(pt.runCount(), 1u);
    for (std::size_t i = 0; i < frames.size(); ++i)
        EXPECT_EQ(pt.lookup(10 + i)->frame, frames[i]);

    std::vector<std::pair<Vpn, mem::FrameId>> cuts;
    pt.removeRange(12, 14, [&](const vm::PteRun &cut) {
        for (Vpn v = cut.vpn; v < cut.end(); ++v)
            cuts.emplace_back(v, cut.frameOf(v));
    });
    ASSERT_EQ(cuts.size(), 2u);
    EXPECT_EQ(cuts[0], std::make_pair(Vpn{12}, mem::FrameId{9}));
    EXPECT_EQ(cuts[1], std::make_pair(Vpn{13}, mem::FrameId{1}));
    EXPECT_EQ(pt.runCount(), 2u);
    EXPECT_EQ(pt.lookup(11)->frame, 3u);
    EXPECT_EQ(pt.lookup(14)->frame, 8u);
    EXPECT_FALSE(pt.present(12));

    // A scatter run never merges with a strided neighbour, but the
    // per-page values stay exact through setFlagsRange splits.
    pt.setFlagsRange(14, 16, pinnedFlags());
    EXPECT_TRUE(pt.lookup(15)->flags.pinned);
    EXPECT_EQ(pt.lookup(15)->frame, 2u);
}

TEST(SystemExtents, ScatterRunsNeverJoin)
{
    // Each scatter run's first frame continues its strided neighbour's
    // stride, yet neither side may absorb the other: a strided run
    // cannot describe the scatter pages, and a scatter vector cannot
    // describe the strided ones.
    vm::SystemPageTable pt;
    pt.insertRange(0, 4, 100);
    pt.insertFrames(4, std::vector<mem::FrameId>{104, 7, 9});
    pt.insertFrames(10, std::vector<mem::FrameId>{50, 3});
    pt.insertRange(12, 2, 52);
    EXPECT_EQ(pt.runCount(), 4u);
    EXPECT_EQ(pt.lookup(3)->frame, 103u);
    EXPECT_EQ(pt.lookup(5)->frame, 7u);
    EXPECT_EQ(pt.lookup(11)->frame, 3u);
    EXPECT_EQ(pt.lookup(13)->frame, 53u);
    // Re-joining after a flag update must not merge them either.
    pt.setFlagsRange(0, 14, pinnedFlags());
    EXPECT_EQ(pt.runCount(), 4u);
    EXPECT_EQ(pt.lookup(6)->frame, 9u);
    EXPECT_EQ(pt.lookup(12)->frame, 52u);
}

TEST(SystemExtents, OverlappingInsertPanics)
{
    vm::SystemPageTable pt;
    pt.insertRange(4, 4, 0);
    EXPECT_THROW(pt.insertRange(0, 8, 100), SimError);
    EXPECT_THROW(pt.insertRange(5, 1, 100), SimError);
}

TEST(SystemExtents, GapWalkCoversHolesExactly)
{
    vm::SystemPageTable pt;
    pt.insertRange(2, 2, 0);
    pt.insertRange(6, 2, 10);
    std::vector<std::pair<Vpn, Vpn>> gaps;
    pt.forEachGap(0, 10, [&](Vpn b, Vpn e) { gaps.emplace_back(b, e); });
    ASSERT_EQ(gaps.size(), 3u);
    EXPECT_EQ(gaps[0], std::make_pair(Vpn{0}, Vpn{2}));
    EXPECT_EQ(gaps[1], std::make_pair(Vpn{4}, Vpn{6}));
    EXPECT_EQ(gaps[2], std::make_pair(Vpn{8}, Vpn{10}));
}

TEST(GpuExtents, RemoveRangeSplitsAndKeepsFragments)
{
    vm::GpuPageTable pt;
    pt.insertRange(0, 16, 0);
    pt.recomputeFragments(0, 16);
    EXPECT_EQ(test::fragmentOf(pt, 0).span, 16u);
    // Punch a hole; the surviving pages keep their (now stale) stamps,
    // exactly as the driver leaves PTEs outside the unmap window alone.
    pt.removeRange(4, 8);
    EXPECT_EQ(pt.translations().presentCount(), 12u);
    EXPECT_EQ(pt.translations().runCount(), 2u);
    EXPECT_EQ(pt.lookup(2)->fragment, 4u);
    EXPECT_EQ(pt.lookup(8)->fragment, 4u);
    // Restamping only the tail updates just the tail.
    pt.recomputeFragments(8, 16);
    EXPECT_EQ(pt.lookup(2)->fragment, 4u);
    EXPECT_EQ(pt.lookup(8)->fragment, 3u);
    // Unmapping dropped the hole's stamps: re-inserted pages read as
    // fresh PTEs (fragment 0) until the next scan covers them, while
    // their neighbours keep theirs.
    pt.insertRange(4, 4, 4);
    for (Vpn vpn = 4; vpn < 8; ++vpn)
        EXPECT_EQ(pt.lookup(vpn)->fragment, 0u) << vpn;
    EXPECT_EQ(pt.lookup(2)->fragment, 4u);
    EXPECT_EQ(pt.lookup(8)->fragment, 3u);
}

TEST(GpuExtents, WindowedRecomputePreservesOutsideStamps)
{
    vm::GpuPageTable pt;
    pt.insertRange(0, 8, 0);
    pt.recomputeFragments(0, 8);   // one block of 8
    EXPECT_EQ(pt.lookup(5)->fragment, 3u);
    pt.recomputeFragments(2, 5);   // restamp the middle only
    EXPECT_EQ(pt.lookup(0)->fragment, 3u);  // outside: untouched
    EXPECT_EQ(pt.lookup(2)->fragment, 1u);  // {2,3} block
    EXPECT_EQ(pt.lookup(4)->fragment, 0u);  // lone page
    EXPECT_EQ(pt.lookup(7)->fragment, 3u);  // outside: untouched
}

TEST(GpuExtents, ScatterRunStampsByValue)
{
    vm::GpuPageTable pt;
    // One scatter batch whose middle happens to be frame-contiguous
    // and aligned: the fragment scan works on per-page values, so the
    // contiguous stretch must stamp exactly as a strided insert would.
    std::vector<mem::FrameId> frames = {50, 9, 10, 11, 12, 70};
    pt.insertFrames(8, frames.data(), frames.size());
    EXPECT_EQ(pt.translations().runCount(), 1u);
    pt.recomputeFragments(8, 14);
    EXPECT_EQ(pt.lookup(8)->fragment, 0u);   // frame 50, alone
    EXPECT_EQ(pt.lookup(9)->fragment, 0u);   // vpn 9 odd: align 0
    EXPECT_EQ(pt.lookup(10)->fragment, 1u);  // {10,11} -> {10,11}
    EXPECT_EQ(pt.lookup(11)->fragment, 1u);
    EXPECT_EQ(pt.lookup(12)->fragment, 0u);  // stretch tail, 1 page
    EXPECT_EQ(pt.lookup(13)->fragment, 0u);  // frame 70, alone
    // Unmapping the middle of the scatter run keeps exact frames.
    pt.removeRange(10, 12);
    EXPECT_EQ(pt.lookup(9)->frame, 9u);
    EXPECT_EQ(pt.lookup(12)->frame, 12u);
    EXPECT_EQ(pt.lookup(13)->frame, 70u);
    EXPECT_EQ(pt.translations().runCount(), 2u);
}

namespace {

/**
 * Per-page reference model of the GPU page table: the std::map
 * representation (and driver scan) the extent-coalesced table
 * replaced. Used as the oracle for randomized parity.
 */
class ReferenceGpuTable
{
  public:
    void
    insert(Vpn vpn, mem::FrameId frame, PteFlags flags)
    {
        entries.emplace(vpn, vm::GpuPte{frame, flags, 0});
    }

    void
    removeRange(Vpn begin, Vpn end)
    {
        entries.erase(entries.lower_bound(begin),
                      entries.lower_bound(end));
    }

    void
    recomputeFragments(Vpn begin, Vpn end)
    {
        auto it = entries.lower_bound(begin);
        while (it != entries.end() && it->first < end) {
            Vpn run_base = it->first;
            mem::FrameId frame_base = it->second.frame;
            PteFlags flags = it->second.flags;
            auto run_end_it = it;
            Vpn run_len = 0;
            while (run_end_it != entries.end() &&
                   run_end_it->first < end &&
                   run_end_it->first == run_base + run_len &&
                   run_end_it->second.frame == frame_base + run_len &&
                   run_end_it->second.flags == flags) {
                ++run_len;
                ++run_end_it;
            }
            Vpn pos = 0;
            auto stamp_it = it;
            while (pos < run_len) {
                unsigned align = std::min(tz(run_base + pos),
                                          tz(frame_base + pos));
                unsigned len_log = floorLog2(run_len - pos);
                unsigned frag = std::min(
                    {align, len_log, vm::GpuPageTable::kMaxFragment});
                std::uint64_t block = 1ull << frag;
                for (std::uint64_t i = 0; i < block; ++i, ++stamp_it)
                    stamp_it->second.fragment =
                        static_cast<std::uint8_t>(frag);
                pos += block;
            }
            it = run_end_it;
        }
    }

    const std::map<Vpn, vm::GpuPte> &all() const { return entries; }

  private:
    static unsigned
    tz(std::uint64_t x)
    {
        if (x == 0)
            return 63;
        unsigned n = 0;
        while ((x & 1) == 0) {
            x >>= 1;
            ++n;
        }
        return n;
    }

    std::map<Vpn, vm::GpuPte> entries;
};

} // namespace

class ExtentParity : public ::testing::TestWithParam<unsigned>
{
};

/**
 * Randomized op sequences against a per-page std::map reference:
 * forRange must visit the same (vpn, frame, flags) sequence in the
 * same order, and presence/lookup/counters must agree everywhere.
 */
TEST_P(ExtentParity, SystemTableMatchesPerPageModel)
{
    constexpr Vpn kSpace = 512;
    SplitMix64 rng(exec::taskSeed(0x5e7au, GetParam()));
    vm::SystemPageTable pt;
    std::map<Vpn, vm::Pte> model;

    for (int step = 0; step < 400; ++step) {
        unsigned op = static_cast<unsigned>(rng.nextBelow(6));
        Vpn vpn = rng.nextBelow(kSpace);
        std::uint64_t len = 1 + rng.nextBelow(12);
        len = std::min<std::uint64_t>(len, kSpace - vpn);
        switch (op) {
          case 0: {  // insertRange into free space only
            bool overlaps = false;
            for (Vpn v = vpn; v < vpn + len; ++v)
                overlaps = overlaps || model.count(v) != 0;
            if (overlaps)
                break;
            mem::FrameId frame = rng.nextBelow(1u << 20);
            PteFlags flags =
                rng.nextBelow(2) ? pinnedFlags() : PteFlags{};
            pt.insertRange(vpn, len, frame, flags);
            for (std::uint64_t i = 0; i < len; ++i)
                model.emplace(vpn + i, vm::Pte{frame + i, flags});
            break;
          }
          case 5: {  // insertFrames (scatter batch) into free space
            bool overlaps = false;
            for (Vpn v = vpn; v < vpn + len; ++v)
                overlaps = overlaps || model.count(v) != 0;
            if (overlaps)
                break;
            std::vector<mem::FrameId> frames;
            for (std::uint64_t i = 0; i < len; ++i)
                frames.push_back(rng.nextBelow(1u << 20));
            PteFlags flags =
                rng.nextBelow(2) ? pinnedFlags() : PteFlags{};
            for (std::uint64_t i = 0; i < len; ++i)
                model.emplace(vpn + i, vm::Pte{frames[i], flags});
            pt.insertFrames(vpn, std::move(frames), flags);
            break;
          }
          case 1: {  // single-page remove
            std::optional<mem::FrameId> got;
            pt.removeRange(vpn, vpn + 1, [&](const vm::PteRun &cut) {
                got = cut.frame;
            });
            auto it = model.find(vpn);
            if (it == model.end()) {
                EXPECT_FALSE(got.has_value());
            } else {
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(*got, it->second.frame);
                model.erase(it);
            }
            break;
          }
          case 2: {  // removeRange
            std::uint64_t removed = pt.removeRange(
                vpn, vpn + len, [&](const vm::PteRun &cut) {
                    for (Vpn v = cut.vpn; v < cut.end(); ++v) {
                        auto it = model.find(v);
                        ASSERT_NE(it, model.end());
                        EXPECT_EQ(it->second.frame, cut.frameOf(v));
                        model.erase(it);
                    }
                });
            (void)removed;
            break;
          }
          case 3: {  // setFlagsRange over present pages
            PteFlags flags =
                rng.nextBelow(2) ? pinnedFlags() : PteFlags{};
            std::uint64_t updated =
                pt.setFlagsRange(vpn, vpn + len, flags);
            std::uint64_t expect_updated = 0;
            for (auto it = model.lower_bound(vpn);
                 it != model.end() && it->first < vpn + len; ++it) {
                it->second.flags = flags;
                ++expect_updated;
            }
            EXPECT_EQ(updated, expect_updated);
            break;
          }
          default: {  // point queries
            auto got = pt.lookup(vpn);
            auto it = model.find(vpn);
            EXPECT_EQ(got.has_value(), it != model.end());
            if (got && it != model.end()) {
                EXPECT_EQ(got->frame, it->second.frame);
                EXPECT_EQ(got->flags == it->second.flags, true);
            }
            EXPECT_EQ(pt.present(vpn), it != model.end());
            break;
          }
        }
    }

    // Full-range parity: same entries, same order, same counters.
    std::vector<std::pair<Vpn, vm::Pte>> walked;
    test::forRange(pt, 0, kSpace, [&](Vpn vpn, const vm::Pte &pte) {
        walked.emplace_back(vpn, pte);
    });
    ASSERT_EQ(walked.size(), model.size());
    std::size_t i = 0;
    for (const auto &[vpn, pte] : model) {
        EXPECT_EQ(walked[i].first, vpn);
        EXPECT_EQ(walked[i].second.frame, pte.frame);
        EXPECT_TRUE(walked[i].second.flags == pte.flags);
        ++i;
    }
    EXPECT_EQ(pt.presentCount(), model.size());
    EXPECT_EQ(pt.presentInRange(0, kSpace), model.size());

    // Maximal-merge invariant for *strided* runs: no two adjacent
    // strided runs are mergeable. (Scatter runs stay as inserted.)
    struct RunShape
    {
        Vpn vpn;
        std::uint64_t len;
        mem::FrameId frame;
        PteFlags flags;
        bool strided;
    };
    std::vector<RunShape> runs;
    pt.forEachRun(0, kSpace, [&](const vm::PteRun &run) {
        runs.push_back({run.vpn, run.len, run.frame, run.flags,
                        run.scatter == nullptr});
    });
    for (std::size_t r = 1; r < runs.size(); ++r) {
        bool mergeable = runs[r - 1].strided && runs[r].strided &&
                         runs[r - 1].vpn + runs[r - 1].len ==
                             runs[r].vpn &&
                         runs[r - 1].frame + runs[r - 1].len ==
                             runs[r].frame &&
                         runs[r - 1].flags == runs[r].flags;
        EXPECT_FALSE(mergeable)
            << "runs at vpn " << runs[r - 1].vpn << " and "
            << runs[r].vpn << " should have merged";
    }
}

/**
 * Randomized parity of the extent GPU table (nonzero stamp map)
 * against the per-page driver scan it replaced: every per-page
 * fragment value, lookup, and histogram must match after arbitrary
 * interleavings of inserts, windowed recomputes, and removals.
 */
TEST_P(ExtentParity, GpuTableMatchesPerPageModel)
{
    constexpr Vpn kSpace = 512;
    SplitMix64 rng(exec::taskSeed(0x69b0u, GetParam()));
    vm::GpuPageTable pt;
    ReferenceGpuTable ref;
    std::set<Vpn> present;

    for (int step = 0; step < 300; ++step) {
        unsigned op = static_cast<unsigned>(rng.nextBelow(5));
        Vpn vpn = rng.nextBelow(kSpace);
        std::uint64_t len = 1 + rng.nextBelow(24);
        len = std::min<std::uint64_t>(len, kSpace - vpn);
        switch (op) {
          case 4: {  // insertFrames (scatter batch) into free space
            // A batch drawn on a mapped page starts right after it,
            // and every batch stops at the next mapped page, so
            // batches often abut mappings on both sides.
            while (vpn < kSpace && present.count(vpn) != 0)
                ++vpn;
            auto next = present.lower_bound(vpn);
            len = std::min(len,
                           (next == present.end() ? kSpace : *next) - vpn);
            if (len == 0)
                break;
            // Runs of consecutive frames among lone ones. The first
            // frame may continue the page before the batch and the
            // last may be continued by the page after it, so stretches
            // cross scatter parts at both ends.
            const auto &pages = ref.all();
            auto before = vpn > 0 ? pages.find(vpn - 1) : pages.end();
            auto after = pages.find(vpn + len);
            std::vector<mem::FrameId> frames;
            if (before != pages.end() && rng.nextBelow(2) == 0)
                frames.push_back(before->second.frame + 1);
            while (frames.size() < len) {
                bool extend = !frames.empty() && rng.nextBelow(2) == 0;
                frames.push_back(extend ? frames.back() + 1
                                        : rng.nextBelow(1u << 12));
            }
            if (after != pages.end() && after->second.frame > 0 &&
                rng.nextBelow(2) == 0)
                frames.back() = after->second.frame - 1;
            PteFlags flags =
                rng.nextBelow(4) == 0 ? pinnedFlags() : PteFlags{};
            pt.insertFrames(vpn, frames.data(), frames.size(), flags);
            for (std::uint64_t i = 0; i < len; ++i) {
                ref.insert(vpn + i, frames[i], flags);
                present.insert(vpn + i);
            }
            break;
          }
          case 0: {  // insertRange into free space only
            bool overlaps = false;
            for (Vpn v = vpn; v < vpn + len; ++v)
                overlaps = overlaps || present.count(v) != 0;
            if (overlaps)
                break;
            // Half the inserts are frame-contiguous with vpn (big
            // fragments form), half are offset (alignment-capped).
            mem::FrameId frame =
                rng.nextBelow(2) ? vpn : vpn + 1 + rng.nextBelow(64);
            PteFlags flags =
                rng.nextBelow(4) == 0 ? pinnedFlags() : PteFlags{};
            pt.insertRange(vpn, len, frame, flags);
            for (std::uint64_t i = 0; i < len; ++i) {
                ref.insert(vpn + i, frame + i, flags);
                present.insert(vpn + i);
            }
            break;
          }
          case 1: {  // windowed fragment recompute
            pt.recomputeFragments(vpn, vpn + len);
            ref.recomputeFragments(vpn, vpn + len);
            break;
          }
          case 2: {  // removeRange
            pt.removeRange(vpn, vpn + len);
            ref.removeRange(vpn, vpn + len);
            for (Vpn v = vpn; v < vpn + len; ++v)
                present.erase(v);
            break;
          }
          default: {  // point queries
            auto got = pt.lookup(vpn);
            bool in_ref = ref.all().count(vpn) != 0;
            EXPECT_EQ(got.has_value(), in_ref);
            if (got && in_ref) {
                const auto &pte = ref.all().at(vpn);
                EXPECT_EQ(got->frame, pte.frame);
                EXPECT_EQ(got->fragment, pte.fragment);
                auto frag = test::fragmentOf(pt, vpn);
                std::uint64_t span = 1ull << pte.fragment;
                EXPECT_EQ(frag.span, span);
                EXPECT_EQ(frag.base, vpn & ~(span - 1));
            }
            break;
          }
        }
    }

    // Per-page walk parity, including fragment stamps.
    std::vector<std::pair<Vpn, vm::GpuPte>> walked;
    test::forRange(pt, 0, kSpace, [&](Vpn vpn, const vm::GpuPte &pte) {
        walked.emplace_back(vpn, pte);
    });
    ASSERT_EQ(walked.size(), ref.all().size());
    std::size_t i = 0;
    for (const auto &[vpn, pte] : ref.all()) {
        EXPECT_EQ(walked[i].first, vpn);
        EXPECT_EQ(walked[i].second.frame, pte.frame);
        EXPECT_EQ(walked[i].second.fragment, pte.fragment) << vpn;
        ++i;
    }

    // Histogram parity.
    auto hist = test::fragmentHistogram(pt, 0, kSpace);
    std::vector<std::uint64_t> ref_hist(
        vm::GpuPageTable::kMaxFragment + 1, 0);
    for (const auto &[vpn, pte] : ref.all()) {
        (void)vpn;
        ++ref_hist[pte.fragment];
    }
    EXPECT_EQ(hist, ref_hist);
    EXPECT_EQ(pt.translations().presentCount(), ref.all().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentParity,
                         ::testing::Range(0u, 8u));

TEST(IntervalSet, CoalescesAndSplits)
{
    test::IntervalSet set;
    EXPECT_TRUE(set.empty());
    set.insert(5);
    set.insert(7);
    set.insert(6);  // joins both neighbours
    EXPECT_EQ(set.intervalCount(), 1u);
    EXPECT_EQ(set.size(), 3u);
    EXPECT_EQ(set.first(), 5u);
    EXPECT_TRUE(set.contains(6));
    EXPECT_FALSE(set.contains(8));
    set.erase(6);  // split back into two
    EXPECT_EQ(set.intervalCount(), 2u);
    EXPECT_FALSE(set.contains(6));
    EXPECT_TRUE(set.contains(5));
    EXPECT_TRUE(set.contains(7));
    set.erase(5);
    set.erase(7);
    EXPECT_TRUE(set.empty());
    EXPECT_THROW(set.erase(5), SimError);
    set.insert(1);
    EXPECT_THROW(set.insert(1), SimError);
}

TEST(IntervalSet, MatchesStdSetUnderRandomOps)
{
    SplitMix64 rng(exec::taskSeed(0x15e7u, 0));
    test::IntervalSet set;
    std::set<std::uint64_t> model;
    for (int step = 0; step < 2000; ++step) {
        std::uint64_t key = rng.nextBelow(128);
        if (rng.nextBelow(2) == 0) {
            if (model.count(key) == 0) {
                set.insert(key);
                model.insert(key);
            }
        } else if (model.count(key) != 0) {
            set.erase(key);
            model.erase(key);
        }
        ASSERT_EQ(set.size(), model.size());
        if (!model.empty()) {
            ASSERT_EQ(set.first(), *model.begin());
        }
    }
    std::vector<std::uint64_t> flattened;
    set.forEach([&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t v = b; v < e; ++v)
            flattened.push_back(v);
    });
    EXPECT_TRUE(std::equal(flattened.begin(), flattened.end(),
                           model.begin(), model.end()));
}
