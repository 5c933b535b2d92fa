/**
 * @file
 * Tests for the vm module: system and GPU page tables, the driver's
 * fragment computation (property-tested), HMM mirroring, the address
 * space (VMAs, population paths, XNACK semantics), and the fault
 * handler's timing model.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "gpu_table_util.hh"
#include "interval_set.hh"
#include "trace/tracer.hh"
#include "vm/address_space.hh"
#include "vm/fault_handler.hh"

namespace upm::vm {
namespace {

/** CPU first touch of the one page @p vpn. */
void
cpuFault(AddressSpace &as, Vpn vpn)
{
    EXPECT_EQ(as.tryResolveCpuFaultRange(vpn, vpn + 1).status,
              Status::Success);
}

mem::MemGeometryConfig
smallGeomConfig()
{
    mem::MemGeometryConfig cfg;
    cfg.capacityBytes = 64 * MiB;
    return cfg;
}

TEST(SystemPageTable, InsertLookupRemove)
{
    SystemPageTable pt;
    pt.insertRange(10, 1, 1234);
    EXPECT_TRUE(pt.present(10));
    auto pte = pt.lookup(10);
    ASSERT_TRUE(pte.has_value());
    EXPECT_EQ(pte->frame, 1234u);
    std::vector<FrameId> freed;
    auto collect = [&](const PteRun &cut) { freed.push_back(cut.frame); };
    EXPECT_EQ(pt.removeRange(10, 11, collect), 1u);
    EXPECT_EQ(freed, std::vector<FrameId>{1234});
    EXPECT_FALSE(pt.present(10));
    EXPECT_EQ(pt.removeRange(10, 11, collect), 0u);
    EXPECT_EQ(freed.size(), 1u);
}

TEST(SystemPageTable, DoubleInsertPanics)
{
    SystemPageTable pt;
    pt.insertRange(10, 1, 1);
    EXPECT_THROW(pt.insertRange(10, 1, 2), SimError);
}

TEST(SystemPageTable, RangeIterationIsOrderedAndBounded)
{
    SystemPageTable pt;
    for (Vpn vpn : {5, 1, 9, 3, 7})
        pt.insertRange(vpn, 1, vpn * 10);
    std::vector<Vpn> seen;
    test::forRange(pt, 2, 8,
                   [&](Vpn vpn, const Pte &) { seen.push_back(vpn); });
    EXPECT_EQ(seen, (std::vector<Vpn>{3, 5, 7}));
    EXPECT_EQ(pt.presentInRange(0, 100), 5u);
}

TEST(SystemPageTable, FlagsUpdate)
{
    SystemPageTable pt;
    pt.insertRange(4, 1, 44);
    PteFlags pinned{.writable = true, .pinned = true, .uncached = false};
    EXPECT_EQ(pt.setFlagsRange(4, 5, pinned), 1u);
    EXPECT_TRUE(pt.lookup(4)->flags.pinned);
    EXPECT_EQ(pt.setFlagsRange(5, 6, pinned), 0u);
    EXPECT_FALSE(pt.present(5));
}

TEST(GpuPageTable, ContiguousRunGetsLargeFragments)
{
    GpuPageTable pt;
    // 64 pages, vpn and frame both aligned to 64.
    for (Vpn vpn = 0; vpn < 64; ++vpn)
        pt.insertRange(64 + vpn, 1, 128 + vpn);
    pt.recomputeFragments(64, 128);
    auto frag = test::fragmentOf(pt, 64);
    EXPECT_EQ(frag.span, 64u);
    EXPECT_EQ(frag.base, 64u);
}

TEST(GpuPageTable, ScatteredFramesGetUnitFragments)
{
    GpuPageTable pt;
    for (Vpn vpn = 0; vpn < 32; ++vpn)
        pt.insertRange(vpn, 1, vpn * 7 + 3);  // physically discontiguous
    pt.recomputeFragments(0, 32);
    for (Vpn vpn = 0; vpn < 32; ++vpn)
        EXPECT_EQ(test::fragmentOf(pt, vpn).span, 1u) << vpn;
}

TEST(GpuPageTable, MisalignedRunSplitsGreedily)
{
    GpuPageTable pt;
    // Run of 6 pages starting at vpn 2 / frame 2: blocks 2,4+4?? ->
    // greedy: [2,4) (align 2), [4,8) (align 4).
    for (Vpn vpn = 2; vpn < 8; ++vpn)
        pt.insertRange(vpn, 1, vpn);
    pt.recomputeFragments(0, 16);
    EXPECT_EQ(test::fragmentOf(pt, 2).span, 2u);
    EXPECT_EQ(test::fragmentOf(pt, 4).span, 4u);
}

TEST(GpuPageTable, FlagBoundarySplitsRun)
{
    GpuPageTable pt;
    PteFlags pinned{.writable = true, .pinned = true, .uncached = false};
    for (Vpn vpn = 0; vpn < 8; ++vpn)
        pt.insertRange(vpn, 1, vpn, vpn < 4 ? PteFlags{} : pinned);
    pt.recomputeFragments(0, 8);
    EXPECT_EQ(test::fragmentOf(pt, 0).span, 4u);
    EXPECT_EQ(test::fragmentOf(pt, 4).span, 4u);
    EXPECT_EQ(test::fragmentOf(pt, 3).base, 0u);
    EXPECT_EQ(test::fragmentOf(pt, 7).base, 4u);
}

TEST(GpuPageTable, PhysicalMisalignmentLimitsFragment)
{
    GpuPageTable pt;
    // vpn aligned, frames offset by 1: alignment limited by frames.
    for (Vpn vpn = 0; vpn < 16; ++vpn)
        pt.insertRange(vpn, 1, vpn + 1);
    pt.recomputeFragments(0, 16);
    // frame 1 has tz 0 -> first block span 1.
    EXPECT_EQ(test::fragmentOf(pt, 0).span, 1u);
    // frame 2 at vpn 1: min(tz(1), tz(2)) = 0 -> span 1 again.
    EXPECT_EQ(test::fragmentOf(pt, 1).span, 1u);
}

/** Fragment invariants over random populations. */
class FragmentProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FragmentProperty, FragmentsAreAlignedCoveringBlocks)
{
    SplitMix64 rng(GetParam());
    GpuPageTable pt;
    Vpn vpn = 0;
    FrameId frame = rng.nextBelow(1000);
    for (int i = 0; i < 500; ++i) {
        pt.insertRange(vpn, 1, frame);
        // Random mix of contiguous extension and jumps.
        if (rng.nextBelow(4) == 0) {
            vpn += 1 + rng.nextBelow(5);
            frame += 7 + rng.nextBelow(13);
        } else {
            vpn += 1;
            frame += 1;
        }
    }
    pt.recomputeFragments(0, vpn + 1);

    test::forRange(pt, 0, vpn + 1, [&](Vpn v, const GpuPte &pte) {
        std::uint64_t span = 1ull << pte.fragment;
        Vpn base = v & ~(span - 1);
        // Every page of the fragment block must exist, be contiguous
        // physically, share flags, and carry the same fragment value.
        auto base_pte = pt.lookup(base);
        ASSERT_TRUE(base_pte.has_value());
        for (Vpn p = base; p < base + span; ++p) {
            auto q = pt.lookup(p);
            ASSERT_TRUE(q.has_value()) << p;
            EXPECT_EQ(q->frame, base_pte->frame + (p - base));
            EXPECT_EQ(q->fragment, pte.fragment);
        }
        // Physical base must be aligned at least as much as the block.
        EXPECT_EQ(base_pte->frame & (span - 1), 0u);
    });
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragmentProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class AddressSpaceTest : public ::testing::Test
{
  protected:
    AddressSpaceTest()
        : geom(smallGeomConfig()), node(geom, {}, 1), as(node, store)
    {}

    VirtAddr
    mapOnDemand(std::uint64_t size)
    {
        VmaPolicy policy;
        policy.onDemand = true;
        policy.placement = Placement::Scattered;
        return as.mmapAnon(size, policy, "test");
    }

    mem::MemGeometry geom;
    mem::NodeMemory node;
    mem::BackingStore store;
    AddressSpace as;
};

TEST_F(AddressSpaceTest, MmapCreatesVmaAndBacking)
{
    VirtAddr base = mapOnDemand(1 * MiB);
    const Vma *vma = as.findVma(base + 1234);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->base, base);
    EXPECT_EQ(vma->numPages(), 256u);
    EXPECT_TRUE(store.contains(base));
    EXPECT_EQ(as.findVma(base + 1 * MiB), nullptr);
}

TEST_F(AddressSpaceTest, VmaBasesAre2MiBAligned)
{
    VirtAddr a = mapOnDemand(4096);
    VirtAddr b = mapOnDemand(4096);
    EXPECT_EQ(a % (2 * MiB), 0u);
    EXPECT_EQ(b % (2 * MiB), 0u);
    EXPECT_NE(a, b);
}

TEST_F(AddressSpaceTest, OnDemandHasNoFramesUntilFault)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    EXPECT_TRUE(as.framesOf(base, 64 * KiB).empty());
    cpuFault(as, vpnOf(base));
    EXPECT_EQ(as.framesOf(base, 64 * KiB).size(), 1u);
    EXPECT_EQ(as.cpuFaults(), 1u);
}

TEST_F(AddressSpaceTest, CpuFaultIsIdempotent)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    cpuFault(as, vpnOf(base));
    cpuFault(as, vpnOf(base));
    EXPECT_EQ(as.cpuFaults(), 1u);
}

TEST_F(AddressSpaceTest, CpuFaultOutsideVmaIsSegfault)
{
    EXPECT_EQ(as.tryResolveCpuFaultRange(1, 2).status, Status::AccessFault);
}

TEST_F(AddressSpaceTest, PopulateContiguousMapsBothTables)
{
    VmaPolicy policy;
    policy.onDemand = false;
    policy.gpuMapped = true;
    policy.pinned = true;
    policy.placement = Placement::Contiguous;
    VirtAddr base = as.mmapAnon(1 * MiB, policy, "hip");
    auto populated = as.tryPopulateRange(base, 1 * MiB);
    ASSERT_TRUE(populated);
    EXPECT_EQ(populated.pages, 256u);
    EXPECT_TRUE(test::cpuPresent(as, base));
    EXPECT_TRUE(test::gpuPresent(as, base));
    // Contiguous placement earns a large fragment.
    EXPECT_GE(test::fragmentOf(as.gpuTable(), vpnOf(base)).span, 256u);
}

TEST_F(AddressSpaceTest, GpuFaultWithoutXnackIsViolation)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    as.setXnack(false);
    EXPECT_EQ(as.resolveGpuFault(vpnOf(base), 4), GpuFaultKind::Violation);
}

TEST_F(AddressSpaceTest, GpuMajorFaultAllocatesAndMirrors)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    as.setXnack(true);
    EXPECT_EQ(as.resolveGpuFault(vpnOf(base), 16), GpuFaultKind::Major);
    EXPECT_EQ(as.gpuMajorFaults(), 16u);
    EXPECT_TRUE(test::gpuPresent(as, base));
    EXPECT_TRUE(test::cpuPresent(as, base));
}

TEST_F(AddressSpaceTest, GpuMinorFaultMirrorsExistingPages)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    as.setXnack(true);
    for (Vpn vpn = vpnOf(base); vpn < vpnOf(base) + 16; ++vpn)
        cpuFault(as, vpn);
    EXPECT_EQ(as.resolveGpuFault(vpnOf(base), 16), GpuFaultKind::Minor);
    EXPECT_EQ(as.gpuMinorFaults(), 16u);
    EXPECT_EQ(as.gpuMajorFaults(), 0u);
}

TEST_F(AddressSpaceTest, GpuFaultOnMappedRangeIsNone)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    as.setXnack(true);
    as.resolveGpuFault(vpnOf(base), 16);
    EXPECT_EQ(as.resolveGpuFault(vpnOf(base), 16), GpuFaultKind::None);
}

TEST_F(AddressSpaceTest, GpuMajorPlacementIsBalancedButFragmentFree)
{
    VirtAddr base = mapOnDemand(4 * MiB);
    as.setXnack(true);
    as.resolveGpuFault(vpnOf(base), 1024);
    auto frame_list = as.framesOf(base, 4 * MiB);
    EXPECT_GT(geom.balanceOfLoad(geom.stackLoad(frame_list)), 0.9);
    // Virtually-random arrival order prevents large fragments.
    auto hist = test::fragmentHistogram(as.gpuTable(), vpnOf(base),
                                        vpnOf(base) + 1024);
    std::uint64_t small = hist[0] + hist[1] + hist[2];
    EXPECT_GT(small, 900u);
}

TEST_F(AddressSpaceTest, PinAndMapGpuKeepsScatteredPlacement)
{
    VirtAddr base = mapOnDemand(1 * MiB);
    cpuFault(as, vpnOf(base));  // partial CPU history
    EXPECT_EQ(as.pinAndMapGpu(base), Status::Success);
    const Vma *vma = as.findVma(base);
    ASSERT_NE(vma, nullptr);
    EXPECT_TRUE(vma->policy.pinned);
    EXPECT_TRUE(vma->policy.gpuMapped);
    EXPECT_FALSE(vma->policy.onDemand);
    EXPECT_TRUE(test::gpuPresent(as, base));
    EXPECT_GT(vma->scatteredFraction(), 0.99);
    // Pages are pinned in the system table too.
    EXPECT_TRUE(as.systemTable().lookup(vpnOf(base))->flags.pinned);
}

TEST_F(AddressSpaceTest, MunmapFreesEverything)
{
    VmaPolicy policy;
    policy.onDemand = false;
    policy.gpuMapped = true;
    policy.placement = Placement::Contiguous;
    VirtAddr base = as.mmapAnon(2 * MiB, policy, "tmp");
    ASSERT_TRUE(as.tryPopulateRange(base, 2 * MiB));
    std::uint64_t free_before = node.freeFrames();
    EXPECT_EQ(as.munmap(base), Status::Success);
    EXPECT_EQ(node.freeFrames(), free_before + 512);
    EXPECT_EQ(as.findVma(base), nullptr);
    EXPECT_FALSE(test::gpuPresent(as, base));
    EXPECT_EQ(as.munmap(base), Status::NotFound);
}

TEST_F(AddressSpaceTest, TranslatePreservesOffset)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    cpuFault(as, vpnOf(base));
    // Any offset in the faulted page reaches its frame; the pages past
    // it have no translation.
    auto pte = as.systemTable().lookup(vpnOf(base + 123));
    ASSERT_TRUE(pte);
    EXPECT_EQ(pte->frame, as.framesOf(base, mem::kPageSize).at(0));
    EXPECT_FALSE(as.systemTable().lookup(vpnOf(base + 5 * mem::kPageSize)));
}

TEST_F(AddressSpaceTest, ScatteredFractionTracksPlacementMix)
{
    VirtAddr base = mapOnDemand(64 * KiB);
    as.setXnack(true);
    cpuFault(as, vpnOf(base));                // 1 scattered
    as.resolveGpuFault(vpnOf(base) + 1, 15);  // 15 batch-placed
    const Vma *vma = as.findVma(base);
    EXPECT_NEAR(vma->scatteredFraction(), 1.0 / 16.0, 1e-9);
}

TEST(HmmMirror, PropagatesOnlyPresentAndCountsWork)
{
    mem::MemGeometry geom{smallGeomConfig()};
    mem::NodeMemory node(geom, {}, 1);
    mem::BackingStore store;
    AddressSpace as(node, store);
    VmaPolicy policy;
    policy.onDemand = true;
    VirtAddr base = as.mmapAnon(64 * KiB, policy, "hmm");
    for (int i = 0; i < 8; i += 2)
        cpuFault(as, vpnOf(base) + i);

    Vpn begin = vpnOf(base);
    EXPECT_EQ(as.mirror().mirrorRange(begin, begin + 8), 4u);
    EXPECT_EQ(as.mirror().mirrorRange(begin, begin + 8), 0u);  // idempotent
    EXPECT_EQ(as.mirror().propagated(), 4u);
    EXPECT_EQ(as.mirror().invalidateRange(begin, begin + 8), 4u);
    EXPECT_FALSE(test::gpuPresent(as, base));
    EXPECT_TRUE(test::cpuPresent(as, base));  // system table untouched
}

/** A one-socket address space on its own node, optionally traced. */
struct TracedSpace
{
    explicit TracedSpace(trace::Tracer *tracer = nullptr)
        : geom(smallGeomConfig()), node(geom, {}, 1, {.tr = tracer}),
          as(node, store, {.tr = tracer})
    {}

    VirtAddr
    mapOnDemand(std::uint64_t pages)
    {
        VmaPolicy policy;
        policy.onDemand = true;
        policy.placement = Placement::Scattered;
        return as.mmapAnon(pages * mem::kPageSize, policy, "scatter");
    }

    mem::MemGeometry geom;
    mem::NodeMemory node;
    mem::BackingStore store;
    AddressSpace as;
};

/** FrameFree events (base, count) in emission order. */
std::vector<mem::FrameRange>
frameFrees(const trace::Tracer &tracer)
{
    std::vector<mem::FrameRange> out;
    for (const auto &ev : tracer.events()) {
        if (ev.kind == trace::EventKind::FrameFree)
            out.push_back({ev.a, ev.b});
    }
    return out;
}

/**
 * The munmap batch before coalescing went array-native: every freed
 * frame inserted into an IntervalSet, one interval freed per range.
 */
std::vector<mem::FrameRange>
intervalSetFrees(const std::vector<FrameId> &frames)
{
    test::IntervalSet freed;
    for (FrameId f : frames)
        freed.insert(f);
    std::vector<mem::FrameRange> out;
    freed.forEach([&](FrameId begin, FrameId end) {
        out.push_back({begin, end - begin});
    });
    return out;
}

TEST(Munmap, ScatterFreeMatchesIntervalSetOracle)
{
    for (bool sparse : {false, true}) {
        trace::Tracer tracer(trace::TraceConfig{.enabled = true});
        TracedSpace sp(&tracer);
        std::uint64_t stride = 150;
        if (sparse) {
            // Leave only every stride-th frame free: each pool refill
            // is a lone frame, so scatter runs span ~stride frames per
            // page and coalesce through the sort path.
            mem::FrameAllocator &shard = sp.node.shard(0);
            auto held = shard.allocRun(shard.totalFrames());
            ASSERT_TRUE(held.has_value());
            for (FrameId f = 0; f < shard.totalFrames(); f += stride)
                ASSERT_TRUE(shard.freeRange({f, 1}));
        }
        std::uint64_t pages = sparse ? 100 : 1500;
        VirtAddr base = sp.mapOnDemand(pages);
        Vpn first = vpnOf(base);
        sp.as.setXnack(true);
        // CPU faults over scattered windows, then one GPU major fault
        // over the rest: scatter runs from both paths, with strided
        // pieces where a fault batch stayed contiguous.
        SplitMix64 rng(sparse ? 0x7a02 : 0x7a01);
        for (int i = 0; i < 12; ++i) {
            Vpn at = first + rng.nextBelow(pages - 40);
            sp.as.resolveCpuFaultRange(at, at + 1 + rng.nextBelow(40));
        }
        ASSERT_EQ(sp.as.resolveGpuFault(first, pages), GpuFaultKind::Major);
        auto frames = sp.as.framesOf(base, pages * mem::kPageSize);
        ASSERT_EQ(frames.size(), pages);
        auto oracle = intervalSetFrees(frames);
        if (sparse) {
            EXPECT_GT(oracle.size(), pages / 2);
        }

        tracer.clear();
        ASSERT_EQ(sp.as.munmap(base), Status::Success);
        EXPECT_EQ(frameFrees(tracer), oracle) << "sparse " << sparse;
    }
}

TEST(Munmap, FrameMappedTwicePanics)
{
    // A scatter run naming one frame twice (bitmap path), and two runs
    // sharing a frame (the merge of all ranges).
    for (bool across_runs : {false, true}) {
        TracedSpace sp;
        VirtAddr base = sp.mapOnDemand(64);
        Vpn first = vpnOf(base);
        sp.as.resolveCpuFaultRange(first, first + 8);
        FrameId mapped = sp.as.systemTable().lookup(first)->frame;
        std::vector<FrameId> dup =
            across_runs ? std::vector<FrameId>{mapped + 1000, mapped}
                        : std::vector<FrameId>{mapped + 100, mapped + 3,
                                               mapped + 100};
        sp.as.systemTable().insertFrames(first + 20, dup.data(),
                                         dup.size());
        EXPECT_THROW(static_cast<void>(sp.as.munmap(base)), SimError);
    }
}

TEST(VmFault, MajorFaultMapsOneRunPerGap)
{
    // Two spaces with one history; on the second, replay the major
    // fault the way it used to map: the same allocBatch frames and
    // Fisher-Yates shuffle, then one page at a time.
    TracedSpace sp, ref;
    const std::uint64_t pages = 512;
    Vpn first = 0;
    for (TracedSpace *s : {&sp, &ref}) {
        first = vpnOf(s->mapOnDemand(pages));
        s->as.setXnack(true);
        for (Vpn at : {3, 10, 11, 12, 40, 100, 101, 200, 511})
            cpuFault(s->as, first + at);
    }
    std::uint64_t runs_before = sp.as.systemTable().runCount();
    ASSERT_EQ(sp.as.resolveGpuFault(first, pages), GpuFaultKind::Major);

    std::vector<std::pair<Vpn, Vpn>> gaps;
    std::vector<Vpn> holes;
    ref.as.systemTable().forEachGap(first, first + pages,
                                    [&](Vpn gap_begin, Vpn gap_end) {
                                        gaps.emplace_back(gap_begin, gap_end);
                                        for (Vpn v = gap_begin; v < gap_end;
                                             ++v)
                                            holes.push_back(v);
                                    });
    std::vector<mem::FrameRange> ranges;
    ASSERT_TRUE(ref.node.shard(0).allocBatch(holes.size(), ranges));
    std::vector<FrameId> frame_list;
    for (const auto &range : ranges) {
        for (std::uint64_t i = 0; i < range.count; ++i)
            frame_list.push_back(range.base + i);
    }
    SplitMix64 fault_rng(0x6f4a);  // AddressSpace's fault-order stream
    for (std::size_t i = holes.size(); i > 1; --i) {
        auto j = static_cast<std::size_t>(fault_rng.nextBelow(i));
        std::swap(holes[i - 1], holes[j]);
    }
    SystemPageTable &table = ref.as.systemTable();
    for (std::size_t i = 0; i < holes.size(); ++i)
        table.insertRange(holes[i], 1, frame_list[i]);

    for (Vpn vpn = first; vpn < first + pages; ++vpn) {
        auto got = sp.as.systemTable().lookup(vpn);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->frame, table.lookup(vpn)->frame) << vpn - first;
        auto gpu = sp.as.gpuTable().lookup(vpn);
        ASSERT_TRUE(gpu.has_value());
        EXPECT_EQ(gpu->frame, got->frame);
    }
    EXPECT_EQ(gaps.size(), 6u);
    EXPECT_LE(sp.as.systemTable().runCount() - runs_before, gaps.size());
    EXPECT_GT(table.runCount(), sp.as.systemTable().runCount());
}

TEST(FaultHandler, ColdLatencyMatchesPaperAnchors)
{
    FaultHandler handler;
    SampleStats cpu, minor, major;
    for (int i = 0; i < 2000; ++i) {
        cpu.add(handler.sampleColdLatency(FaultType::Cpu));
        minor.add(handler.sampleColdLatency(FaultType::GpuMinor));
        major.add(handler.sampleColdLatency(FaultType::GpuMajor));
    }
    EXPECT_NEAR(cpu.mean(), 9000.0, 500.0);
    EXPECT_NEAR(cpu.percentile(95), 11000.0, 900.0);
    EXPECT_NEAR(minor.mean(), 16000.0, 900.0);
    EXPECT_NEAR(major.mean(), 18000.0, 1000.0);
    // GPU faults are 1.8-2.0x slower than CPU faults.
    EXPECT_GT(major.mean() / cpu.mean(), 1.7);
    EXPECT_LT(major.mean() / cpu.mean(), 2.2);
}

TEST(FaultHandler, ThroughputPlateaus)
{
    FaultHandler handler;
    // Plateaus from the paper (pages/s).
    EXPECT_NEAR(handler.throughput(FaultType::Cpu, 10'000'000), 872e3,
                40e3);
    EXPECT_NEAR(handler.throughput(FaultType::Cpu, 10'000'000, 12),
                3.7e6, 0.2e6);
    EXPECT_NEAR(handler.throughput(FaultType::GpuMajor, 10'000'000),
                1.1e6, 0.05e6);
    EXPECT_NEAR(handler.throughput(FaultType::GpuMinor, 10'000'000),
                9.0e6, 0.6e6);
}

TEST(FaultHandler, ThroughputGrowsWithBatchSize)
{
    FaultHandler handler;
    for (auto type :
         {FaultType::Cpu, FaultType::GpuMinor, FaultType::GpuMajor}) {
        double small = handler.throughput(type, 100);
        double large = handler.throughput(type, 1'000'000);
        EXPECT_GT(large, small);
    }
}

TEST(FaultHandler, ZeroPagesIsFree)
{
    FaultHandler handler;
    EXPECT_DOUBLE_EQ(handler.serviceTime(FaultType::Cpu, 0), 0.0);
}

} // namespace
} // namespace upm::vm
