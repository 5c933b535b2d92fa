/**
 * @file
 * Tests for the characterization probes: each probe must reproduce the
 * paper's qualitative result for its figure (the quantitative anchors
 * are covered by perf_model_test and vm_test).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/log.hh"
#include "core/alloc_probe.hh"
#include "core/atomics_probe.hh"
#include "core/fault_probe.hh"
#include "core/latency_probe.hh"
#include "core/stream_probe.hh"

namespace upm::core {
namespace {

using AK = alloc::AllocatorKind;

SystemConfig
probeConfig()
{
    SystemConfig cfg;
    cfg.geometry.capacityBytes = 4 * GiB;
    return cfg;
}

TEST(LatencyProbe, CurveIsMonotone)
{
    System sys(probeConfig());
    LatencyProbe probe(sys);
    auto points = probe.sweep(
        AK::HipMalloc, {1 * KiB, 1 * MiB, 64 * MiB, 512 * MiB, 2 * GiB});
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_GE(points[i].gpuLatency, points[i - 1].gpuLatency);
        EXPECT_GE(points[i].cpuLatency, points[i - 1].cpuLatency);
    }
}

TEST(LatencyProbe, GpuInsensitiveCpuSensitive)
{
    // Fig. 2's headline contrast at 512 MiB.
    System sys(probeConfig());
    LatencyProbe probe(sys);
    auto hip = probe.measure(AK::HipMalloc, 512 * MiB);
    auto mal = probe.measure(AK::Malloc, 512 * MiB);
    EXPECT_NEAR(hip.gpuLatency, mal.gpuLatency, 5.0);
    EXPECT_GT(mal.cpuLatency, hip.cpuLatency + 25.0);
}

TEST(LatencyProbe, ProbeCleansUp)
{
    System sys(probeConfig());
    LatencyProbe probe(sys);
    std::uint64_t free0 = sys.frames().freeFrames();
    probe.measure(AK::Malloc, 64 * MiB, FirstTouch::Gpu);
    EXPECT_EQ(sys.frames().freeFrames(), free0);
    EXPECT_FALSE(sys.runtime().xnack());  // restored
}

TEST(StreamProbe, GpuBandwidthOrdering)
{
    // Fig. 3: hipMalloc > pinned up-front > on-demand >> managed.
    auto bw = [](AK kind, bool xnack) {
        System sys(probeConfig());
        sys.runtime().setXnack(xnack);
        StreamProbe::Params p;
        p.gpuArrayBytes = 64 * MiB;
        StreamProbe probe(sys, p);
        return probe.gpuTriad(kind, FirstTouch::Cpu).bandwidth;
    };
    double hip = bw(AK::HipMalloc, false);
    double pinned = bw(AK::HipHostMalloc, false);
    double malloc_bw = bw(AK::Malloc, true);
    double managed = bw(AK::ManagedStatic, false);
    EXPECT_GT(hip, 1.6 * pinned);
    EXPECT_LT(hip, 2.0 * pinned);
    EXPECT_GT(pinned, malloc_bw);
    EXPECT_GT(malloc_bw, 15.0 * managed);
}

TEST(StreamProbe, TlbMissesSplitByAllocator)
{
    // Fig. 9: only hipMalloc escapes the 4 KiB-fragment miss band.
    StreamProbe::Params p;
    p.gpuArrayBytes = 64 * MiB;
    std::uint64_t hip_misses, pinned_misses;
    {
        System sys(probeConfig());
        StreamProbe probe(sys, p);
        hip_misses = probe.gpuTriad(AK::HipMalloc,
                                    FirstTouch::Cpu).tlbMisses;
    }
    {
        System sys(probeConfig());
        StreamProbe probe(sys, p);
        pinned_misses = probe.gpuTriad(AK::HipHostMalloc,
                                       FirstTouch::Cpu).tlbMisses;
    }
    EXPECT_GT(pinned_misses, 4 * hip_misses);
}

TEST(StreamProbe, TlbMissesPinnedForTable1Configs)
{
    // Exact UTCL1 walk outputs at 16 MiB arrays: only hipMalloc's
    // fragments outreach the 114-page stride between a CU's blocks.
    const struct
    {
        AK kind;
        bool xnack;
        std::uint64_t misses;
    } rows[] = {
        {AK::Malloc, false, 73872},
        {AK::Malloc, true, 73872},
        {AK::MallocRegistered, false, 73872},
        {AK::HipMalloc, false, 3648},
        {AK::HipHostMalloc, false, 73872},
        {AK::HipMallocManaged, false, 73872},
        {AK::HipMallocManaged, true, 73872},
    };
    StreamProbe::Params p;
    p.gpuArrayBytes = 16 * MiB;
    for (const auto &row : rows) {
        System sys(probeConfig());
        sys.runtime().setXnack(row.xnack);
        StreamProbe probe(sys, p);
        EXPECT_EQ(probe.gpuTriad(row.kind, FirstTouch::Cpu).tlbMisses,
                  row.misses)
            << alloc::allocatorName(row.kind) << " xnack " << row.xnack;
    }
}

TEST(StreamProbe, TlbMissesPinnedAcrossReachCaps)
{
    // bench_ablation's sweep A: hipMalloc TRIAD at 64 MiB. Cap 1 clamps
    // every fragment to a page.
    const std::pair<unsigned, std::uint64_t> rows[] = {
        {1, 295488}, {16, 295488}, {128, 262656}, {1024, 43776}};
    StreamProbe::Params p;
    p.gpuArrayBytes = 64 * MiB;
    for (auto [cap, misses] : rows) {
        SystemConfig cfg = probeConfig();
        cfg.gpuTlb.utcl1MaxSpanPages = cap;
        System sys(cfg);
        StreamProbe probe(sys, p);
        EXPECT_EQ(probe.gpuTriad(AK::HipMalloc, FirstTouch::Cpu).tlbMisses,
                  misses)
            << "cap " << cap;
    }
}

TEST(StreamProbe, TlbMissesPinnedOnFragmentedMemory)
{
    // hipMalloc arrays pieced together from 3 MiB holes: each array is
    // many fragment stretches of unequal span, the TLB cannot hold an
    // iteration, and with every CU sampled every page is referenced,
    // stretch boundaries included.
    SystemConfig cfg;
    cfg.geometry.capacityBytes = 512 * MiB;
    System sys(cfg);
    auto &rt = sys.runtime();
    std::vector<hip::DevPtr> held;
    for (int i = 0; i < 162; ++i)
        held.push_back(rt.allocate(AK::HipMalloc, 3 * MiB));
    for (std::size_t i = 0; i < held.size(); i += 2)
        rt.freeChecked(held[i]);
    StreamProbe::Params p;
    p.gpuArrayBytes = 64 * MiB;
    p.sampledCus = sys.config().numCus;
    StreamProbe probe(sys, p);
    EXPECT_EQ(probe.gpuTriad(AK::HipMalloc, FirstTouch::Cpu).tlbMisses,
              62928u);
}

TEST(StreamProbe, CpuFaultCountsMatchFig10Bands)
{
    StreamProbe::Params p;
    p.cpuArrayBytes = 610 * MiB;
    {
        System sys(probeConfig());
        StreamProbe probe(sys, p);
        auto r = probe.cpuTriad(AK::Malloc, FirstTouch::Cpu);
        // 3 x 610 MiB / 4 KiB = 468480 first-touch faults + residual.
        EXPECT_NEAR(static_cast<double>(r.pageFaults), 472680.0, 100.0);
    }
    {
        System sys(probeConfig());
        StreamProbe probe(sys, p);
        auto r = probe.cpuTriad(AK::HipMalloc, FirstTouch::Cpu);
        EXPECT_LT(r.pageFaults, 5000u);
    }
    {
        System sys(probeConfig());
        StreamProbe probe(sys, p);
        auto r = probe.cpuTriad(AK::Malloc, FirstTouch::Gpu);
        EXPECT_LT(r.pageFaults, 10000u);
        EXPECT_GT(r.pageFaults, 5000u);
    }
}

TEST(StreamProbe, CaseBPeaksEarly)
{
    System sys(probeConfig());
    StreamProbe::Params p;
    p.cpuArrayBytes = 256 * MiB;
    StreamProbe probe(sys, p);
    auto b = probe.cpuTriad(AK::Malloc, FirstTouch::Cpu);
    EXPECT_EQ(b.bestThreads, 9u);
    EXPECT_LT(b.perThreadBandwidth[23], b.bandwidth);
}

TEST(AtomicsProbe, CpuShapes)
{
    System sys(probeConfig());
    AtomicsProbe probe(sys);
    // One element anti-scales.
    EXPECT_GT(probe.cpuThroughput(1, 1, AtomicType::Uint64),
              probe.cpuThroughput(1, 6, AtomicType::Uint64));
    // 1M beats 1K and 1G at full threads.
    double k1 = probe.cpuThroughput(1024, 24, AtomicType::Uint64);
    double m1 = probe.cpuThroughput(1 << 20, 24, AtomicType::Uint64);
    double g1 = probe.cpuThroughput(1ull << 30, 24, AtomicType::Uint64);
    EXPECT_GT(m1, k1);
    EXPECT_GT(m1, g1);
    // UINT64 1K is consistently above 1G; FP64 1K is not.
    EXPECT_GT(k1, g1);
    EXPECT_LE(probe.cpuThroughput(1024, 24, AtomicType::Fp64),
              probe.cpuThroughput(1ull << 30, 24, AtomicType::Fp64) *
                  1.3);
}

TEST(AtomicsProbe, CpuFp64PaysCasLoop)
{
    System sys(probeConfig());
    AtomicsProbe probe(sys);
    double u = probe.cpuThroughput(1024, 24, AtomicType::Uint64);
    double f = probe.cpuThroughput(1024, 24, AtomicType::Fp64);
    EXPECT_GT(u / f, 2.0);
    EXPECT_LT(u / f, 4.5);
}

TEST(AtomicsProbe, GpuIsTypeInsensitiveAndFaster)
{
    System sys(probeConfig());
    AtomicsProbe probe(sys);
    double u = probe.gpuThroughput(1 << 20, 24576, AtomicType::Uint64);
    double f = probe.gpuThroughput(1 << 20, 24576, AtomicType::Fp64);
    EXPECT_DOUBLE_EQ(u, f);
    EXPECT_GT(u, 10.0 * probe.cpuThroughput(1 << 20, 24,
                                            AtomicType::Uint64));
}

TEST(AtomicsProbe, GpuScalesWithThreadsUntilCap)
{
    System sys(probeConfig());
    AtomicsProbe probe(sys);
    double t64 = probe.gpuThroughput(1 << 20, 64, AtomicType::Uint64);
    double t6k = probe.gpuThroughput(1 << 20, 6400, AtomicType::Uint64);
    double t24k =
        probe.gpuThroughput(1 << 20, 24576, AtomicType::Uint64);
    EXPECT_NEAR(t6k / t64, 100.0, 15.0);  // linear region
    EXPECT_LT(t24k / t6k, 4.0);           // approaching the cap
}

TEST(AtomicsProbe, HybridContentionShapes)
{
    System sys(probeConfig());
    AtomicsProbe probe(sys);
    // 1K: CPU crushed at high GPU thread counts (paper: 11-25%).
    auto high = probe.hybrid(1024, 12, 24576, AtomicType::Uint64);
    EXPECT_GT(high.cpuRelative, 0.10);
    EXPECT_LT(high.cpuRelative, 0.30);
    EXPECT_GT(high.gpuRelative, 0.75);
    // 1M UINT64: mild mutual speedup.
    auto mid = probe.hybrid(1 << 20, 6, 6400, AtomicType::Uint64);
    EXPECT_GT(mid.cpuRelative, 1.02);
    EXPECT_LT(mid.cpuRelative, 1.25);
    EXPECT_GE(mid.gpuRelative, 0.99);
}

TEST(AllocProbe, ReducesChunksForHugeSizes)
{
    System sys(probeConfig());
    AllocProbe probe(sys);
    auto small = probe.measure(AK::HipMalloc, 1 * MiB);
    EXPECT_EQ(small.chunks, 100u);
    auto large = probe.measure(AK::HipMalloc, 1 * GiB);
    EXPECT_LT(large.chunks, 100u);
    EXPECT_GE(large.chunks, 1u);
}

TEST(AllocProbe, MallocBeatsUpFrontEverywhere)
{
    System sys(probeConfig());
    AllocProbe probe(sys);
    for (std::uint64_t size : {4096ull, 1ull * MiB, 64ull * MiB}) {
        auto m = probe.measure(AK::Malloc, size);
        auto h = probe.measure(AK::HipMalloc, size);
        EXPECT_LT(m.allocMean, h.allocMean) << size;
    }
}

TEST(FaultProbe, ThroughputOrderingAtScale)
{
    System sys(probeConfig());
    FaultProbe probe(sys);
    double major = probe.throughput(FaultScenario::GpuMajor, 1'000'000);
    double minor = probe.throughput(FaultScenario::GpuMinor, 1'000'000);
    double cpu1 = probe.throughput(FaultScenario::Cpu1, 1'000'000);
    double cpu12 = probe.throughput(FaultScenario::Cpu12, 1'000'000);
    EXPECT_GT(minor, 5.0 * major);
    EXPECT_GT(cpu12, 3.0 * cpu1);
    EXPECT_GT(major, cpu1);
}

TEST(FaultProbe, LatencyOrdering)
{
    System sys(probeConfig());
    FaultProbe::Params p;
    p.timedIterations = 50;
    FaultProbe probe(sys, p);
    auto cpu = probe.latencyDistribution(FaultScenario::Cpu1);
    auto minor = probe.latencyDistribution(FaultScenario::GpuMinor);
    auto major = probe.latencyDistribution(FaultScenario::GpuMajor);
    EXPECT_LT(cpu.mean(), minor.mean());
    EXPECT_LT(minor.mean(), major.mean());
    // Tails are wider on the GPU.
    EXPECT_GT(major.percentile(95) - major.median(),
              cpu.percentile(95) - cpu.median());
}

TEST(FaultProbe, ZeroPagesRejected)
{
    System sys(probeConfig());
    FaultProbe probe(sys);
    EXPECT_THROW(probe.throughput(FaultScenario::Cpu1, 0), SimError);
}

} // namespace
} // namespace upm::core
