/**
 * @file
 * Integration tests across the full stack: end-to-end scenarios that
 * exercise allocators, the VM, the runtime, the performance model, and
 * the profiling views together -- including the cross-cutting claims
 * the paper's conclusions rest on.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "core/latency_probe.hh"
#include "core/stream_probe.hh"
#include "core/system.hh"
#include "gpu_table_util.hh"

namespace upm {
namespace {

using AK = alloc::AllocatorKind;

core::SystemConfig
config()
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 2 * GiB;
    return cfg;
}

TEST(Integration, ApuTopologyMatchesMi300a)
{
    core::System sys;
    const auto &apu = sys.apu();
    EXPECT_EQ(apu.numCus(), 228u);
    EXPECT_EQ(apu.numXcds(), 6u);
    EXPECT_EQ(apu.cusPerXcd(), 38u);
    EXPECT_EQ(apu.numCpuCores(), 24u);
    EXPECT_EQ(apu.coresPerCcd(), 8u);
    EXPECT_EQ(apu.xcdOfCu(0), 0u);
    EXPECT_EQ(apu.xcdOfCu(227), 5u);
    EXPECT_EQ(apu.ccdOfCore(23), 2u);
    EXPECT_THROW(apu.xcdOfCu(228), SimError);
    EXPECT_FALSE(apu.description().empty());
}

TEST(Integration, ExplicitVsUnifiedEndToEnd)
{
    // The paper's headline: one unified allocation replaces the
    // host+device pair and the copies, at equal-or-better time and
    // strictly lower memory.
    const std::uint64_t n = 128 * MiB;

    core::System explicit_sys(config());
    {
        auto &rt = explicit_sys.runtime();
        hip::DevPtr h = rt.hostMalloc(n);
        rt.cpuFirstTouch(h, n);
        hip::DevPtr d = rt.hipMalloc(n);
        rt.hipMemcpy(d, h, n);
        hip::KernelDesc k;
        k.buffers.push_back({d, 2 * n, n});
        rt.launchKernel(k, nullptr);
        rt.deviceSynchronize();
        rt.hipMemcpy(h, d, n);
    }

    core::System unified_sys(config());
    {
        auto &rt = unified_sys.runtime();
        hip::DevPtr u = rt.hipMalloc(n);
        rt.cpuStream(u, n, 24);  // init on CPU, no faults (up-front)
        hip::KernelDesc k;
        k.buffers.push_back({u, 2 * n, n});
        rt.launchKernel(k, nullptr);
        rt.deviceSynchronize();
    }

    EXPECT_LT(unified_sys.runtime().now(), explicit_sys.runtime().now());
    EXPECT_LT(unified_sys.runtime().peakBytesUsed(),
              explicit_sys.runtime().peakBytesUsed());
    EXPECT_EQ(unified_sys.runtime().stats().memcpyCalls, 0u);
    EXPECT_EQ(explicit_sys.runtime().stats().memcpyCalls, 2u);
}

TEST(Integration, CpuPreFaultingStrategy)
{
    // Section 5.2's recommendation: pre-fault on the CPU to turn GPU
    // major faults into (much cheaper per-page) minor faults.
    const std::uint64_t n = 64 * MiB;

    auto kernel_time = [&](bool prefault) {
        core::System sys(config());
        auto &rt = sys.runtime();
        rt.setXnack(true);
        hip::DevPtr p = rt.hostMalloc(n);
        if (prefault)
            rt.cpuFirstTouch(p, n, 12);
        hip::KernelDesc k;
        k.buffers.push_back({p, n, n});
        return rt.launchKernel(k, nullptr);
    };
    EXPECT_LT(kernel_time(true), 0.5 * kernel_time(false));
}

TEST(Integration, OvercommitIsImpossibleOnUpm)
{
    // Unlike UVM on discrete GPUs, UPM cannot overcommit: there is one
    // physical memory and exhausting it is fatal for up-front
    // allocation and for on-demand touch alike.
    core::System sys(config());
    auto &rt = sys.runtime();
    EXPECT_THROW(rt.hipMalloc(3 * GiB), SimError);

    hip::DevPtr big = rt.hostMalloc(3 * GiB);  // virtual: fine
    EXPECT_THROW(rt.cpuFirstTouch(big, 3 * GiB), SimError);  // physical
}

TEST(Integration, XnackModeGatesTheUnifiedModelForMalloc)
{
    core::System sys(config());
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hostMalloc(1 * MiB);
    hip::KernelDesc k;
    k.buffers.push_back({p, 1 * MiB, 1 * MiB});
    rt.setXnack(false);
    EXPECT_THROW(rt.launchKernel(k, nullptr), SimError);
    rt.setXnack(true);
    EXPECT_NO_THROW(rt.launchKernel(k, nullptr));
}

TEST(Integration, FragmentPipelineFromBuddyToTlb)
{
    // The whole fragment pipeline: buddy contiguity -> PTE fragments
    // -> UTCL1 reach -> bandwidth. Verified end to end by comparing
    // hipMalloc against hipHostMalloc on the same system.
    core::System sys(config());
    auto &rt = sys.runtime();

    hip::DevPtr a = rt.hipMalloc(64 * MiB);
    hip::DevPtr b = rt.hipHostMalloc(64 * MiB);

    auto frag_a = test::fragmentOf(rt.addressSpace().gpuTable(), vm::vpnOf(a));
    auto frag_b = test::fragmentOf(rt.addressSpace().gpuTable(), vm::vpnOf(b));
    EXPECT_GT(frag_a.span, 1000u);
    EXPECT_LE(frag_b.span, 4u);

    auto prof_a = rt.perf().profileRegion(rt.addressSpace(), a, 64 * MiB);
    auto prof_b = rt.perf().profileRegion(rt.addressSpace(), b, 64 * MiB);
    EXPECT_GT(rt.perf().gpuStreamBandwidth(prof_a),
              1.5 * rt.perf().gpuStreamBandwidth(prof_b));
}

TEST(Integration, MeminfoTracksWorkloadPeak)
{
    core::System sys(config());
    auto &rt = sys.runtime();
    std::uint64_t used0 = sys.meminfo().usedBytes();
    hip::DevPtr a = rt.hipMalloc(256 * MiB);
    hip::DevPtr b = rt.hipMalloc(256 * MiB);
    EXPECT_EQ(rt.hipFree(a), hip::hipSuccess);
    EXPECT_EQ(sys.meminfo().usedBytes(), used0 + 256 * MiB);
    EXPECT_GE(rt.peakBytesUsed(), used0 + 512 * MiB);
    EXPECT_EQ(rt.hipFree(b), hip::hipSuccess);
}

TEST(Integration, RepeatedAllocFreeCyclesAreStable)
{
    // Failure-injection-adjacent soak: allocator/VM state stays
    // consistent across many mixed cycles.
    core::System sys(config());
    auto &rt = sys.runtime();
    rt.setXnack(true);
    std::uint64_t free0 = sys.frames().freeFrames();
    for (int round = 0; round < 20; ++round) {
        hip::DevPtr a = rt.hipMalloc(8 * MiB);
        hip::DevPtr b = rt.hostMalloc(8 * MiB);
        rt.cpuFirstTouch(b, 4 * MiB);
        hip::KernelDesc k;
        k.buffers.push_back({b, 8 * MiB, 8 * MiB});
        rt.launchKernel(k, nullptr);
        rt.deviceSynchronize();
        rt.hipMemcpy(a, b, 8 * MiB);
        EXPECT_EQ(rt.hipFree(round % 2 ? a : b), hip::hipSuccess);
        EXPECT_EQ(rt.hipFree(round % 2 ? b : a), hip::hipSuccess);
    }
    EXPECT_EQ(sys.frames().freeFrames(), free0);
    EXPECT_EQ(sys.backing().totalBytes(), 0u);
}

TEST(Integration, LatencyAndBandwidthAgreeOnAllocatorRanking)
{
    // Cross-probe consistency: the allocator the bandwidth probe ranks
    // best must not be worse in the latency probe's CPU view.
    core::System sys(config());
    core::LatencyProbe lat(sys);
    auto hip_point = lat.measure(AK::HipMalloc, 512 * MiB);
    auto mal_point = lat.measure(AK::Malloc, 512 * MiB);
    EXPECT_LE(hip_point.cpuLatency, mal_point.cpuLatency);
}

} // namespace
} // namespace upm
