/**
 * @file
 * Tests for the simhip runtime: allocation API, hipMemcpy paths and
 * functional copies, kernel launch with fault accounting, streams and
 * events, synchronization semantics, hipMemGetInfo's blind spot, and
 * XNACK gating.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "core/system.hh"

#include "gpu_table_util.hh"

namespace upm::hip {
namespace {

core::SystemConfig
testConfig()
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 1 * GiB;
    return cfg;
}

class HipTest : public ::testing::Test
{
  protected:
    HipTest() : sys(testConfig()), rt(sys.runtime()) {}

    core::System sys;
    Runtime &rt;
};

TEST_F(HipTest, AllocateFreeAdvancesHostClock)
{
    SimTime t0 = rt.now();
    DevPtr p = rt.hipMalloc(64 * MiB);
    EXPECT_GT(rt.now(), t0);
    SimTime t1 = rt.now();
    EXPECT_EQ(rt.hipFree(p), hipSuccess);
    EXPECT_GT(rt.now(), t1);
}

TEST_F(HipTest, FreeingUnknownPointerIsUserError)
{
    EXPECT_EQ(rt.hipFree(0xdead000), hipErrorNotFound);
    EXPECT_EQ(rt.hipGetLastError(), hipErrorNotFound);
    EXPECT_EQ(rt.hipGetLastError(), hipSuccess);  // cleared on read
}

TEST_F(HipTest, HostPtrRoundTrip)
{
    DevPtr p = rt.hipMalloc(4096);
    auto *data = rt.hostPtr<std::uint32_t>(p, 1024);
    data[1023] = 77;
    EXPECT_EQ(rt.hostPtr<std::uint32_t>(p, 1024)[1023], 77u);
    EXPECT_EQ(rt.hipFree(p), hipSuccess);
}

TEST_F(HipTest, MemGetInfoOnlySeesHipMalloc)
{
    auto before = rt.hipMemGetInfo();
    DevPtr host = rt.hostMalloc(128 * MiB);
    rt.cpuFirstTouch(host, 128 * MiB);
    DevPtr pinned = rt.hipHostMalloc(64 * MiB);
    EXPECT_EQ(rt.hipMemGetInfo().freeBytes, before.freeBytes);

    DevPtr dev = rt.hipMalloc(64 * MiB);
    EXPECT_EQ(rt.hipMemGetInfo().freeBytes, before.freeBytes - 64 * MiB);

    // The NUMA view (libnuma) sees everything.
    EXPECT_LE(sys.meminfo().freeBytes(),
              before.freeBytes - 256 * MiB + 1 * MiB);
    EXPECT_EQ(rt.hipFree(host), hipSuccess);
    EXPECT_EQ(rt.hipFree(pinned), hipSuccess);
    EXPECT_EQ(rt.hipFree(dev), hipSuccess);
}

TEST_F(HipTest, MemcpyMovesBytes)
{
    DevPtr src = rt.hipMalloc(8192);
    DevPtr dst = rt.hipMalloc(8192);
    rt.hostPtr<char>(src, 8192)[100] = 'x';
    rt.hipMemcpy(dst, src, 8192);
    EXPECT_EQ(rt.hostPtr<char>(dst, 8192)[100], 'x');
    EXPECT_EQ(rt.hipFree(src), hipSuccess);
    EXPECT_EQ(rt.hipFree(dst), hipSuccess);
}

TEST_F(HipTest, MemcpyPathSelection)
{
    DevPtr pageable = rt.hostMalloc(1 * MiB);
    rt.cpuFirstTouch(pageable, 1 * MiB);
    DevPtr pinned = rt.hipHostMalloc(1 * MiB);
    DevPtr dev_a = rt.hipMalloc(1 * MiB);
    DevPtr dev_b = rt.hipMalloc(1 * MiB);

    EXPECT_EQ(rt.hipMemcpy(dev_a, pageable, 1 * MiB),
              CopyPath::SdmaPageable);
    EXPECT_EQ(rt.hipMemcpy(dev_a, pinned, 1 * MiB),
              CopyPath::SdmaPinned);
    EXPECT_EQ(rt.hipMemcpy(dev_b, dev_a, 1 * MiB),
              CopyPath::BlitDeviceDevice);
    rt.setSdma(false);
    EXPECT_EQ(rt.hipMemcpy(dev_a, pageable, 1 * MiB),
              CopyPath::BlitHostDevice);
    EXPECT_EQ(rt.hipMemcpy(dev_b, dev_a, 1 * MiB),
              CopyPath::BlitDeviceDevice);
}

TEST_F(HipTest, MemcpyBandwidthAnchors)
{
    // Paper Section 4.3: 58 GB/s SDMA, ~850 GB/s blit, ~1900 GB/s D2D.
    MemcpyEngine &engine = rt.memcpyEngine();
    const std::uint64_t n = 1 * GiB;
    auto bw = [&](CopyPath path) {
        return static_cast<double>(n) / engine.transferTime(path, n);
    };
    EXPECT_NEAR(bw(CopyPath::SdmaPageable), 58.0, 1.0);
    EXPECT_NEAR(bw(CopyPath::BlitHostDevice), 850.0, 10.0);
    EXPECT_NEAR(bw(CopyPath::BlitDeviceDevice), 1900.0, 40.0);
}

TEST_F(HipTest, MemcpyIntoOnDemandDestinationFaultsIt)
{
    DevPtr src = rt.hipMalloc(1 * MiB);
    DevPtr dst = rt.hostMalloc(1 * MiB);
    std::uint64_t faults_before = rt.addressSpace().cpuFaults();
    rt.hipMemcpy(dst, src, 1 * MiB);
    EXPECT_EQ(rt.addressSpace().cpuFaults() - faults_before, 256u);
    EXPECT_EQ(rt.hipFree(src), hipSuccess);
    EXPECT_EQ(rt.hipFree(dst), hipSuccess);
}

TEST_F(HipTest, KernelRunsBodyAndTimesTraffic)
{
    DevPtr buf = rt.hipMalloc(32 * MiB);
    int ran = 0;
    KernelDesc k;
    k.name = "t";
    k.buffers.push_back({buf, 32 * MiB, 32 * MiB});
    SimTime d = rt.launchKernel(k, [&] { ran = 1; });
    EXPECT_EQ(ran, 1);
    // >= launch overhead + traffic at <= peak bandwidth.
    EXPECT_GT(d, sys.config().compute.kernelLaunchOverhead);
    EXPECT_GT(d, 32.0 * MiB / tbps(3.7));
    EXPECT_EQ(rt.hipFree(buf), hipSuccess);
}

TEST_F(HipTest, KernelOnMallocWithoutXnackIsViolation)
{
    DevPtr buf = rt.hostMalloc(1 * MiB);
    KernelDesc k;
    k.buffers.push_back({buf, 1 * MiB, 1 * MiB});
    rt.setXnack(false);
    EXPECT_THROW(rt.launchKernel(k, nullptr), SimError);
}

TEST_F(HipTest, KernelFaultAccounting)
{
    rt.setXnack(true);
    DevPtr buf = rt.hostMalloc(1 * MiB);
    KernelDesc k;
    k.buffers.push_back({buf, 1 * MiB, 1 * MiB});

    // First kernel: major faults over the whole footprint.
    rt.launchKernel(k, nullptr);
    EXPECT_EQ(rt.stats().gpuFaultedPagesMajor, 256u);

    // Second kernel: everything mapped, no faults.
    rt.launchKernel(k, nullptr);
    EXPECT_EQ(rt.stats().gpuFaultedPagesMajor, 256u);
    EXPECT_EQ(rt.stats().gpuFaultedPagesMinor, 0u);
    EXPECT_EQ(rt.hipFree(buf), hipSuccess);
}

TEST_F(HipTest, CpuPreFaultTurnsGpuFaultsMinor)
{
    rt.setXnack(true);
    DevPtr buf = rt.hostMalloc(1 * MiB);
    rt.cpuFirstTouch(buf, 1 * MiB);
    KernelDesc k;
    k.buffers.push_back({buf, 1 * MiB, 1 * MiB});
    rt.launchKernel(k, nullptr);
    EXPECT_EQ(rt.stats().gpuFaultedPagesMajor, 0u);
    EXPECT_EQ(rt.stats().gpuFaultedPagesMinor, 256u);
    EXPECT_EQ(rt.hipFree(buf), hipSuccess);
}

TEST_F(HipTest, StreamsOverlapHostWork)
{
    DevPtr buf = rt.hipMalloc(64 * MiB);
    Stream s = rt.makeStream();
    KernelDesc k;
    k.buffers.push_back({buf, 64 * MiB, 64 * MiB});

    SimTime launch_at = rt.now();
    rt.launchKernel(k, nullptr, &s);
    // Launch is asynchronous: host clock does not advance.
    EXPECT_DOUBLE_EQ(rt.now(), launch_at);

    // Host does 1 ms of work while the kernel runs.
    rt.advanceHost(1.0 * milliseconds);
    rt.streamSynchronize(s);
    // Kernel (~tens of us) fits inside the host work: no extra wait.
    EXPECT_DOUBLE_EQ(rt.now(), launch_at + 1.0 * milliseconds);
    EXPECT_EQ(rt.hipFree(buf), hipSuccess);
}

TEST_F(HipTest, StreamSerializesItsOwnWork)
{
    Stream s = rt.makeStream();
    SimTime end1 = s.enqueue(0.0, 100.0);
    SimTime end2 = s.enqueue(0.0, 50.0);
    EXPECT_DOUBLE_EQ(end1, 100.0);
    EXPECT_DOUBLE_EQ(end2, 150.0);
    // An op submitted after the stream drained starts immediately.
    EXPECT_DOUBLE_EQ(s.enqueue(500.0, 10.0), 510.0);
}

TEST_F(HipTest, EventsMeasureStreamTime)
{
    DevPtr buf = rt.hipMalloc(64 * MiB);
    Stream s = rt.makeStream();
    Event start = rt.eventRecord(s);
    KernelDesc k;
    k.buffers.push_back({buf, 64 * MiB, 64 * MiB});
    SimTime d = rt.launchKernel(k, nullptr, &s);
    Event stop = rt.eventRecord(s);
    EXPECT_NEAR(rt.eventElapsed(start, stop), d, 1e-9);
    EXPECT_THROW(rt.eventElapsed(Event{}, stop), SimError);
    EXPECT_EQ(rt.hipFree(buf), hipSuccess);
}

TEST_F(HipTest, MemcpyAsyncOverlaps)
{
    DevPtr h = rt.hipHostMalloc(64 * MiB);
    DevPtr d = rt.hipMalloc(64 * MiB);
    Stream s = rt.makeStream();
    SimTime t0 = rt.now();
    rt.hipMemcpyAsync(d, h, 64 * MiB, s);
    EXPECT_DOUBLE_EQ(rt.now(), t0);  // async
    EXPECT_GT(s.readyAt(), t0);
    rt.streamSynchronize(s);
    EXPECT_GT(rt.now(), t0);
    EXPECT_EQ(rt.hipFree(h), hipSuccess);
    EXPECT_EQ(rt.hipFree(d), hipSuccess);
}

TEST_F(HipTest, PeakMemoryTracksWorstCase)
{
    rt.resetPeak();
    DevPtr a = rt.hipMalloc(128 * MiB);
    DevPtr b = rt.hipMalloc(128 * MiB);
    EXPECT_EQ(rt.hipFree(a), hipSuccess);
    EXPECT_EQ(rt.hipFree(b), hipSuccess);
    EXPECT_GE(rt.peakBytesUsed(), 256 * MiB);
}

TEST_F(HipTest, HostRegisterUpgradesAllocation)
{
    DevPtr p = rt.hostMalloc(1 * MiB);
    rt.cpuFirstTouch(p, 1 * MiB);
    EXPECT_EQ(rt.hipHostRegister(p), hipSuccess);
    EXPECT_EQ(rt.allocationOf(p).kind,
              alloc::AllocatorKind::MallocRegistered);
    EXPECT_TRUE(test::gpuPresent(rt.addressSpace(), p));
    // Now GPU-accessible without XNACK.
    rt.setXnack(false);
    KernelDesc k;
    k.buffers.push_back({p, 1 * MiB, 1 * MiB});
    EXPECT_NO_THROW(rt.launchKernel(k, nullptr));
    EXPECT_EQ(rt.hipFree(p), hipSuccess);
}

TEST_F(HipTest, UncachedManagedStaticIsSlowFromGpu)
{
    DevPtr m = rt.managedStatic(32 * MiB);
    DevPtr h = rt.hipMalloc(32 * MiB);
    KernelDesc km, kh;
    km.buffers.push_back({m, 32 * MiB, 32 * MiB});
    kh.buffers.push_back({h, 32 * MiB, 32 * MiB});
    SimTime tm = rt.launchKernel(km, nullptr);
    SimTime th = rt.launchKernel(kh, nullptr);
    EXPECT_GT(tm, 5.0 * th);
    EXPECT_EQ(rt.hipFree(m), hipSuccess);
    EXPECT_EQ(rt.hipFree(h), hipSuccess);
}

} // namespace
} // namespace upm::hip
