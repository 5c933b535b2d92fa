/**
 * @file
 * Edge cases and failure injection across the stack: zero/tiny sizes,
 * boundary-straddling accesses, error paths after failures, probe
 * parameterized sweeps.
 */

#include <gtest/gtest.h>

#include "audit/auditor.hh"
#include "common/log.hh"
#include "core/latency_probe.hh"
#include "core/system.hh"

#include "gpu_table_util.hh"

namespace upm {
namespace {

using AK = alloc::AllocatorKind;

core::SystemConfig
cfg1G()
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 1 * GiB;
    return cfg;
}

core::SystemConfig
cfg1GAudited()
{
    core::SystemConfig cfg = cfg1G();
    cfg.audit.enabled = true;
    cfg.audit.warnOnViolation = false;
    return cfg;
}

TEST(EdgeCases, SubPageAllocationsOccupyWholePages)
{
    core::System sys(cfg1G());
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hipMalloc(1);  // 1 byte
    EXPECT_EQ(rt.allocationOf(p).size, 1u);
    EXPECT_EQ(sys.meminfo().usedBytes(), mem::kPageSize);
    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
}

TEST(EdgeCases, ZeroByteMmapIsUserError)
{
    core::System sys(cfg1G());
    EXPECT_THROW(sys.runtime().hipMalloc(0), SimError);
}

TEST(EdgeCases, PartialPageFirstTouchMapsThePage)
{
    core::System sys(cfg1G());
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hostMalloc(64 * KiB);
    rt.cpuFirstTouch(p + 100, 1);  // touch one byte mid-page
    EXPECT_EQ(rt.addressSpace().cpuFaults(), 1u);
    EXPECT_TRUE(test::cpuPresent(rt.addressSpace(), p));
    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
}

TEST(EdgeCases, FirstTouchClampsToVmaEnd)
{
    core::System sys(cfg1G());
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hostMalloc(16 * KiB);
    // Asking to touch past the VMA end must not fault outside it.
    rt.cpuFirstTouch(p, 1 * MiB);
    EXPECT_EQ(rt.addressSpace().cpuFaults(), 4u);
    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
}

TEST(EdgeCases, KernelFootprintClampsToVma)
{
    core::System sys(cfg1G());
    auto &rt = sys.runtime();
    rt.setXnack(true);
    hip::DevPtr p = rt.hostMalloc(16 * KiB);
    hip::KernelDesc k;
    k.buffers.push_back({p, 16 * KiB, 1 * MiB});  // oversized footprint
    EXPECT_NO_THROW(rt.launchKernel(k, nullptr));
    EXPECT_EQ(rt.stats().gpuFaultedPagesMajor, 4u);
    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
}

TEST(EdgeCases, ZeroByteMemcpyIsHarmless)
{
    core::System sys(cfg1G());
    auto &rt = sys.runtime();
    hip::DevPtr a = rt.hipMalloc(4096);
    hip::DevPtr b = rt.hipMalloc(4096);
    EXPECT_NO_THROW(rt.hipMemcpy(a, b, 0));
    EXPECT_EQ(rt.hipFree(a), hip::hipSuccess);
    EXPECT_EQ(rt.hipFree(b), hip::hipSuccess);
}

TEST(EdgeCases, SelfMemcpyKeepsData)
{
    core::System sys(cfg1G());
    auto &rt = sys.runtime();
    hip::DevPtr a = rt.hipMalloc(4096);
    rt.hostPtr<int>(a, 1)[0] = 7;
    rt.hipMemcpy(a, a, 4096);
    EXPECT_EQ(rt.hostPtr<int>(a, 1)[0], 7);
    EXPECT_EQ(rt.hipFree(a), hip::hipSuccess);
}

TEST(EdgeCases, SystemSurvivesFailedAllocation)
{
    // Failure injection: OOM must not corrupt allocator state.
    core::System sys(cfg1G());
    auto &rt = sys.runtime();
    std::uint64_t free0 = sys.frames().freeFrames();
    EXPECT_THROW(rt.hipMalloc(2 * GiB), SimError);
    EXPECT_EQ(sys.frames().freeFrames(), free0);
    // Normal operation continues.
    hip::DevPtr p = rt.hipMalloc(128 * MiB);
    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
    EXPECT_EQ(sys.frames().freeFrames(), free0);
}

TEST(EdgeCases, SystemSurvivesGpuViolation)
{
    core::System sys(cfg1G());
    auto &rt = sys.runtime();
    rt.setXnack(false);
    hip::DevPtr p = rt.hostMalloc(1 * MiB);
    hip::KernelDesc k;
    k.buffers.push_back({p, 1 * MiB, 1 * MiB});
    EXPECT_THROW(rt.launchKernel(k, nullptr), SimError);
    // The failed launch must not leave partial GPU mappings behind.
    EXPECT_FALSE(test::gpuPresent(rt.addressSpace(), p));
    rt.setXnack(true);
    EXPECT_NO_THROW(rt.launchKernel(k, nullptr));
    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
}

TEST(EdgeCases, AuditedMisuseIsClassifiedNotJustFatal)
{
    // hipMemGetInfo only sees hipMalloc (the Section 3.2 blind spot),
    // so a program can "pass" its fit check and still misuse memory.
    // The auditor's allocation shadow sees every allocator kind and
    // classifies the misuse precisely.
    core::System sys(cfg1GAudited());
    auto &rt = sys.runtime();
    auto free_before = rt.hipMemGetInfo().freeBytes;
    hip::DevPtr p = rt.hostMalloc(64 * MiB);
    EXPECT_EQ(rt.hipMemGetInfo().freeBytes, free_before);  // blind spot

    rt.cpuFirstTouch(p, 64 * MiB);
    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
    EXPECT_THROW(rt.cpuFirstTouch(p, 4 * KiB), SimError);
    EXPECT_GE(sys.auditor()->countOf(audit::ViolationKind::UseAfterFree),
              1u);
}

TEST(EdgeCases, AuditedBoundaryClampingRaisesNoViolations)
{
    // Boundary-straddling accesses clamp to the VMA; under audit the
    // clamping must not misread as an invariant violation.
    core::System sys(cfg1GAudited());
    auto &rt = sys.runtime();
    rt.setXnack(true);
    hip::DevPtr p = rt.hostMalloc(16 * KiB);
    rt.cpuFirstTouch(p, 1 * MiB);  // past the VMA end
    hip::KernelDesc k;
    k.buffers.push_back({p, 16 * KiB, 1 * MiB});  // oversized footprint
    rt.launchKernel(k, nullptr);
    rt.deviceSynchronize();
    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
    sys.finalizeAudit();
    EXPECT_TRUE(sys.auditor()->clean()) << sys.auditor()->summary();
}

TEST(EdgeCases, AuditedOomRollbackLeaksNothing)
{
    // The OOM rollback path returns every partially-allocated frame;
    // the teardown leak scan must agree.
    core::System sys(cfg1GAudited());
    auto &rt = sys.runtime();
    EXPECT_THROW(rt.hipMalloc(2 * GiB), SimError);
    sys.finalizeAudit();
    EXPECT_EQ(sys.auditor()->countOf(audit::ViolationKind::FrameLeak), 0u);
    EXPECT_TRUE(sys.auditor()->clean()) << sys.auditor()->summary();
}

TEST(EdgeCases, ZeroByteAllocationIsInvalidValue)
{
    core::System sys(cfg1G());
    auto &rt = sys.runtime();
    hip::DevPtr p = 0xabcd;
    EXPECT_EQ(rt.tryAllocate(AK::HipMalloc, 0, p),
              hip::hipErrorInvalidValue);
    EXPECT_EQ(p, 0u);
    EXPECT_EQ(rt.hipGetLastError(), hip::hipErrorInvalidValue);
}

TEST(EdgeCases, VaSpaceExhaustionIsOutOfMemory)
{
    core::System sys(cfg1G());
    auto &as = sys.addressSpace();
    // The anonymous VA window is 1 TiB; a 2 TiB reservation cannot fit
    // regardless of physical capacity.
    auto r = as.tryMmapAnon(2 * TiB, {}, "huge");
    EXPECT_FALSE(r);
    EXPECT_EQ(r.status, Status::OutOfMemory);

    auto zero = as.tryMmapAnon(0, {}, "empty");
    EXPECT_EQ(zero.status, Status::InvalidValue);
}

TEST(EdgeCases, UnknownAddressesReportNotFound)
{
    core::System sys(cfg1G());
    auto &rt = sys.runtime();
    EXPECT_EQ(sys.addressSpace().munmap(0xdead0000), Status::NotFound);
    EXPECT_EQ(rt.hipFree(0xdead0000), hip::hipErrorNotFound);
    EXPECT_EQ(rt.hipHostRegister(0xdead0000), hip::hipErrorNotFound);
    EXPECT_EQ(rt.hipGetLastError(), hip::hipErrorNotFound);
    EXPECT_EQ(rt.hipGetLastError(), hip::hipSuccess);

    auto pop = sys.addressSpace().tryPopulateRange(0xdead0000, 4 * KiB);
    EXPECT_EQ(pop.status, Status::NotFound);
    EXPECT_EQ(pop.pages, 0u);
}

TEST(EdgeCases, LastErrorIsStickyUntilRead)
{
    core::System sys(cfg1G());
    auto &rt = sys.runtime();
    EXPECT_EQ(rt.hipPeekAtLastError(), hip::hipSuccess);
    EXPECT_EQ(rt.hipFree(0xdead0000), hip::hipErrorNotFound);
    EXPECT_EQ(rt.hipPeekAtLastError(), hip::hipErrorNotFound);
    // A successful call does not clear the sticky error (HIP keeps
    // the last *error*, not the last status).
    hip::DevPtr p = rt.hipMalloc(4096);
    EXPECT_EQ(rt.hipPeekAtLastError(), hip::hipErrorNotFound);
    EXPECT_EQ(rt.hipGetLastError(), hip::hipErrorNotFound);
    EXPECT_EQ(rt.hipPeekAtLastError(), hip::hipSuccess);
    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
}

TEST(EdgeCases, ManyStreamsGetDistinctIds)
{
    core::System sys(cfg1G());
    auto &rt = sys.runtime();
    hip::Stream a = rt.makeStream();
    hip::Stream b = rt.makeStream();
    EXPECT_NE(a.id(), b.id());
    EXPECT_NE(a.id(), rt.defaultStream().id());
}

/** Latency probe sweeps stay monotone for every allocator. */
class LatencyMonotone : public ::testing::TestWithParam<AK>
{
};

TEST_P(LatencyMonotone, CurveNeverDecreases)
{
    core::System sys(cfg1G());
    core::LatencyProbe probe(sys);
    auto points = probe.sweep(GetParam(),
                              {4 * KiB, 512 * KiB, 8 * MiB, 128 * MiB,
                               512 * MiB});
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_GE(points[i].gpuLatency, points[i - 1].gpuLatency - 1e-9);
        EXPECT_GE(points[i].cpuLatency, points[i - 1].cpuLatency - 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Allocators, LatencyMonotone,
    ::testing::Values(AK::Malloc, AK::MallocRegistered, AK::HipMalloc,
                      AK::HipHostMalloc, AK::HipMallocManaged));

} // namespace
} // namespace upm
