/**
 * @file
 * Tests for UPMInject: determinism of the per-site decision streams,
 * the zero-overhead-when-off guarantee (no injector wired, fault
 * service bit-identical to serviceTime), and each fault site's
 * end-to-end failure semantics -- recoverable OOM from frame-alloc
 * failures, bounded retry + Timeout from dropped HMM completions,
 * bounded XNACK storms, SDMA stalls and HBM degradation episodes.
 */

#include <gtest/gtest.h>

#include "core/system.hh"

namespace upm::inject {
namespace {

core::SystemConfig
smallConfig()
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 64 * MiB;
    return cfg;
}

/** A fixed op sequence that exercises every fault site. */
void
runOpSequence(core::System &sys)
{
    auto &rt = sys.runtime();
    rt.setXnack(true);
    hip::DevPtr managed = 0;
    if (rt.tryAllocate(alloc::AllocatorKind::HipMallocManaged, 1 * MiB,
                       managed) != hip::hipSuccess)
        return;
    hip::KernelDesc k;
    k.buffers.push_back({managed, 1 * MiB, 1 * MiB});
    try {
        rt.launchKernel(k, nullptr);
    } catch (const StatusError &) {
        // Injected timeout: still a structured, recoverable outcome.
    }
    try {
        rt.cpuFirstTouch(managed, 1 * MiB);
    } catch (const StatusError &) {
    }
    hip::DevPtr dev = 0;
    if (rt.tryAllocate(alloc::AllocatorKind::HipMalloc, 1 * MiB, dev) ==
        hip::hipSuccess) {
        try {
            rt.hipMemcpy(dev, managed, 1 * MiB);
        } catch (const StatusError &) {
        }
        EXPECT_EQ(rt.hipFree(dev), hip::hipSuccess);
    }
    EXPECT_EQ(rt.hipFree(managed), hip::hipSuccess);
}

TEST(InjectDeterminism, SameSeedSameEventLog)
{
    core::SystemConfig cfg = smallConfig();
    cfg.inject = InjectConfig::campaign(0xfeedbeefull);

    core::System a(cfg), b(cfg);
    runOpSequence(a);
    runOpSequence(b);

    ASSERT_NE(a.injector(), nullptr);
    ASSERT_NE(b.injector(), nullptr);
    EXPECT_EQ(a.injector()->totalEvents(), b.injector()->totalEvents());
    const auto &la = a.injector()->events();
    const auto &lb = b.injector()->events();
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t i = 0; i < la.size(); ++i) {
        EXPECT_EQ(la[i].site, lb[i].site);
        EXPECT_EQ(la[i].sequence, lb[i].sequence);
        EXPECT_EQ(la[i].decision, lb[i].decision);
        EXPECT_EQ(la[i].detail, lb[i].detail);
    }
    for (unsigned s = 0; s < kNumSites; ++s) {
        auto site = static_cast<Site>(s);
        EXPECT_EQ(a.injector()->decisionsAt(site),
                  b.injector()->decisionsAt(site));
        EXPECT_EQ(a.injector()->countOf(site),
                  b.injector()->countOf(site));
    }
}

TEST(InjectDeterminism, DifferentSeedsDiverge)
{
    // Drive each site stream directly with enough decisions that two
    // seeds agreeing on every draw is astronomically unlikely.
    Injector a(InjectConfig::campaign(1));
    Injector b(InjectConfig::campaign(2));
    bool diverged = false;
    for (int i = 0; i < 400 && !diverged; ++i) {
        diverged |= a.failFrameAlloc(1) != b.failFrameAlloc(1);
        diverged |= a.dropHmmCompletion() != b.dropHmmCompletion();
        diverged |= a.hmmDelayFactor() != b.hmmDelayFactor();
        diverged |= a.xnackReplayStorm(1) != b.xnackReplayStorm(1);
        diverged |= a.sdmaStall() != b.sdmaStall();
    }
    EXPECT_TRUE(diverged);
}

TEST(InjectOff, DisabledMeansNoInjectorWired)
{
    core::System sys(smallConfig());
    EXPECT_EQ(sys.injector(), nullptr);
}

TEST(InjectOff, ServiceIsBitIdenticalToServiceTime)
{
    vm::FaultHandler fh;
    for (auto type : {vm::FaultType::Cpu, vm::FaultType::GpuMinor,
                      vm::FaultType::GpuMajor}) {
        for (std::uint64_t pages : {1ull, 17ull, 256ull, 4096ull}) {
            auto svc = fh.service(type, pages);
            EXPECT_EQ(svc.status, Status::Success);
            EXPECT_EQ(svc.retries, 0u);
            EXPECT_EQ(svc.replays, 0u);
            // Bit-identical, not approximately equal: the baseline
            // byte-identity guarantee rests on this.
            EXPECT_EQ(svc.time, fh.serviceTime(type, pages));
        }
    }
    auto multi = fh.service(vm::FaultType::Cpu, 512, 8);
    EXPECT_EQ(multi.time, fh.serviceTime(vm::FaultType::Cpu, 512, 8));
}

TEST(InjectSites, FrameAllocFailureIsRecoverableOom)
{
    core::SystemConfig cfg = smallConfig();
    cfg.audit.enabled = true;
    cfg.audit.warnOnViolation = false;
    cfg.inject.enabled = true;
    cfg.inject.frameAllocFailProb = 1.0;
    core::System sys(cfg);
    auto &rt = sys.runtime();

    std::uint64_t free_before = sys.frames().freeFrames();
    hip::DevPtr p = 0;
    EXPECT_EQ(rt.tryAllocate(alloc::AllocatorKind::HipMalloc, 4 * MiB, p),
              hip::hipErrorOutOfMemory);
    EXPECT_EQ(p, 0u);
    EXPECT_EQ(rt.hipGetLastError(), hip::hipErrorOutOfMemory);
    // Failed allocations must not leak frames...
    EXPECT_EQ(sys.frames().freeFrames(), free_before);
    // ...which the UPMSan leak audit confirms structurally.
    sys.finalizeAudit();
    EXPECT_EQ(sys.auditor()->countOf(audit::ViolationKind::FrameLeak), 0u);
    EXPECT_EQ(sys.injector()->countOf(Site::FrameAlloc), 1u);
}

TEST(InjectSites, DroppedCompletionsRetryThenTimeOut)
{
    InjectConfig icfg;
    icfg.enabled = true;
    icfg.hmmDropProb = 1.0;
    Injector inj(icfg);

    vm::FaultHandler fh({}, vm::FaultHandler::kDefaultSeed,
                        {.inj = &inj});
    auto svc = fh.service(vm::FaultType::GpuMajor, 64);
    EXPECT_EQ(svc.status, Status::Timeout);
    EXPECT_FALSE(svc);
    EXPECT_EQ(svc.retries, fh.costs().maxRetries);
    // Each retry paid backoff plus a full re-service.
    EXPECT_GT(svc.time, fh.serviceTime(vm::FaultType::GpuMajor, 64) *
                            fh.costs().maxRetries);
}

TEST(InjectSites, DroppedCompletionsSurfaceAsStructuredKernelError)
{
    core::SystemConfig cfg = smallConfig();
    cfg.inject.enabled = true;
    cfg.inject.hmmDropProb = 1.0;
    core::System sys(cfg);
    auto &rt = sys.runtime();
    rt.setXnack(true);

    hip::DevPtr buf = rt.hostMalloc(1 * MiB);
    hip::KernelDesc k;
    k.buffers.push_back({buf, 1 * MiB, 1 * MiB});
    try {
        rt.launchKernel(k, nullptr);
        FAIL() << "expected a StatusError(Timeout)";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.code(), Status::Timeout);
    }
    EXPECT_EQ(rt.hipPeekAtLastError(), hip::hipErrorTimeout);
    EXPECT_EQ(rt.hipFree(buf), hip::hipSuccess);
}

TEST(InjectSites, CpuFaultsNeverEnterTheGpuPipeline)
{
    // The drop/delay/storm machinery models the HMM+XNACK pipeline;
    // CPU faults must not consult it even when those sites are armed.
    InjectConfig icfg;
    icfg.enabled = true;
    icfg.hmmDropProb = 1.0;
    icfg.hmmDelayProb = 1.0;
    icfg.xnackStormProb = 1.0;
    Injector inj(icfg);
    vm::FaultHandler fh({}, vm::FaultHandler::kDefaultSeed,
                        {.inj = &inj});
    auto svc = fh.service(vm::FaultType::Cpu, 128, 4);
    EXPECT_EQ(svc.status, Status::Success);
    EXPECT_EQ(svc.time, fh.serviceTime(vm::FaultType::Cpu, 128, 4));
    EXPECT_EQ(inj.totalEvents(), 0u);
}

TEST(InjectSites, XnackStormIsBounded)
{
    InjectConfig icfg;
    icfg.enabled = true;
    icfg.xnackStormProb = 1.0;
    icfg.xnackStormMaxReplays = 3;
    Injector inj(icfg);
    for (int i = 0; i < 64; ++i) {
        unsigned extra = inj.xnackReplayStorm(16);
        EXPECT_GE(extra, 1u);
        EXPECT_LE(extra, icfg.xnackStormMaxReplays);
    }
    EXPECT_EQ(inj.countOf(Site::XnackStorm), 64u);

    // Through the fault handler: a storm adds whole extra service
    // rounds on top of the base time.
    Injector inj2(icfg);
    vm::FaultHandler fh({}, vm::FaultHandler::kDefaultSeed,
                        {.inj = &inj2});
    auto svc = fh.service(vm::FaultType::GpuMajor, 32);
    ASSERT_TRUE(svc);
    EXPECT_GE(svc.replays, 1u);
    EXPECT_LE(svc.replays, icfg.xnackStormMaxReplays);
    SimTime base = fh.serviceTime(vm::FaultType::GpuMajor, 32);
    EXPECT_DOUBLE_EQ(svc.time, base * (1.0 + svc.replays));
}

TEST(InjectSites, HmmDelayMultipliesServiceTime)
{
    InjectConfig icfg;
    icfg.enabled = true;
    icfg.hmmDelayProb = 1.0;
    icfg.hmmDelayFactor = 8.0;
    Injector inj(icfg);
    vm::FaultHandler fh({}, vm::FaultHandler::kDefaultSeed,
                        {.inj = &inj});
    auto svc = fh.service(vm::FaultType::GpuMinor, 64);
    ASSERT_TRUE(svc);
    EXPECT_DOUBLE_EQ(svc.time,
                     fh.serviceTime(vm::FaultType::GpuMinor, 64) * 8.0);
}

TEST(InjectSites, SdmaStallIsDeterministicAndAdditive)
{
    InjectConfig icfg;
    icfg.enabled = true;
    icfg.sdmaStallProb = 1.0;
    Injector inj(icfg);
    EXPECT_DOUBLE_EQ(inj.sdmaStall(), icfg.sdmaStallTime);

    // End to end: a stalled pageable copy takes exactly the stall
    // longer than the un-injected one.
    core::SystemConfig cfg = smallConfig();
    core::System clean(cfg);
    cfg.inject.enabled = true;
    cfg.inject.sdmaStallProb = 1.0;
    core::System stalled(cfg);
    auto timeCopy = [](core::System &sys) {
        auto &rt = sys.runtime();
        hip::DevPtr dst = rt.hipMalloc(1 * MiB);
        hip::DevPtr src = rt.hostMalloc(1 * MiB);
        rt.cpuFirstTouch(src, 1 * MiB);
        SimTime t0 = rt.now();
        rt.hipMemcpy(dst, src, 1 * MiB);
        return rt.now() - t0;
    };
    SimTime d = timeCopy(stalled) - timeCopy(clean);
    EXPECT_DOUBLE_EQ(d, cfg.inject.sdmaStallTime);
}

TEST(InjectSites, HbmDegradeEpisodeCoversConfiguredOps)
{
    InjectConfig icfg;
    icfg.enabled = true;
    icfg.hbmDegradeProb = 1.0;
    icfg.hbmDegradeFactor = 0.5;
    icfg.hbmDegradeOps = 4;
    Injector inj(icfg);

    // The trigger op and the following ops of the episode are all
    // degraded; only the trigger consumes a decision.
    for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(inj.hbmDegradeFactor(), 0.5);
    EXPECT_EQ(inj.decisionsAt(Site::HbmDegrade), 1u);
    EXPECT_EQ(inj.countOf(Site::HbmDegrade), 1u);
    // The episode is over; the next call rolls a fresh decision.
    inj.hbmDegradeFactor();
    EXPECT_EQ(inj.decisionsAt(Site::HbmDegrade), 2u);
}

TEST(InjectSites, ProbabilityZeroSitesNeverFire)
{
    InjectConfig icfg;
    icfg.enabled = true;  // armed injector, all-zero probabilities
    Injector inj(icfg);
    for (int i = 0; i < 32; ++i) {
        EXPECT_FALSE(inj.failFrameAlloc(1));
        EXPECT_FALSE(inj.dropHmmCompletion());
        EXPECT_DOUBLE_EQ(inj.hmmDelayFactor(), 1.0);
        EXPECT_EQ(inj.xnackReplayStorm(1), 0u);
        EXPECT_DOUBLE_EQ(inj.sdmaStall(), 0.0);
        EXPECT_DOUBLE_EQ(inj.hbmDegradeFactor(), 1.0);
    }
    EXPECT_EQ(inj.totalEvents(), 0u);
}

} // namespace
} // namespace upm::inject
