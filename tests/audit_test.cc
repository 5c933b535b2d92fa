/**
 * @file
 * UPMSan tests: every checker class must fire on a deliberately seeded
 * violation, and the whole workload suite must run clean (no false
 * positives) with auditing on.
 */

#include <gtest/gtest.h>

#include "audit/auditor.hh"
#include "cache/directory.hh"
#include "common/log.hh"
#include "core/system.hh"
#include "gpu_table_util.hh"
#include "workloads/workload.hh"

namespace upm {
namespace {

using audit::ViolationKind;

core::SystemConfig
auditCfg()
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 1 * GiB;
    cfg.audit.enabled = true;
    cfg.audit.warnOnViolation = false;  // keep test output quiet
    return cfg;
}

audit::AuditConfig
quietAudit()
{
    audit::AuditConfig cfg;
    cfg.enabled = true;
    cfg.warnOnViolation = false;
    return cfg;
}

// ---- Race detector engine --------------------------------------------

TEST(RaceDetector, ConcurrentWritesRace)
{
    audit::RaceDetector det;
    std::vector<audit::RaceReport> reports;
    det.accessRange(audit::kHostAgent, 100, 1, true, "cpu write", reports);
    det.accessRange(1, 100, 1, true, "gpu write", reports);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].page, 100u);
    EXPECT_EQ(reports[0].firstSite, "cpu write");
    EXPECT_EQ(reports[0].secondSite, "gpu write");
}

TEST(RaceDetector, EdgeEstablishesHappensBefore)
{
    audit::RaceDetector det;
    std::vector<audit::RaceReport> reports;
    det.accessRange(audit::kHostAgent, 100, 1, true, "cpu write", reports);
    det.edge(audit::kHostAgent, 1);  // e.g. stream enqueue
    det.accessRange(1, 100, 1, true, "gpu write", reports);
    EXPECT_TRUE(reports.empty());
}

TEST(RaceDetector, ReadsDoNotRaceWithReads)
{
    audit::RaceDetector det;
    std::vector<audit::RaceReport> reports;
    det.accessRange(audit::kHostAgent, 7, 1, false, "cpu read", reports);
    det.accessRange(1, 7, 1, false, "gpu read", reports);
    EXPECT_TRUE(reports.empty());
}

TEST(RaceDetector, WriteAfterUnsyncedReadRaces)
{
    audit::RaceDetector det;
    std::vector<audit::RaceReport> reports;
    det.edge(audit::kHostAgent, 1);
    det.accessRange(1, 7, 1, false, "gpu read", reports);
    ASSERT_TRUE(reports.empty());
    det.accessRange(audit::kHostAgent, 7, 1, true, "cpu write", reports);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].firstSite, "gpu read");
}

TEST(RaceDetector, SameAgentIsProgramOrdered)
{
    audit::RaceDetector det;
    std::vector<audit::RaceReport> reports;
    det.accessRange(1, 7, 4, true, "first kernel", reports);
    det.accessRange(1, 7, 4, true, "second kernel", reports);
    EXPECT_TRUE(reports.empty());
}

// ---- Seeded violations, one per checker class ------------------------

TEST(AuditSeeded, MirrorDivergenceDetected)
{
    core::System sys(auditCfg());
    auto &rt = sys.runtime();
    auto &as = rt.addressSpace();
    hip::DevPtr p = rt.hipMalloc(64 * KiB);

    // Corrupt the GPU-side mirror: remap one page to the wrong frame.
    vm::Vpn vpn = vm::vpnOf(p);
    auto sys_pte = as.systemTable().lookup(vpn);
    ASSERT_TRUE(sys_pte.has_value());
    as.gpuTable().removeRange(vpn, vpn + 1);
    as.gpuTable().insertRange(vpn, 1, sys_pte->frame + 1, sys_pte->flags);

    // The next mirror pass over the window must notice.
    as.mirror().mirrorRange(vpn, vpn + 1);
    EXPECT_EQ(sys.auditor()->countOf(ViolationKind::MirrorDivergence), 1u);
    EXPECT_EQ(sys.auditor()->violations()[0].addr, vm::addrOf(vpn));
}

TEST(AuditSeeded, MirrorDivergenceReportedPerPageInVpnOrder)
{
    core::System sys(auditCfg());
    auto &rt = sys.runtime();
    auto &as = rt.addressSpace();
    rt.setXnack(true);
    // A strided region (hipMalloc) and a scattered one (malloc pages
    // CPU-touched, then GPU-faulted into the mirror).
    hip::DevPtr dev = rt.hipMalloc(64 * KiB);
    hip::DevPtr host = rt.hostMalloc(64 * KiB);
    rt.cpuFirstTouch(host, 64 * KiB);
    ASSERT_EQ(as.resolveGpuFault(vm::vpnOf(host), 16),
              vm::GpuFaultKind::Minor);

    // Remap GPU pages to wrong frames: lone pages, a strided stretch
    // at a shifted offset, and pages of the scattered run.
    auto corrupt = [&](vm::Vpn vpn, std::uint64_t len, vm::FrameId frame) {
        auto flags = as.systemTable().lookup(vpn)->flags;
        as.gpuTable().removeRange(vpn, vpn + len);
        as.gpuTable().insertRange(vpn, len, frame, flags);
    };
    vm::Vpn d = vm::vpnOf(dev);
    vm::Vpn h = vm::vpnOf(host);
    corrupt(d + 3, 1, as.systemTable().lookup(d + 3)->frame + 1);
    corrupt(d + 8, 4, as.systemTable().lookup(d + 8)->frame + 2);
    corrupt(h + 5, 1, as.systemTable().lookup(h + 6)->frame);
    corrupt(h + 12, 2, as.systemTable().lookup(h + 12)->frame);

    // Expected records: the per-page comparison, in vpn order.
    std::vector<std::pair<std::uint64_t, std::string>> want;
    for (vm::Vpn base : {d, h}) {
        for (vm::Vpn v = base; v < base + 16; ++v) {
            auto sys_pte = as.systemTable().lookup(v);
            auto gpu_pte = as.gpuTable().lookup(v);
            if (gpu_pte && gpu_pte->frame != sys_pte->frame) {
                want.emplace_back(
                    vm::addrOf(v),
                    strprintf("vpn 0x%llx: system PTE maps frame %llu "
                              "but GPU PTE maps frame %llu",
                              static_cast<unsigned long long>(v),
                              static_cast<unsigned long long>(
                                  sys_pte->frame),
                              static_cast<unsigned long long>(
                                  gpu_pte->frame)));
            }
        }
    }
    ASSERT_GE(want.size(), 6u);  // h+12 may already have held its frame

    std::size_t before = sys.auditor()->violations().size();
    as.mirror().mirrorRange(d, d + 16);
    as.mirror().mirrorRange(h, h + 16);
    const auto &found = sys.auditor()->violations();
    ASSERT_EQ(found.size() - before, want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(found[before + i].kind, ViolationKind::MirrorDivergence);
        EXPECT_EQ(found[before + i].addr, want[i].first);
        EXPECT_EQ(found[before + i].detail, want[i].second);
    }

    // The teardown check walks the same runs: drop the system PTE of
    // one page inside the shifted stretch behind HMM's back, and every
    // GPU page must get its per-page verdict, in vpn order, before any
    // other finalize record.
    as.systemTable().removeRange(d + 9, d + 10, [](const vm::PteRun &) {});
    struct Record
    {
        ViolationKind kind;
        std::uint64_t addr;
        std::string detail;
    };
    std::vector<Record> want_final;
    test::forRange(
        as.gpuTable(), 0, ~0ull, [&](vm::Vpn v, const vm::GpuPte &gpu_pte) {
            auto sys_pte = as.systemTable().lookup(v);
            auto vpn = static_cast<unsigned long long>(v);
            auto gpu_frame = static_cast<unsigned long long>(gpu_pte.frame);
            if (!sys_pte) {
                want_final.push_back(
                    {ViolationKind::StaleMirror, vm::addrOf(v),
                     strprintf("GPU PTE for vpn 0x%llx (frame %llu) has "
                               "no system PTE: the MMU notifier missed "
                               "an invalidation",
                               vpn, gpu_frame)});
            } else if (sys_pte->frame != gpu_pte.frame) {
                want_final.push_back(
                    {ViolationKind::MirrorDivergence, vm::addrOf(v),
                     strprintf("vpn 0x%llx: system PTE maps frame %llu "
                               "but GPU PTE maps frame %llu",
                               vpn,
                               static_cast<unsigned long long>(
                                   sys_pte->frame),
                               gpu_frame)});
            }
        });
    ASSERT_EQ(want_final.size(), want.size());
    EXPECT_EQ(want_final[2].kind, ViolationKind::StaleMirror);
    EXPECT_EQ(want_final[2].addr, vm::addrOf(d + 9));

    std::size_t at = sys.auditor()->violations().size();
    sys.finalizeAudit();
    const auto &final_found = sys.auditor()->violations();
    ASSERT_GE(final_found.size() - at, want_final.size());
    for (std::size_t i = 0; i < want_final.size(); ++i) {
        EXPECT_EQ(final_found[at + i].kind, want_final[i].kind);
        EXPECT_EQ(final_found[at + i].addr, want_final[i].addr);
        EXPECT_EQ(final_found[at + i].detail, want_final[i].detail);
    }
    for (std::size_t i = at + want_final.size(); i < final_found.size();
         ++i) {
        EXPECT_NE(final_found[i].kind, ViolationKind::StaleMirror);
        EXPECT_NE(final_found[i].kind, ViolationKind::MirrorDivergence);
    }
}

TEST(AuditSeeded, StaleMirrorDetectedAtFinalize)
{
    core::System sys(auditCfg());
    auto &rt = sys.runtime();
    auto &as = rt.addressSpace();
    hip::DevPtr p = rt.hipMalloc(64 * KiB);

    // Drop a system PTE behind HMM's back: the GPU PTE is now stale.
    as.systemTable().removeRange(vm::vpnOf(p), vm::vpnOf(p) + 1,
                                 [](const vm::PteRun &) {});
    sys.finalizeAudit();
    EXPECT_EQ(sys.auditor()->countOf(ViolationKind::StaleMirror), 1u);
}

TEST(AuditSeeded, XnackReplayOnMappedRangeDetected)
{
    core::System sys(auditCfg());
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hipMalloc(64 * KiB);

    // Replay a fault for a range that is fully GPU-mapped already.
    auto kind = rt.addressSpace().resolveGpuFault(vm::vpnOf(p), 4);
    EXPECT_EQ(kind, vm::GpuFaultKind::None);
    EXPECT_EQ(sys.auditor()->countOf(ViolationKind::XnackReplayMapped), 1u);
}

TEST(AuditSeeded, FrameDoubleFreeRecordedNotFatal)
{
    core::System sys(auditCfg());
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hipMalloc(16 * KiB);
    mem::FrameId frame = rt.addressSpace().framesOf(p, 16 * KiB).at(0);
    EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);

    // The frame went back to the buddy; freeing it again is the
    // double free. Audited, it is recorded and rejected, not fatal.
    EXPECT_FALSE(sys.frames().freeFrame(frame));
    EXPECT_EQ(sys.auditor()->countOf(ViolationKind::FrameDoubleFree), 1u);
    EXPECT_EQ(sys.auditor()->violations()[0].addr, frame);
}

TEST(AuditSeeded, FrameLeakDetectedAtFinalize)
{
    core::System sys(auditCfg());
    // Grab frames behind the page tables' back and drop them.
    auto runs = sys.frames().allocRun(4);
    ASSERT_TRUE(runs.has_value());
    sys.finalizeAudit();
    EXPECT_EQ(sys.auditor()->countOf(ViolationKind::FrameLeak), 4u);
}

TEST(AuditSeeded, UseAfterFreeThroughRuntime)
{
    core::System sys(auditCfg());
    auto &rt = sys.runtime();
    hip::DevPtr dst = rt.hipMalloc(64 * KiB);
    hip::DevPtr src = rt.hostMalloc(64 * KiB);
    rt.cpuFirstTouch(src, 64 * KiB);
    EXPECT_EQ(rt.hipFree(src), hip::hipSuccess);

    // The copy still faults (the VMA is gone), but the auditor first
    // classifies the misuse precisely.
    EXPECT_THROW(rt.hipMemcpy(dst, src, 64 * KiB), SimError);
    EXPECT_GE(sys.auditor()->countOf(ViolationKind::UseAfterFree), 1u);
}

TEST(AuditSeeded, AllocOverlapAndInvalidFree)
{
    audit::Auditor aud(quietAudit());
    aud.noteAlloc(0x10000, 0x2000, "hipMalloc");
    aud.noteAlloc(0x11000, 0x100, "malloc");  // inside the live range
    EXPECT_EQ(aud.countOf(ViolationKind::AllocOverlap), 1u);

    aud.noteFree(0xdead0000);  // never allocated
    EXPECT_EQ(aud.countOf(ViolationKind::InvalidFree), 1u);
}

TEST(AuditSeeded, DirtyInTwoCachesDetected)
{
    audit::Auditor aud(quietAudit());
    // Core 1 holds the line dirty; core 2 takes it exclusive without
    // the directory ever releasing core 1: classic lost-invalidation.
    aud.onLineOwned(42, 1);
    aud.onLineOwned(42, 2);
    EXPECT_EQ(aud.countOf(ViolationKind::DirtyInTwoCaches), 1u);
    EXPECT_EQ(aud.violations()[0].addr, 42u);
}

TEST(AuditSeeded, IcStaleFillDetected)
{
    audit::Auditor aud(quietAudit());
    aud.onLineOwned(7, audit::kGpuOwner);
    aud.onIcFill(7);  // IC absorbs no snoops: this fill is stale
    EXPECT_EQ(aud.countOf(ViolationKind::IcStaleFill), 1u);
}

TEST(AuditSeeded, DirectoryTransfersStayClean)
{
    // The real directory invalidates on every transfer, so ping-pong
    // ownership must not trip the dirty-in-two shadow.
    audit::Auditor aud(quietAudit());
    cache::Directory dir({}, {.aud = &aud});
    dir.cpuAtomic(9, 0);
    dir.gpuAtomic(9);
    dir.cpuAtomic(9, 3);
    dir.cpuAtomic(9, 3);  // local hit
    dir.evict(9);
    dir.gpuAtomic(9);
    EXPECT_TRUE(aud.clean()) << aud.summary();
}

TEST(AuditSeeded, CpuGpuRaceDetected)
{
    core::System sys(auditCfg());
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hipMalloc(64 * KiB);
    hip::Stream stream = rt.makeStream();

    hip::KernelDesc k;
    k.name = "writer";
    k.buffers.push_back({p, 64 * KiB, 64 * KiB});
    rt.launchKernel(k, nullptr, &stream);

    // CPU reads the buffer with the kernel still in flight: race on
    // every page, reported with both sites.
    rt.cpuStream(p, 64 * KiB, 1);
    ASSERT_GE(sys.auditor()->countOf(ViolationKind::CpuGpuRace), 1u);
    const auto &v = sys.auditor()->violations()[0];
    EXPECT_EQ(v.kind, ViolationKind::CpuGpuRace);
    EXPECT_NE(v.detail.find("writer"), std::string::npos) << v.detail;
    EXPECT_NE(v.detail.find("cpuStream"), std::string::npos) << v.detail;
}

TEST(AuditSeeded, StreamSynchronizeCuresTheRace)
{
    core::System sys(auditCfg());
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hipMalloc(64 * KiB);
    hip::Stream stream = rt.makeStream();

    hip::KernelDesc k;
    k.name = "writer";
    k.buffers.push_back({p, 64 * KiB, 64 * KiB});
    rt.launchKernel(k, nullptr, &stream);
    rt.streamSynchronize(stream);
    rt.cpuStream(p, 64 * KiB, 1);
    EXPECT_TRUE(sys.auditor()->clean()) << sys.auditor()->summary();
}

TEST(AuditSeeded, DeviceSynchronizeCuresTheRace)
{
    core::System sys(auditCfg());
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hipMalloc(64 * KiB);
    hip::Stream stream = rt.makeStream();

    hip::KernelDesc k;
    k.name = "writer";
    k.buffers.push_back({p, 64 * KiB, 64 * KiB});
    rt.launchKernel(k, nullptr, &stream);
    rt.deviceSynchronize();
    rt.cpuStream(p, 64 * KiB, 1);
    EXPECT_TRUE(sys.auditor()->clean()) << sys.auditor()->summary();
}

TEST(AuditSeeded, GpuGpuRaceAcrossStreams)
{
    core::System sys(auditCfg());
    auto &rt = sys.runtime();
    hip::DevPtr p = rt.hipMalloc(64 * KiB);
    hip::Stream a = rt.makeStream();
    hip::Stream b = rt.makeStream();

    hip::KernelDesc k;
    k.name = "writer";
    k.buffers.push_back({p, 64 * KiB, 64 * KiB});
    rt.launchKernel(k, nullptr, &a);
    rt.launchKernel(k, nullptr, &b);  // no inter-stream ordering
    EXPECT_GE(sys.auditor()->countOf(ViolationKind::GpuGpuRace), 1u);
}

// ---- Framework behaviour ---------------------------------------------

TEST(Auditor, RecordCapsStorageButKeepsCounting)
{
    audit::AuditConfig cfg = quietAudit();
    cfg.maxRecorded = 2;
    audit::Auditor aud(cfg);
    for (int i = 0; i < 5; ++i)
        aud.record(ViolationKind::FrameLeak, i, "seeded");
    EXPECT_EQ(aud.violations().size(), 2u);
    EXPECT_EQ(aud.totalViolations(), 5u);
    EXPECT_FALSE(aud.clean());
}

TEST(Auditor, SummaryNamesEveryRecordedKind)
{
    audit::Auditor aud(quietAudit());
    aud.record(ViolationKind::MirrorDivergence, 1, "seeded");
    aud.record(ViolationKind::CpuGpuRace, 2, "seeded");
    std::string s = aud.summary();
    EXPECT_NE(s.find("mirror-divergence"), std::string::npos) << s;
    EXPECT_NE(s.find("cpu-gpu-race"), std::string::npos) << s;
}

TEST(Auditor, DisabledSystemHasNoAuditor)
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 1 * GiB;
    core::System sys(cfg);
    EXPECT_EQ(sys.auditor(), nullptr);
    EXPECT_NO_THROW(sys.finalizeAudit());  // no-op when off
}

// ---- No false positives across the whole workload suite --------------

TEST(AuditClean, AllWorkloadsBothModelsRunClean)
{
    // Default (8 GiB) geometry: nn's explicit model needs > 1 GiB.
    core::SystemConfig cfg;
    cfg.audit.enabled = true;
    cfg.audit.warnOnViolation = false;
    for (auto &workload : workloads::makeAllWorkloads()) {
        for (auto model :
             {workloads::Model::Explicit, workloads::Model::Unified}) {
            core::System sys(cfg);
            workload->run(sys, model);
            sys.finalizeAudit();
            EXPECT_TRUE(sys.auditor()->clean())
                << workload->name() << ": " << sys.auditor()->summary();
        }
    }
}

} // namespace
} // namespace upm
