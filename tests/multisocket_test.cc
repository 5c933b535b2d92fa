/**
 * @file
 * Multi-socket System tests: shard-0 bit-identity with the legacy
 * unsharded allocator, global frame-id routing through NodeMemory,
 * socket-stamped traces, PagePlace only on multi-socket nodes, node-wide
 * peak accounting, per-socket meminfo, placement policies under
 * UPMSan on an oversubscribed 4-socket node, worker-count invariance
 * of the inter-APU sweep, and the packed-trace v2 header gate.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "core/interapu_probe.hh"
#include "core/process.hh"
#include "core/system.hh"
#include "exec/task_pool.hh"
#include "mem/node.hh"
#include "trace/sink.hh"

namespace upm::core {
namespace {

SystemConfig
smallConfig(unsigned sockets)
{
    SystemConfig cfg;
    cfg.numSockets = sockets;
    cfg.geometry.capacityBytes = 256 * MiB;
    return cfg;
}

// ---- Shard bit-identity -------------------------------------------------

TEST(NodeMemory, ShardZeroIsBitIdenticalToLegacyAllocator)
{
    mem::MemGeometry geom(smallConfig(1).geometry);
    mem::FrameAllocatorConfig fcfg;
    mem::FrameAllocator legacy(geom, fcfg);
    mem::NodeMemory one(geom, fcfg, 1);
    mem::NodeMemory four(geom, fcfg, 4);

    // The same request sequence must produce the same frame ids from
    // the legacy allocator, a 1-socket node's shard 0, and a 4-socket
    // node's shard 0 (base 0, same seed, same buddy carving).
    auto drive = [](mem::FrameAllocator &fa) {
        std::vector<mem::FrameRange> runs;
        auto big = fa.allocRun(1000);
        EXPECT_TRUE(big.has_value());
        runs.insert(runs.end(), big->begin(), big->end());
        std::vector<mem::FrameId> scattered;
        EXPECT_TRUE(fa.allocScattered(37, scattered));
        std::vector<mem::FrameId> inter;
        EXPECT_TRUE(fa.allocInterleaved(64, inter));
        std::vector<mem::FrameRange> fault_runs;
        EXPECT_TRUE(fa.allocBatch(96, fault_runs));
        return std::make_tuple(runs, scattered, inter, fault_runs,
                               fa.freeFrames());
    };
    auto a = drive(legacy);
    auto b = drive(one.shard(0));
    auto c = drive(four.shard(0));
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
}

TEST(NodeMemory, ShardsOwnDisjointGlobalWindows)
{
    mem::MemGeometry geom(smallConfig(1).geometry);
    mem::NodeMemory node(geom, {}, 4);
    std::uint64_t fps = node.framesPerSocket();
    EXPECT_EQ(node.totalFrames(), 4 * fps);
    for (unsigned s = 0; s < 4; ++s) {
        auto run = node.shard(s).allocRun(8);
        ASSERT_TRUE(run.has_value());
        for (const auto &r : *run) {
            EXPECT_EQ(node.socketOfFrame(r.base), s);
            EXPECT_GE(r.base, s * fps);
            EXPECT_LT(r.base + r.count, (s + 1) * fps + 1);
            EXPECT_TRUE(node.shard(s).ownsFrame(r.base));
            EXPECT_FALSE(node.shard((s + 1) % 4).ownsFrame(r.base));
        }
    }
    // Past-the-end frames clamp to the last socket so its shard can
    // reject the free in one place.
    EXPECT_EQ(node.socketOfFrame(4 * fps + 7), 3u);
    EXPECT_FALSE(node.freeFrame(4 * fps + 7));
}

TEST(NodeMemory, FreesRouteByGlobalFrameId)
{
    mem::MemGeometry geom(smallConfig(1).geometry);
    mem::NodeMemory node(geom, {}, 2);
    std::uint64_t free0 = node.shard(0).freeFrames();

    auto run = node.shard(1).allocRun(128);
    ASSERT_TRUE(run.has_value());
    ASSERT_EQ(run->size(), 1u);
    EXPECT_EQ(node.freeFrames(), 2 * free0 - 128);

    // A global-id free lands on shard 1 and must not disturb shard 0.
    EXPECT_TRUE(node.freeRange((*run)[0]));
    EXPECT_EQ(node.shard(0).freeFrames(), free0);
    EXPECT_EQ(node.shard(1).freeFrames(), free0);
    // Double free through the router is rejected by the owning shard.
    EXPECT_FALSE(node.freeFrame((*run)[0].base));
}

TEST(NodeMemory, CrossShardAuditFlagsMisroutedFrames)
{
    mem::MemGeometry geom(smallConfig(1).geometry);
    mem::NodeMemory node(geom, {}, 2);
    audit::AuditConfig acfg;
    acfg.enabled = true;
    audit::Auditor aud(acfg);

    auto run = node.shard(0).allocRun(1);
    ASSERT_TRUE(run.has_value());
    std::vector<bool> mapped(node.totalFrames(), false);
    mapped[(*run)[0].base] = true;
    EXPECT_EQ(node.auditCrossShard(mapped, aud), 0u);

    // Mark a frame in shard 1's window that shard 1 never allocated:
    // a mapping mis-routed across sockets.
    mapped[node.framesPerSocket() + 42] = true;
    EXPECT_EQ(node.auditCrossShard(mapped, aud), 1u);
    ASSERT_FALSE(aud.violations().empty());
    EXPECT_EQ(aud.violations().back().kind,
              audit::ViolationKind::CrossSocketOwner);
}

// ---- System-level behaviour --------------------------------------------

TEST(MultiSocket, SingleSocketEmitsNoSocketStamps)
{
    SystemConfig cfg = smallConfig(1);
    cfg.trace.enabled = true;
    System sys(cfg);
    EXPECT_EQ(sys.numSockets(), 1u);
    EXPECT_EQ(sys.fabric(), nullptr);

    hip::DevPtr p = sys.runtime().hipMalloc(8 * MiB);
    sys.runtime().cpuFirstTouch(p, 8 * MiB);
    sys.runtime().freeChecked(p);
    for (const auto &ev : sys.tracer()->events())
        EXPECT_EQ(ev.socket, 0);
}

TEST(MultiSocket, RemoteHomePlacementStampsOwningSocket)
{
    SystemConfig cfg = smallConfig(2);
    cfg.trace.enabled = true;
    System sys(cfg);
    ASSERT_NE(sys.fabric(), nullptr);
    sys.addressSpace().setDefaultSocketPolicy(vm::SocketPolicy::Home, 1);

    hip::DevPtr p =
        sys.runtime().allocate(alloc::AllocatorKind::HipHostMalloc,
                               4 * MiB);
    bool saw_socket1 = false;
    bool saw_place = false;
    for (const auto &ev : sys.tracer()->events()) {
        if (ev.socket == 1)
            saw_socket1 = true;
        if (ev.kind == trace::EventKind::PagePlace && ev.socket == 1)
            saw_place = true;
    }
    EXPECT_TRUE(saw_socket1);
    EXPECT_TRUE(saw_place);
    // The frames really live in shard 1's global window.
    auto frames = sys.addressSpace().framesOf(p, 4 * MiB);
    ASSERT_FALSE(frames.empty());
    for (auto f : frames)
        EXPECT_EQ(sys.nodeMemory().socketOfFrame(f), 1u);
    sys.runtime().freeChecked(p);
}

/** PagePlace events on the bus so far. */
std::size_t
pagePlaceCount(const System &sys)
{
    std::size_t n = 0;
    for (const auto &ev : sys.tracer()->events())
        n += ev.kind == trace::EventKind::PagePlace ? 1 : 0;
    return n;
}

TEST(MultiSocket, PagePlaceIsEmittedOnlyOnMultiSocketNodes)
{
    // Placement events exist only where there is a placement choice:
    // never on one socket (whose traces stay byte-identical to the
    // single-APU System), always on two -- for the primary address
    // space and for a createProcess() process alike.
    for (unsigned sockets : {1u, 2u}) {
        SystemConfig cfg = smallConfig(sockets);
        cfg.trace.enabled = true;
        System sys(cfg);
        hip::DevPtr p = sys.runtime().hipMalloc(4 * MiB);
        hip::DevPtr h = sys.runtime().hostMalloc(1 * MiB);
        sys.runtime().cpuFirstTouch(h, 1 * MiB);
        std::size_t primary = pagePlaceCount(sys);

        auto proc = sys.createProcess();
        hip::DevPtr q = proc->runtime().hipMalloc(4 * MiB);
        std::size_t with_process = pagePlaceCount(sys);
        if (sockets == 1) {
            EXPECT_EQ(primary, 0u);
            EXPECT_EQ(with_process, 0u);
        } else {
            EXPECT_GT(primary, 0u);
            EXPECT_GT(with_process, primary);
        }
        proc->runtime().freeChecked(q);
        sys.runtime().freeChecked(h);
        sys.runtime().freeChecked(p);
    }
}

TEST(MultiSocket, PeakBytesCountEveryShard)
{
    // A hipMalloc homed on socket 1 holds no socket-0 frame; the peak
    // must still see it, exactly as a one-socket node sees its own.
    std::uint64_t peak[2] = {};
    for (unsigned sockets : {1u, 2u}) {
        SystemConfig cfg = smallConfig(sockets);
        cfg.geometry.capacityBytes = 512 * MiB;
        System sys(cfg);
        sys.addressSpace().setDefaultSocketPolicy(vm::SocketPolicy::Home,
                                                  sockets - 1);
        hip::DevPtr p = sys.runtime().hipMalloc(256 * MiB);
        peak[sockets - 1] = sys.runtime().peakBytesUsed();
        sys.runtime().freeChecked(p);
    }
    EXPECT_EQ(peak[0], 256 * MiB);
    EXPECT_EQ(peak[1], 256 * MiB);
}

TEST(MultiSocket, PerSocketMeminfoSeesOnlyItsShard)
{
    System sys(smallConfig(2));
    std::uint64_t total0 = sys.meminfo(0).totalBytes();
    std::uint64_t free0 = sys.meminfo(0).freeBytes();
    std::uint64_t free1 = sys.meminfo(1).freeBytes();
    EXPECT_EQ(sys.meminfo(0).socket(), 0u);
    EXPECT_EQ(sys.meminfo(1).socket(), 1u);
    EXPECT_EQ(free0, free1);

    sys.addressSpace().setDefaultSocketPolicy(vm::SocketPolicy::Home, 1);
    hip::DevPtr p =
        sys.runtime().allocate(alloc::AllocatorKind::HipHostMalloc,
                               16 * MiB);
    // The allocation is homed on socket 1: socket 0's view must not
    // move (the pre-shard NumaMeminfo blended both sockets).
    EXPECT_EQ(sys.meminfo(0).freeBytes(), free0);
    EXPECT_EQ(sys.meminfo(1).freeBytes(), free1 - 16 * MiB);
    EXPECT_EQ(sys.meminfo(0).totalBytes(), total0);

    // Per-stack detail sums back to the socket's free bytes.
    std::uint64_t sum = 0;
    for (std::uint64_t b : sys.meminfo(1).perStackFreeBytes())
        sum += b;
    EXPECT_EQ(sum, sys.socket(1).frames.freeFrames() * mem::kPageSize);
    sys.runtime().freeChecked(p);
}

TEST(MultiSocket, FourSocketOversubscriptionStaysAuditClean)
{
    // Working set 2x one socket's capacity, interleaved across four
    // sockets, under full UPMSan. The allocation oversubscribes any
    // single shard but fits the node; the audit must stay clean, and
    // teardown must leak nothing.
    SystemConfig cfg = smallConfig(4);
    cfg.audit.enabled = true;
    System sys(cfg);
    sys.addressSpace().setDefaultSocketPolicy(vm::SocketPolicy::Interleave);

    std::uint64_t bytes = 2 * cfg.geometry.capacityBytes / 3;
    std::vector<hip::DevPtr> ptrs;
    for (int i = 0; i < 3; ++i) {
        ptrs.push_back(sys.runtime().allocate(
            alloc::AllocatorKind::HipHostMalloc, bytes));
    }
    // All four shards carry part of the working set.
    for (unsigned s = 0; s < 4; ++s) {
        EXPECT_LT(sys.meminfo(s).freeBytes(),
                  sys.meminfo(s).totalBytes());
    }
    // Capacity exhaustion across shards is a clean OOM, not a crash.
    hip::DevPtr overflow = 0;
    hip::hipError_t err = sys.runtime().tryAllocate(
        alloc::AllocatorKind::HipHostMalloc,
        3 * cfg.geometry.capacityBytes, overflow);
    EXPECT_EQ(err, hip::hipErrorOutOfMemory);

    sys.finalizeAudit();
    EXPECT_TRUE(sys.auditor()->violations().empty());
    for (hip::DevPtr p : ptrs)
        sys.runtime().freeChecked(p);
    sys.finalizeAudit();
    EXPECT_TRUE(sys.auditor()->violations().empty());
}

TEST(MultiSocket, ReplicateReadOnlyFramesAreNotLeaks)
{
    SystemConfig cfg = smallConfig(2);
    cfg.audit.enabled = true;
    System sys(cfg);
    sys.addressSpace().setDefaultSocketPolicy(vm::SocketPolicy::ReplicateRO);

    hip::DevPtr p =
        sys.runtime().allocate(alloc::AllocatorKind::HipHostMalloc,
                               8 * MiB);
    // The replica on socket 1 is in no page table; the leak scan must
    // still account it to its VMA.
    std::uint64_t free1 = sys.meminfo(1).freeBytes();
    EXPECT_EQ(free1, sys.meminfo(1).totalBytes() - 8 * MiB);
    sys.finalizeAudit();
    EXPECT_TRUE(sys.auditor()->violations().empty());

    // munmap returns both the home copy and the replica.
    sys.runtime().freeChecked(p);
    EXPECT_EQ(sys.meminfo(0).freeBytes(), sys.meminfo(0).totalBytes());
    EXPECT_EQ(sys.meminfo(1).freeBytes(), sys.meminfo(1).totalBytes());
    sys.finalizeAudit();
    EXPECT_TRUE(sys.auditor()->violations().empty());
}

TEST(MultiSocket, InterApuSweepIsWorkerCountInvariant)
{
    // The bench contract: per-point Systems, pure model queries, so
    // the sweep is bit-identical at 1, 2 or 8 workers.
    struct Point
    {
        unsigned access, home;
        InterApuPairResult r;
    };
    auto sweep = [](unsigned workers) {
        std::vector<Point> points;
        for (unsigned a = 0; a < 4; ++a)
            for (unsigned h = 0; h < 4; ++h)
                points.push_back({a, h, {}});
        exec::TaskPool pool(workers);
        pool.parallelFor(points.size(), [&](std::size_t i) {
            System sys(smallConfig(4));
            InterApuProbe::Params params;
            params.regionBytes = 4 * MiB;
            InterApuProbe probe(sys, params);
            points[i].r = probe.measurePair(points[i].access,
                                            points[i].home);
        });
        return points;
    };
    auto w1 = sweep(1);
    auto w2 = sweep(2);
    auto w8 = sweep(8);
    ASSERT_EQ(w1.size(), w2.size());
    ASSERT_EQ(w1.size(), w8.size());
    for (std::size_t i = 0; i < w1.size(); ++i) {
        for (const auto *other : {&w2[i], &w8[i]}) {
            EXPECT_EQ(w1[i].r.hops, other->r.hops);
            EXPECT_EQ(w1[i].r.gpuBandwidth, other->r.gpuBandwidth);
            EXPECT_EQ(w1[i].r.cpuBandwidth, other->r.cpuBandwidth);
            EXPECT_EQ(w1[i].r.gpuLatency, other->r.gpuLatency);
            EXPECT_EQ(w1[i].r.cpuLatency, other->r.cpuLatency);
            EXPECT_EQ(w1[i].r.faultServiceTime,
                      other->r.faultServiceTime);
        }
    }
}

// ---- Per-socket Infinity Cache ------------------------------------------

TEST(MultiSocket, InterleaveExploitsPerSocketInfinityCaches)
{
    // Each socket brings its own 256 MiB Infinity Cache. A 512 MiB
    // working set interleaved over two sockets loads each socket's
    // cache with exactly its capacity (hit fraction 1.0); the same set
    // homed on one socket is bounded by that single socket's cache
    // (hit fraction 0.5). The pre-socket pooled model could not tell
    // the two placements apart.
    SystemConfig cfg = smallConfig(2);
    cfg.geometry.capacityBytes = 1 * GiB;

    auto hit_fraction = [&](vm::SocketPolicy policy) {
        System sys(cfg);
        sys.addressSpace().setDefaultSocketPolicy(policy, 0);
        hip::DevPtr p = sys.runtime().allocate(
            alloc::AllocatorKind::HipHostMalloc, 512 * MiB);
        auto profile = sys.runtime().perf().profileRegion(
            sys.addressSpace(), p, 512 * MiB);
        sys.runtime().freeChecked(p);
        return profile.icHitFraction;
    };

    EXPECT_DOUBLE_EQ(hit_fraction(vm::SocketPolicy::Interleave), 1.0);
    EXPECT_DOUBLE_EQ(hit_fraction(vm::SocketPolicy::Home), 0.5);
}

TEST(MultiSocket, PerSocketCacheLatencyFavorsInterleave)
{
    SystemConfig cfg = smallConfig(2);
    cfg.geometry.capacityBytes = 1 * GiB;
    System sys(cfg);

    sys.addressSpace().setDefaultSocketPolicy(vm::SocketPolicy::Interleave);
    hip::DevPtr inter = sys.runtime().allocate(
        alloc::AllocatorKind::HipHostMalloc, 512 * MiB);
    sys.addressSpace().setDefaultSocketPolicy(vm::SocketPolicy::Home, 0);
    hip::DevPtr home = sys.runtime().allocate(
        alloc::AllocatorKind::HipHostMalloc, 512 * MiB);

    auto &perf = sys.runtime().perf();
    auto pi = perf.profileRegion(sys.addressSpace(), inter, 512 * MiB);
    auto ph = perf.profileRegion(sys.addressSpace(), home, 512 * MiB);
    // The interleaved set hits two caches' worth of capacity. Chase
    // latency from socket 0 still pays xGMI hops for the remote half,
    // but the CPU-side cache term alone must favor interleave.
    EXPECT_GT(pi.icHitFraction, ph.icHitFraction);
    hip::RegionProfile local_pi = pi;
    local_pi.remoteFraction = 0.0;
    EXPECT_LT(perf.cpuChaseLatency(local_pi), perf.cpuChaseLatency(ph));
    sys.runtime().freeChecked(inter);
    sys.runtime().freeChecked(home);
}

TEST(MultiSocket, SingleSocketKeepsTheGlobalCacheModel)
{
    // --sockets 1 byte-identity: with one socket there are no
    // per-socket instances, and the hit fraction is exactly the
    // legacy single-cache answer for the same frames.
    SystemConfig cfg = smallConfig(1);
    cfg.geometry.capacityBytes = 1 * GiB;
    System sys(cfg);
    hip::DevPtr p = sys.runtime().allocate(
        alloc::AllocatorKind::HipHostMalloc, 512 * MiB);
    auto profile = sys.runtime().perf().profileRegion(
        sys.addressSpace(), p, 512 * MiB);
    auto frames = sys.addressSpace().framesOf(p, 512 * MiB);
    EXPECT_EQ(profile.icHitFraction,
              sys.runtime().perf().infinityCache().hitFractionFromStackLoad(
                  sys.geometry().stackLoad(frames)));
    sys.runtime().freeChecked(p);
}

TEST(MultiSocket, RemoteAccessIsSlowerAndAsymmetric)
{
    System sys(smallConfig(4));
    InterApuProbe::Params params;
    params.regionBytes = 4 * MiB;
    InterApuProbe probe(sys, params);

    auto local = probe.measurePair(0, 0);
    auto near = probe.measurePair(0, 1);
    auto far = probe.measurePair(1, 0);

    EXPECT_EQ(local.hops, 0u);
    EXPECT_EQ(near.hops, 1u);
    EXPECT_GT(local.gpuBandwidth, 10.0 * near.gpuBandwidth);
    EXPECT_LT(local.gpuLatency, near.gpuLatency);
    EXPECT_LT(local.faultServiceTime, near.faultServiceTime);
    // Asymmetry: the far direction is strictly worse at equal hops.
    EXPECT_TRUE(far.farDirection);
    EXPECT_FALSE(near.farDirection);
    EXPECT_LT(far.gpuBandwidth, near.gpuBandwidth);
    EXPECT_GT(far.gpuLatency, near.gpuLatency);
}

// ---- Packed-trace header gate ------------------------------------------

TEST(PackedTrace, SocketFieldRoundTripsThroughTheRing)
{
    trace::RingBufferSink ring(8);
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::PagePlace;
    ev.layer = trace::Layer::Vm;
    ev.socket = 3;
    ev.a = 7;
    ring.accept(ev);

    std::string path =
        ::testing::TempDir() + "upmtrace_socket_roundtrip.bin";
    ASSERT_TRUE(ring.dump(path));
    std::vector<trace::PackedEvent> recs;
    std::string error;
    ASSERT_EQ(trace::RingBufferSink::read(path, recs, nullptr, &error),
              Status::Success)
        << error;
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(trace::unpack(recs[0]).socket, 3);
    std::remove(path.c_str());
}

TEST(PackedTrace, ReaderRejectsUnknownHeaderVersion)
{
    // Hand-craft a v1 header: same magic and record size, socket-less
    // layout. The v2 reader must refuse it with the versions spelled
    // out instead of misparsing the records.
    std::string path = ::testing::TempDir() + "upmtrace_v1_header.bin";
    struct
    {
        char magic[4];
        std::uint32_t version, recordSize, pad;
        std::uint64_t recordCount, totalAccepted;
    } hdr{};
    std::memcpy(hdr.magic, "UPMT", 4);
    hdr.version = 1;
    hdr.recordSize = sizeof(trace::PackedEvent);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(&hdr, sizeof(hdr), 1, f), 1u);
    std::fclose(f);

    std::vector<trace::PackedEvent> recs;
    std::string error;
    EXPECT_EQ(trace::RingBufferSink::read(path, recs, nullptr, &error),
              Status::InvalidValue);
    EXPECT_TRUE(recs.empty());
    EXPECT_NE(error.find("version 1"), std::string::npos) << error;
    EXPECT_NE(error.find("version 2"), std::string::npos) << error;
    std::remove(path.c_str());
}

} // namespace
} // namespace upm::core
