/**
 * @file
 * Trace-replay property tests: the event stream is a *complete*
 * record of physical-memory and page-table state. For 16 seeds of a
 * randomized allocate/touch/kernel/free workload, the FrameAllocator
 * busy map and the system page table are rebuilt purely from
 * FrameAlloc/FrameFree and ExtentMap/VmaUnmap events and must equal
 * the live system's state -- including across recoverable OOM, and
 * from ring-buffer records instead of the full vector sink.
 *
 * Seed base for this file: 0x4e91a000 (test hygiene: fixed per-file
 * seed bases, no std::random_device).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/system.hh"
#include "exec/task_pool.hh"
#include "gpu_table_util.hh"
#include "trace/tracer.hh"
#include "vm/page_table.hh"

namespace upm::trace {
namespace {

using alloc::AllocatorKind;

constexpr std::uint64_t kSeedBase = 0x4e91a000ull;

// ---------------------------------------------------------------------
// Replay: fold the event stream into reconstructed state.
// ---------------------------------------------------------------------

struct ReplayState
{
    std::vector<bool> busy;
    vm::SystemPageTable table;

    explicit ReplayState(std::uint64_t frames) : busy(frames, false) {}
};

void
applyEvent(ReplayState &st, const TraceEvent &ev)
{
    switch (ev.kind) {
      case EventKind::FrameAlloc:
        for (std::uint64_t i = 0; i < ev.b; ++i)
            st.busy[ev.a + i] = true;
        break;
      case EventKind::FrameFree:
        for (std::uint64_t i = 0; i < ev.b; ++i)
            st.busy[ev.a + i] = false;
        break;
      case EventKind::ExtentMap:
        // One event per physically contiguous run: vpn+i -> frame+i.
        st.table.insertRange(ev.a, ev.b, ev.c);
        break;
      case EventKind::VmaUnmap:
        st.table.removeRange(ev.c, ev.d, [](const vm::PteRun &) {});
        break;
      default:
        break; // timing/diagnostic events carry no ownership state
    }
}

ReplayState
replay(core::System &sys, const std::vector<TraceEvent> &events)
{
    ReplayState st(sys.frames().totalFrames());
    for (const auto &ev : events)
        applyEvent(st, ev);
    return st;
}

/** All (vpn, frame) pairs of a table, in vpn order (flags ignored:
 *  the replayed table reconstructs placement, not protection). */
std::vector<std::pair<vm::Vpn, mem::FrameId>>
pagesOf(const vm::SystemPageTable &table)
{
    std::vector<std::pair<vm::Vpn, mem::FrameId>> out;
    test::forRange(table, 0, ~0ull, [&](vm::Vpn vpn, const vm::Pte &pte) {
        out.emplace_back(vpn, pte.frame);
    });
    return out;
}

void
expectReplayMatchesLive(core::System &sys)
{
    ASSERT_NE(sys.tracer(), nullptr);
    ReplayState st = replay(sys, sys.tracer()->events());
    EXPECT_EQ(st.busy, sys.frames().busyMap());
    EXPECT_EQ(st.table.presentCount(),
              sys.addressSpace().systemTable().presentCount());
    EXPECT_EQ(pagesOf(st.table),
              pagesOf(sys.addressSpace().systemTable()));
}

// ---------------------------------------------------------------------
// The randomized workload: a seed-driven mix of every allocator
// family, CPU first touches, GPU-faulting kernels and frees, leaving
// live allocations behind so mid-lifetime state is covered too.
// ---------------------------------------------------------------------

core::SystemConfig
replayConfig()
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 1 * GiB;
    cfg.trace.enabled = true;
    return cfg;
}

void
seededWorkload(core::System &sys, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    auto &rt = sys.runtime();
    rt.setXnack((seed & 1) != 0);

    static constexpr AllocatorKind kinds[] = {
        AllocatorKind::HipMalloc,
        AllocatorKind::HipHostMalloc,
        AllocatorKind::HipMallocManaged,
        AllocatorKind::Malloc,
    };

    std::vector<std::pair<hip::DevPtr, std::uint64_t>> live;
    for (unsigned op = 0; op < 32; ++op) {
        std::uint64_t roll = rng.next();
        switch (roll % 4) {
          case 0: { // allocate 4 KiB .. 256 KiB
            auto kind = kinds[(roll >> 8) % std::size(kinds)];
            std::uint64_t bytes =
                ((roll >> 16) % 64 + 1) * mem::kPageSize;
            hip::DevPtr p = 0;
            if (rt.tryAllocate(kind, bytes, p) == hip::hipSuccess)
                live.emplace_back(p, bytes);
            break;
          }
          case 1: { // CPU first-touch a prefix of a live buffer
            if (live.empty())
                break;
            auto [p, bytes] = live[(roll >> 8) % live.size()];
            std::uint64_t prefix =
                ((roll >> 16) % (bytes / mem::kPageSize) + 1) *
                mem::kPageSize;
            rt.cpuFirstTouch(p, prefix);
            break;
          }
          case 2: { // kernel over a live buffer (GPU faults w/ XNACK)
            if (live.empty())
                break;
            auto [p, bytes] = live[(roll >> 8) % live.size()];
            hip::KernelDesc k;
            k.name = "replay_touch";
            k.buffers.push_back({p, bytes, bytes});
            try {
                rt.launchKernel(k, nullptr);
                rt.deviceSynchronize();
            } catch (const SimError &) {
                // XNACK off + on-demand buffer: a GPU access
                // violation. The model throws; state is unchanged.
            }
            break;
          }
          case 3: { // free one live buffer
            if (live.empty())
                break;
            std::size_t victim = (roll >> 8) % live.size();
            EXPECT_EQ(rt.hipFree(live[victim].first), hip::hipSuccess);
            live.erase(live.begin() + victim);
            break;
          }
        }
    }
    // Leave `live` allocated: replay must match mid-lifetime state.
}

class TraceReplay : public ::testing::TestWithParam<int>
{
};

TEST_P(TraceReplay, RebuildsFramesAndPageTableFromEvents)
{
    std::uint64_t seed =
        exec::taskSeed(kSeedBase, static_cast<std::uint64_t>(GetParam()));
    core::System sys(replayConfig());
    seededWorkload(sys, seed);
    expectReplayMatchesLive(sys);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceReplay, ::testing::Range(0, 16));

// ---------------------------------------------------------------------
// Directed cases.
// ---------------------------------------------------------------------

TEST(TraceReplayDirected, DroppingOneExtentEventBreaksReplay)
{
    core::System sys(replayConfig());
    seededWorkload(sys, exec::taskSeed(kSeedBase, 0));
    auto events = sys.tracer()->events();

    // Drop the latest ExtentMap whose first page is still mapped at
    // the end of the run (an extent that was unmapped again would be
    // invisible in the final state, and the test would prove nothing).
    const auto &live = sys.addressSpace().systemTable();
    std::size_t extent = events.size();
    for (std::size_t i = events.size(); i-- > 0;) {
        if (events[i].kind == EventKind::ExtentMap &&
            live.present(events[i].a)) {
            extent = i;
            break;
        }
    }
    ASSERT_LT(extent, events.size()) << "no live extent to drop";
    events.erase(events.begin() + static_cast<std::ptrdiff_t>(extent));

    // The check has teeth: a lossy stream must NOT reconstruct.
    ReplayState st = replay(sys, events);
    EXPECT_NE(pagesOf(st.table),
              pagesOf(sys.addressSpace().systemTable()));
}

TEST(TraceReplayDirected, ReplaysAcrossRecoverableOom)
{
    core::SystemConfig cfg = replayConfig();
    cfg.geometry.capacityBytes = 128 * MiB;
    core::System sys(cfg);
    auto &rt = sys.runtime();

    // Fill until OOM (failed attempts must contribute no state), then
    // recover and keep going.
    std::vector<hip::DevPtr> held;
    hip::DevPtr p = 0;
    while (rt.tryAllocate(AllocatorKind::HipMalloc, 16 * MiB, p) ==
           hip::hipSuccess)
        held.push_back(p);
    ASSERT_FALSE(held.empty());
    EXPECT_EQ(rt.hipFree(held.back()), hip::hipSuccess);
    held.back() = rt.allocate(AllocatorKind::HipMalloc, 8 * MiB);
    EXPECT_EQ(rt.hipFree(held.front()), hip::hipSuccess);
    held.front() = rt.hostMalloc(4 * MiB);
    rt.cpuFirstTouch(held.front(), 4 * MiB);

    expectReplayMatchesLive(sys);
}

TEST(TraceReplayDirected, RingRecordsReplayIdentically)
{
    // A ring large enough to retain everything carries the same
    // ownership record as the vector sink (details are dropped, but
    // replay never reads them).
    core::SystemConfig cfg = replayConfig();
    cfg.trace.ring = true;
    cfg.trace.ringCapacity = 1u << 18;
    core::System sys(cfg);
    seededWorkload(sys, exec::taskSeed(kSeedBase, 7));
    ASSERT_NE(sys.tracer()->ringSink(), nullptr);
    ASSERT_EQ(sys.tracer()->ringSink()->dropped(), 0u);
    expectReplayMatchesLive(sys);
}

TEST(TraceReplayDirected, SweepTasksReplayUnderWorkerPool)
{
    // Per-task Systems under a 2-worker pool: every task's stream
    // must independently reconstruct its own System. This is the
    // sweep pattern every figure bench uses.
    const unsigned restore = exec::globalPool().workers();
    exec::setGlobalWorkers(2);
    auto failures = exec::globalPool().parallelMap<int>(
        8, [&](std::size_t i) {
            core::System sys(replayConfig());
            {
                TaskTraceScope scope(sys.tracer(), i,
                                     exec::taskSeed(kSeedBase, i));
                seededWorkload(sys, exec::taskSeed(kSeedBase, i));
            }
            ReplayState st = replay(sys, sys.tracer()->events());
            bool ok = st.busy == sys.frames().busyMap() &&
                      pagesOf(st.table) ==
                          pagesOf(sys.addressSpace().systemTable());
            return ok ? 0 : 1;
        });
    exec::setGlobalWorkers(restore);
    for (std::size_t i = 0; i < failures.size(); ++i)
        EXPECT_EQ(failures[i], 0) << "task " << i;
}

} // namespace
} // namespace upm::trace
