/**
 * @file
 * Tests for the UVM baseline model: residency tracking, migration
 * accounting, LRU eviction under pressure, overcommit thrashing, and
 * the headline comparison the paper motivates UPM with.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "mem/geometry.hh"
#include "policy/engine.hh"
#include "uvm/uvm.hh"

namespace upm::uvm {
namespace {

TEST(Uvm, AllocStartsHostResident)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(16 * MiB);
    EXPECT_EQ(sim.deviceResidentPages(), 0u);
    sim.freeManaged(h);
}

TEST(Uvm, GpuAccessMigratesOnce)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(16 * MiB);
    SimTime first = sim.gpuAccess(h, 0, 16 * MiB);
    EXPECT_EQ(sim.deviceResidentPages(), 4096u);
    EXPECT_EQ(sim.pagesMigratedToDevice(), 4096u);

    SimTime second = sim.gpuAccess(h, 0, 16 * MiB);
    EXPECT_EQ(sim.pagesMigratedToDevice(), 4096u);  // no refault
    EXPECT_LT(second, first / 10.0);  // resident access is cheap
}

TEST(Uvm, CpuAccessPullsPagesBack)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(16 * MiB);
    sim.gpuAccess(h, 0, 16 * MiB);
    sim.cpuAccess(h, 0, 8 * MiB);
    EXPECT_EQ(sim.deviceResidentPages(), 2048u);
    EXPECT_EQ(sim.pagesMigratedToHost(), 2048u);
    EXPECT_EQ(sim.evictions(), 0u);  // explicit pull, not pressure
}

TEST(Uvm, PingPongPaysEveryIteration)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(16 * MiB);
    SimTime total = 0.0;
    for (int i = 0; i < 4; ++i) {
        total += sim.cpuAccess(h, 0, 16 * MiB);
        total += sim.gpuAccess(h, 0, 16 * MiB);
    }
    // Each iteration after the first migrates the full array twice.
    EXPECT_EQ(sim.pagesMigratedToDevice(), 4u * 4096u);
    EXPECT_EQ(sim.pagesMigratedToHost(), 3u * 4096u);
    EXPECT_GT(total, 4.0 * milliseconds);
}

TEST(Uvm, OvercommitEvictsLru)
{
    UvmSimulator sim(8 * MiB);  // 2048 pages of device memory
    std::uint64_t h = sim.allocManaged(16 * MiB);
    sim.gpuAccess(h, 0, 16 * MiB);
    EXPECT_EQ(sim.deviceResidentPages(), sim.deviceCapacityPages());
    EXPECT_EQ(sim.evictions(), 2048u);
    // A second full pass refaults the evicted half (and more): thrash.
    sim.gpuAccess(h, 0, 16 * MiB);
    EXPECT_GT(sim.evictions(), 4000u);
}

TEST(Uvm, ThrashingIsSlowerThanFitting)
{
    std::uint64_t bytes = 16 * MiB;
    UvmSimulator fits(32 * MiB);
    UvmSimulator thrash(8 * MiB);
    std::uint64_t hf = fits.allocManaged(bytes);
    std::uint64_t ht = thrash.allocManaged(bytes);
    SimTime t_fit = 0.0, t_thrash = 0.0;
    for (int i = 0; i < 4; ++i) {
        t_fit += fits.gpuAccess(hf, 0, bytes);
        t_thrash += thrash.gpuAccess(ht, 0, bytes);
    }
    EXPECT_GT(t_thrash, 2.0 * t_fit);
}

TEST(Uvm, FreeReleasesDeviceMemory)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(16 * MiB);
    sim.gpuAccess(h, 0, 16 * MiB);
    sim.freeManaged(h);
    EXPECT_EQ(sim.deviceResidentPages(), 0u);
    EXPECT_THROW(sim.freeManaged(h), SimError);
}

TEST(Uvm, OutOfRangeAccessIsUserError)
{
    UvmSimulator sim(64 * MiB);
    std::uint64_t h = sim.allocManaged(1 * MiB);
    EXPECT_THROW(sim.gpuAccess(h, 0, 2 * MiB), SimError);
    EXPECT_THROW(sim.cpuAccess(h, 512 * KiB, 1 * MiB), SimError);
    // Ranges whose end wraps past 2^64 reach past the region too.
    EXPECT_THROW(sim.gpuAccess(h, ~0ull - 4095, 8192), SimError);
    EXPECT_THROW(sim.cpuAccess(h, ~0ull - 4095, 8192), SimError);
    EXPECT_THROW(sim.gpuAccess(h, 4096, ~0ull), SimError);
    EXPECT_THROW(sim.cpuAccess(h, 1 * MiB, ~0ull), SimError);
    EXPECT_THROW(sim.gpuAccess(h, 1 * MiB + 1, 0), SimError);
    // The region's last byte and an empty range at its end are fine.
    EXPECT_NO_THROW(sim.gpuAccess(h, 1 * MiB - 1, 1));
    EXPECT_NO_THROW(sim.cpuAccess(h, 1 * MiB, 0));
    EXPECT_EQ(sim.deviceResidentPages(), 1u);
}

TEST(Uvm, WrappedRangeRejectedBeforeTheEngineSeesIt)
{
    // With an engine wired, a wrapped range used to reach
    // noteAccessRange with last < first.
    policy::PolicyEngine engine(policy::PolicyConfig{});
    UvmSimulator sim(64 * MiB, policy::EvictionKind::Lru, 0, &engine);
    std::uint64_t h = sim.allocManaged(1 * MiB);
    EXPECT_THROW(sim.gpuAccess(h, ~0ull - 4095, 8192), SimError);
    EXPECT_THROW(sim.cpuAccess(h, ~0ull - 4095, 8192), SimError);
    EXPECT_GT(sim.gpuAccess(h, 0, 8192), 0.0);
    EXPECT_EQ(sim.deviceResidentPages(), 2u);
}

TEST(Uvm, ZeroByteAllocRejected)
{
    UvmSimulator sim(64 * MiB);
    EXPECT_THROW(sim.allocManaged(0), SimError);
    EXPECT_THROW(UvmSimulator(0), SimError);
}

TEST(Uvm, MigrationCostDominatedByOverheadForSparseAccess)
{
    // The paper's UVM critique: fault overhead, not raw link
    // bandwidth, dominates page-wise migration.
    UvmCosts costs;
    UvmSimulator sim(1 * GiB, costs);
    std::uint64_t h = sim.allocManaged(64 * MiB);
    SimTime t = sim.gpuAccess(h, 0, 64 * MiB);
    SimTime raw_copy =
        static_cast<double>(64 * MiB) / costs.linkBandwidth;
    EXPECT_GT(t, 2.0 * raw_copy);
}

/** One access of the thrash stream. */
struct StreamOp
{
    bool gpu;
    std::uint64_t offset;
    std::uint64_t bytes;
};

/**
 * The shape of perfbench's uvm-thrash stream over a region of 1.5x
 * @p device, in windows of 1/64 of it: a full sweep, two hot re-walks
 * of the last half-device, eight CPU windows inside it and the same
 * eight on the GPU again, then a second full sweep.
 */
std::vector<StreamOp>
thrashStream(std::uint64_t seed, std::uint64_t device)
{
    constexpr std::uint64_t kWindowsPerDevice = 64;
    constexpr std::uint64_t kRegionWindows = kWindowsPerDevice * 3 / 2;
    constexpr std::uint64_t kHotWindows = kWindowsPerDevice / 2;
    constexpr std::uint64_t kCpuWindows = 8;
    SplitMix64 rng(seed);
    const std::uint64_t window = device / kWindowsPerDevice;
    const std::uint64_t rotate = rng.nextBelow(kRegionWindows);
    const std::uint64_t hot = kRegionWindows - kHotWindows;
    const std::uint64_t cpu =
        hot + rng.nextBelow(kHotWindows - kCpuWindows + 1);

    std::vector<StreamOp> ops;
    auto access = [&](bool gpu, std::uint64_t w) {
        ops.push_back(
            {gpu, (rotate + w) % kRegionWindows * window, window});
    };
    auto sweep = [&] {
        for (std::uint64_t w = 0; w < kRegionWindows; ++w)
            access(true, w);
    };
    sweep();
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (std::uint64_t i = 0; i < kHotWindows; ++i)
            access(true, hot + i);
    }
    for (std::uint64_t i = 0; i < kCpuWindows; ++i)
        access(false, cpu + i);
    for (std::uint64_t i = 0; i < kCpuWindows; ++i)
        access(true, cpu + i);
    sweep();
    return ops;
}

TEST(Uvm, ThrashStreamCountersPinnedPerKind)
{
    // Every eviction kind through UvmSimulator on the thrash stream at
    // 64 MiB of device memory (1 MiB windows). The counters were
    // captured from the page-by-page simulator this run-granular one
    // replaced; Random is seeded as perfbench seeds it.
    struct Pinned
    {
        policy::EvictionKind kind;
        std::uint64_t evictions, toDevice, toHost;
    };
    constexpr std::array<Pinned, 4> kPinned{{
        {policy::EvictionKind::Lru, 32768, 51200, 34816},
        {policy::EvictionKind::Lfu, 26624, 45056, 28672},
        {policy::EvictionKind::Random, 25520, 43924, 27540},
        {policy::EvictionKind::Predictive, 26624, 45056, 28672},
    }};
    constexpr std::uint64_t kSeed = 3;
    constexpr std::uint64_t kDevice = 64 * MiB;
    const std::vector<StreamOp> stream = thrashStream(kSeed, kDevice);
    for (std::uint64_t k = 0; k < kPinned.size(); ++k) {
        const Pinned &pin = kPinned[k];
        UvmSimulator sim(kDevice, pin.kind, SplitMix64(kSeed + k).next());
        std::uint64_t h = sim.allocManaged(kDevice + kDevice / 2);
        for (const StreamOp &op : stream) {
            if (op.gpu)
                sim.gpuAccess(h, op.offset, op.bytes);
            else
                sim.cpuAccess(h, op.offset, op.bytes);
        }
        const char *name = policy::evictionKindName(pin.kind);
        EXPECT_EQ(sim.evictions(), pin.evictions) << name;
        EXPECT_EQ(sim.pagesMigratedToDevice(), pin.toDevice) << name;
        EXPECT_EQ(sim.pagesMigratedToHost(), pin.toHost) << name;
        EXPECT_EQ(sim.deviceResidentPages(), 16384u) << name;
    }
}

} // namespace
} // namespace upm::uvm
