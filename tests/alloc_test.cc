/**
 * @file
 * Tests for the alloc module: the Table 1 capability matrix, the
 * allocator policies (placement, pinning, GPU mapping, XNACK
 * sensitivity), and the calibrated timing model orderings from Fig. 6.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "alloc/registry.hh"
#include "common/log.hh"
#include "core/system.hh"
#include "gpu_table_util.hh"

namespace upm::alloc {
namespace {

class AllocTest : public ::testing::Test
{
  protected:
    AllocTest() : geom(geomConfig()), node(geom, {}, 1), as(node, store),
                  registry(as)
    {}

    static mem::MemGeometryConfig
    geomConfig()
    {
        mem::MemGeometryConfig cfg;
        cfg.capacityBytes = 512 * MiB;
        return cfg;
    }

    const vm::Vma *
    vmaOf(const Allocation &allocation)
    {
        return as.findVma(allocation.addr);
    }

    mem::MemGeometry geom;
    mem::NodeMemory node;
    mem::BackingStore store;
    vm::AddressSpace as;
    AllocatorRegistry registry;
};

TEST_F(AllocTest, Table1MatrixXnackOff)
{
    EXPECT_FALSE(traitsOf(AllocatorKind::Malloc, false).gpuAccess);
    EXPECT_TRUE(traitsOf(AllocatorKind::Malloc, false).onDemand);
    EXPECT_TRUE(
        traitsOf(AllocatorKind::MallocRegistered, false).gpuAccess);
    EXPECT_FALSE(
        traitsOf(AllocatorKind::MallocRegistered, false).onDemand);
    EXPECT_TRUE(traitsOf(AllocatorKind::HipMalloc, false).gpuAccess);
    EXPECT_FALSE(traitsOf(AllocatorKind::HipMalloc, false).onDemand);
    EXPECT_FALSE(
        traitsOf(AllocatorKind::HipMallocManaged, false).onDemand);
    // Every allocator is CPU-accessible on the APU.
    for (auto kind : kAllKinds)
        EXPECT_TRUE(traitsOf(kind, false).cpuAccess);
}

TEST_F(AllocTest, Table1MatrixXnackOn)
{
    EXPECT_TRUE(traitsOf(AllocatorKind::Malloc, true).gpuAccess);
    EXPECT_TRUE(traitsOf(AllocatorKind::HipMallocManaged, true).onDemand);
}

TEST_F(AllocTest, AllocatorNamesAreDistinct)
{
    std::set<std::string> names;
    for (auto kind : kAllKinds)
        EXPECT_TRUE(names.insert(allocatorName(kind)).second);
}

TEST_F(AllocTest, MallocIsOnDemandScattered)
{
    auto a = registry.allocate(AllocatorKind::Malloc, 1 * MiB);
    const vm::Vma *vma = vmaOf(a);
    ASSERT_NE(vma, nullptr);
    EXPECT_TRUE(vma->policy.onDemand);
    EXPECT_FALSE(vma->policy.gpuMapped);
    EXPECT_EQ(vma->policy.placement, vm::Placement::Scattered);
    EXPECT_TRUE(as.framesOf(a.addr, a.size).empty());
    registry.deallocate(a);
}

TEST_F(AllocTest, HipMallocIsUpFrontContiguousPinned)
{
    auto a = registry.allocate(AllocatorKind::HipMalloc, 1 * MiB);
    const vm::Vma *vma = vmaOf(a);
    ASSERT_NE(vma, nullptr);
    EXPECT_FALSE(vma->policy.onDemand);
    EXPECT_TRUE(vma->policy.gpuMapped);
    EXPECT_EQ(vma->policy.placement, vm::Placement::Contiguous);
    EXPECT_EQ(as.framesOf(a.addr, a.size).size(), 256u);
    EXPECT_TRUE(test::gpuPresent(as, a.addr));
    // Physically contiguous -> one big fragment.
    EXPECT_GE(test::fragmentOf(as.gpuTable(), vm::vpnOf(a.addr)).span, 256u);
    registry.deallocate(a);
}

TEST_F(AllocTest, HipHostMallocIsBalancedButFragmentFree)
{
    auto a = registry.allocate(AllocatorKind::HipHostMalloc, 1 * MiB);
    auto frame_list = as.framesOf(a.addr, a.size);
    EXPECT_EQ(frame_list.size(), 256u);
    EXPECT_GT(geom.balanceOfLoad(geom.stackLoad(frame_list)), 0.95);
    EXPECT_LE(test::fragmentOf(as.gpuTable(), vm::vpnOf(a.addr)).span, 4u);
    registry.deallocate(a);
}

TEST_F(AllocTest, ManagedFollowsXnack)
{
    auto up_front =
        registry.allocate(AllocatorKind::HipMallocManaged, 1 * MiB);
    EXPECT_FALSE(vmaOf(up_front)->policy.onDemand);
    EXPECT_TRUE(test::gpuPresent(as, up_front.addr));
    registry.deallocate(up_front);

    as.setXnack(true);
    auto on_demand =
        registry.allocate(AllocatorKind::HipMallocManaged, 1 * MiB);
    EXPECT_TRUE(vmaOf(on_demand)->policy.onDemand);
    EXPECT_TRUE(as.framesOf(on_demand.addr, 1 * MiB).empty());
    registry.deallocate(on_demand);
}

TEST_F(AllocTest, ManagedStaticIsUncached)
{
    auto a = registry.allocate(AllocatorKind::ManagedStatic, 64 * KiB);
    EXPECT_TRUE(vmaOf(a)->policy.uncachedGpu);
    EXPECT_TRUE(vmaOf(a)->policy.pinned);
    registry.deallocate(a);
}

TEST_F(AllocTest, RegisteredCompositePinsMallocMemory)
{
    auto a = registry.allocate(AllocatorKind::MallocRegistered, 1 * MiB);
    EXPECT_EQ(a.kind, AllocatorKind::MallocRegistered);
    const vm::Vma *vma = vmaOf(a);
    EXPECT_TRUE(vma->policy.pinned);
    EXPECT_TRUE(vma->policy.gpuMapped);
    // Registration keeps the scattered malloc placement.
    EXPECT_GT(vma->scatteredFraction(), 0.99);
    registry.deallocate(a);
    EXPECT_EQ(node.freeFrames(), node.totalFrames());
}

TEST_F(AllocTest, Fig6AllocTimeAnchors)
{
    auto t = [&](AllocatorKind kind, std::uint64_t size) {
        auto a = registry.allocate(kind, size);
        SimTime at = a.allocTime;
        registry.deallocate(a);
        return at;
    };
    // malloc: 14 ns small, ~6 us at 1 GiB -- but model capacity is
    // 512 MiB here, so anchor at 256 MiB instead (~2.9 us).
    EXPECT_NEAR(t(AllocatorKind::Malloc, 32), 14.0, 1.0);
    EXPECT_LT(t(AllocatorKind::Malloc, 256 * MiB), 5.0 * microseconds);
    // hipMalloc: 10 us floor, ~9.2 ms at 256 MiB.
    EXPECT_NEAR(t(AllocatorKind::HipMalloc, 16 * KiB),
                10.0 * microseconds, 0.5 * microseconds);
    EXPECT_NEAR(t(AllocatorKind::HipMalloc, 256 * MiB),
                9.2 * milliseconds, 0.5 * milliseconds);
    // hipHostMalloc and managed are the heavy up-front paths.
    EXPECT_GT(t(AllocatorKind::HipHostMalloc, 256 * MiB),
              3.0 * t(AllocatorKind::HipMalloc, 256 * MiB));
    EXPECT_GT(t(AllocatorKind::HipMallocManaged, 256 * MiB),
              t(AllocatorKind::HipHostMalloc, 256 * MiB));
}

TEST_F(AllocTest, ManagedXnackAllocIsConstantTime)
{
    as.setXnack(true);
    auto small = registry.allocate(AllocatorKind::HipMallocManaged, 4096);
    auto large =
        registry.allocate(AllocatorKind::HipMallocManaged, 256 * MiB);
    EXPECT_DOUBLE_EQ(small.allocTime, large.allocTime);
    registry.deallocate(small);
    registry.deallocate(large);
}

TEST_F(AllocTest, FreeOrderings)
{
    // free(malloc) is cheaper than malloc for small sizes, and much
    // more expensive for large ones (munmap page walks).
    auto small = registry.allocate(AllocatorKind::Malloc, 4096);
    SimTime small_alloc = small.allocTime;
    SimTime small_free = registry.deallocate(small);
    EXPECT_LT(small_free, small_alloc);

    auto large = registry.allocate(AllocatorKind::Malloc, 256 * MiB);
    SimTime large_alloc = large.allocTime;
    SimTime large_free = registry.deallocate(large);
    EXPECT_GT(large_free, 3.0 * large_alloc);
    EXPECT_LT(large_free, 10.0 * large_alloc);

    // hipFree: fast below 2 MiB, then far slower than hipMalloc (the
    // paper's up-to-22x observation at 256 MiB).
    auto hip_small = registry.allocate(AllocatorKind::HipMalloc, 1 * MiB);
    SimTime hip_small_alloc = hip_small.allocTime;
    EXPECT_LT(registry.deallocate(hip_small), hip_small_alloc);
    auto hip_large =
        registry.allocate(AllocatorKind::HipMalloc, 256 * MiB);
    SimTime hip_large_alloc = hip_large.allocTime;
    SimTime hip_large_free = registry.deallocate(hip_large);
    EXPECT_NEAR(hip_large_free / hip_large_alloc, 22.0, 4.0);
}

TEST_F(AllocTest, OutOfMemoryIsUserError)
{
    std::uint64_t free_before = node.freeFrames();
    Allocation a = registry.allocate(AllocatorKind::HipMalloc, 1 * GiB);
    EXPECT_FALSE(a);
    EXPECT_EQ(a.status, Status::OutOfMemory);
    // The failed allocation must not leak partially populated frames.
    EXPECT_EQ(node.freeFrames(), free_before);
}

/** Sizes at and around every cost knee: the 16 KiB hipMalloc floor,
 *  the 128 KiB malloc mmap threshold and the 2 MiB hipFree knee. */
constexpr std::uint64_t kPinSizes[] = {
    1,         16 * KiB, 20 * KiB,         128 * KiB - 1,
    128 * KiB, 2 * MiB,  2 * MiB + 4 * KiB, 64 * MiB,
};

/** One configuration at one XNACK mode, over kPinSizes. */
struct RowPin
{
    AllocatorKind kind;
    bool xnack;
    const char *vmaName;
    /** cpuAccess, gpuMapped, onDemand, pinned, uncachedGpu, placement,
     *  socketPolicy, homeSocket. */
    vm::VmaPolicy policy;
    SimTime alloc[std::size(kPinSizes)];
    SimTime free[std::size(kPinSizes)];
    std::uint64_t populated[std::size(kPinSizes)];
};

using K = AllocatorKind;
using P = vm::Placement;
constexpr auto kHome = vm::SocketPolicy::Home;

const RowPin kRowPins[] = {
    {K::Malloc, false, "malloc",
     {true, false, true, false, false, P::Scattered, kHome, 0},
     {14, 14, 14, 14, 1500.5504, 1508.8064, 1508.8236, 1781.8048},
     {10, 10, 10, 10, 34.16, 96.56, 96.69, 2159.92},
     {0, 0, 0, 0, 0, 0, 0, 0}},
    {K::MallocRegistered, false, "malloc",
     {true, true, false, true, false, P::Scattered, kHome, 0},
     {20314, 21214, 21514, 29614, 31100.5504, 175108.8064, 175408.8236,
      4936981.8048},
     {160, 610, 760, 4810, 4834.16, 76896.56, 77046.69, 2459759.92},
     {1, 4, 5, 32, 32, 512, 513, 16384}},
    {K::HipMalloc, false, "hipMalloc",
     {true, true, false, true, false, P::Contiguous, kHome, 0},
     {10000, 10000, 10141, 13948, 13948, 81628, 81769, 2319580},
     {5000, 5000, 5000, 5000, 5000, 5000, 8100, 49208200},
     {1, 4, 5, 32, 32, 512, 513, 16384}},
    {K::HipHostMalloc, false, "hipHostMalloc",
     {true, true, false, true, false, P::Interleaved, kHome, 0},
     {15000, 15000, 15763, 36364, 36364, 402604, 403367, 12512940},
     {220255, 221020, 221275, 228160, 228160, 350560, 350815, 4397920},
     {1, 4, 5, 32, 32, 512, 513, 16384}},
    {K::HipMallocManaged, false, "hipMallocManaged",
     {true, true, false, true, false, P::Interleaved, kHome, 0},
     {34000, 34000, 35526, 76728, 76728, 809208, 810734, 25029880},
     {220255, 221020, 221275, 228160, 228160, 350560, 350815, 4397920},
     {1, 4, 5, 32, 32, 512, 513, 16384}},
    {K::ManagedStatic, false, "__managed__",
     {true, true, false, true, true, P::Interleaved, kHome, 0},
     {35526, 40104, 41630, 82832, 82832, 815312, 816838, 25035984},
     {220000, 220000, 220000, 220000, 220000, 220000, 220000, 220000},
     {1, 4, 5, 32, 32, 512, 513, 16384}},
    {K::Malloc, true, "malloc",
     {true, false, true, false, false, P::Scattered, kHome, 0},
     {14, 14, 14, 14, 1500.5504, 1508.8064, 1508.8236, 1781.8048},
     {10, 10, 10, 10, 34.16, 96.56, 96.69, 2159.92},
     {0, 0, 0, 0, 0, 0, 0, 0}},
    {K::MallocRegistered, true, "malloc",
     {true, true, false, true, false, P::Scattered, kHome, 0},
     {20314, 21214, 21514, 29614, 31100.5504, 175108.8064, 175408.8236,
      4936981.8048},
     {160, 610, 760, 4810, 4834.16, 76896.56, 77046.69, 2459759.92},
     {1, 4, 5, 32, 32, 512, 513, 16384}},
    {K::HipMalloc, true, "hipMalloc",
     {true, true, false, true, false, P::Contiguous, kHome, 0},
     {10000, 10000, 10141, 13948, 13948, 81628, 81769, 2319580},
     {5000, 5000, 5000, 5000, 5000, 5000, 8100, 49208200},
     {1, 4, 5, 32, 32, 512, 513, 16384}},
    {K::HipHostMalloc, true, "hipHostMalloc",
     {true, true, false, true, false, P::Interleaved, kHome, 0},
     {15000, 15000, 15763, 36364, 36364, 402604, 403367, 12512940},
     {220255, 221020, 221275, 228160, 228160, 350560, 350815, 4397920},
     {1, 4, 5, 32, 32, 512, 513, 16384}},
    {K::HipMallocManaged, true, "hipMallocManaged",
     {true, false, true, false, false, P::Scattered, kHome, 0},
     {25000, 25000, 25000, 25000, 25000, 25000, 25000, 25000},
     {10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000},
     {0, 0, 0, 0, 0, 0, 0, 0}},
    {K::ManagedStatic, true, "__managed__",
     {true, true, false, true, true, P::Interleaved, kHome, 0},
     {35526, 40104, 41630, 82832, 82832, 815312, 816838, 25035984},
     {220000, 220000, 220000, 220000, 220000, 220000, 220000, 220000},
     {1, 4, 5, 32, 32, 512, 513, 16384}},
};

void
expectPolicy(const vm::VmaPolicy &got, const vm::VmaPolicy &want)
{
    EXPECT_EQ(got.cpuAccess, want.cpuAccess);
    EXPECT_EQ(got.gpuMapped, want.gpuMapped);
    EXPECT_EQ(got.onDemand, want.onDemand);
    EXPECT_EQ(got.pinned, want.pinned);
    EXPECT_EQ(got.uncachedGpu, want.uncachedGpu);
    EXPECT_EQ(got.placement, want.placement);
    EXPECT_EQ(got.socketPolicy, want.socketPolicy);
    EXPECT_EQ(got.homeSocket, want.homeSocket);
}

/** Exact call times, VMA name, VMA policy and populated pages of every
 *  configuration; any change to a row or the cost formula shows here. */
TEST_F(AllocTest, EveryRowPinned)
{
    for (const RowPin &pin : kRowPins) {
        as.setXnack(pin.xnack);
        for (std::size_t i = 0; i < std::size(kPinSizes); ++i) {
            SCOPED_TRACE(testing::Message()
                         << allocatorName(pin.kind) << " xnack="
                         << pin.xnack << " size=" << kPinSizes[i]);
            auto a = registry.allocate(pin.kind, kPinSizes[i]);
            ASSERT_TRUE(a);
            const vm::Vma *vma = vmaOf(a);
            ASSERT_NE(vma, nullptr);
            EXPECT_EQ(a.allocTime, pin.alloc[i]);
            EXPECT_EQ(vma->name, pin.vmaName);
            expectPolicy(vma->policy, pin.policy);
            EXPECT_EQ(as.framesOf(a.addr, a.size).size(),
                      pin.populated[i]);
            EXPECT_EQ(registry.deallocate(a), pin.free[i]);
        }
    }
    EXPECT_EQ(node.freeFrames(), node.totalFrames());
}

/** hipHostRegister on on-demand managed memory: the allocation is
 *  re-kinded MallocRegistered, so its free charges unregister plus a
 *  malloc free at that size, not the managed XNACK free. */
TEST_F(AllocTest, RegisteredManagedMemoryFreesAsRegisteredMalloc)
{
    core::System sys;
    auto &rt = sys.runtime();
    rt.setXnack(true);
    hip::DevPtr p = rt.hipMallocManaged(2 * MiB + 4 * KiB);
    ASSERT_EQ(rt.hipHostRegister(p), hip::hipSuccess);
    EXPECT_EQ(rt.allocationOf(p).kind, AllocatorKind::MallocRegistered);
    rt.freeChecked(p);

    as.setXnack(true);
    auto a = registry.allocate(AllocatorKind::HipMallocManaged,
                               2 * MiB + 4 * KiB);
    EXPECT_EQ(a.allocTime, 25000.0);
    SimTime register_time = 0.0;
    ASSERT_EQ(registry.hostRegister(a, register_time), Status::Success);
    EXPECT_EQ(register_time, 173900.0);
    a.kind = AllocatorKind::MallocRegistered;
    const vm::Vma *vma = vmaOf(a);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->name, "hipMallocManaged");
    expectPolicy(vma->policy, {true, true, false, true, false,
                               P::Scattered, kHome, 0});
    EXPECT_EQ(as.framesOf(a.addr, a.size).size(), 513u);
    EXPECT_EQ(registry.deallocate(a), 77046.69);
    EXPECT_EQ(node.freeFrames(), node.totalFrames());
}

/** A managed allocation frees by the VMA it got, not by the XNACK mode
 *  at free time. */
TEST_F(AllocTest, ManagedFreeFollowsTheVmaNotTheCurrentMode)
{
    as.setXnack(true);
    auto on_demand = registry.allocate(AllocatorKind::HipMallocManaged,
                                       2 * MiB + 4 * KiB);
    as.setXnack(false);
    auto up_front = registry.allocate(AllocatorKind::HipMallocManaged,
                                      2 * MiB + 4 * KiB);
    EXPECT_EQ(registry.deallocate(on_demand), 10000.0);
    as.setXnack(true);
    EXPECT_EQ(registry.deallocate(up_front), 350815.0);
}

/** A registered malloc charges the malloc cost plus the register cost.
 *  At 55 pages, adding them in any other grouping rounds differently. */
TEST_F(AllocTest, RegisteredCostIsMallocPlusRegister)
{
    auto a = registry.allocate(AllocatorKind::MallocRegistered,
                               55 * mem::kPageSize);
    EXPECT_EQ(a.allocTime, 38000.945999999996);
    EXPECT_EQ(registry.deallocate(a), 8287.15);
}

/** Parameterized round-trip across every allocator kind. */
class AllocRoundTrip : public ::testing::TestWithParam<AllocatorKind>
{
};

TEST_P(AllocRoundTrip, AllocateFreeRestoresFrames)
{
    mem::MemGeometryConfig cfg;
    cfg.capacityBytes = 256 * MiB;
    mem::MemGeometry geom(cfg);
    mem::NodeMemory node(geom, {}, 1);
    mem::BackingStore store;
    vm::AddressSpace as(node, store);
    AllocatorRegistry registry(as);
    as.setXnack(true);

    auto a = registry.allocate(GetParam(), 8 * MiB);
    EXPECT_EQ(a.size, 8 * MiB);
    EXPECT_TRUE(static_cast<bool>(a));
    // CPU touch works for every allocator (Table 1: all CPU-accessible).
    vm::Vpn first = vm::vpnOf(a.addr);
    if (!test::cpuPresent(as, a.addr)) {
        EXPECT_TRUE(as.tryResolveCpuFaultRange(first, first + 1));
    }
    EXPECT_TRUE(test::cpuPresent(as, a.addr));
    registry.deallocate(a);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_EQ(node.freeFrames(), node.totalFrames());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AllocRoundTrip,
                         ::testing::ValuesIn(kAllKinds));

} // namespace
} // namespace upm::alloc
