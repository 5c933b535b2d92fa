#include "alloc/registry.hh"

#include "audit/auditor.hh"
#include "common/log.hh"

namespace upm::alloc {

namespace {

/**
 * A call's simulated time for @p bytes: `base` up to `freePages`
 * pages, plus `perPage` for every page past them.
 */
struct Cost
{
    SimTime base = 0.0;
    SimTime perPage = 0.0;
    std::uint64_t freePages = 0;

    SimTime
    at(std::uint64_t bytes) const
    {
        std::uint64_t pages = ceilDiv(bytes, mem::kPageSize);
        if (pages <= freePages)
            return base;
        return base + perPage * static_cast<double>(pages - freePages);
    }
};

/**
 * One allocator configuration. An up-front row (`!policy.onDemand`)
 * is populated by allocate(); an on-demand row gets its frames at
 * first touch, through CPU faults or, with XNACK, GPU retry faults.
 */
struct Row
{
    vm::VmaPolicy policy;
    const char *vmaName;
    Cost alloc;
    Cost free;
};

constexpr SimTime us = microseconds;

/** Scattered first-touch pages, no GPU mapping until touched. */
constexpr vm::VmaPolicy kOnDemand{.gpuMapped = false, .onDemand = true,
                                  .placement = vm::Placement::Scattered};

/** Pinned, GPU-mapped, populated at allocation with @p placement. */
constexpr vm::VmaPolicy
upFront(vm::Placement placement, bool uncached_gpu = false)
{
    return {.gpuMapped = true, .onDemand = false, .pinned = true,
            .uncachedGpu = uncached_gpu, .placement = placement};
}

/** glibc serves sizes below this from its arena, larger ones by mmap. */
constexpr std::uint64_t kMallocMmapThreshold = 128 * KiB;

/** Indices into kRows, in its order. */
enum : std::uint8_t {
    kMallocSmall, kMallocMmap, kHipMalloc, kHipHostMalloc,
    kManaged, kManagedXnack, kManagedStatic,
};

/** The configurations of Table 1 with their Fig. 6 cost curves. */
constexpr Row kRows[] = {
    // malloc below the threshold: arena pop, and push back on free.
    {kOnDemand, "malloc", {14.0}, {10.0}},
    // malloc at or above it: mmap; munmap walks the pages on free.
    {kOnDemand, "malloc", {1500.0, 0.0172}, {30.0, 0.13}},
    // hipMalloc: ioctl + contiguous carve + GPU PT populate, constant
    // up to its 16 KiB granularity; hipFree is fast until 2 MiB.
    {upFront(vm::Placement::Contiguous), "hipMalloc",
     {10.0 * us, 141.0, 4}, {5.0 * us, 3100.0, 512}},
    // hipHostMalloc: pin + CPU PT + GPU PT populate, stack-balanced
    // but discontiguous (4 KiB GPU fragments).
    {upFront(vm::Placement::Interleaved), "hipHostMalloc",
     {15.0 * us, 763.0, 4}, {220.0 * us, 255.0}},
    // hipMallocManaged without XNACK: the heaviest up-front path.
    {upFront(vm::Placement::Interleaved), "hipMallocManaged",
     {34.0 * us, 1526.0, 4}, {220.0 * us, 255.0}},
    // hipMallocManaged with XNACK: on-demand like malloc, but the HIP
    // runtime's bookkeeping costs the same at every size.
    {kOnDemand, "hipMallocManaged", {25.0 * us}, {10.0 * us}},
    // __managed__ statics: mapped at program load on the managed path;
    // GPU accesses are uncacheable (paper Fig. 3).
    {upFront(vm::Placement::Interleaved, true), "__managed__",
     {34.0 * us, 1526.0}, {220.0 * us}},
};

/** hipHostRegister of a malloc region, and its unregister at free. */
constexpr Cost kRegister{20.0 * us, 300.0};
constexpr Cost kUnregister{0.0, 150.0};

/**
 * The row serving @p kind for a @p size-byte allocation. A managed
 * allocation is on-demand under XNACK: allocate() passes the current
 * mode, deallocate() what the VMA was created with.
 */
const Row &
rowOf(AllocatorKind kind, std::uint64_t size, bool on_demand)
{
    switch (kind) {
      case AllocatorKind::Malloc:
      case AllocatorKind::MallocRegistered:
        return kRows[size < kMallocMmapThreshold ? kMallocSmall
                                                 : kMallocMmap];
      case AllocatorKind::HipMalloc:
        return kRows[kHipMalloc];
      case AllocatorKind::HipHostMalloc:
        return kRows[kHipHostMalloc];
      case AllocatorKind::HipMallocManaged:
        return kRows[on_demand ? kManagedXnack : kManaged];
      case AllocatorKind::ManagedStatic:
        return kRows[kManagedStatic];
    }
    panic("unknown allocator kind");
}

} // namespace

AllocatorRegistry::AllocatorRegistry(vm::AddressSpace &address_space,
                                     const Hooks &hooks)
    : as(address_space), aud(hooks.aud)
{
}

Allocation
AllocatorRegistry::allocate(AllocatorKind kind, std::uint64_t size)
{
    const Row &row = rowOf(kind, size, as.xnackEnabled());
    auto mapped = as.tryMmapAnon(size, row.policy, row.vmaName);
    if (!mapped)
        return Allocation::failed(kind, mapped.status);
    if (!row.policy.onDemand) {
        // On OOM, unmap (reclaiming whatever was populated before the
        // allocator ran dry) so a failed allocation leaks nothing.
        auto populated = as.tryPopulateRange(mapped.base, size);
        if (!populated) {
            as.munmapChecked(mapped.base);
            return Allocation::failed(kind, populated.status);
        }
    }
    Allocation allocation;
    allocation.addr = mapped.base;
    allocation.size = size;
    allocation.kind = kind;
    allocation.allocTime = row.alloc.at(size);
    if (kind == AllocatorKind::MallocRegistered) {
        SimTime register_time = 0.0;
        Status st = hostRegister(allocation, register_time);
        if (st != Status::Success) {
            // The malloc half exists but cannot be pinned: unwind it
            // so the failed composite leaks neither VA nor frames.
            as.munmapChecked(allocation.addr);
            return Allocation::failed(kind, st);
        }
        allocation.allocTime += register_time;
    }
    if (aud != nullptr)
        aud->noteAlloc(allocation.addr, allocation.size,
                       allocatorName(allocation.kind));
    return allocation;
}

SimTime
AllocatorRegistry::deallocate(Allocation &allocation)
{
    const vm::Vma *vma = as.findVma(allocation.addr);
    const Row &row = rowOf(allocation.kind, allocation.size,
                           vma != nullptr && vma->policy.onDemand);
    SimTime t = row.free.at(allocation.size);
    if (allocation.kind == AllocatorKind::MallocRegistered)
        t = kUnregister.at(allocation.size) + t;
    if (aud != nullptr)
        aud->noteFree(allocation.addr);
    as.munmapChecked(allocation.addr);
    allocation = {};
    return t;
}

Status
AllocatorRegistry::hostRegister(const Allocation &allocation,
                                SimTime &time)
{
    time = 0.0;
    Status st = as.pinAndMapGpu(allocation.addr);
    if (st != Status::Success)
        return st;
    time = kRegister.at(allocation.size);
    return Status::Success;
}

} // namespace upm::alloc
