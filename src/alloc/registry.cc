#include "alloc/registry.hh"

#include "audit/auditor.hh"
#include "common/log.hh"

namespace upm::alloc {

AllocatorRegistry::AllocatorRegistry(vm::AddressSpace &address_space,
                                     const AllocCosts &costs,
                                     const Hooks &hooks)
    : as(address_space), cost(costs), aud(hooks.aud), mallocSim(as, costs),
      hipMalloc(as, costs), hipHostMalloc(as, costs), hipManaged(as, costs),
      managedStatic(as, costs)
{
}

Allocator &
AllocatorRegistry::allocatorFor(AllocatorKind kind)
{
    switch (kind) {
      case AllocatorKind::Malloc:
      case AllocatorKind::MallocRegistered:
        return mallocSim;
      case AllocatorKind::HipMalloc:
        return hipMalloc;
      case AllocatorKind::HipHostMalloc:
        return hipHostMalloc;
      case AllocatorKind::HipMallocManaged:
        return hipManaged;
      case AllocatorKind::ManagedStatic:
        return managedStatic;
    }
    panic("unknown allocator kind");
}

Allocation
AllocatorRegistry::allocate(AllocatorKind kind, std::uint64_t size)
{
    Allocation allocation = allocatorFor(kind).allocate(size);
    if (!allocation)
        return allocation;
    if (kind == AllocatorKind::MallocRegistered) {
        SimTime register_time = 0.0;
        Status st = hostRegister(allocation, register_time);
        if (st != Status::Success) {
            // The malloc half exists but cannot be pinned: unwind it
            // so the failed composite leaks neither VA nor frames.
            allocatorFor(AllocatorKind::Malloc).deallocate(allocation);
            return Allocation::failed(AllocatorKind::MallocRegistered,
                                      st);
        }
        allocation.kind = AllocatorKind::MallocRegistered;
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
    SimTime extra = 0.0;
    if (allocation.kind == AllocatorKind::MallocRegistered) {
        std::uint64_t pages = ceilDiv(allocation.size, mem::kPageSize);
        extra = cost.unregisterPerPage * static_cast<double>(pages);
    }
    if (aud != nullptr)
        aud->noteFree(allocation.addr);
    return extra + allocatorFor(allocation.kind).deallocate(allocation);
}

Status
AllocatorRegistry::hostRegister(const Allocation &allocation,
                                SimTime &time)
{
    time = 0.0;
    Status st = as.pinAndMapGpu(allocation.addr);
    if (st != Status::Success)
        return st;
    std::uint64_t pages = ceilDiv(allocation.size, mem::kPageSize);
    time = cost.registerBase +
           cost.registerPerPage * static_cast<double>(pages);
    return Status::Success;
}

} // namespace upm::alloc
