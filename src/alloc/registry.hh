/**
 * @file
 * Allocator registry: every Table 1 configuration bound to one
 * address space, served by one allocate and one deallocate body, plus
 * the hipHostRegister composite path.
 */

#ifndef UPM_ALLOC_REGISTRY_HH
#define UPM_ALLOC_REGISTRY_HH

#include "alloc/allocation.hh"
#include "common/hooks.hh"
#include "vm/address_space.hh"

namespace upm::alloc {

/**
 * The allocators of one simulated process. Each AllocatorKind picks a
 * row of a fixed table (VMA policy, VMA name, allocation and free
 * cost); `MallocRegistered` is a malloc row plus hipHostRegister.
 * With an auditor hooked in, allocate/deallocate shadow the
 * live-range map that powers UPMSan's overlap and use-after-free
 * checks.
 */
class AllocatorRegistry
{
  public:
    explicit AllocatorRegistry(vm::AddressSpace &address_space,
                               const Hooks &hooks = {});

    /**
     * Allocate @p size bytes with the given allocator configuration.
     * A failed allocation comes back with `status != Success` and no
     * VMA or frames behind it; `MallocRegistered` unwinds its malloc
     * half if the register half cannot pin.
     */
    Allocation allocate(AllocatorKind kind, std::uint64_t size);

    /** Free an allocation. @return the simulated call time. */
    SimTime deallocate(Allocation &allocation);

    /**
     * hipHostRegister an existing (malloc) allocation: pin + GPU-map.
     * @param time receives the simulated call time (0 on failure).
     * @return Status::OutOfMemory when pinning cannot populate.
     */
    Status hostRegister(const Allocation &allocation, SimTime &time);

    vm::AddressSpace &addressSpace() { return as; }

  private:
    vm::AddressSpace &as;
    /** UPMSan hook; null (no overhead) unless auditing is enabled. */
    audit::Auditor *aud;
};

} // namespace upm::alloc

#endif // UPM_ALLOC_REGISTRY_HH
