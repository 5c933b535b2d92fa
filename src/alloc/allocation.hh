/**
 * @file
 * Allocator taxonomy (paper Table 1): the configurations, their
 * capability matrix, and the Allocation record a call returns.
 *
 * Every configuration is an mmap with a VMA policy plus a cost curve;
 * alloc/registry.cc holds them as rows of one table, calibrated
 * against the paper's Fig. 6 and the deallocation discussion in
 * Section 5.1.
 */

#ifndef UPM_ALLOC_ALLOCATION_HH
#define UPM_ALLOC_ALLOCATION_HH

#include <cstdint>
#include <string>

#include "common/status.hh"
#include "common/units.hh"
#include "vm/address_space.hh"

namespace upm::alloc {

/** The allocator configurations of Table 1. */
enum class AllocatorKind : std::uint8_t {
    Malloc,            //!< libc malloc (on-demand; GPU needs XNACK)
    MallocRegistered,  //!< malloc + hipHostRegister (up-front pinned)
    HipMalloc,         //!< up-front, contiguous, fastest GPU path
    HipHostMalloc,     //!< up-front pinned host memory
    HipMallocManaged,  //!< up-front without XNACK, on-demand with
    ManagedStatic,     //!< __managed__ variables (uncached GPU access)
};

/** All kinds, in Table 1 order, for sweeps. */
inline constexpr AllocatorKind kAllKinds[] = {
    AllocatorKind::Malloc,        AllocatorKind::MallocRegistered,
    AllocatorKind::HipMalloc,     AllocatorKind::HipHostMalloc,
    AllocatorKind::HipMallocManaged, AllocatorKind::ManagedStatic,
};

/** Human-readable allocator name. */
const char *allocatorName(AllocatorKind kind);

/** A Table 1 row: capability matrix entry. */
struct AllocTraits
{
    bool gpuAccess = false;
    bool cpuAccess = false;
    bool onDemand = false;
};

/**
 * Capability matrix (Table 1). @p xnack matters for malloc (GPU access
 * only with XNACK) and hipMallocManaged (on-demand only with XNACK).
 */
AllocTraits traitsOf(AllocatorKind kind, bool xnack);

/** One live allocation (or the structured reason there isn't one). */
struct Allocation
{
    vm::VirtAddr addr = 0;
    std::uint64_t size = 0;
    AllocatorKind kind = AllocatorKind::Malloc;
    /** Simulated time the allocate() call itself took. */
    SimTime allocTime = 0.0;
    /** Why allocate() failed; Success for a live allocation. A failed
     *  allocation owns no VMA and no frames (full rollback). */
    Status status = Status::Success;

    explicit operator bool() const
    {
        return status == Status::Success && size != 0;
    }

    /** A failed allocation of @p kind, carrying @p why. */
    static Allocation
    failed(AllocatorKind kind, Status why)
    {
        Allocation allocation;
        allocation.kind = kind;
        allocation.status = why;
        return allocation;
    }
};

} // namespace upm::alloc

#endif // UPM_ALLOC_ALLOCATION_HH
