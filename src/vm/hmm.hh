/**
 * @file
 * HMM-style mirroring between the system and GPU page tables.
 *
 * Unlike Grace Hopper, the MI300A GPU cannot walk the system page
 * table; PTEs must be *propagated* into the GPU page table, and the
 * Linux HMM subsystem keeps the two in sync (paper Section 2.3). The
 * mirror is the mechanism behind GPU *minor* faults: the page is
 * already physically present (system PTE exists) and only the GPU-side
 * mapping is missing.
 */

#ifndef UPM_VM_HMM_HH
#define UPM_VM_HMM_HH

#include <cstdint>

#include "common/hooks.hh"
#include "vm/gpu_page_table.hh"
#include "vm/page_table.hh"

namespace upm::vm {

/**
 * Record a MirrorDivergence for every page where @p sys and @p gpu
 * overlap but map different frames, in vpn order. Two strided runs
 * with the same frame-vpn offset agree in O(1); anything else compares
 * frames page by page. @return pages recorded.
 */
std::uint64_t auditRunDivergence(audit::Auditor &aud, const PteRun &sys,
                                 const PteRun &gpu);

/**
 * Propagates PTEs from a SystemPageTable into a GpuPageTable and
 * handles invalidation, recomputing fragments over touched windows.
 *
 * Hooks: with an auditor, mirrorRange cross-checks the frames of PTEs
 * present on both sides (MirrorDivergence); with a tracer, every range
 * op that touched at least one PTE emits HmmMirror / HmmInvalidate.
 */
class HmmMirror
{
  public:
    HmmMirror(const SystemPageTable &system_table, GpuPageTable &gpu_table,
              const Hooks &hooks = {})
        : sysTable(system_table), gpuTable(gpu_table), aud(hooks.aud),
          tr(hooks.tr)
    {}

    /**
     * Propagate all present-but-unmirrored PTEs in [begin, end) to the
     * GPU table and recompute fragments over the window.
     * @return the number of PTEs propagated.
     */
    std::uint64_t mirrorRange(Vpn begin, Vpn end);

    /**
     * Remove GPU-side mappings in [begin, end) (MMU-notifier path:
     * munmap, migration, ...). @return entries invalidated.
     */
    std::uint64_t invalidateRange(Vpn begin, Vpn end);

    /** Lifetime count of propagated PTEs (profiling surface). */
    std::uint64_t propagated() const { return propagatedCount; }
    /** Lifetime count of invalidated PTEs. */
    std::uint64_t invalidated() const { return invalidatedCount; }

  private:
    const SystemPageTable &sysTable;
    GpuPageTable &gpuTable;
    std::uint64_t propagatedCount = 0;
    std::uint64_t invalidatedCount = 0;
    audit::Auditor *aud;
    trace::Tracer *tr;
};

} // namespace upm::vm

#endif // UPM_VM_HMM_HH
