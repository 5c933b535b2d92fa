/**
 * @file
 * Cacheline ownership directory for the CPU-GPU coherence model.
 *
 * The MI300A implements CPU atomics by taking exclusive ownership of
 * the line in the core's private L1 (x86 `lock` semantics), while GPU
 * atomics execute at dedicated atomic units in the shared L2 and do not
 * move the line to the requesting CU. The directory tracks, per line,
 * which agent last took ownership, and prices an ownership transfer
 * according to where the line currently lives. These costs are the
 * microscopic inputs of the coherence benchmark model (paper Fig. 4/5).
 */

#ifndef UPM_CACHE_DIRECTORY_HH
#define UPM_CACHE_DIRECTORY_HH

#include <cstdint>
#include <unordered_map>

#include "common/hooks.hh"
#include "common/units.hh"

namespace upm::cache {

/** Who currently owns a line. */
enum class Owner : std::uint8_t {
    None,     //!< in memory / Infinity Cache only
    CpuCore,  //!< exclusive in some CPU core's private cache
    GpuL2,    //!< resident at a GPU L2 atomic unit
};

/** Calibrated transfer costs (ns); see core/calibration.hh for values. */
struct CoherenceCosts
{
    SimTime cpuLocalHit = 5.0;        //!< lock op on an owned line
    SimTime cpuFromOtherCore = 60.0;  //!< cross-core transfer via L3
    SimTime cpuFromGpu = 240.0;       //!< pull line out of GPU L2
    SimTime cpuFromMemory = 110.0;    //!< line was in memory/IC
    SimTime gpuLocalOp = 4.0;         //!< atomic-unit op, line resident
    SimTime gpuFromCpu = 180.0;       //!< invalidate CPU owner first
    SimTime gpuFromMemory = 70.0;     //!< fetch into L2 first
};

/**
 * Sparse line-ownership map. Functional component: given a stream of
 * atomic requests it returns the transfer cost of each and mutates
 * ownership; the Monte-Carlo atomics probe drives it with sampled
 * request streams.
 *
 * With an auditor hooked in, every ownership transfer is mirrored into
 * the auditor's dirty-line shadow (release previous owner, then take
 * exclusive), so a directory transition that skipped the invalidation
 * shows up as DirtyInTwoCaches.
 */
class Directory
{
  public:
    explicit Directory(const CoherenceCosts &costs = {},
                       const Hooks &hooks = {})
        : cost(costs), aud(hooks.aud)
    {}

    /**
     * CPU core @p core performs an atomic on @p line.
     * @return the modelled cost of acquiring ownership.
     */
    SimTime cpuAtomic(std::uint64_t line, unsigned core);

    /**
     * A GPU atomic on @p line (executed at the L2 atomic unit).
     * @return the modelled cost excluding per-line serialization,
     *         which AtomicUnitModel prices separately.
     */
    SimTime gpuAtomic(std::uint64_t line);

    /** Model capacity eviction: line falls back to memory. */
    void evict(std::uint64_t line);

    /** Current owner of @p line (None if never touched / evicted). */
    Owner ownerOf(std::uint64_t line) const;

    /** Owning core id; only meaningful when ownerOf() == CpuCore. */
    unsigned owningCore(std::uint64_t line) const;

    const CoherenceCosts &costs() const { return cost; }

  private:
    struct Entry
    {
        Owner owner = Owner::None;
        unsigned core = 0;
    };

    CoherenceCosts cost;
    std::unordered_map<std::uint64_t, Entry> lines;
    /** UPMSan hook; null (no overhead) unless auditing is enabled. */
    audit::Auditor *aud;
};

} // namespace upm::cache

#endif // UPM_CACHE_DIRECTORY_HH
