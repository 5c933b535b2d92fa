/**
 * @file
 * Memory-side Infinity Cache model.
 *
 * CDNA3's Infinity Cache is 256 MiB, partitioned into slices mapped
 * 1:1 onto the 128 memory channels, and sits on the memory side of the
 * fabric (it is not coherent and absorbs no snoops). Because a physical
 * page lives on one stack (4 KiB stack interleave) and spreads over
 * that stack's 16 channels, the per-slice load of an allocation is
 * determined by the *stack placement* of its frames. A biased placement
 * oversubscribes some slices while leaving others idle, which reduces
 * the effective cache capacity -- the paper's explanation (Section 5.4)
 * for why CPU-first-touch malloc memory cannot exploit the full
 * Infinity Cache while hipMalloc memory can.
 */

#ifndef UPM_CACHE_INFINITY_CACHE_HH
#define UPM_CACHE_INFINITY_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "mem/geometry.hh"

namespace upm::cache {

/** Static parameters; defaults model the MI300A. */
struct InfinityCacheConfig
{
    std::uint64_t capacityBytes = 256 * MiB;
    SimTime hitLatency = 145.0;        //!< from the CPU side, ns
    double peakBandwidth = 17200.0;    //!< bytes/ns (17.2 TB/s)
};

/**
 * Analytic slice-level model. Given the frame placement of a working
 * set, computes the steady-state hit fraction for uniform access: each
 * slice keeps its hottest `sliceCapacity` bytes, so the hit fraction is
 * sum_c min(cap_c, load_c) / total_load.
 */
class InfinityCache
{
  public:
    InfinityCache(const mem::MemGeometry &geometry,
                  const InfinityCacheConfig &config = {});

    /**
     * Hit fraction for a working set of `sum(load) * kPageSize` bytes
     * placed as the per-stack page-count histogram says
     * (MemGeometry::stackLoad of its frames); 1.0 when empty. Assumes
     * each page's traffic spreads evenly over its stack's channels
     * (true for any access pattern coarser than 256 B).
     */
    double hitFractionFromStackLoad(
        const std::vector<std::uint64_t> &pages_per_stack) const;

    /**
     * Bytes of the working set this cache covers: per stack,
     * min(stack load, stack capacity), summed in stack order. The
     * building block hitFractionFromStackLoad() divides by total load;
     * multi-socket callers sum coveredBytes() across each socket's own
     * cache instead, so each socket's 256 MiB covers only the frames
     * its shard owns.
     */
    double coveredBytes(
        const std::vector<std::uint64_t> &pages_per_stack) const;

    std::uint64_t capacity() const { return cfg.capacityBytes; }
    std::uint64_t sliceCapacity() const { return sliceBytes; }
    SimTime hitLatency() const { return cfg.hitLatency; }
    double peakBandwidth() const { return cfg.peakBandwidth; }

  private:
    const mem::MemGeometry &geom;
    InfinityCacheConfig cfg;
    std::uint64_t sliceBytes;
};

} // namespace upm::cache

#endif // UPM_CACHE_INFINITY_CACHE_HH
