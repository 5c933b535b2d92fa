/**
 * @file
 * The machine performance model: turns VM/placement state into
 * latencies and bandwidths.
 *
 * This is where the characterization's mechanisms meet timing:
 *  - GPU streaming bandwidth is issue-limited, degraded by UTCL1
 *    translation misses whose rate depends on the *actual fragment
 *    sizes* in the GPU page table, degraded again by XNACK retry mode
 *    for on-demand memory, and capped hard for uncached (managed
 *    static) mappings.
 *  - CPU streaming bandwidth is per-core issue-limited up to a fabric
 *    cap whose effectiveness depends on the *actual stack balance* of
 *    the allocation's frames.
 *  - Dependent-load (pointer chase) latency walks the agent-side
 *    hierarchy and then the Infinity Cache, whose hit fraction again
 *    comes from real frame placement.
 */

#ifndef UPM_HIP_PERF_MODEL_HH
#define UPM_HIP_PERF_MODEL_HH

#include <cstdint>
#include <span>

#include "cache/hierarchy.hh"
#include "cache/infinity_cache.hh"
#include "common/hooks.hh"
#include "core/calibration.hh"
#include "vm/address_space.hh"

namespace upm::hip {

/** Placement/mapping summary of a virtual range, fed to the model. */
struct RegionProfile
{
    std::uint64_t bytes = 0;
    std::uint64_t pagesTotal = 0;
    std::uint64_t pagesPresent = 0;
    std::uint64_t pagesGpuMapped = 0;
    /** Mean pages covered per GPU page-table fragment. */
    double avgFragmentSpan = 1.0;
    /** Stack-placement balance in (0, 1]; 1 == even. */
    double stackBalance = 1.0;
    /** Fraction of pages placed through the scattered CPU-fault path. */
    double scatteredFraction = 0.0;
    /** Infinity Cache hit fraction for this working set (already
     *  degraded by scattered-placement set conflicts). */
    double icHitFraction = 0.0;
    bool onDemand = false;
    bool pinned = false;
    bool uncachedGpu = false;
    bool gpuMapped = false;

    // Multi-socket placement (all zero on a single-socket node, which
    // leaves every downstream formula untouched).
    /** Fraction of present pages owned by a different socket than the
     *  accessing one (ReplicateRO regions count as fully local). */
    double remoteFraction = 0.0;
    /** Mean xGMI hops to the remote pages' owners. */
    double avgRemoteHops = 0.0;
    /** Fraction of remote pages reached in the penalized far
     *  direction. */
    double farRemoteFraction = 0.0;
};

/**
 * Stateless performance model bound to a system configuration. All
 * queries are pure functions of the supplied profiles.
 *
 * Hooks (multi-socket nodes only; absent, every query is
 * byte-identical to the single-socket model):
 *  - the fabric: profileRegion() computes the remote-page mix of each
 *    region against the address space's current socket (a global
 *    frame's owner is frame / geometry().numFrames()), stream
 *    bandwidth harmonically mixes the xGMI cap over that mix, and
 *    chase latency gains the per-hop adder;
 *  - the per-socket Infinity Caches (one per shard, in socket order):
 *    profileRegion() partitions a working set's frames by owning shard
 *    and asks each socket's own cache how much of its slice it covers,
 *    so a set spread over N sockets can exploit N x 256 MiB and a set
 *    homed on one socket is bounded by that socket's cache alone.
 * A tracer receives one IcQuery event per profileRegion() carrying the
 * Infinity Cache hit fraction it computed.
 */
class PerfModel
{
  public:
    PerfModel(const core::SystemConfig &config,
              const mem::MemGeometry &geometry, const Hooks &hooks = {});

    /** Summarize the placement of [base, base+size). */
    RegionProfile profileRegion(const vm::AddressSpace &as,
                                vm::VirtAddr base,
                                std::uint64_t size) const;

    /** GPU streaming (STREAM-style) bandwidth in bytes/ns. */
    double gpuStreamBandwidth(const RegionProfile &profile) const;

    /** CPU streaming bandwidth for @p threads cores, bytes/ns. */
    double cpuStreamBandwidth(const RegionProfile &profile,
                              unsigned threads) const;

    /** GPU dependent-load latency for a chase over the region. */
    SimTime gpuChaseLatency(const RegionProfile &profile) const;

    /** CPU dependent-load latency for a chase over the region. */
    SimTime cpuChaseLatency(const RegionProfile &profile) const;

    /** Time for the GPU to move @p bytes against this region. */
    SimTime gpuStreamTime(const RegionProfile &profile,
                          std::uint64_t bytes) const;

    /** GPU compute time for @p flops FP64 operations. */
    SimTime gpuComputeTime(double flops) const;

    /** CPU compute time for @p flops across @p threads cores. */
    SimTime cpuComputeTime(double flops, unsigned threads) const;

    /** CPU time to stream @p bytes with @p threads cores. */
    SimTime cpuStreamTime(const RegionProfile &profile,
                          std::uint64_t bytes, unsigned threads) const;

    const core::SystemConfig &config() const { return cfg; }
    const cache::CacheHierarchy &gpuHierarchy() const { return gpuCaches; }
    const cache::CacheHierarchy &cpuHierarchy() const { return cpuCaches; }
    const cache::InfinityCache &infinityCache() const { return ic; }

  private:
    /** Harmonic local/xGMI bandwidth blend for a region's remote mix
     *  (identity when no fabric or no remote pages). */
    double fabricMix(double local_bw, const RegionProfile &profile) const;

    core::SystemConfig cfg;
    const mem::MemGeometry &geom;
    cache::InfinityCache ic;
    cache::CacheHierarchy gpuCaches;
    cache::CacheHierarchy cpuCaches;
    /** Per-socket working-set hit fraction (multi-socket only). */
    double socketIcHitFraction(
        const std::vector<mem::FrameId> &frames) const;

    /** xGMI model; null on single-socket Systems. */
    const fabric::Fabric *fab;
    /** Per-socket IC instances, owned by the System; empty on
     *  single-socket Systems. */
    std::span<const cache::InfinityCache *const> socketCaches;
    /** UPMTrace hook; null (no overhead) unless tracing is on. */
    trace::Tracer *tr;
};

} // namespace upm::hip

#endif // UPM_HIP_PERF_MODEL_HH
