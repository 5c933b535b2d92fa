/**
 * @file
 * UVM baseline: software-managed unified memory on a *discrete* GPU.
 *
 * The paper's motivation (Sections 1/2.1) is that the unified memory
 * model historically meant UVM -- page-fault-driven migration between
 * separate CPU and GPU memories over a link -- and that it costs 2-3x
 * (up to 14x) versus explicit management, while UPM eliminates the
 * migrations entirely. This module implements that baseline so the
 * comparison the paper argues from can be measured inside upmsim:
 * per-page residency tracking, fault-driven migration with batched
 * service costs, eviction under device-memory pressure (UVM's one
 * advantage: overcommit works), and thrashing when the working set
 * exceeds device memory.
 *
 * Victim selection routes through policy::EvictionPolicy. The default
 * (EvictionKind::Lru with a per-access-call logical tick) is
 * bit-identical to the list LRU this simulator originally hard-coded
 * -- see the equivalence note in policy/eviction.hh and the
 * differential tests -- while LFU / seeded-random / predictive
 * variants become drop-in A/B candidates for bench_policy. An
 * optional policy::PolicyEngine (`pol`, null-checked like every other
 * hook, wired at construction) observes the access stream and can
 * drive hot/cold migration between host and device via
 * migrationStep().
 *
 * The access paths walk a region in stretches of equal residency and
 * make one policy call per stretch: touchRun for resident pages,
 * admitRun for faulting ones, removeRun for pages leaving. admitRun
 * returns its victims in order as page runs -- victim j was picked
 * just before the stretch's page room + j went in. Without an engine
 * the simulator applies each victim run with one residency fill and
 * one counter update (and one region lookup when it is another
 * region's); the end state is the per-page loop's, since a victim
 * among the stretch's own pages went in before it left. With an
 * engine it replays them in the per-page order: it flips residency,
 * counts, and reports each eviction and each admitted page to `pol`
 * exactly as a page-by-page loop would, so every PolicyEvict /
 * PolicyMigrate event is the same. A stretch is read only when the
 * walk reaches it, so a page evicted further ahead in the same call
 * faults back in, as it did page by page.
 */

#ifndef UPM_UVM_UVM_HH
#define UPM_UVM_UVM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/clock.hh"
#include "common/units.hh"
#include "policy/eviction.hh"

namespace upm::policy {
class PolicyEngine;
}

namespace upm::uvm {

/** Calibrated costs of the software-UVM path on a discrete GPU. */
struct UvmCosts
{
    /** CPU-GPU link bandwidth (PCIe gen4 x16 / early NVLink class). */
    double linkBandwidth = gbps(50.0);
    /** GPU fault service per batch (interrupt + runtime round trip). */
    SimTime faultBatchOverhead = 30.0 * microseconds;
    /** Pages migrated per fault batch (driver batching + prefetch). */
    std::uint64_t faultBatchPages = 512;
    /** Per-page bookkeeping on migration (unmap + copy setup). */
    SimTime perPageOverhead = 250.0;
    /** Device-local streaming bandwidth once resident. */
    double deviceBandwidth = tbps(1.6);
    /** Host streaming bandwidth for CPU access to host-resident pages. */
    double hostBandwidth = gbps(170.0);
};

/** Where a page currently lives. */
enum class Residency : std::uint8_t { Host, Device };

/**
 * Functional+timing model of a UVM-managed address space on a discrete
 * GPU with limited device memory. Managed regions migrate page-wise on
 * access; device-memory pressure evicts pages back to the host
 * according to the configured eviction policy.
 */
class UvmSimulator
{
  public:
    /**
     * @param device_memory_bytes device memory capacity (overcommit is
     *        allowed: managed allocations may exceed it).
     * @param costs calibrated path costs.
     */
    explicit UvmSimulator(std::uint64_t device_memory_bytes,
                          const UvmCosts &costs = UvmCosts());

    /** As above with an explicit victim-selection policy. @p seed
     *  feeds the seeded policies (EvictionKind::Random). @p engine,
     *  when not null, observes residency and the access stream keyed
     *  {handle, page} and can drive hot/cold migration; null keeps
     *  this simulator byte-identical to the unhooked build. */
    UvmSimulator(std::uint64_t device_memory_bytes,
                 policy::EvictionKind eviction, std::uint64_t seed,
                 policy::PolicyEngine *engine = nullptr,
                 const UvmCosts &costs = UvmCosts());

    /** cudaMallocManaged-style allocation (host-resident initially). */
    std::uint64_t allocManaged(std::uint64_t bytes);

    /** Free a managed region. */
    void freeManaged(std::uint64_t handle);

    /**
     * GPU kernel touches [offset, offset+bytes) of @p handle: migrate
     * non-resident pages to the device (evicting if full), then
     * stream at device bandwidth. A range past the region's end --
     * one that wraps past 2^64 included -- is a fatal SimError.
     * @return simulated time charged.
     */
    SimTime gpuAccess(std::uint64_t handle, std::uint64_t offset,
                      std::uint64_t bytes);

    /** CPU touches a range: migrate device-resident pages back. The
     *  range is checked as gpuAccess checks it. */
    SimTime cpuAccess(std::uint64_t handle, std::uint64_t offset,
                      std::uint64_t bytes);

    /**
     * Apply one bounded batch of moves proposed by the wired engine's
     * migration policy: promotions page host-resident pages onto the
     * device (only while capacity is free -- migration never evicts),
     * demotions push device-resident pages back. No-op without an
     * engine or with MigrationKind::Off.
     * @return simulated migration time charged.
     */
    SimTime migrationStep();

    /** Pages currently resident on the device. */
    std::uint64_t deviceResidentPages() const { return residentPages; }

    /** Lifetime migration counters (for thrashing analysis). */
    std::uint64_t pagesMigratedToDevice() const { return toDevice; }
    std::uint64_t pagesMigratedToHost() const { return toHost; }
    std::uint64_t evictions() const { return evicted; }

    std::uint64_t deviceCapacityPages() const { return capacityPages; }

    policy::EvictionKind evictionKind() const
    {
        return victims->kind();
    }

  private:
    struct Region
    {
        std::uint64_t pages = 0;
        /** Residency per page. */
        std::vector<Residency> residency;
    };

    /** Migration cost of @p pages pages (batched faults + link). */
    SimTime migrationTime(std::uint64_t pages) const;
    /** Page the host-resident pages [first, first + n) of @p handle
     *  onto the device, evicting as capacity requires. */
    void pageIn(Region &region, std::uint64_t handle, std::uint64_t first,
                std::uint64_t n);
    /** Apply the eviction of the pages of @p run; @p region is
     *  @p handle's. */
    void evictRun(Region &region, std::uint64_t handle,
                  const policy::PageRun &run);

    UvmCosts cost;
    std::uint64_t capacityPages;
    std::uint64_t residentPages = 0;

    std::map<std::uint64_t, Region> regions;
    std::uint64_t nextHandle = 1;

    /** Victim selection over device-resident pages, keyed
     *  {handle, page}. */
    std::unique_ptr<policy::EvictionPolicy> victims;
    /** admitRun's victim runs, reused across calls. */
    std::vector<policy::PageRun> evictedRuns;
    /** Logical clock: one tick per gpuAccess / cpuAccess call, so all
     *  pages touched by one call share a stamp (the LRU-list
     *  equivalence depends on this). */
    std::uint64_t tick = 0;

    policy::PolicyEngine *pol;  //!< null-checked hook

    std::uint64_t toDevice = 0;
    std::uint64_t toHost = 0;
    std::uint64_t evicted = 0;
};

} // namespace upm::uvm

#endif // UPM_UVM_UVM_HH
