/**
 * @file
 * PolicyEngine: the object behind the `pol` hook.
 *
 * One engine per uvm::UvmSimulator aggregates the eviction and
 * migration policies and the per-page access counters that feed them.
 * The simulator holds a raw `PolicyEngine *pol` exactly like the
 * aud / tr / inj / cal / obs hooks: null means "policy disabled" and
 * every call site is null-checked, so an unwired simulator is
 * byte-identical to the pre-policy tree (the differential tests pin
 * this).
 *
 * Division of labour:
 *  - the engine decides (which victim, which moves) and emits the
 *    PolicyMigrate / PolicyEvict trace events for decisions that were
 *    APPLIED, so a trace replays to the exact decision sequence;
 *  - the simulator owns the mechanism (residency flips, migration
 *    costs) and reports outcomes back via the note*() calls.
 *
 * The engine's logical clock advances once per simulator call
 * (advanceTick() at the top of gpuAccess / cpuAccess and friends);
 * pages touched by one call share a tick, which is what makes the LRU
 * policy reproduce the retired list-LRU exactly.
 */

#ifndef UPM_POLICY_ENGINE_HH
#define UPM_POLICY_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "policy/eviction.hh"
#include "policy/migration.hh"
#include "policy/policy.hh"

namespace upm::trace {
class Tracer;
}

namespace upm::policy {

/** Decision counters, cheap enough to keep always-on. */
struct PolicyStats
{
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t accesses = 0;
    std::uint64_t migrationSteps = 0;
};

class PolicyEngine
{
  public:
    /** @p tracer, when not null, receives the PolicyEvict and
     *  PolicyMigrate events of applied decisions. */
    explicit PolicyEngine(const PolicyConfig &config,
                          trace::Tracer *tracer = nullptr);
    ~PolicyEngine();

    PolicyEngine(const PolicyEngine &) = delete;
    PolicyEngine &operator=(const PolicyEngine &) = delete;

    const PolicyConfig &config() const { return cfg; }
    const PolicyStats &stats() const { return counters; }

    // ------------------------------------------------------- eviction

    /** Build a victim-selection policy from this engine's config.
     *  Each consuming simulator owns its own instance (victim state
     *  is per-memory, not global). */
    std::unique_ptr<EvictionPolicy> makeEvictionPolicy() const;

    /** Record an applied eviction: emits PolicyEvict, counts it, and
     *  drops the page from the migration counters if tracked. */
    void noteEvicted(PageKey key, std::uint64_t residentAfter);

    // ------------------------------------------- access stream / tick

    /** Advance the logical clock; call once at the top of each
     *  simulator entry point. */
    void advanceTick() { ++now; }
    std::uint64_t tick() const { return now; }

    /** @p key became resident in @p tier. */
    void noteResident(PageKey key, Tier tier);

    /** @p key left residency (free or legacy-path eviction already
     *  reported via noteEvicted). Unknown keys are ignored so callers
     *  need not mirror the engine's tracking. */
    void noteRemoved(PageKey key);

    /** One access to @p key at the current tick. */
    void noteAccess(PageKey key);

    /** Range convenience: pages [first, first+n) of @p space accessed
     *  at the current tick. Cheap no-op when migration is Off. */
    void noteAccessRange(std::uint64_t space, std::uint64_t first,
                         std::uint64_t n);

    // ------------------------------------------------------ migration

    /** True when a real migration policy is active. */
    bool migrates() const
    {
        return cfg.migration != MigrationKind::Off;
    }

    /** Ask the migration policy for a bounded batch of proposed moves
     *  at the current tick. Counts the step; does NOT emit events --
     *  proposals are not decisions until applied. */
    std::vector<MigrationAction> migrationStep();

    /** Record an APPLIED move of @p key to @p tier: updates the
     *  policy's residency map, emits PolicyMigrate, and counts a
     *  promotion or demotion. */
    void noteMigrated(PageKey key, Tier tier);

    /** Pages the migration policy currently tracks in @p tier. */
    std::uint64_t residentIn(Tier tier) const
    {
        return mig->residentIn(tier);
    }

  private:
    PolicyConfig cfg;
    PolicyStats counters;
    std::uint64_t now = 0;

    std::unique_ptr<MigrationPolicy> mig;  //!< NullMigration when Off

    trace::Tracer *tr;  //!< null-checked, like every hook
};

} // namespace upm::policy

#endif // UPM_POLICY_ENGINE_HH
