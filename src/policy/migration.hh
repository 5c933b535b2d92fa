/**
 * @file
 * MigrationPolicy: hot-page promotion and cold-page demotion.
 *
 * The Grace Hopper first-look paper (PAPERS.md) shows that an
 * integrated CPU-GPU memory lives or dies by whether the hot working
 * set sits in the fast tier; CXLMemSim's migration use cases model the
 * same decision for CXL pools. This interface consumes the per-page
 * access stream uvm::UvmSimulator produces (fed through its
 * null-checked `pol` hook -- byte-identical when unwired) and
 * periodically proposes bounded batches of promotions (slow -> fast)
 * and demotions (fast -> slow). The caller owns the mechanism: it
 * applies each action to its residency structures and reports the
 * move back, so policy bookkeeping and simulator state cannot drift
 * (the migration-invariant property tests check exactly this).
 */

#ifndef UPM_POLICY_MIGRATION_HH
#define UPM_POLICY_MIGRATION_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "policy/policy.hh"

namespace upm::policy {

/** One proposed page move. */
struct MigrationAction
{
    PageKey key;
    /** Tier the page should move to (Fast = promote, Slow = demote). */
    Tier to = Tier::Fast;

    bool operator==(const MigrationAction &) const = default;
};

/**
 * Hot/cold decision interface. Residency callbacks keep the policy's
 * tier map in sync with the owning simulator; decide() proposes moves
 * without applying them.
 */
class MigrationPolicy
{
  public:
    virtual ~MigrationPolicy() = default;

    /** @p key became resident in @p tier (first placement or an
     *  applied migration). Re-reporting an already-tracked key moves
     *  it between tiers. */
    virtual void onResident(PageKey key, Tier tier) = 0;

    /** @p key left the memory system entirely (freed or evicted). */
    virtual void onRemove(PageKey key) = 0;

    /** A tracked @p key was accessed at logical time @p tick. */
    virtual void onAccess(PageKey key, std::uint64_t tick) = 0;

    /**
     * Propose a bounded batch of moves as of @p tick. Deterministic:
     * candidates are scanned in PageKey order. The caller applies the
     * actions (or drops them, e.g. when the fast tier is full) and
     * reports applied moves back through onResident().
     */
    virtual std::vector<MigrationAction> decide(std::uint64_t tick) = 0;

    /** Pages currently tracked in @p tier. */
    virtual std::uint64_t residentIn(Tier tier) const = 0;

    virtual MigrationKind kind() const = 0;
    const char *name() const { return migrationKindName(kind()); }
};

/** The Off policy: tracks nothing, proposes nothing. */
class NullMigration : public MigrationPolicy
{
  public:
    void onResident(PageKey, Tier) override {}
    void onRemove(PageKey) override {}
    void onAccess(PageKey, std::uint64_t) override {}
    std::vector<MigrationAction> decide(std::uint64_t) override
    {
        return {};
    }
    std::uint64_t residentIn(Tier) const override { return 0; }
    MigrationKind kind() const override { return MigrationKind::Off; }
};

/**
 * Threshold hot/cold: a slow-tier page with at least
 * MigrationConfig::hotThreshold accesses since it last moved is
 * promotion-eligible; a fast-tier page untouched for
 * MigrationConfig::coldTicks ticks is demotion-eligible. Each
 * decide() proposes at most maxMovesPerStep actions, promotions
 * first, both scanned in ascending PageKey order.
 */
class HotColdMigration : public MigrationPolicy
{
  public:
    explicit HotColdMigration(const MigrationConfig &config)
        : cfg(config)
    {
    }

    void onResident(PageKey key, Tier tier) override;
    void onRemove(PageKey key) override;
    void onAccess(PageKey key, std::uint64_t tick) override;
    std::vector<MigrationAction> decide(std::uint64_t tick) override;
    std::uint64_t residentIn(Tier tier) const override;
    MigrationKind kind() const override
    {
        return MigrationKind::HotCold;
    }

  private:
    struct Node
    {
        Tier tier = Tier::Slow;
        /** Accesses since the page last changed tier. */
        std::uint64_t accesses = 0;
        std::uint64_t lastTick = 0;
    };

    MigrationConfig cfg;
    std::map<PageKey, Node> pages;
    std::uint64_t fastCount = 0;
};

/** Build a migration policy. */
std::unique_ptr<MigrationPolicy> makeMigration(
    MigrationKind kind, const MigrationConfig &config);

} // namespace upm::policy

#endif // UPM_POLICY_MIGRATION_HH
