/**
 * @file
 * UPMPolicy: pluggable migration / eviction policies for the uvm
 * model.
 *
 * Besides where pages land (first-touch vs interleave, Section 5 --
 * vm::SocketPolicy, the one placement path), the paper's latency and
 * bandwidth figures hinge on when pages move (fault-driven migration,
 * Section 2.1) and what gets evicted under oversubscription (the UVM
 * LRU baseline). This module turns those two decisions into a policy
 * layer with two interfaces:
 *
 *  - MigrationPolicy: hot-page promotion / cold-page demotion driven
 *    by the per-page access counters uvm::UvmSimulator produces (see
 *    migration.hh);
 *  - EvictionPolicy: victim selection under memory pressure,
 *    replacing the single hard-coded uvm LRU (see eviction.hh).
 *
 * Determinism contract: every policy is a pure function of its seeded
 * RNG and the access stream it observed. Policies never read wall
 * clocks, never iterate unordered containers, and break every tie by
 * the lowest page key, so a decision sequence is reproducible from a
 * trace (PolicyMigrate / PolicyEvict events) alone.
 */

#ifndef UPM_POLICY_POLICY_HH
#define UPM_POLICY_POLICY_HH

#include <compare>
#include <cstdint>

namespace upm::policy {

/** Victim-selection flavour under memory pressure. */
enum class EvictionKind : std::uint8_t {
    Lru,         //!< least recently used (the pre-policy uvm default)
    Lfu,         //!< least frequently used; LRU-then-key tie-break
    Random,      //!< seeded uniform choice over resident pages
    Predictive,  //!< furthest predicted next touch (EWMA reuse gap)
};

/** Hot/cold migration flavour. */
enum class MigrationKind : std::uint8_t {
    Off,      //!< never migrate (the pre-policy default)
    HotCold,  //!< promote hot slow-tier pages, demote idle fast-tier
};

/** Memory tier a page is resident in. The fast tier is device-local
 *  HBM; the slow tier is host/link-attached memory (the uvm model's
 *  host side today, a CXL/DDR backend tomorrow). */
enum class Tier : std::uint8_t { Fast, Slow };

const char *evictionKindName(EvictionKind kind);
const char *migrationKindName(MigrationKind kind);

/** Parse helpers for --policy flags; return false on unknown names. */
bool parseEvictionKind(const char *name, EvictionKind *out);
bool parseMigrationKind(const char *name, MigrationKind *out);

/**
 * Identity of one simulated page as policies see it: an address-space
 * (or managed-region) id plus a page index. Ordered lexicographically;
 * "lowest page key" ties always mean this ordering, so victim choice
 * never depends on container representation.
 */
struct PageKey
{
    std::uint64_t space = 0;
    std::uint64_t page = 0;

    auto operator<=>(const PageKey &) const = default;
};

/** Tunables for the migration policies. */
struct MigrationConfig
{
    /** Accesses within the decay window that make a slow-tier page
     *  promotion-eligible. */
    std::uint64_t hotThreshold = 4;
    /** Ticks without an access after which a fast-tier page is
     *  demotion-eligible. */
    std::uint64_t coldTicks = 16;
    /** Promotions + demotions allowed per decision step. */
    std::uint64_t maxMovesPerStep = 64;
};

/** One policy-engine configuration (see PolicyEngine). */
struct PolicyConfig
{
    EvictionKind eviction = EvictionKind::Lru;
    MigrationKind migration = MigrationKind::Off;
    MigrationConfig migrationTuning;

    /** Seed for the seeded policies (Random eviction). */
    std::uint64_t seed = 0x9001'cebau;
};

} // namespace upm::policy

#endif // UPM_POLICY_POLICY_HH
