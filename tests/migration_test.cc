/**
 * @file
 * Migration-policy invariant tests.
 *
 * Unit tests pin the HotColdMigration decision rules (promotion
 * threshold, demotion staleness, per-step move cap, deterministic
 * PageKey ordering, no promote/demote ping-pong), and two property
 * tests soak the engine+uvm pairing: a long random promote/demote
 * run asserting page conservation and tier agreement every cycle,
 * and a full-System fault storm under UPMInject that must leave the
 * UPMSan audit clean and replay deterministically per seed.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "core/system.hh"
#include "exec/task_pool.hh"
#include "mem/geometry.hh"
#include "policy/engine.hh"
#include "policy/migration.hh"
#include "uvm/uvm.hh"

namespace upm::policy {
namespace {

MigrationConfig
tuning()
{
    MigrationConfig cfg;  // hotThreshold=4, coldTicks=16, cap=64
    return cfg;
}

TEST(HotCold, PromotesAfterThreshold)
{
    HotColdMigration mig(tuning());
    mig.onResident({1, 7}, Tier::Slow);
    for (std::uint64_t t = 1; t <= 3; ++t) {
        mig.onAccess({1, 7}, t);
        EXPECT_TRUE(mig.decide(t).empty()) << "below threshold at " << t;
    }
    mig.onAccess({1, 7}, 4);
    auto actions = mig.decide(4);
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0], (MigrationAction{{1, 7}, Tier::Fast}));
}

TEST(HotCold, DemotesOnlyAfterColdTicks)
{
    HotColdMigration mig(tuning());
    mig.onResident({1, 3}, Tier::Fast);
    mig.onAccess({1, 3}, 10);
    EXPECT_TRUE(mig.decide(10 + tuning().coldTicks - 1).empty());
    auto actions = mig.decide(10 + tuning().coldTicks);
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0], (MigrationAction{{1, 3}, Tier::Slow}));
}

TEST(HotCold, TierChangeResetsAccessCountsNoPingPong)
{
    HotColdMigration mig(tuning());
    mig.onResident({1, 0}, Tier::Slow);
    for (std::uint64_t t = 1; t <= 4; ++t)
        mig.onAccess({1, 0}, t);
    ASSERT_EQ(mig.decide(4).size(), 1u);

    // Apply the promotion: the access count must reset, so the page
    // is neither re-proposed for promotion nor instantly demoted.
    mig.onResident({1, 0}, Tier::Fast);
    EXPECT_EQ(mig.residentIn(Tier::Fast), 1u);
    EXPECT_TRUE(mig.decide(5).empty());

    // Re-reporting the same tier is a no-op, not a counter reset.
    mig.onAccess({1, 0}, 6);
    mig.onResident({1, 0}, Tier::Fast);
    EXPECT_EQ(mig.residentIn(Tier::Fast), 1u);
}

TEST(HotCold, ProposalsOrderedByKeyPromotionsFirst)
{
    HotColdMigration mig(tuning());
    // Hot slow pages inserted in descending key order; one stale
    // fast page that sorts before them.
    for (std::uint64_t p : {9ull, 5ull, 2ull}) {
        mig.onResident({1, p}, Tier::Slow);
        for (std::uint64_t t = 1; t <= 4; ++t)
            mig.onAccess({1, p}, t);
    }
    mig.onResident({0, 0}, Tier::Fast);
    mig.onAccess({0, 0}, 1);

    auto actions = mig.decide(1 + tuning().coldTicks);
    ASSERT_EQ(actions.size(), 4u);
    // Promotions first (ascending key), then demotions, even though
    // the demotion victim has the globally lowest key.
    EXPECT_EQ(actions[0], (MigrationAction{{1, 2}, Tier::Fast}));
    EXPECT_EQ(actions[1], (MigrationAction{{1, 5}, Tier::Fast}));
    EXPECT_EQ(actions[2], (MigrationAction{{1, 9}, Tier::Fast}));
    EXPECT_EQ(actions[3], (MigrationAction{{0, 0}, Tier::Slow}));
}

TEST(HotCold, CapsMovesPerStep)
{
    MigrationConfig cfg = tuning();
    cfg.maxMovesPerStep = 8;
    HotColdMigration mig(cfg);
    for (std::uint64_t p = 0; p < 50; ++p) {
        mig.onResident({1, p}, Tier::Slow);
        for (std::uint64_t t = 1; t <= 4; ++t)
            mig.onAccess({1, p}, t);
    }
    auto actions = mig.decide(4);
    ASSERT_EQ(actions.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(actions[i].key, (PageKey{1, i}));
}

TEST(HotCold, RemoveUntracksAndToleratesUnknownKeys)
{
    HotColdMigration mig(tuning());
    mig.onResident({1, 1}, Tier::Fast);
    mig.onRemove({1, 1});
    EXPECT_EQ(mig.residentIn(Tier::Fast), 0u);
    EXPECT_EQ(mig.residentIn(Tier::Slow), 0u);
    mig.onRemove({9, 9});  // pre-engine page: tolerated
    mig.onAccess({9, 9}, 1);
}

TEST(NullMigration, TracksNothingProposesNothing)
{
    NullMigration mig;
    mig.onResident({1, 1}, Tier::Fast);
    mig.onAccess({1, 1}, 5);
    EXPECT_TRUE(mig.decide(100).empty());
    EXPECT_EQ(mig.residentIn(Tier::Fast), 0u);
    EXPECT_EQ(mig.residentIn(Tier::Slow), 0u);
}

// ---- Property soak: engine + uvm conservation ---------------------------

/**
 * Random promote/demote soak at 1.5x oversubscription. After every
 * operation the engine's tier map and the simulator's residency must
 * agree exactly, and no page may be lost or double-counted: pages in
 * Fast + pages in Slow == every page ever allocated.
 */
void
conservationSoak(std::uint64_t seed, int cycles)
{
    constexpr std::uint64_t kCapacity = 4 * MiB;
    constexpr std::uint64_t kWorkingSet = kCapacity * 3 / 2;
    const std::uint64_t total_pages = kWorkingSet / mem::kPageSize;

    PolicyConfig cfg;
    cfg.migration = MigrationKind::HotCold;
    PolicyEngine engine(cfg);

    uvm::UvmSimulator sim(kCapacity, EvictionKind::Lru, 0, &engine);
    std::uint64_t handle = sim.allocManaged(kWorkingSet);

    SplitMix64 rng(seed);
    for (int c = 0; c < cycles; ++c) {
        std::uint64_t page = rng.nextBelow(total_pages);
        std::uint64_t span = 1 + rng.nextBelow(64);
        std::uint64_t off = page * mem::kPageSize;
        std::uint64_t bytes =
            std::min(span * mem::kPageSize, kWorkingSet - off);
        switch (rng.next() % 16) {
          case 0:
          case 1:
          case 2:
            sim.cpuAccess(handle, off, bytes);
            break;
          case 3:
          case 4:
            // Re-heat the hot window from the host: these pages
            // accumulate slow-tier accesses and become
            // promotion-eligible.
            sim.cpuAccess(handle, 0, 64 * mem::kPageSize);
            break;
          case 5:
          case 6:
            sim.migrationStep();
            break;
          case 7:
            // Full oversubscribed pass: forces eviction pressure.
            sim.gpuAccess(handle, 0, kWorkingSet);
            break;
          default:
            sim.gpuAccess(handle, off, bytes);
            break;
        }
        // Conservation invariants, checked every cycle.
        ASSERT_EQ(engine.residentIn(Tier::Fast),
                  sim.deviceResidentPages())
            << "seed " << seed << " cycle " << c;
        ASSERT_EQ(engine.residentIn(Tier::Fast) +
                      engine.residentIn(Tier::Slow),
                  total_pages)
            << "seed " << seed << " cycle " << c;
        ASSERT_LE(sim.deviceResidentPages(),
                  kCapacity / mem::kPageSize);
    }
    // The soak must have genuinely exercised both directions.
    EXPECT_GT(engine.stats().promotions, 0u) << "seed " << seed;
    EXPECT_GT(engine.stats().demotions, 0u) << "seed " << seed;
    EXPECT_GT(engine.stats().evictions, 0u) << "seed " << seed;
}

TEST(MigrationSoak, ConservationHoldsOver1500CyclesPerSeed)
{
    for (std::uint64_t s = 0; s < 3; ++s)
        conservationSoak(exec::taskSeed(0x50a15eedull, s), 1500);
}

// ---- Full-System storm: inject + audit ----------------------------------

/** Alloc/launch/touch/free storm with every fault site armed. */
void
faultStorm(core::System &sys, std::uint64_t seed)
{
    auto &rt = sys.runtime();
    rt.setXnack(true);
    SplitMix64 rng(seed);
    std::vector<hip::DevPtr> live;
    for (int op = 0; op < 120; ++op) {
        switch (rng.next() % 5) {
          case 0: {
            hip::DevPtr p = 0;
            if (rt.tryAllocate(alloc::AllocatorKind::HipMallocManaged,
                               (1 + rng.nextBelow(4)) * MiB,
                               p) == hip::hipSuccess)
                live.push_back(p);
            break;
          }
          case 1: {
            if (live.empty())
                break;
            hip::DevPtr p = live[rng.nextBelow(live.size())];
            hip::KernelDesc k;
            k.buffers.push_back({p, 1 * MiB, 1 * MiB});
            try {
                rt.launchKernel(k, nullptr);
            } catch (const StatusError &) {
                // Injected loss surfaces as a structured error.
            }
            // Synchronize so later CPU touches are ordered after the
            // kernel -- the audit flags CpuGpuRace otherwise.
            rt.deviceSynchronize();
            break;
          }
          case 2: {
            if (live.empty())
                break;
            hip::DevPtr p = live[rng.nextBelow(live.size())];
            try {
                rt.cpuFirstTouch(p, 1 * MiB);
            } catch (const StatusError &) {
            }
            break;
          }
          case 3: {
            if (live.empty())
                break;
            std::size_t slot = rng.nextBelow(live.size());
            EXPECT_EQ(rt.hipFree(live[slot]), hip::hipSuccess);
            live[slot] = live.back();
            live.pop_back();
            break;
          }
          default: {
            if (live.empty())
                break;
            hip::DevPtr p = live[rng.nextBelow(live.size())];
            try {
                rt.cpuStream(p, 1 * MiB, 4);
            } catch (const StatusError &) {
            }
            break;
          }
        }
    }
    for (hip::DevPtr p : live)
        EXPECT_EQ(rt.hipFree(p), hip::hipSuccess);
}

TEST(MigrationSoak, SystemStormUnderInjectionLeavesAuditClean)
{
    for (std::uint64_t s = 0; s < 3; ++s) {
        std::uint64_t seed = exec::taskSeed(0x5708f001ull, s);
        core::SystemConfig cfg;
        cfg.geometry.capacityBytes = 64 * MiB;
        cfg.audit.enabled = true;
        cfg.audit.warnOnViolation = false;
        cfg.inject = inject::InjectConfig::campaign(seed);

        core::System sys(cfg);
        faultStorm(sys, seed);
        sys.finalizeAudit();
        EXPECT_TRUE(sys.auditor()->clean())
            << "seed " << seed << ": "
            << sys.auditor()->totalViolations() << " violations";
    }
}

TEST(MigrationSoak, StormIsDeterministicPerSeed)
{
    core::SystemConfig cfg;
    cfg.geometry.capacityBytes = 64 * MiB;
    cfg.inject = inject::InjectConfig::campaign(0xfeedbeefull);

    core::System a(cfg), b(cfg);
    faultStorm(a, 0x1234);
    faultStorm(b, 0x1234);
    EXPECT_EQ(a.runtime().now(), b.runtime().now());
}

} // namespace
} // namespace upm::policy
