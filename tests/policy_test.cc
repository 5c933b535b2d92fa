/**
 * @file
 * UPMPolicy unit tests: eviction-policy semantics and tie-breaks
 * (including the evictOne() lowest-page-id regression), engine
 * counters and trace emission, and replay folding of the policy
 * events.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "eviction_util.hh"
#include "mem/geometry.hh"
#include "policy/engine.hh"
#include "sched/replay.hh"
#include "trace/tracer.hh"
#include "uvm/uvm.hh"

namespace upm::policy {
namespace {

using test::evictPage;
using test::insertPage;
using test::removePage;
using test::touchPage;

constexpr EvictionKind kKinds[] = {
    EvictionKind::Lru,
    EvictionKind::Lfu,
    EvictionKind::Random,
    EvictionKind::Predictive,
};

// ---- Eviction semantics -------------------------------------------------

TEST(Eviction, LruEvictsOldest)
{
    LruEviction lru;
    insertPage(lru, {1, 0}, 1);
    insertPage(lru, {1, 1}, 2);
    insertPage(lru, {1, 2}, 3);
    EXPECT_EQ(evictPage(lru, 3), (PageKey{1, 0}));
    EXPECT_EQ(evictPage(lru, 3), (PageKey{1, 1}));
    EXPECT_EQ(lru.size(), 1u);
}

TEST(Eviction, LruTouchRefreshes)
{
    LruEviction lru;
    insertPage(lru, {1, 0}, 1);
    insertPage(lru, {1, 1}, 2);
    touchPage(lru, {1, 0}, 3);
    EXPECT_EQ(evictPage(lru, 3), (PageKey{1, 1}));
    EXPECT_EQ(evictPage(lru, 3), (PageKey{1, 0}));
}

TEST(Eviction, LruSameTickTieBreaksLowestKey)
{
    // Pages stamped by the same logical tick must evict in PageKey
    // order regardless of insertion order -- the representation-
    // independence fix for the retired list's implicit ordering.
    LruEviction lru;
    insertPage(lru, {2, 7}, 5);
    insertPage(lru, {1, 9}, 5);
    insertPage(lru, {2, 3}, 5);
    EXPECT_EQ(evictPage(lru, 5), (PageKey{1, 9}));
    EXPECT_EQ(evictPage(lru, 5), (PageKey{2, 3}));
    EXPECT_EQ(evictPage(lru, 5), (PageKey{2, 7}));
}

TEST(Eviction, LfuEvictsLeastFrequent)
{
    LfuEviction lfu;
    insertPage(lfu, {1, 0}, 1);
    insertPage(lfu, {1, 1}, 1);
    touchPage(lfu, {1, 0}, 2);
    touchPage(lfu, {1, 0}, 3);
    touchPage(lfu, {1, 1}, 4);
    insertPage(lfu, {1, 2}, 5);  // freq 1: the coldest
    EXPECT_EQ(evictPage(lfu, 5), (PageKey{1, 2}));
    EXPECT_EQ(evictPage(lfu, 5), (PageKey{1, 1}));
    EXPECT_EQ(evictPage(lfu, 5), (PageKey{1, 0}));
}

TEST(Eviction, LfuTieFallsBackToStampThenKey)
{
    LfuEviction lfu;
    insertPage(lfu, {1, 9}, 1);  // freq 1, stamp 1: oldest goes first
    insertPage(lfu, {1, 5}, 2);  // freq 1, stamp 2
    insertPage(lfu, {1, 1}, 2);  // freq 1, stamp 2: key breaks the tie
    EXPECT_EQ(evictPage(lfu, 2), (PageKey{1, 9}));
    EXPECT_EQ(evictPage(lfu, 2), (PageKey{1, 1}));
    EXPECT_EQ(evictPage(lfu, 2), (PageKey{1, 5}));
}

TEST(Eviction, RandomSeedDeterministic)
{
    RandomEviction a(42), b(42);
    for (std::uint64_t p = 0; p < 64; ++p) {
        insertPage(a, {1, p}, p);
        insertPage(b, {1, p}, p);
    }
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(evictPage(a, 64), evictPage(b, 64));
    EXPECT_EQ(a.size(), 0u);
}

TEST(Eviction, RandomVictimAlwaysTracked)
{
    RandomEviction rnd(7);
    for (std::uint64_t p = 0; p < 32; ++p)
        insertPage(rnd, {3, p}, 0);
    removePage(rnd, {3, 10});
    removePage(rnd, {3, 31});  // exercises the swap-remove tail case
    for (int i = 0; i < 30; ++i) {
        PageKey v = evictPage(rnd, 0);
        EXPECT_NE(v, (PageKey{3, 10}));
        EXPECT_NE(v, (PageKey{3, 31}));
        EXPECT_FALSE(rnd.contains(v));
    }
    EXPECT_EQ(rnd.size(), 0u);
}

TEST(Eviction, PredictiveEvictsFurthestPredicted)
{
    PredictiveEviction pred;
    // Page 0: retouched every tick (gap 1). Page 1: gap 8. Both seen
    // at tick 16; page 1's predicted next touch is further out.
    insertPage(pred, {1, 0}, 1);
    for (std::uint64_t t = 2; t <= 16; ++t) {
        if (t == 8)
            insertPage(pred, {1, 1}, t);
        touchPage(pred, {1, 0}, t);
    }
    touchPage(pred, {1, 1}, 16);
    EXPECT_EQ(evictPage(pred, 16), (PageKey{1, 1}));
    EXPECT_EQ(evictPage(pred, 16), (PageKey{1, 0}));
}

TEST(Eviction, PredictiveNeverReusedGoesFirst)
{
    PredictiveEviction pred;
    insertPage(pred, {1, 0}, 1);
    touchPage(pred, {1, 0}, 2);   // has a reuse history now
    insertPage(pred, {1, 1}, 3);  // never retouched: predicted never
    EXPECT_EQ(evictPage(pred, 3), (PageKey{1, 1}));
}

TEST(Eviction, PredictiveOverflowClampsToNeverReused)
{
    PredictiveEviction pred;
    std::uint64_t huge = ~0ull - 4;
    insertPage(pred, {1, 0}, huge);
    touchPage(pred, {1, 0}, ~0ull - 1);  // stamp + gap would overflow
    insertPage(pred, {1, 1}, ~0ull - 1);
    touchPage(pred, {1, 1}, ~0ull);  // gap 1, prediction overflows too
    // Both clamp to "never reused"; the tie falls to stamp then key.
    EXPECT_EQ(evictPage(pred, ~0ull), (PageKey{1, 0}));
    EXPECT_EQ(evictPage(pred, ~0ull), (PageKey{1, 1}));
}

TEST(Eviction, MisusePanicsForEveryKind)
{
    for (EvictionKind kind : kKinds) {
        auto ev = makeEviction(kind, 1);
        EXPECT_THROW(evictPage(*ev, 1), SimError) << ev->name();
        EXPECT_THROW(touchPage(*ev, {1, 0}, 1), SimError) << ev->name();
        EXPECT_THROW(removePage(*ev, {1, 0}), SimError) << ev->name();
        insertPage(*ev, {1, 0}, 1);
        EXPECT_THROW(insertPage(*ev, {1, 0}, 2), SimError) << ev->name();
        // Ticks must never go backwards, for any entry point.
        insertPage(*ev, {1, 1}, 5);
        EXPECT_THROW(touchPage(*ev, {1, 0}, 4), SimError) << ev->name();
        EXPECT_THROW(insertPage(*ev, {1, 2}, 4), SimError) << ev->name();
        EXPECT_FALSE(ev->contains({1, 2})) << ev->name();
        touchPage(*ev, {1, 0}, 5);  // an equal tick is fine
        EXPECT_EQ(ev->size(), 2u) << ev->name();
    }
}

TEST(Eviction, FactoryKindAndNameAgree)
{
    for (EvictionKind kind : kKinds) {
        auto ev = makeEviction(kind, 9);
        EXPECT_EQ(ev->kind(), kind);
        EXPECT_STREQ(ev->name(), evictionKindName(kind));
    }
}

TEST(Policy, NameParseRoundTrips)
{
    for (EvictionKind kind : kKinds) {
        EvictionKind out;
        EXPECT_TRUE(parseEvictionKind(evictionKindName(kind), &out));
        EXPECT_EQ(out, kind);
    }
    for (MigrationKind kind :
         {MigrationKind::Off, MigrationKind::HotCold}) {
        MigrationKind out;
        EXPECT_TRUE(parseMigrationKind(migrationKindName(kind), &out));
        EXPECT_EQ(out, kind);
    }
    EvictionKind ev;
    EXPECT_FALSE(parseEvictionKind("mru", &ev));
    MigrationKind mg;
    EXPECT_FALSE(parseMigrationKind("eager", &mg));
}

// ---- uvm integration ----------------------------------------------------

TEST(Uvm, EvictionTieBreakIsLowestPageId)
{
    // Three pages touched by ONE access call share a stamp; evicting
    // the third must pick page 0 -- the lowest page id -- not
    // whatever a container happened to order first.
    uvm::UvmSimulator sim(2 * mem::kPageSize * 1024);  // 2048 pages
    std::uint64_t h = sim.allocManaged(3 * 4 * MiB);
    sim.gpuAccess(h, 0, 3 * 4 * MiB);  // 3072 pages, 1024 evictions
    EXPECT_EQ(sim.evictions(), 1024u);
    // The evicted low pages are host-resident: a CPU touch of page 0
    // migrates nothing back (it is already home).
    std::uint64_t to_host = sim.pagesMigratedToHost();
    sim.cpuAccess(h, 0, mem::kPageSize);
    EXPECT_EQ(sim.pagesMigratedToHost(), to_host);
    // The tail pages survived on the device: touching the last page
    // pulls exactly one back.
    sim.cpuAccess(h, 3 * 4 * MiB - mem::kPageSize, mem::kPageSize);
    EXPECT_EQ(sim.pagesMigratedToHost(), to_host + 1);
}

TEST(Uvm, EvictionKindExposed)
{
    uvm::UvmSimulator lru(8 * MiB);
    EXPECT_EQ(lru.evictionKind(), EvictionKind::Lru);
    uvm::UvmSimulator rnd(8 * MiB, EvictionKind::Random, 3);
    EXPECT_EQ(rnd.evictionKind(), EvictionKind::Random);
}

TEST(Uvm, LfuKeepsHotPageUnderStreaming)
{
    // Device memory of 4 pages; page 0 is hot, pages 1..15 stream
    // through. LFU keeps the hot page resident; LRU would have cycled
    // it out with the stream.
    uvm::UvmSimulator sim(4 * mem::kPageSize, EvictionKind::Lfu, 0);
    std::uint64_t h = sim.allocManaged(16 * mem::kPageSize);
    for (std::uint64_t p = 1; p < 16; ++p) {
        sim.gpuAccess(h, 0, mem::kPageSize);  // hot page 0
        sim.gpuAccess(h, p * mem::kPageSize, mem::kPageSize);
    }
    // Pulling page 0 back must migrate: it stayed device-resident.
    std::uint64_t to_host = sim.pagesMigratedToHost();
    sim.cpuAccess(h, 0, mem::kPageSize);
    EXPECT_EQ(sim.pagesMigratedToHost(), to_host + 1);
}

// ---- Engine -------------------------------------------------------------

TEST(Engine, DefaultsInheritAndOff)
{
    PolicyConfig cfg;
    PolicyEngine engine(cfg);
    EXPECT_FALSE(engine.migrates());
    EXPECT_EQ(engine.makeEvictionPolicy()->kind(), EvictionKind::Lru);
    EXPECT_EQ(engine.residentIn(Tier::Fast), 0u);
    EXPECT_EQ(engine.residentIn(Tier::Slow), 0u);
}

TEST(Engine, AccessCountingCheapPathMatchesSlowPath)
{
    PolicyConfig off;
    PolicyConfig hot = off;
    hot.migration = MigrationKind::HotCold;
    PolicyEngine a(off), b(hot);
    a.advanceTick();
    b.advanceTick();
    a.noteAccessRange(1, 0, 128);
    b.noteAccessRange(1, 0, 128);
    EXPECT_EQ(a.stats().accesses, 128u);
    EXPECT_EQ(b.stats().accesses, 128u);
}

TEST(Engine, EmitsPolicyEvictOnUvmOvercommit)
{
    trace::TraceConfig tcfg;
    tcfg.enabled = true;
    trace::Tracer tracer(tcfg);

    PolicyConfig cfg;
    PolicyEngine engine(cfg, &tracer);

    uvm::UvmSimulator sim(4 * mem::kPageSize, EvictionKind::Lru, 0,
                          &engine);
    std::uint64_t h = sim.allocManaged(8 * mem::kPageSize);
    sim.gpuAccess(h, 0, 8 * mem::kPageSize);

    EXPECT_EQ(sim.evictions(), 4u);
    EXPECT_EQ(engine.stats().evictions, 4u);
    std::uint64_t evict_events = 0;
    for (const auto &ev : tracer.events()) {
        if (ev.kind != trace::EventKind::PolicyEvict)
            continue;
        ++evict_events;
        EXPECT_EQ(ev.layer, trace::Layer::Vm);
        EXPECT_EQ(ev.a, h);
        EXPECT_LT(ev.b, 8u);  // a page of the one region
        EXPECT_EQ(ev.c, static_cast<std::uint64_t>(EvictionKind::Lru));
    }
    EXPECT_EQ(evict_events, 4u);
}

TEST(Engine, MigrationProposalsNotTracedUntilApplied)
{
    trace::TraceConfig tcfg;
    tcfg.enabled = true;
    trace::Tracer tracer(tcfg);

    PolicyConfig cfg;
    cfg.migration = MigrationKind::HotCold;
    PolicyEngine engine(cfg, &tracer);

    engine.noteResident({1, 0}, Tier::Slow);
    for (int i = 0; i < 5; ++i) {
        engine.advanceTick();
        engine.noteAccess({1, 0});
    }
    auto proposals = engine.migrationStep();
    ASSERT_EQ(proposals.size(), 1u);
    EXPECT_EQ(proposals[0].key, (PageKey{1, 0}));
    EXPECT_EQ(proposals[0].to, Tier::Fast);
    EXPECT_TRUE(tracer.events().empty());  // proposal, not decision

    engine.noteMigrated(proposals[0].key, proposals[0].to);
    // events() returns a copy: keep it alive while ev refers into it.
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 1u);
    const auto &ev = events[0];
    EXPECT_EQ(ev.kind, trace::EventKind::PolicyMigrate);
    EXPECT_EQ(ev.a, 1u);
    EXPECT_EQ(ev.b, 0u);
    EXPECT_EQ(ev.c, static_cast<std::uint64_t>(Tier::Fast));
    EXPECT_EQ(engine.stats().promotions, 1u);
    EXPECT_EQ(engine.residentIn(Tier::Fast), 1u);
}

// ---- Trace plumbing -----------------------------------------------------

TEST(Trace, PolicyEventNamesAndLayer)
{
    using trace::EventKind;
    EXPECT_STREQ(trace::eventKindName(EventKind::PolicyPlace),
                 "policy_place");
    EXPECT_STREQ(trace::eventKindName(EventKind::PolicyMigrate),
                 "policy_migrate");
    EXPECT_STREQ(trace::eventKindName(EventKind::PolicyEvict),
                 "policy_evict");
    for (EventKind kind : {EventKind::PolicyPlace,
                           EventKind::PolicyMigrate,
                           EventKind::PolicyEvict}) {
        EXPECT_EQ(trace::layerOf(kind), trace::Layer::Vm);
        EXPECT_NE(trace::argName(kind, 0), nullptr);
        EXPECT_NE(trace::argName(kind, 3), nullptr);
    }
}

TEST(Replay, FoldsPolicyCounters)
{
    sched::TraceReplayer replayer;
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::PolicyPlace;
    ev.layer = trace::Layer::Vm;
    replayer.apply(ev);
    ev.kind = trace::EventKind::PolicyMigrate;
    replayer.apply(ev);
    replayer.apply(ev);
    ev.kind = trace::EventKind::PolicyEvict;
    replayer.apply(ev);
    const auto &m = replayer.metrics();
    EXPECT_EQ(m.policyPlaces, 1u);
    EXPECT_EQ(m.policyMigrates, 2u);
    EXPECT_EQ(m.policyEvicts, 1u);
    EXPECT_EQ(m.eventsApplied, 4u);
}

TEST(Replay, RingDumpRoundTripsPolicyEvents)
{
    // Policy decisions recorded into the packed ring must unpack and
    // replay to the same decision counts -- the upmreplay path.
    trace::TraceConfig tcfg;
    tcfg.enabled = true;
    tcfg.ring = true;
    trace::Tracer tracer(tcfg);

    PolicyConfig cfg;
    PolicyEngine engine(cfg, &tracer);

    uvm::UvmSimulator sim(4 * mem::kPageSize, EvictionKind::Lru, 0,
                          &engine);
    std::uint64_t h = sim.allocManaged(16 * mem::kPageSize);
    sim.gpuAccess(h, 0, 16 * mem::kPageSize);
    ASSERT_EQ(engine.stats().evictions, 12u);

    std::string path = std::string(::testing::TempDir()) +
                       "policy_ring_roundtrip.upmt";
    ASSERT_TRUE(tracer.ringSink()->dump(path));
    std::vector<trace::TraceEvent> events;
    ASSERT_EQ(sched::loadDump(path, events), Status::Success);
    sched::TraceReplayer replayer;
    replayer.applyAll(events);
    EXPECT_EQ(replayer.metrics().policyEvicts, 12u);
    std::remove(path.c_str());
}

} // namespace
} // namespace upm::policy
