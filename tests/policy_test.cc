/**
 * @file
 * UPMPolicy unit tests: eviction-policy semantics and tie-breaks
 * (including the evictOne() lowest-page-id regression), engine
 * counters and trace emission, and replay folding of the policy
 * events.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
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

TEST(Eviction, RunMisuseLeavesThePagesBeforeApplied)
{
    for (EvictionKind kind : kKinds) {
        auto ev = makeEviction(kind, 1);
        std::vector<PageRun> victims;
        ev->admitRun(1, 0, 4, 1, 4, victims);
        // Page 4 is not tracked: pages 0-3 are touched, then a panic.
        EXPECT_THROW(ev->touchRun(1, 0, 6, 2), SimError) << ev->name();
        EXPECT_EQ(ev->size(), 4u) << ev->name();
        // Pages 2 and 3 leave, then page 4 panics.
        EXPECT_THROW(ev->removeRun(1, 2, 4), SimError) << ev->name();
        EXPECT_EQ(ev->size(), 2u) << ev->name();
        EXPECT_FALSE(ev->contains({1, 3})) << ev->name();
        ev->admitRun(1, 2, 4, 3, 4, victims);
        ev->admitRun(1, 8, 1, 3, 1, victims);
        // Pages 6 and 7 go in, then page 8 panics.
        EXPECT_THROW(ev->admitRun(1, 6, 4, 3, 4, victims), SimError)
            << ev->name();
        EXPECT_EQ(ev->size(), 9u) << ev->name();
        EXPECT_TRUE(ev->contains({1, 7})) << ev->name();
        EXPECT_FALSE(ev->contains({1, 9})) << ev->name();
        // Every page is still evictable, each exactly once.
        std::set<PageKey> seen;
        while (ev->size() > 0)
            EXPECT_TRUE(seen.insert(evictPage(*ev, 4)).second) << ev->name();
        EXPECT_EQ(seen.size(), 9u) << ev->name();
    }
}

// ---- PageSlab runs ------------------------------------------------------

struct SlabNode
{
    std::uint64_t value = 0;
};

using Slab = PageSlab<SlabNode>;
constexpr std::uint64_t kChunk = Slab::kChunkPages;

/** addRun with the fill that stamps page first + i with @p base + i. */
std::uint64_t
stampRun(Slab &slab, PageKey first, std::uint64_t n, std::uint64_t base)
{
    return slab.addRun(first, n, [&](SlabNode &node, std::uint64_t i) {
        node.value = base + i;
    });
}

TEST(PageSlab, RunsAcrossChunksMatchPerPageCalls)
{
    // Pages 500..1099 span chunks 0, 1 and 2, with partial words at
    // both ends.
    Slab runs, pages;
    EXPECT_EQ(stampRun(runs, {1, 500}, 600, 7), 600u);
    for (std::uint64_t p = 500; p < 1100; ++p)
        pages.add({1, p})->value = 7 + p - 500;
    EXPECT_EQ(runs.size(), pages.size());
    for (std::uint64_t p = 480; p < 1130; ++p) {
        const SlabNode *node = runs.find({1, p});
        ASSERT_EQ(node != nullptr, pages.find({1, p}) != nullptr) << p;
        if (node != nullptr) {
            EXPECT_EQ(node->value, pages.find({1, p})->value) << p;
        }
    }
    // A run stops at the first tracked page; the fill sees only the
    // pages it tracked.
    std::uint64_t filled = 0;
    EXPECT_EQ(runs.addRun({1, 300}, 400,
                          [&](SlabNode &, std::uint64_t) { ++filled; }),
              200u);
    EXPECT_EQ(filled, 200u);
    EXPECT_EQ(runs.size(), 800u);
    EXPECT_EQ(runs.find({1, 500})->value, 7u);
    // A drop stops at the first untracked page.
    EXPECT_EQ(runs.dropRun({1, 1000}, 300), 100u);
    EXPECT_EQ(runs.dropRun({1, 1000}, 1), 0u);
    EXPECT_EQ(runs.dropRun({2, 0}, 1), 0u);
    EXPECT_EQ(runs.size(), 700u);
    EXPECT_FALSE(runs.drop({1, 1099}));
    EXPECT_TRUE(runs.drop({1, 999}));
    EXPECT_EQ(runs.find({1, 998})->value, 7u + 498);
}

TEST(PageSlab, ChunkAndSpaceGoWithTheirLastPage)
{
    Slab slab;
    stampRun(slab, {1, 0}, 2 * kChunk, 1);
    // Chunk 0 keeps its page 511, so its dropped nodes keep their
    // state; chunk 1 loses every page, so it comes back zeroed.
    EXPECT_EQ(slab.dropRun({1, 0}, kChunk - 1), kChunk - 1);
    EXPECT_EQ(slab.dropRun({1, kChunk}, kChunk), kChunk);
    std::vector<std::uint64_t> seen;
    auto record = [&](SlabNode &node, std::uint64_t) {
        seen.push_back(node.value);
    };
    slab.addRun({1, 5}, 1, record);
    slab.addRun({1, kChunk + 5}, 1, record);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{6, 0}));
    // A chunk also goes when its last page leaves in the middle of a
    // run: pages 500..519 leave, chunk 1 keeps 520..523.
    Slab mid;
    stampRun(mid, {1, 500}, 24, 1);
    EXPECT_EQ(mid.dropRun({1, 500}, 20), 20u);
    seen.clear();
    mid.addRun({1, 505}, 1, record);
    mid.addRun({1, kChunk + 3}, 1, record);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 16}));
    // The space goes with its last page; a new one starts empty.
    EXPECT_EQ(mid.dropRun({1, 505}, 1), 1u);
    EXPECT_EQ(mid.dropRun({1, kChunk + 3}, 1), 1u);
    EXPECT_EQ(mid.dropRun({1, kChunk + 8}, 5), 4u);
    EXPECT_EQ(mid.size(), 0u);
    EXPECT_EQ(mid.find({1, kChunk + 7}), nullptr);
    seen.clear();
    mid.addRun({1, kChunk + 7}, 1, record);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0}));
}

TEST(PageSlab, SeededRunsMatchPerPageCalls)
{
    // Runs of up to 1100 pages over two spaces of five chunks, against
    // the same calls page by page and a map of what is tracked.
    Slab runs, pages;
    std::map<PageKey, std::uint64_t> model;
    SplitMix64 rng(0x51ab'5eedull);
    for (int op = 0; op < 3000; ++op) {
        const PageKey first{1 + rng.next() % 2, rng.next() % (5 * kChunk)};
        const std::uint64_t n = 1 + rng.next() % (op % 4 == 0 ? 1100 : 40);
        const std::uint64_t base = rng.next();
        if (rng.next() % 2) {
            std::uint64_t expect = 0;
            while (expect < n &&
                   !model.count({first.space, first.page + expect}))
                ++expect;
            ASSERT_EQ(stampRun(runs, first, n, base), expect) << op;
            for (std::uint64_t i = 0; i < expect; ++i) {
                pages.add({first.space, first.page + i})->value = base + i;
                model[{first.space, first.page + i}] = base + i;
            }
        } else {
            std::uint64_t expect = 0;
            while (expect < n &&
                   model.count({first.space, first.page + expect}))
                ++expect;
            ASSERT_EQ(runs.dropRun(first, n), expect) << op;
            for (std::uint64_t i = 0; i < expect; ++i) {
                ASSERT_TRUE(pages.drop({first.space, first.page + i}));
                model.erase({first.space, first.page + i});
            }
        }
        ASSERT_EQ(runs.size(), model.size());
        ASSERT_EQ(pages.size(), model.size());
        for (int probe = 0; probe < 16; ++probe) {
            const PageKey key{1 + rng.next() % 2,
                              rng.next() % (5 * kChunk + 64)};
            const SlabNode *node = runs.find(key);
            const auto it = model.find(key);
            ASSERT_EQ(node != nullptr, it != model.end()) << op;
            ASSERT_EQ(pages.find(key) != nullptr, it != model.end()) << op;
            if (node != nullptr) {
                ASSERT_EQ(node->value, it->second) << op;
            }
        }
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
