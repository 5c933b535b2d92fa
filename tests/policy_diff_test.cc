/**
 * @file
 * Differential policy tests.
 *
 * Two oracles pin the eviction policies:
 *
 *  1. A slow reference model -- a flat entry vector scanned linearly
 *     per decision, sharing no code or data structure with
 *     policy/eviction.cc -- is driven through 16 seeded random op
 *     streams per policy kind over three spaces whose pages span
 *     several slab chunks, with same-tick remove-and-reinsert and
 *     out-of-order key bursts inside one tick, plus two 60k-op
 *     streams over 64 hot keys that keep the lazy-entry compaction
 *     running mid-stream. Victim sequences must match exactly, and
 *     size() and contains() agree after every op.
 *     (For Random, the reference replays the specified semantics --
 *     a seeded draw over an insertion-ordered swap-remove array --
 *     with its own independent bookkeeping.)
 *
 *     The same reference checks the run interface on its own: seeded
 *     streams of touchRun / admitRun / removeRun calls of 1-1100
 *     pages (across 512-page slab chunks), admit rooms from 0 to the
 *     run length (so a run evicts pages it admitted itself),
 *     length-1 admits below the current tick's last key (the spill
 *     path), bare evictions and a final drain that sample the whole
 *     order, and a hot stream whose touches compact the queues in the
 *     middle of open runs. The reference replays each call page by
 *     page; victims, size() and contains() must agree after every
 *     call.
 *
 *  2. A verbatim copy of the pre-policy uvm list-LRU simulator (the
 *     std::list + iterator-map implementation the policy layer
 *     retired) runs the bench_uvm_comparison scenarios next to
 *     today's UvmSimulator. Every simulated time and counter must be
 *     byte-identical: the stamp-ordered LruEviction IS the old list,
 *     not an approximation of it.
 *
 *  3. A page-by-page copy of the uvm access loop, with a wired
 *     HotCold PolicyEngine and a Tracer, runs an oversubscribed
 *     windowed GPU/CPU stream with migration steps next to today's
 *     run-granular UvmSimulator, for every eviction kind. The
 *     PolicyEvict / PolicyMigrate event sequences must be identical,
 *     and their counts are pinned.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "eviction_util.hh"
#include "exec/task_pool.hh"
#include "mem/geometry.hh"
#include "policy/engine.hh"
#include "policy/eviction.hh"
#include "trace/tracer.hh"
#include "uvm/uvm.hh"

namespace upm::policy {
namespace {

// ---- Oracle 1: slow reference model -------------------------------------

/** Flat-scan reference: one entry per tracked page, victim found by a
 *  full O(n) scan per decision. */
class ReferenceModel
{
  public:
    ReferenceModel(EvictionKind kind, std::uint64_t seed)
        : evKind(kind), rng(seed)
    {}

    void
    insert(PageKey key, std::uint64_t tick)
    {
        entries.push_back({key, tick, 1, kNever});
        order.push_back(key);
    }

    void
    touch(PageKey key, std::uint64_t tick)
    {
        Entry &e = *find(key);
        std::uint64_t gap = tick - e.stamp;
        e.ewmaGap = e.ewmaGap == kNever ? gap : (3 * e.ewmaGap + gap) / 4;
        ++e.freq;
        e.stamp = tick;
    }

    void
    remove(PageKey key)
    {
        entries.erase(find(key));
        dropFromOrder(key);
    }

    PageKey
    evict()
    {
        PageKey victim{};
        switch (evKind) {
          case EvictionKind::Lru:
            victim = scan([](const Entry &a, const Entry &b) {
                return std::tie(a.stamp, a.key) <
                       std::tie(b.stamp, b.key);
            });
            break;
          case EvictionKind::Lfu:
            victim = scan([](const Entry &a, const Entry &b) {
                return std::tie(a.freq, a.stamp, a.key) <
                       std::tie(b.freq, b.stamp, b.key);
            });
            break;
          case EvictionKind::Predictive:
            victim = scan([](const Entry &a, const Entry &b) {
                return std::tuple(~a.predicted(), a.stamp, a.key) <
                       std::tuple(~b.predicted(), b.stamp, b.key);
            });
            break;
          case EvictionKind::Random:
            // The specified semantics: a uniform draw over the
            // insertion-ordered array, swap-removing the winner.
            victim = order[rng.nextBelow(order.size())];
            break;
        }
        last = *find(victim);
        entries.erase(find(victim));
        dropFromOrder(victim);
        return victim;
    }

    std::size_t size() const { return entries.size(); }

    /** True when the last victim sorted strictly below the entry that
     *  a page admitted at @p tick as @p first gets (Random: never). */
    bool
    lastBelowAdmit(std::uint64_t tick, PageKey first) const
    {
        const Entry &e = last;
        const bool older =
            std::tie(e.stamp, e.key) < std::tie(tick, first);
        switch (evKind) {
          case EvictionKind::Lru:
            return older;
          case EvictionKind::Lfu:
            return e.freq == 1 && older;
          case EvictionKind::Predictive:
            return e.predicted() == kNever && older;
          case EvictionKind::Random:
            break;
        }
        return false;
    }

    bool
    contains(PageKey key) const
    {
        return std::any_of(entries.begin(), entries.end(),
                           [&](const Entry &e) { return e.key == key; });
    }

  private:
    static constexpr std::uint64_t kNever = ~0ull;

    struct Entry
    {
        PageKey key;
        std::uint64_t stamp;
        std::uint64_t freq;
        std::uint64_t ewmaGap;

        std::uint64_t
        predicted() const
        {
            if (ewmaGap == kNever)
                return kNever;
            std::uint64_t next = stamp + ewmaGap;
            return next < stamp ? kNever : next;
        }
    };

    std::vector<Entry>::iterator
    find(PageKey key)
    {
        for (auto it = entries.begin(); it != entries.end(); ++it) {
            if (it->key == key)
                return it;
        }
        ADD_FAILURE() << "reference model lost a key";
        return entries.begin();
    }

    template <typename Less>
    PageKey
    scan(Less less) const
    {
        const Entry *best = &entries.front();
        for (const Entry &e : entries) {
            if (less(e, *best))
                best = &e;
        }
        return best->key;
    }

    void
    dropFromOrder(PageKey key)
    {
        auto it = std::find(order.begin(), order.end(), key);
        ASSERT_NE(it, order.end());
        *it = order.back();
        order.pop_back();
    }

    EvictionKind evKind;
    SplitMix64 rng;
    std::vector<Entry> entries;
    /** Insertion-ordered keys with swap-remove (Random semantics). */
    std::vector<PageKey> order;
    Entry last{};  //!< the last victim's entry
};

/** Key universe of one differential stream: spaces 1..spaces, and
 *  page slot s of a space at page index s * stride + s % 2. With a
 *  stride dividing 512, pages p and p + 512 (same offset, adjacent
 *  slab chunks) both occur, so chunk-indexing slips show up. */
struct KeyUniverse
{
    std::uint64_t spaces;
    std::uint64_t slots;
    std::uint64_t stride;

    PageKey
    draw(SplitMix64 &rng) const
    {
        std::uint64_t space = 1 + rng.next() % spaces;
        std::uint64_t slot = rng.next() % slots;
        return {space, slot * stride + slot % 2};
    }
};

/** Three spaces; pages 0..1521 span three 512-page slab chunks. */
constexpr KeyUniverse kWideKeys{3, 96, 16};
/** 64 keys over four spaces, pages 0..1921 over four chunks: a long
 *  stream over them leaves stale entries outnumbering live pages,
 *  so compaction runs again and again mid-stream. */
constexpr KeyUniverse kHotKeys{4, 16, 128};

/** Drive the real policy and the reference through one identical
 *  seeded op stream; every victim must match, and size() and
 *  contains() on a probe key must agree after every op. */
void
differentialRun(EvictionKind kind, std::uint64_t seed, int op_count,
                const KeyUniverse &keys)
{
    constexpr std::uint64_t kPolicySeed = 0xfeedbeefu;
    auto real = makeEviction(kind, kPolicySeed);
    ReferenceModel ref(kind, kPolicySeed);

    SplitMix64 ops(seed);
    std::set<PageKey> tracked;  // op-stream generator's mirror
    std::uint64_t tick = 0;
    std::uint64_t evictions = 0;

    auto randomTracked = [&]() {
        auto it = tracked.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             ops.nextBelow(tracked.size())));
        return *it;
    };
    auto insert = [&](PageKey key) {
        test::insertPage(*real, key, tick);
        ref.insert(key, tick);
        tracked.insert(key);
    };
    auto touch = [&](PageKey key) {
        test::touchPage(*real, key, tick);
        ref.touch(key, tick);
    };
    auto touchOrInsert = [&](PageKey key) {
        if (tracked.count(key))
            touch(key);
        else
            insert(key);
    };

    for (int op = 0; op < op_count; ++op) {
        tick += ops.next() % 2;  // ~half the ops share a tick: ties
        std::uint64_t roll = ops.next() % 100;
        if (roll < 40) {
            touchOrInsert(keys.draw(ops));
        } else if (roll < 45) {
            // Several keys inside one tick, highest first: pushes
            // that land below the tail of their stamp group.
            std::vector<PageKey> burst(2 + ops.next() % 4);
            for (PageKey &key : burst)
                key = keys.draw(ops);
            std::sort(burst.rbegin(), burst.rend());
            for (PageKey key : burst)
                touchOrInsert(key);
        } else if (roll < 60 && !tracked.empty()) {
            PageKey key = randomTracked();
            test::removePage(*real, key);
            ref.remove(key);
            tracked.erase(key);
            if (ops.next() % 2)
                insert(key);  // back again at the same tick
        } else if (roll < 85 && !tracked.empty()) {
            PageKey victim = test::evictPage(*real, tick);
            PageKey expect = ref.evict();
            ASSERT_EQ(victim, expect)
                << evictionKindName(kind) << " seed " << seed
                << " op " << op;
            ASSERT_EQ(tracked.erase(victim), 1u);
            ++evictions;
        } else if (!tracked.empty()) {
            touch(randomTracked());
        }
        ASSERT_EQ(real->size(), ref.size());
        PageKey probe = keys.draw(ops);
        ASSERT_EQ(real->contains(probe), ref.contains(probe))
            << evictionKindName(kind) << " seed " << seed << " op "
            << op;
    }
    // The stream must actually have exercised eviction.
    EXPECT_GT(evictions, static_cast<std::uint64_t>(op_count / 40))
        << evictionKindName(kind);
}

TEST(PolicyDiff, EveryKindMatchesReferenceAcross16Seeds)
{
    for (EvictionKind kind :
         {EvictionKind::Lru, EvictionKind::Lfu, EvictionKind::Random,
          EvictionKind::Predictive}) {
        for (std::uint64_t s = 0; s < 16; ++s)
            differentialRun(kind, exec::taskSeed(0xd1ff'5eedull, s), 4000,
                            kWideKeys);
        for (std::uint64_t s = 0; s < 2; ++s)
            differentialRun(kind, exec::taskSeed(0x407'5eedull, s),
                            60000, kHotKeys);
    }
}

/** Key space of one run-API stream: spaces 1..spaces of @c pages
 *  pages each, runs of up to @c maxRun pages, and a live-page cap
 *  past which admits make no room (the reference scans every live
 *  page per eviction). */
struct RunUniverse
{
    std::uint64_t spaces;
    std::uint64_t pages;
    std::uint64_t maxRun;
    std::uint64_t maxLive;
};

/** Two spaces of five slab chunks; runs long enough to span three. */
constexpr RunUniverse kWideRuns{2, 2560, 1100, 800};
/** 128 pages in one space: touch runs push the stale entries past
 *  half the live pages again and again, so compaction runs inside
 *  touchRun calls, with the queues' tail runs (and Predictive's open
 *  run) still growing. */
constexpr RunUniverse kHotRuns{1, 128, 48, 96};

/** Drive the real policy through seeded run calls and the reference
 *  through the same calls page by page; every victim must match, and
 *  size() and contains() must agree after every call. */
void
runApiDifferential(EvictionKind kind, std::uint64_t seed, int call_count,
                   const RunUniverse &u)
{
    constexpr std::uint64_t kPolicySeed = 0xfeedbeefu;
    auto real = makeEviction(kind, kPolicySeed);
    ReferenceModel ref(kind, kPolicySeed);

    SplitMix64 ops(seed);
    std::set<PageKey> tracked;
    std::vector<PageRun> runs;
    std::uint64_t tick = 0;
    std::uint64_t evictions = 0;
    std::uint64_t spills = 0;

    // Pages from @p key on with its tracked state, at most @p cap.
    auto stretch = [&](PageKey key, std::uint64_t cap) {
        const bool state = tracked.count(key) != 0;
        std::uint64_t n = 1;
        while (n < cap && key.page + n < u.pages &&
               (tracked.count({key.space, key.page + n}) != 0) == state)
            ++n;
        return n;
    };
    auto admit = [&](PageKey key, std::uint64_t n, std::uint64_t room) {
        real->admitRun(key.space, key.page, n, tick, room, runs);
        const std::vector<PageKey> victims = test::pagesOf(runs);
        ASSERT_EQ(victims.size(), n - std::min(room, n));
        for (std::uint64_t i = 0; i < n; ++i) {
            if (i >= room) {
                PageKey expect = ref.evict();
                ASSERT_EQ(victims[i - room], expect)
                    << evictionKindName(kind) << " seed " << seed;
                ASSERT_EQ(tracked.erase(expect), 1u);
                ++evictions;
            }
            ref.insert({key.space, key.page + i}, tick);
            tracked.insert({key.space, key.page + i});
        }
    };
    // A bare eviction samples the whole order, not just the pages an
    // admit would leave: after touches, the LFU levels and Predictive
    // ranks of long-lived pages decide it.
    auto evictOne = [&] {
        PageKey victim = test::evictPage(*real, tick);
        ASSERT_EQ(victim, ref.evict())
            << evictionKindName(kind) << " seed " << seed;
        ASSERT_EQ(tracked.erase(victim), 1u);
        ++evictions;
    };

    for (int call = 0; call < call_count; ++call) {
        tick += ops.next() % 2;  // about half the calls share a tick
        const std::uint64_t roll = ops.next() % 100;
        if (roll < 10 && !tracked.empty()) {
            for (std::uint64_t k = 1 + ops.next() % 8;
                 k > 0 && !tracked.empty(); --k)
                evictOne();
        } else {
            PageKey key{1 + ops.next() % u.spaces, ops.next() % u.pages};
            const std::uint64_t longest =
                ops.next() % 8 == 0 ? u.maxRun : 32;
            const std::uint64_t cap = 1 + ops.next() % longest;
            const std::uint64_t n = stretch(key, cap);
            if (tracked.count(key) == 0) {
                std::uint64_t room = tracked.size() >= u.maxLive
                                         ? 0
                                         : ops.next() % (n + 1);
                if (tracked.empty())
                    room = std::max<std::uint64_t>(room, 1);
                admit(key, n, room);
                // Then one page below the run at the same tick: it
                // sorts below the queue's tail and takes the spill path.
                PageKey below{key.space, key.page};
                if (below.page > 0 && ops.next() % 2) {
                    below.page = ops.next() % below.page;
                    while (below.page > 0 && tracked.count(below) != 0)
                        --below.page;
                    if (tracked.count(below) == 0) {
                        admit(below, 1, ops.next() % 2);
                        ++spills;
                    }
                }
            } else if (roll < 30) {
                real->removeRun(key.space, key.page, n);
                for (std::uint64_t i = 0; i < n; ++i) {
                    ref.remove({key.space, key.page + i});
                    tracked.erase({key.space, key.page + i});
                }
            } else {
                real->touchRun(key.space, key.page, n, tick);
                for (std::uint64_t i = 0; i < n; ++i)
                    ref.touch({key.space, key.page + i}, tick);
            }
        }
        ASSERT_EQ(real->size(), ref.size());
        for (int probes = 0; probes < 4; ++probes) {
            PageKey probe{1 + ops.next() % u.spaces, ops.next() % u.pages};
            ASSERT_EQ(real->contains(probe), ref.contains(probe))
                << evictionKindName(kind) << " seed " << seed << " call "
                << call;
        }
    }
    // Drain: every page left, in the reference's order.
    while (!tracked.empty())
        evictOne();
    ASSERT_EQ(real->size(), 0u);
    // The stream must actually have exercised eviction and spills.
    EXPECT_GT(evictions, static_cast<std::uint64_t>(call_count / 4))
        << evictionKindName(kind);
    EXPECT_GT(spills, 0u) << evictionKindName(kind);
}

TEST(PolicyDiff, RunApiMatchesPerPageReferenceAcross16Seeds)
{
    for (EvictionKind kind :
         {EvictionKind::Lru, EvictionKind::Lfu, EvictionKind::Random,
          EvictionKind::Predictive}) {
        for (std::uint64_t s = 0; s < 16; ++s)
            runApiDifferential(kind, exec::taskSeed(0x7a11'5eedull, s),
                               160, kWideRuns);
        runApiDifferential(kind, exec::taskSeed(0x407'7a11ull, 0), 6000,
                           kHotRuns);
    }
}

/**
 * One policy and the reference, driven through the same calls. Each
 * admit checks its victims against the reference and records, per
 * victim, whether it sorted below every page of the run (the batched
 * stretches) or not (the page-by-page rest), and whether it was one
 * of the run's own pages. Random records the slot count at each draw.
 */
class Twin
{
  public:
    explicit Twin(EvictionKind kind)
        : kind(kind), real(makeEviction(kind, kSeed)), ref(kind, kSeed)
    {}

    struct AdmitStats
    {
        std::uint64_t below = 0;       //!< victims below the run
        std::uint64_t notBelow = 0;    //!< the rest
        std::uint64_t ownPages = 0;    //!< the run's own pages
        std::vector<PageKey> victims;  //!< in order
    };

    AdmitStats
    admit(std::uint64_t space, std::uint64_t first, std::uint64_t n,
          std::uint64_t room)
    {
        AdmitStats stats;
        std::vector<PageRun> runs;
        real->admitRun(space, first, n, tick, room, runs);
        for (std::size_t k = 0; k < runs.size(); ++k) {
            EXPECT_GT(runs[k].n, 0u);
            // Runs are maximal: none continues the one before it.
            if (k > 0) {
                EXPECT_FALSE(runs[k].space == runs[k - 1].space &&
                             runs[k - 1].first + runs[k - 1].n ==
                                 runs[k].first);
            }
        }
        stats.victims = test::pagesOf(runs);
        EXPECT_EQ(stats.victims.size(), n - std::min(room, n));
        for (std::uint64_t i = 0; i < n; ++i) {
            if (i >= room && i - room < stats.victims.size()) {
                const PageKey victim = stats.victims[i - room];
                drawSizes.push_back(ref.size());
                EXPECT_EQ(victim, ref.evict()) << evictionKindName(kind);
                const bool below = ref.lastBelowAdmit(tick, {space, first});
                (below ? stats.below : stats.notBelow) += 1;
                stats.ownPages += victim.space == space &&
                                  victim.page >= first &&
                                  victim.page < first + i;
            }
            ref.insert({space, first + i}, tick);
        }
        EXPECT_EQ(real->size(), ref.size());
        return stats;
    }

    void
    touch(std::uint64_t space, std::uint64_t first, std::uint64_t n)
    {
        real->touchRun(space, first, n, tick);
        for (std::uint64_t i = 0; i < n; ++i)
            ref.touch({space, first + i}, tick);
    }

    void
    remove(std::uint64_t space, std::uint64_t first, std::uint64_t n)
    {
        real->removeRun(space, first, n);
        for (std::uint64_t i = 0; i < n; ++i)
            ref.remove({space, first + i});
    }

    /** Evict every page with bare evictions; the victims in order. */
    std::vector<PageKey>
    drain()
    {
        std::vector<PageKey> order;
        while (ref.size() > 0) {
            drawSizes.push_back(ref.size());
            order.push_back(test::evictPage(*real, tick));
            EXPECT_EQ(order.back(), ref.evict()) << evictionKindName(kind);
        }
        EXPECT_EQ(real->size(), 0u);
        return order;
    }

    static constexpr std::uint64_t kSeed = 0x5eed'0bbaull;
    EvictionKind kind;
    std::unique_ptr<EvictionPolicy> real;
    ReferenceModel ref;
    std::uint64_t tick = 1;
    /** The tracked-page count at each victim draw, in order. */
    std::vector<std::uint64_t> drawSizes;
};

constexpr EvictionKind kAllKinds[] = {EvictionKind::Lru, EvictionKind::Lfu,
                                      EvictionKind::Random,
                                      EvictionKind::Predictive};

TEST(PolicyDiff, AdmitRunsOutOfOlderEntriesMidRun)
{
    for (EvictionKind kind : kAllKinds) {
        Twin twin(kind);
        twin.admit(1, 0, 20, 20);
        ++twin.tick;
        // Half the older pages move up a level (LFU) or out of the
        // never-reused rank (Predictive).
        twin.touch(1, 0, 10);
        ++twin.tick;
        // 40 victims, more than Random's draw-ahead ring holds: the
        // older entries run out mid-run and the run evicts its own
        // pages -- for LFU, level 1 empties mid-run.
        const Twin::AdmitStats stats = twin.admit(1, 100, 40, 0);
        EXPECT_GT(stats.victims.size(), RandomEviction::kDrawAhead);
        if (kind != EvictionKind::Random) {
            EXPECT_GT(stats.below, 0u) << evictionKindName(kind);
            EXPECT_GT(stats.notBelow, 0u) << evictionKindName(kind);
            EXPECT_GT(stats.ownPages, 0u) << evictionKindName(kind);
        }
        twin.drain();
        // Every page touched: the compaction erases LFU's level 1, so
        // the next admit's first victim comes from level 2 and every
        // later one is a page of its own.
        ++twin.tick;
        twin.admit(1, 0, 100, 100);
        ++twin.tick;
        twin.touch(1, 0, 100);
        const Twin::AdmitStats fresh = twin.admit(1, 200, 10, 0);
        if (kind == EvictionKind::Lfu) {
            EXPECT_EQ(fresh.ownPages, 9u);
        }
        twin.drain();
    }
}

TEST(PolicyDiff, SameTickEntriesAboveTheRunStopTheBatch)
{
    for (EvictionKind kind : kAllKinds) {
        Twin twin(kind);
        twin.admit(1, 0, 5, 5);
        twin.admit(1, 10, 10, 10);
        twin.admit(1, 200, 10, 10);
        ++twin.tick;
        // At the tick of the admit: touches below and above its first
        // key, and an admit above it.
        twin.touch(1, 10, 10);
        twin.touch(1, 200, 10);
        twin.admit(1, 300, 10, 10);
        const Twin::AdmitStats stats = twin.admit(1, 100, 30, 0);
        if (kind != EvictionKind::Random) {
            EXPECT_GT(stats.below, 0u) << evictionKindName(kind);
            EXPECT_GT(stats.notBelow, 0u) << evictionKindName(kind);
            // The same-tick entries above the run never beat its own
            // lower keys.
            for (PageKey victim : stats.victims)
                EXPECT_LT(victim.page, 200u) << evictionKindName(kind);
        }
        if (kind == EvictionKind::Lru) {
            // LRU batches the same-tick touches below the run's keys.
            EXPECT_EQ(stats.below, 5u + 10u);
        }
        twin.drain();
    }
}

TEST(PolicyDiff, SpillEntryBetweenHeadRunEntries)
{
    for (EvictionKind kind : kAllKinds) {
        Twin twin(kind);
        twin.admit(1, 0, 100, 100);
        // Page 50 leaves and comes back at the same tick: its new entry
        // sorts below the queue's tail and spills, between entries of
        // the FIFO's head run.
        twin.remove(1, 50, 1);
        twin.admit(1, 50, 1, 1);
        ++twin.tick;
        const Twin::AdmitStats stats = twin.admit(2, 0, 100, 0);
        if (kind != EvictionKind::Random) {
            EXPECT_EQ(stats.below, 100u) << evictionKindName(kind);
            std::vector<PageKey> expect;
            for (std::uint64_t p = 0; p < 100; ++p)
                expect.push_back({1, p});
            EXPECT_EQ(stats.victims, expect) << evictionKindName(kind);
        }
        twin.drain();
    }
}

TEST(PolicyDiff, PredictiveOpenRunAgainstItsHeapTop)
{
    for (EvictionKind kind : kAllKinds) {
        Twin twin(kind);
        // A = pages 0-9, B = 10-19, C = 20-29 (C1 = 20-24, C2 =
        // 25-29). Admitted at ticks 1 (A), 6 (C1), 7 (C2) and 8 (B) and
        // touched at 10 (A), 11 (B) and 12 (C), they predict next
        // touches 19 (A), 14 (B), 18 (C1) and 17 (C2). C's one touch
        // splits into two stretches of equal rank: C1 goes to the heap,
        // C2 stays the open run, ranked between the heap's C1 and B.
        twin.admit(1, 0, 10, 10);
        twin.tick = 6;
        twin.admit(1, 20, 5, 5);
        twin.tick = 7;
        twin.admit(1, 25, 5, 5);
        twin.tick = 8;
        twin.admit(1, 10, 10, 10);
        twin.tick = 10;
        twin.touch(1, 0, 10);
        twin.tick = 11;
        twin.touch(1, 10, 10);
        twin.tick = 12;
        twin.touch(1, 20, 10);
        const std::vector<PageKey> order = twin.drain();
        if (kind != EvictionKind::Predictive)
            continue;
        // The heap's A and C1 go ahead of the open C2, which goes
        // ahead of the heap's B.
        ASSERT_EQ(order.size(), 30u);
        EXPECT_EQ(order[0], (PageKey{1, 0}));
        EXPECT_EQ(order[10], (PageKey{1, 20}));
        EXPECT_EQ(order[15], (PageKey{1, 25}));
        EXPECT_EQ(order[20], (PageKey{1, 10}));
    }
}

TEST(PolicyDiff, RandomSlotCountChangesInsideTheDrawAheadWindow)
{
    Twin twin(EvictionKind::Random);
    twin.admit(1, 0, 40, 40);
    twin.admit(1, 100, 10, 0);    // ten draws at 40 slots
    twin.remove(1, 0, 5);         // 35 slots
    twin.admit(1, 200, 10, 5);    // five in, then five draws at 40
    twin.remove(1, 200, 3);       // 37 slots
    twin.admit(1, 300, 3, 0);     // three draws at 37
    twin.admit(1, 400, 30, 0);    // a run longer than the ring
    twin.drain();                 // a draw at every count down to 1
    // Draw d entered the ring kDrawAhead draws earlier: count the
    // draws whose slot count moved since, and those whose did not.
    const std::vector<std::uint64_t> &sizes = twin.drawSizes;
    const std::uint64_t ring = RandomEviction::kDrawAhead;
    std::uint64_t moved = 0, kept = 0;
    for (std::size_t d = ring; d < sizes.size(); ++d)
        (sizes[d] == sizes[d - ring] ? kept : moved) += 1;
    EXPECT_GT(moved, 0u);
    EXPECT_GT(kept, 0u);
}

// ---- Oracle 2: the retired list-LRU uvm simulator -----------------------

/**
 * Verbatim port of the pre-policy uvm::UvmSimulator (std::list LRU +
 * iterator index), kept here as the byte-identity oracle. Only names
 * changed; every statement and cost formula is the original.
 */
class ListLruUvm
{
  public:
    using PageKeyPair = std::pair<std::uint64_t, std::uint64_t>;

    explicit ListLruUvm(std::uint64_t device_memory_bytes,
                        const uvm::UvmCosts &costs = uvm::UvmCosts())
        : cost(costs),
          capacityPages(device_memory_bytes / mem::kPageSize)
    {
        if (capacityPages == 0)
            fatal("UVM device memory must hold at least one page");
    }

    std::uint64_t
    allocManaged(std::uint64_t bytes)
    {
        if (bytes == 0)
            fatal("managed allocation of zero bytes");
        Region region;
        region.pages = ceilDiv(bytes, mem::kPageSize);
        region.residency.assign(region.pages, false);
        std::uint64_t handle = nextHandle++;
        regions.emplace(handle, std::move(region));
        return handle;
    }

    SimTime
    gpuAccess(std::uint64_t handle, std::uint64_t offset,
              std::uint64_t bytes)
    {
        Region &region = regions.at(handle);
        std::uint64_t first = offset / mem::kPageSize;
        std::uint64_t last = ceilDiv(offset + bytes, mem::kPageSize);
        std::uint64_t faulted = 0;
        for (std::uint64_t p = first; p < last; ++p) {
            if (region.residency[p]) {
                auto key = PageKeyPair{handle, p};
                auto lit = lruIndex.find(key);
                lru.splice(lru.end(), lru, lit->second);
            } else {
                region.residency[p] = true;
                pageInToDevice(handle, p);
                ++faulted;
            }
        }
        return migrationTime(faulted) +
               static_cast<double>(bytes) / cost.deviceBandwidth;
    }

    SimTime
    cpuAccess(std::uint64_t handle, std::uint64_t offset,
              std::uint64_t bytes)
    {
        Region &region = regions.at(handle);
        std::uint64_t first = offset / mem::kPageSize;
        std::uint64_t last = ceilDiv(offset + bytes, mem::kPageSize);
        std::uint64_t migrated = 0;
        for (std::uint64_t p = first; p < last; ++p) {
            if (region.residency[p]) {
                region.residency[p] = false;
                auto key = PageKeyPair{handle, p};
                auto lit = lruIndex.find(key);
                lru.erase(lit->second);
                lruIndex.erase(lit);
                --residentPages;
                ++migrated;
                ++toHost;
            }
        }
        return migrationTime(migrated) +
               static_cast<double>(bytes) / cost.hostBandwidth;
    }

    std::uint64_t deviceResidentPages() const { return residentPages; }
    std::uint64_t pagesMigratedToDevice() const { return toDevice; }
    std::uint64_t pagesMigratedToHost() const { return toHost; }
    std::uint64_t evictions() const { return evicted; }

  private:
    struct Region
    {
        std::uint64_t pages = 0;
        std::vector<bool> residency;  //!< true = device
    };

    struct PairHash
    {
        std::size_t
        operator()(const PageKeyPair &k) const
        {
            return std::hash<std::uint64_t>()(k.first * 0x9e3779b9u) ^
                   std::hash<std::uint64_t>()(k.second);
        }
    };

    SimTime
    migrationTime(std::uint64_t pages) const
    {
        if (pages == 0)
            return 0.0;
        std::uint64_t batches = ceilDiv(pages, cost.faultBatchPages);
        return static_cast<double>(batches) * cost.faultBatchOverhead +
               static_cast<double>(pages) * cost.perPageOverhead +
               static_cast<double>(pages * mem::kPageSize) /
                   cost.linkBandwidth;
    }

    void
    evictOne()
    {
        if (lru.empty())
            panic("UVM eviction with empty device memory");
        PageKeyPair victim = lru.front();
        lru.pop_front();
        lruIndex.erase(victim);
        auto it = regions.find(victim.first);
        if (it != regions.end())
            it->second.residency[victim.second] = false;
        --residentPages;
        ++toHost;
        ++evicted;
    }

    void
    pageInToDevice(std::uint64_t handle, std::uint64_t page)
    {
        while (residentPages >= capacityPages)
            evictOne();
        auto key = PageKeyPair{handle, page};
        lru.push_back(key);
        lruIndex[key] = std::prev(lru.end());
        ++residentPages;
        ++toDevice;
    }

    uvm::UvmCosts cost;
    std::uint64_t capacityPages;
    std::uint64_t residentPages = 0;
    std::map<std::uint64_t, Region> regions;
    std::uint64_t nextHandle = 1;
    std::list<PageKeyPair> lru;
    std::unordered_map<PageKeyPair, std::list<PageKeyPair>::iterator,
                       PairHash>
        lruIndex;
    std::uint64_t toDevice = 0;
    std::uint64_t toHost = 0;
    std::uint64_t evicted = 0;
};

/** Assert both models agree on every counter. */
void
expectSameCounters(const uvm::UvmSimulator &now, const ListLruUvm &old)
{
    ASSERT_EQ(now.deviceResidentPages(), old.deviceResidentPages());
    ASSERT_EQ(now.pagesMigratedToDevice(), old.pagesMigratedToDevice());
    ASSERT_EQ(now.pagesMigratedToHost(), old.pagesMigratedToHost());
    ASSERT_EQ(now.evictions(), old.evictions());
}

/** The bench_uvm_comparison iterative CPU-update / GPU-compute loop:
 *  both implementations must price every call byte-identically. */
void
uvmComparisonScenario(double update_fraction,
                      std::uint64_t device_bytes)
{
    constexpr std::uint64_t kArray = 256 * MiB;
    constexpr unsigned kIters = 10;
    uvm::UvmSimulator now(device_bytes);
    ListLruUvm old(device_bytes);
    std::uint64_t hn = now.allocManaged(kArray);
    std::uint64_t ho = old.allocManaged(kArray);
    std::uint64_t updated =
        static_cast<std::uint64_t>(kArray * update_fraction);
    for (unsigned i = 0; i < kIters; ++i) {
        ASSERT_EQ(now.cpuAccess(hn, 0, updated),
                  old.cpuAccess(ho, 0, updated));
        ASSERT_EQ(now.gpuAccess(hn, 0, kArray),
                  old.gpuAccess(ho, 0, kArray));
        expectSameCounters(now, old);
    }
}

TEST(PolicyDiff, LruMatchesRetiredListOnUvmComparisonLoops)
{
    uvmComparisonScenario(1.0, 8 * GiB);
    uvmComparisonScenario(0.1, 8 * GiB);
}

TEST(PolicyDiff, LruMatchesRetiredListUnderOvercommitThrash)
{
    // The bench's overcommit scenario: working set 1.5x device memory,
    // four full passes of LRU thrashing.
    constexpr std::uint64_t kArray = 256 * MiB;
    uvm::UvmSimulator now(kArray * 2 / 3);
    ListLruUvm old(kArray * 2 / 3);
    std::uint64_t hn = now.allocManaged(kArray);
    std::uint64_t ho = old.allocManaged(kArray);
    for (unsigned i = 0; i < 4; ++i) {
        ASSERT_EQ(now.gpuAccess(hn, 0, kArray),
                  old.gpuAccess(ho, 0, kArray));
        expectSameCounters(now, old);
    }
    EXPECT_GT(now.evictions(), 0u);
}

TEST(PolicyDiff, LruMatchesRetiredListUnderMixedWindowedTraffic)
{
    // Seeded mixed GPU/CPU windows, partial ranges, interleaved
    // regions: the access pattern the clean loops above don't cover.
    constexpr std::uint64_t kRegion = 16 * MiB;
    for (std::uint64_t s = 0; s < 4; ++s) {
        uvm::UvmSimulator now(8 * MiB);
        ListLruUvm old(8 * MiB);
        std::uint64_t hn1 = now.allocManaged(kRegion);
        std::uint64_t hn2 = now.allocManaged(kRegion);
        std::uint64_t ho1 = old.allocManaged(kRegion);
        std::uint64_t ho2 = old.allocManaged(kRegion);
        SplitMix64 rng(exec::taskSeed(0x11571138ull, s));
        for (int op = 0; op < 400; ++op) {
            bool second = rng.next() % 2;
            std::uint64_t hn = second ? hn2 : hn1;
            std::uint64_t ho = second ? ho2 : ho1;
            std::uint64_t pages = kRegion / mem::kPageSize;
            std::uint64_t page = rng.next() % pages;
            std::uint64_t span = 1 + rng.next() % 1024;
            std::uint64_t off = page * mem::kPageSize;
            std::uint64_t bytes =
                std::min(span * mem::kPageSize, kRegion - off);
            if (rng.next() % 4 == 0) {
                ASSERT_EQ(now.cpuAccess(hn, off, bytes),
                          old.cpuAccess(ho, off, bytes));
            } else {
                ASSERT_EQ(now.gpuAccess(hn, off, bytes),
                          old.gpuAccess(ho, off, bytes));
            }
            expectSameCounters(now, old);
        }
    }
}

// ---- Oracle 3: page-by-page hook order ----------------------------------

/**
 * The uvm access loop as it ran page by page before the simulator
 * went run-granular, reduced to residency, counters and the engine
 * hooks. Its policy sees length-1 runs only: each faulting page makes
 * one admitRun that evicts (when the device is full) and then inserts,
 * and the hooks follow in that order.
 */
class PagewiseUvm
{
  public:
    PagewiseUvm(std::uint64_t capacity_pages, EvictionKind kind,
                std::uint64_t seed, PolicyEngine &engine)
        : capacityPages(capacity_pages),
          victims(makeEviction(kind, seed)), pol(engine)
    {}

    std::uint64_t
    allocManaged(std::uint64_t bytes)
    {
        std::uint64_t handle = nextHandle++;
        std::vector<bool> &device = regions[handle];
        device.assign(ceilDiv(bytes, mem::kPageSize), false);
        for (std::uint64_t p = 0; p < device.size(); ++p)
            pol.noteResident({handle, p}, Tier::Slow);
        return handle;
    }

    void
    freeManaged(std::uint64_t handle)
    {
        std::vector<bool> &device = regions.at(handle);
        for (std::uint64_t p = 0; p < device.size(); ++p) {
            if (device[p]) {
                victims->removeRun(handle, p, 1);
                --residentPages;
            }
            pol.noteRemoved({handle, p});
        }
        regions.erase(handle);
    }

    void
    gpuAccess(std::uint64_t handle, std::uint64_t offset,
              std::uint64_t bytes)
    {
        std::vector<bool> &device = regions.at(handle);
        std::uint64_t first = offset / mem::kPageSize;
        std::uint64_t last = ceilDiv(offset + bytes, mem::kPageSize);
        ++tick;
        pol.advanceTick();
        for (std::uint64_t p = first; p < last; ++p) {
            if (device[p]) {
                victims->touchRun(handle, p, 1, tick);
                continue;
            }
            device[p] = true;
            std::vector<PageRun> runs;
            victims->admitRun(handle, p, 1, tick,
                              residentPages < capacityPages ? 1 : 0, runs);
            const std::vector<PageKey> victim = test::pagesOf(runs);
            if (!victim.empty()) {
                auto it = regions.find(victim[0].space);
                if (it != regions.end())
                    it->second[victim[0].page] = false;
                --residentPages;
                ++evicted;
                pol.noteEvicted(victim[0], residentPages);
                pol.noteResident(victim[0], Tier::Slow);
            }
            ++residentPages;
            pol.noteResident({handle, p}, Tier::Fast);
        }
        pol.noteAccessRange(handle, first, last - first);
    }

    void
    cpuAccess(std::uint64_t handle, std::uint64_t offset,
              std::uint64_t bytes)
    {
        std::vector<bool> &device = regions.at(handle);
        std::uint64_t first = offset / mem::kPageSize;
        std::uint64_t last = ceilDiv(offset + bytes, mem::kPageSize);
        ++tick;
        pol.advanceTick();
        for (std::uint64_t p = first; p < last; ++p) {
            if (device[p]) {
                device[p] = false;
                victims->removeRun(handle, p, 1);
                --residentPages;
                pol.noteResident({handle, p}, Tier::Slow);
            }
        }
        pol.noteAccessRange(handle, first, last - first);
    }

    void
    migrationStep()
    {
        if (!pol.migrates())
            return;
        for (const auto &action : pol.migrationStep()) {
            auto it = regions.find(action.key.space);
            if (it == regions.end() || action.key.page >= it->second.size())
                continue;
            std::vector<bool>::reference device =
                it->second[action.key.page];
            if (action.to == Tier::Fast) {
                if (device || residentPages >= capacityPages)
                    continue;
                device = true;
                std::vector<PageRun> none;
                victims->admitRun(action.key.space, action.key.page, 1,
                                  tick, 1, none);
                ++residentPages;
            } else {
                if (!device)
                    continue;
                device = false;
                victims->removeRun(action.key.space, action.key.page, 1);
                --residentPages;
            }
            pol.noteMigrated(action.key, action.to);
        }
    }

    std::uint64_t deviceResidentPages() const { return residentPages; }
    std::uint64_t evictions() const { return evicted; }

  private:
    std::uint64_t capacityPages;
    std::unique_ptr<EvictionPolicy> victims;
    PolicyEngine &pol;
    std::map<std::uint64_t, std::vector<bool>> regions;
    std::uint64_t nextHandle = 1;
    std::uint64_t tick = 0;
    std::uint64_t residentPages = 0;
    std::uint64_t evicted = 0;
};

/** Seeded oversubscribed stream over a 256-page and a 96-page region
 *  on a 64-page device: GPU windows of up to 160 pages (longer than
 *  the device, so runs evict their own pages), CPU windows, migration
 *  steps, CPU re-heats that make pages promotion-eligible, and the
 *  small region freed and reallocated halfway. */
template <typename Sim>
void
hookOrderStream(Sim &sim, std::uint64_t stream_seed)
{
    const std::uint64_t page = mem::kPageSize;
    const std::uint64_t pages[2] = {256, 96};
    std::uint64_t handles[2] = {sim.allocManaged(pages[0] * page),
                                sim.allocManaged(pages[1] * page)};
    SplitMix64 rng(stream_seed);
    for (int op = 0; op < 600; ++op) {
        if (op == 300) {
            sim.freeManaged(handles[1]);
            handles[1] = sim.allocManaged(pages[1] * page);
        }
        const std::uint64_t roll = rng.next() % 10;
        const unsigned which = rng.next() % 3 == 0 ? 1 : 0;
        const std::uint64_t first = rng.nextBelow(pages[which]);
        const std::uint64_t span = 1 + rng.nextBelow(std::min<std::uint64_t>(
                                           160, pages[which] - first));
        if (roll < 5)
            sim.gpuAccess(handles[which], first * page, span * page);
        else if (roll < 7)
            sim.cpuAccess(handles[which], first * page, span * page);
        else if (roll < 9)
            sim.migrationStep();
        else
            sim.cpuAccess(handles[0], 0, 16 * page);
    }
}

/** The (kind, a, b, c, d) of every event @p tracer recorded. */
std::vector<std::tuple<trace::EventKind, std::uint64_t, std::uint64_t,
                       std::uint64_t, std::uint64_t>>
decisions(const trace::Tracer &tracer)
{
    std::vector<std::tuple<trace::EventKind, std::uint64_t,
                           std::uint64_t, std::uint64_t, std::uint64_t>>
        out;
    for (const trace::TraceEvent &ev : tracer.events())
        out.emplace_back(ev.kind, ev.a, ev.b, ev.c, ev.d);
    return out;
}

TEST(PolicyDiff, RunGranularUvmKeepsPageByPageHookOrder)
{
    constexpr std::uint64_t kCapacityPages = 64;
    struct Pinned
    {
        EvictionKind kind;
        std::uint64_t evictEvents, migrateEvents;
    };
    // Event counts of the page-by-page simulator on this stream.
    constexpr Pinned kPinned[] = {
        {EvictionKind::Lru, 12219, 158},
        {EvictionKind::Lfu, 10984, 340},
        {EvictionKind::Random, 10420, 116},
        {EvictionKind::Predictive, 12029, 296},
    };
    for (std::uint64_t k = 0; k < std::size(kPinned); ++k) {
        const Pinned &pin = kPinned[k];
        PolicyConfig cfg;
        cfg.eviction = pin.kind;
        cfg.migration = MigrationKind::HotCold;
        trace::TraceConfig tcfg;
        tcfg.enabled = true;

        trace::Tracer runTracer(tcfg);
        PolicyEngine runEngine(cfg, &runTracer);
        uvm::UvmSimulator runs(kCapacityPages * mem::kPageSize, pin.kind,
                               cfg.seed, &runEngine);
        hookOrderStream(runs, 0x400c0de5ull + k);

        trace::Tracer pageTracer(tcfg);
        PolicyEngine pageEngine(cfg, &pageTracer);
        PagewiseUvm pages(kCapacityPages, pin.kind, cfg.seed, pageEngine);
        hookOrderStream(pages, 0x400c0de5ull + k);

        const char *name = evictionKindName(pin.kind);
        const auto got = decisions(runTracer);
        ASSERT_EQ(got, decisions(pageTracer)) << name;
        std::uint64_t evicts = 0, migrates = 0;
        for (const auto &d : got) {
            evicts += std::get<0>(d) == trace::EventKind::PolicyEvict;
            migrates += std::get<0>(d) == trace::EventKind::PolicyMigrate;
        }
        EXPECT_EQ(evicts, pin.evictEvents) << name;
        EXPECT_EQ(migrates, pin.migrateEvents) << name;
        EXPECT_EQ(runs.evictions(), pages.evictions()) << name;
        EXPECT_EQ(runs.deviceResidentPages(), pages.deviceResidentPages())
            << name;
        EXPECT_EQ(runEngine.stats().promotions,
                  pageEngine.stats().promotions)
            << name;
        EXPECT_EQ(runEngine.stats().demotions,
                  pageEngine.stats().demotions)
            << name;
    }
}

} // namespace
} // namespace upm::policy
