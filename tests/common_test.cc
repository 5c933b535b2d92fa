/**
 * @file
 * Unit tests for the common module: units, logging, RNGs, statistics,
 * the simulated clock, the scope guard, the Status surface, and a
 * differential test of RunMap against a per-page model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "common/clock.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/run_map.hh"
#include "common/scope_guard.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "common/units.hh"

namespace upm {
namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

const auto *env = ::testing::AddGlobalTestEnvironment(new QuietEnv);

TEST(Units, SizeConstants)
{
    EXPECT_EQ(KiB, 1024u);
    EXPECT_EQ(MiB, 1024u * 1024u);
    EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
    EXPECT_EQ(TiB, 1024ull * GiB);
}

TEST(Units, BandwidthHelpers)
{
    // 1 GB/s moves one byte per nanosecond.
    EXPECT_DOUBLE_EQ(gbps(1.0), 1.0);
    EXPECT_DOUBLE_EQ(tbps(5.3), 5300.0);
    // 5.3 TB/s moves 5300 bytes in 1 ns.
    EXPECT_DOUBLE_EQ(transferTime(5300, tbps(5.3)), 1.0);
}

TEST(Units, CeilDivAndRoundUp)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(roundUp(4095, 4096), 4096u);
    EXPECT_EQ(roundUp(4096, 4096), 4096u);
    EXPECT_EQ(roundUp(4097, 4096), 8192u);
}

TEST(Units, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(4097), 12u);
    EXPECT_EQ(ceilLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
}

TEST(Log, FatalThrowsSimError)
{
    EXPECT_THROW(fatal("user misconfigured %d", 42), SimError);
}

TEST(Log, PanicThrowsSimError)
{
    EXPECT_THROW(panic("bug %s", "here"), SimError);
}

TEST(Log, StrprintfFormats)
{
    EXPECT_EQ(strprintf("a%db", 7), "a7b");
    EXPECT_EQ(strprintf("%s-%s", "x", "y"), "x-y");
}

TEST(Rng, MinStdMatchesStdMinstdRand)
{
    // Our generator must be bit-compatible with std::minstd_rand, the
    // generator the paper's CPU histogram kernel uses.
    std::minstd_rand reference(12345);
    MinStdRand ours(12345);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(ours.next(), reference());
}

TEST(Rng, MinStdSeedZeroIsSeedOne)
{
    MinStdRand a(0), b(1);
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XorwowIsDeterministic)
{
    Xorwow a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XorwowDistributionRoughlyUniform)
{
    Xorwow gen(7);
    constexpr int kBuckets = 16;
    constexpr int kDraws = 160000;
    int counts[kBuckets] = {};
    for (int i = 0; i < kDraws; ++i)
        ++counts[gen.nextBelow(kBuckets)];
    for (int c : counts) {
        EXPECT_GT(c, kDraws / kBuckets * 0.9);
        EXPECT_LT(c, kDraws / kBuckets * 1.1);
    }
}

TEST(Rng, SplitMixNextBelowBounds)
{
    SplitMix64 gen(1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(gen.nextBelow(17), 17u);
    EXPECT_EQ(gen.nextBelow(0), 0u);
}

TEST(Rng, SplitMixDoubleInUnitInterval)
{
    SplitMix64 gen(3);
    for (int i = 0; i < 1000; ++i) {
        double d = gen.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Stats, SummaryBasics)
{
    SampleStats s;
    s.add({1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, PercentileInterpolates)
{
    SampleStats s;
    s.add({10.0, 20.0, 30.0, 40.0, 50.0});
    EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
    EXPECT_DOUBLE_EQ(s.median(), 30.0);
    EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
    EXPECT_DOUBLE_EQ(s.percentile(95), 48.0);
}

TEST(Stats, PercentileOutOfRangePanics)
{
    SampleStats s;
    s.add(1.0);
    EXPECT_THROW(s.percentile(101), SimError);
}

TEST(Stats, TailFractionMatchesPercentile)
{
    SampleStats s;
    for (int i = 1; i <= 1000; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.tail(0.5), s.percentile(50.0));
    EXPECT_DOUBLE_EQ(s.tail(0.99), s.percentile(99.0));
    EXPECT_DOUBLE_EQ(s.p999(), s.percentile(99.9));
    // 1..1000: rank 0.999*(999) = 998.001 -> between 999 and 1000.
    EXPECT_NEAR(s.p999(), 999.001, 1e-9);
    EXPECT_DOUBLE_EQ(s.tail(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.tail(1.0), 1000.0);
}

TEST(Stats, TailSmallSampleEdgeCases)
{
    // n=1: every tail query is the single sample.
    SampleStats one;
    one.add(42.0);
    EXPECT_DOUBLE_EQ(one.tail(0.0), 42.0);
    EXPECT_DOUBLE_EQ(one.p999(), 42.0);
    EXPECT_DOUBLE_EQ(one.tail(1.0), 42.0);

    // n=2: p999 interpolates almost all the way to the max, never past.
    SampleStats two;
    two.add({10.0, 20.0});
    EXPECT_DOUBLE_EQ(two.tail(0.5), 15.0);
    EXPECT_NEAR(two.p999(), 19.99, 1e-9);
    EXPECT_LE(two.p999(), two.max());
    EXPECT_GE(two.p999(), two.tail(0.99));

    // Duplicates: interpolation between equal neighbors is exact, and
    // tails are monotone in p.
    SampleStats dup;
    dup.add({7.0, 7.0, 7.0, 7.0, 7.0});
    EXPECT_DOUBLE_EQ(dup.tail(0.5), 7.0);
    EXPECT_DOUBLE_EQ(dup.p999(), 7.0);
    SampleStats mix;
    mix.add({1.0, 1.0, 1.0, 1.0, 100.0});
    double last = mix.tail(0.0);
    for (double p : {0.5, 0.9, 0.99, 0.999, 1.0}) {
        EXPECT_GE(mix.tail(p), last);
        last = mix.tail(p);
    }
    EXPECT_DOUBLE_EQ(mix.tail(1.0), 100.0);

    // Empty stats answer 0 like percentile(); out-of-range panics.
    SampleStats empty;
    EXPECT_DOUBLE_EQ(empty.p999(), 0.0);
    SampleStats s;
    s.add(1.0);
    EXPECT_THROW(s.tail(1.5), SimError);
    EXPECT_THROW(s.tail(-0.1), SimError);
}

TEST(Stats, EmptyStatsAreZero)
{
    SampleStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_THROW(geomean({1.0, 0.0}), SimError);
}

TEST(Stats, LogHistogramBuckets)
{
    LogHistogram h(1.0, 8);
    h.add(0.5);   // below base -> bucket 0
    h.add(1.0);   // bucket 0
    h.add(2.0);   // bucket 1
    h.add(3.9);   // bucket 1
    h.add(4.0);   // bucket 2
    h.add(1e9);   // clamps to last bucket
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(7), 1u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.bucketLow(3), 8.0);
}

TEST(Stats, LogHistogramExactPowerOfTwoEdges)
{
    // Regression: bucketing via std::log2 misplaced exact edges --
    // floating rounding could land base*2^k in bucket k-1. The
    // integer bit-width path must put every edge in bucket k.
    LogHistogram h(1.0, 32);
    for (unsigned k = 0; k < 31; ++k)
        h.add(static_cast<double>(1ull << k));
    for (unsigned k = 0; k < 31; ++k)
        EXPECT_EQ(h.bucketCount(k), 1u) << "edge 2^" << k;

    // Same property at a non-trivial base: edges are base*2^k.
    LogHistogram h2(4.0 * 1e3, 6);
    for (unsigned k = 0; k < 6; ++k)
        h2.add(4.0e3 * static_cast<double>(1u << k));
    for (unsigned k = 0; k < 6; ++k)
        EXPECT_EQ(h2.bucketCount(k), 1u) << "edge base*2^" << k;

    // Just below an edge stays in the lower bucket.
    LogHistogram h3(1.0, 4);
    h3.add(std::nextafter(4.0, 0.0));
    EXPECT_EQ(h3.bucketCount(1), 1u);
    EXPECT_EQ(h3.bucketCount(2), 0u);
}

TEST(Stats, LogHistogramHugeRatioClampsToLastBucket)
{
    // Ratios at or above 2^63 would overflow the uint64 conversion;
    // they must clamp to the last bucket instead.
    LogHistogram h(1.0, 4);
    h.add(0x1p63);
    h.add(1e300);
    EXPECT_EQ(h.bucketCount(3), 2u);
}

TEST(Stats, PercentileCacheSurvivesInterleavedAdds)
{
    // Regression for the lazily-sorted percentile cache: results must
    // match a freshly sorted reference after every add/percentile
    // interleaving, i.e. add() invalidates the cache.
    SampleStats s;
    std::vector<double> reference;
    MinStdRand rng(123);
    auto check = [&] {
        SampleStats fresh;
        fresh.add(reference);
        for (double p : {0.0, 50.0, 99.0, 100.0}) {
            EXPECT_DOUBLE_EQ(s.percentile(p), fresh.percentile(p))
                << "p" << p << " after " << reference.size()
                << " samples";
        }
    };
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 20; ++i) {
            double v = static_cast<double>(rng.next() % 1000);
            s.add(v);
            reference.push_back(v);
        }
        check();  // warms the cache...
        s.add(-1.0);
        reference.push_back(-1.0);
        check();  // ...which the add above must have invalidated
    }
}

TEST(Stats, LogHistogramValidation)
{
    EXPECT_THROW(LogHistogram(0.0, 4), SimError);
    EXPECT_THROW(LogHistogram(1.0, 0), SimError);
    LogHistogram h(1.0, 2);
    EXPECT_THROW(h.bucketCount(2), SimError);
}

TEST(Clock, AdvanceAndRendezvous)
{
    SimClock clock;
    EXPECT_DOUBLE_EQ(clock.now(), 0.0);
    clock.advance(5.0);
    EXPECT_DOUBLE_EQ(clock.now(), 5.0);
    clock.advance(-3.0);  // negative deltas are ignored
    EXPECT_DOUBLE_EQ(clock.now(), 5.0);
    clock.advanceTo(3.0);  // no going backwards
    EXPECT_DOUBLE_EQ(clock.now(), 5.0);
    clock.advanceTo(9.0);
    EXPECT_DOUBLE_EQ(clock.now(), 9.0);
    clock.reset();
    EXPECT_DOUBLE_EQ(clock.now(), 0.0);
}

TEST(Clock, ScopedTimerMeasuresDelta)
{
    SimClock clock;
    clock.advance(100.0);
    SimTime elapsed = 0.0;
    {
        ScopedTimer timer(clock, elapsed);
        clock.advance(42.0);
    }
    EXPECT_DOUBLE_EQ(elapsed, 42.0);
}

TEST(ScopeGuard, RunsOnScopeExit)
{
    int runs = 0;
    {
        ScopeExit guard([&] { ++runs; });
        EXPECT_EQ(runs, 0);
    }
    EXPECT_EQ(runs, 1);
}

TEST(ScopeGuard, RunsOnExceptionUnwind)
{
    int runs = 0;
    EXPECT_THROW(
        {
            ScopeExit guard([&] { ++runs; });
            throw SimError("mid-measurement failure");
        },
        SimError);
    EXPECT_EQ(runs, 1);
}

TEST(ScopeGuard, ReleaseDisarms)
{
    int runs = 0;
    {
        ScopeExit guard([&] { ++runs; });
        guard.release();
    }
    EXPECT_EQ(runs, 0);
}

TEST(ScopeGuard, RollbackPattern)
{
    // The idiom the probes use: flip a mode, guard the restore, and
    // release only once the whole measurement committed.
    bool xnack = true;
    {
        xnack = false;
        ScopeExit restore([&] { xnack = true; });
        // measurement throws before release() -> mode restored
    }
    EXPECT_TRUE(xnack);
}

TEST(Status, NamesAreStable)
{
    EXPECT_STREQ(statusName(Status::Success), "Success");
    EXPECT_STREQ(statusName(Status::OutOfMemory), "OutOfMemory");
    EXPECT_STREQ(statusName(Status::InvalidValue), "InvalidValue");
    EXPECT_STREQ(statusName(Status::NotFound), "NotFound");
    EXPECT_STREQ(statusName(Status::AccessFault), "AccessFault");
    EXPECT_STREQ(statusName(Status::Timeout), "Timeout");
}

TEST(Status, StatusErrorRoundTripsCode)
{
    for (Status s : {Status::OutOfMemory, Status::InvalidValue,
                     Status::NotFound, Status::AccessFault,
                     Status::Timeout}) {
        StatusError err(s, "context");
        EXPECT_EQ(err.code(), s);
        // The message carries both the status name and the context.
        EXPECT_NE(std::string(err.what()).find(statusName(s)),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("context"),
                  std::string::npos);
    }
}

TEST(Status, StatusErrorIsASimError)
{
    // Callers that only care about failure catch SimError; callers
    // that recover (the OOM paths) catch StatusError and dispatch on
    // code().
    try {
        throw StatusError(Status::OutOfMemory, "frames exhausted");
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("OutOfMemory"),
                  std::string::npos);
    }
}


/** Behaves like a strided page run: page i of a run carries base + i. */
struct StridedValue
{
    std::uint64_t base = 0;
    unsigned tag = 0;

    StridedValue
    splitOff(std::uint64_t off) const
    {
        return {base + off, tag};
    }

    bool
    joins(std::uint64_t len, const StridedValue &next) const
    {
        return base + len == next.base && tag == next.tag;
    }
};

struct StridedTraits
{
    using Value = StridedValue;
    using Page = std::pair<std::uint64_t, unsigned>;

    /** Half the runs continue the identity stride, so joins happen. */
    static Value
    draw(SplitMix64 &rng, std::uint64_t start)
    {
        std::uint64_t base = rng.nextBelow(2) ? start : rng.nextBelow(512);
        return {base, static_cast<unsigned>(rng.nextBelow(2))};
    }

    static Page page(const Value &v, std::uint64_t off)
    {
        return {v.base + off, v.tag};
    }

    static void retag(Value &v, unsigned tag) { v.tag = tag; }
    static Page retagged(Page p, unsigned tag) { return {p.first, tag}; }

    static bool
    joins(std::uint64_t len, const Value &a, const Value &b)
    {
        return a.joins(len, b);
    }
};

/** A plain value: copied on split, joined when equal. */
struct EqualTraits
{
    using Value = unsigned;
    using Page = unsigned;

    static Value
    draw(SplitMix64 &rng, std::uint64_t)
    {
        return static_cast<unsigned>(rng.nextBelow(3));
    }

    static Page page(const Value &v, std::uint64_t) { return v; }
    static void retag(Value &v, unsigned tag) { v = tag; }
    static Page retagged(Page, unsigned tag) { return tag; }

    static bool
    joins(std::uint64_t, const Value &a, const Value &b)
    {
        return a == b;
    }
};

/**
 * Random insert/erase/update/find/walk sequences on a RunMap<V> and on
 * a per-page std::optional model. After every op the per-page values
 * must agree, the runs must be disjoint and maximally joined, and the
 * op's callbacks must have seen exactly the model's pages, in order.
 */
template <typename T>
void
runMapMatchesPerPageModel(unsigned seed)
{
    using Value = typename T::Value;
    using Page = typename T::Page;
    using Key = RunMap<Value>::Key;
    constexpr Key kSpace = 256;
    SplitMix64 rng(0x7a9e0000u + seed);
    RunMap<Value> map;
    std::vector<std::optional<Page>> model(kSpace);

    auto presentIn = [&](Key b, Key e) {
        std::vector<Key> keys;
        for (Key k = b; k < e; ++k) {
            if (model[k])
                keys.push_back(k);
        }
        return keys;
    };

    for (int step = 0; step < 600; ++step) {
        Key b = rng.nextBelow(kSpace);
        Key e = std::min(kSpace, b + 1 + rng.nextBelow(16));
        std::vector<Key> seen;
        switch (rng.nextBelow(5)) {
          case 0: {  // insert
            Value v = T::draw(rng, b);
            if (!presentIn(b, e).empty()) {
                EXPECT_THROW(map.insert(b, e - b, v), SimError);
                break;
            }
            map.insert(b, e - b, v);
            for (Key k = b; k < e; ++k)
                model[k] = T::page(v, k - b);
            break;
          }
          case 1: {  // erase: pieces in key order, before restructuring
            std::uint64_t removed = map.erase(
                b, e, [&](Key pb, Key pe, std::uint64_t off, const Value &v) {
                    for (Key k = pb; k < pe; ++k) {
                        EXPECT_EQ(T::page(v, off + (k - pb)), model[k]);
                        seen.push_back(k);
                    }
                });
            EXPECT_EQ(seen, presentIn(b, e));
            EXPECT_EQ(removed, seen.size());
            for (Key k = b; k < e; ++k)
                model[k].reset();
            break;
          }
          case 2: {  // update: whole runs inside the window, in order
            auto tag = static_cast<unsigned>(rng.nextBelow(2));
            std::uint64_t updated =
                map.update(b, e, [&](Key rb, Key re, Value &v) {
                    EXPECT_LE(b, rb);
                    EXPECT_LE(re, e);
                    for (Key k = rb; k < re; ++k)
                        seen.push_back(k);
                    T::retag(v, tag);
                });
            EXPECT_EQ(seen, presentIn(b, e));
            EXPECT_EQ(updated, seen.size());
            for (Key k : seen)
                model[k] = T::retagged(*model[k], tag);
            break;
          }
          case 3: {  // find
            auto it = map.find(b);
            ASSERT_EQ(it != map.end(), model[b].has_value()) << b;
            if (it != map.end()) {
                EXPECT_LE(it->first, b);
                EXPECT_EQ(T::page(it->second.value, b - it->first),
                          *model[b]);
            }
            break;
          }
          default: {  // clipped walk
            map.forEach(b, e, [&](Key pb, Key pe, std::uint64_t off,
                                  const Value &v) {
                EXPECT_LE(b, pb);
                EXPECT_LE(pe, e);
                for (Key k = pb; k < pe; ++k) {
                    EXPECT_EQ(T::page(v, off + (k - pb)), model[k]);
                    seen.push_back(k);
                }
            });
            EXPECT_EQ(seen, presentIn(b, e));
            break;
          }
        }

        // Per-page values, disjointness and the maximal-join invariant:
        // a whole-space walk visits the stored runs unclipped.
        std::vector<std::optional<Page>> stored(kSpace);
        Key prev_end = 0;
        std::uint64_t prev_len = 0;
        const Value *prev = nullptr;
        map.forEach(0, kSpace, [&](Key rb, Key re, std::uint64_t off,
                                   const Value &v) {
            EXPECT_EQ(off, 0u);
            ASSERT_GE(rb, prev_end) << "runs overlap";
            EXPECT_FALSE(prev != nullptr && prev_end == rb &&
                         T::joins(prev_len, *prev, v))
                << "runs ending at " << prev_end
                << " should have joined (step " << step << ")";
            for (Key k = rb; k < re; ++k)
                stored[k] = T::page(v, k - rb);
            prev_end = re;
            prev_len = re - rb;
            prev = &v;
        });
        ASSERT_EQ(stored, model) << "step " << step;
        EXPECT_EQ(map.keyCount(), presentIn(0, kSpace).size());
    }
}

class RunMapDiff : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RunMapDiff, StridedValueMatchesPerPageModel)
{
    runMapMatchesPerPageModel<StridedTraits>(GetParam());
}

TEST_P(RunMapDiff, EqualValueMatchesPerPageModel)
{
    runMapMatchesPerPageModel<EqualTraits>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunMapDiff, ::testing::Range(0u, 16u));

TEST(RunMap, InsertJoinsBothNeighbours)
{
    RunMap<unsigned> map;
    map.insert(0, 4, 7);
    map.insert(8, 4, 7);
    EXPECT_EQ(map.runCount(), 2u);
    map.insert(4, 4, 7);
    EXPECT_EQ(map.runCount(), 1u);
    EXPECT_EQ(map.find(0)->second.len, 12u);
    EXPECT_THROW(map.insert(11, 2, 7), SimError);
    EXPECT_THROW(map.insert(0, 1, 8), SimError);
    EXPECT_EQ(map.keyCount(), 12u);
}

} // namespace
} // namespace upm
