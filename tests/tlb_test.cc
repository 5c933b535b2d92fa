/**
 * @file
 * Tests for the TLB module: the fragment-aware UTCL1 model.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "tlb/tlb.hh"

namespace upm::tlb {
namespace {

TEST(FragTlb, MissThenHitWithinFragment)
{
    FragTlb tlb({.entries = 4, .maxSpanPages = 256});
    EXPECT_FALSE(tlb.lookup(100));
    tlb.insert(100, 96, 16);  // fragment [96, 112)
    EXPECT_TRUE(tlb.lookup(96));
    EXPECT_TRUE(tlb.lookup(111));
    EXPECT_FALSE(tlb.lookup(112));
    EXPECT_EQ(tlb.hits(), 2u);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(FragTlb, FragmentReachMultipliesCoverage)
{
    // One entry covering a 256-page fragment absorbs a whole stream.
    FragTlb tlb({.entries = 1, .maxSpanPages = 256});
    tlb.lookup(0);
    tlb.insert(0, 0, 256);
    for (Vpn vpn = 1; vpn < 256; ++vpn)
        EXPECT_TRUE(tlb.lookup(vpn));
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(FragTlb, SpanClampedToMaxReach)
{
    // A huge fragment is clamped to the aligned max-span block
    // containing the faulting vpn.
    FragTlb tlb({.entries = 1, .maxSpanPages = 16});
    tlb.lookup(100);
    tlb.insert(100, 0, 1024);
    // Covered block: [96, 112).
    EXPECT_TRUE(tlb.lookup(96));
    EXPECT_TRUE(tlb.lookup(111));
    EXPECT_FALSE(tlb.lookup(112));
    EXPECT_FALSE(tlb.lookup(95));
}

TEST(FragTlb, LruEviction)
{
    FragTlb tlb({.entries = 2, .maxSpanPages = 16});
    tlb.lookup(0);
    tlb.insert(0, 0, 1);
    tlb.lookup(10);
    tlb.insert(10, 10, 1);
    tlb.lookup(0);  // refresh entry 0
    tlb.lookup(20);
    tlb.insert(20, 20, 1);  // evicts vpn 10
    EXPECT_TRUE(tlb.lookup(0));
    EXPECT_FALSE(tlb.lookup(10));
    EXPECT_TRUE(tlb.lookup(20));
}

TEST(FragTlb, FlushDropsEverything)
{
    FragTlb tlb({.entries = 4, .maxSpanPages = 16});
    tlb.lookup(5);
    tlb.insert(5, 5, 1);
    tlb.flush();
    EXPECT_FALSE(tlb.lookup(5));
}

TEST(FragTlb, InsertValidation)
{
    FragTlb tlb({.entries = 2, .maxSpanPages = 16});
    EXPECT_THROW(tlb.insert(5, 5, 0), SimError);
    EXPECT_THROW(tlb.insert(5, 6, 4), SimError);  // vpn below base
    EXPECT_THROW(tlb.insert(10, 6, 4), SimError); // vpn past end
}

TEST(FragTlb, InsertRejectsMisshapenFragment)
{
    // The clamp to maxSpanPages assumes a power-of-two fragment
    // aligned to its span; anything else is a caller bug.
    FragTlb tlb({.entries = 2, .maxSpanPages = 16});
    EXPECT_THROW(tlb.insert(5, 4, 3), SimError);     // span not pow2
    EXPECT_THROW(tlb.insert(7, 6, 4), SimError);     // base unaligned
    EXPECT_THROW(tlb.insert(100, 96, 48), SimError); // span not pow2
    tlb.insert(98, 96, 4);
    EXPECT_TRUE(tlb.lookup(99));
}

TEST(FragTlb, LowestInvalidEntryFillsFirst)
{
    // Overlapping entries: a lookup refreshes the lowest-index match,
    // so the fill order decides which entry the next insert evicts.
    // Each round ends with entry 1 least recent, and the flush must
    // restart the fill at entry 0 regardless.
    FragTlb tlb({.entries = 2, .maxSpanPages = 16});
    for (int round = 0; round < 2; ++round) {
        tlb.insert(0, 0, 16);        // entry 0: [0, 16)
        tlb.insert(0, 0, 1);         // entry 1: [0, 1)
        EXPECT_TRUE(tlb.lookup(0));  // refreshes entry 0
        tlb.insert(32, 32, 1);       // evicts entry 1
        EXPECT_TRUE(tlb.lookup(32)) << "round " << round;
        EXPECT_TRUE(tlb.lookup(5)) << "round " << round;
        tlb.flush();
    }
}

TEST(FragTlb, ConfigValidation)
{
    EXPECT_THROW(FragTlb({.entries = 0, .maxSpanPages = 16}), SimError);
    EXPECT_THROW(FragTlb({.entries = 4, .maxSpanPages = 3}), SimError);
}

/** Reach property: misses scale inversely with fragment span. */
class FragReach : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FragReach, StreamMissesInverseToSpan)
{
    const std::uint64_t span = GetParam();
    FragTlb tlb({.entries = 32, .maxSpanPages = 1024});
    const Vpn pages = 8192;
    for (Vpn vpn = 0; vpn < pages; ++vpn) {
        if (!tlb.lookup(vpn)) {
            Vpn base = vpn & ~(span - 1);
            tlb.insert(vpn, base, span);
        }
    }
    EXPECT_EQ(tlb.misses(), pages / span);
}

INSTANTIATE_TEST_SUITE_P(Spans, FragReach,
                         ::testing::Values(1, 2, 4, 16, 64, 256, 1024));

/**
 * The UTCL1 as an array of {base, span, lru} entries, kept verbatim
 * from before FragTlb went struct-of-arrays: the oracle the flat
 * layout must match hit for hit.
 */
class EntryArrayTlb
{
  public:
    explicit EntryArrayTlb(const FragTlbConfig &config) : cfg(config)
    {
        entries.resize(cfg.entries);
    }

    bool
    lookup(Vpn vpn)
    {
        ++stamp;
        for (auto &entry : entries) {
            if (entry.span != 0 && vpn >= entry.base &&
                vpn < entry.base + entry.span) {
                entry.lru = stamp;
                ++hitCount;
                return true;
            }
        }
        ++missCount;
        return false;
    }

    void
    insert(Vpn vpn, Vpn frag_base, std::uint64_t frag_span)
    {
        std::uint64_t span = frag_span;
        Vpn base = frag_base;
        if (span > cfg.maxSpanPages) {
            span = cfg.maxSpanPages;
            base = vpn & ~static_cast<Vpn>(span - 1);
        }

        Entry *victim = &entries[0];
        for (auto &entry : entries) {
            if (entry.span == 0) {
                victim = &entry;
                break;
            }
            if (entry.lru < victim->lru)
                victim = &entry;
        }
        ++stamp;
        victim->base = base;
        victim->span = span;
        victim->lru = stamp;
    }

    void
    flush()
    {
        for (auto &entry : entries)
            entry.span = 0;
    }

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }

  private:
    struct Entry
    {
        Vpn base = 0;
        std::uint64_t span = 0;  // pages; 0 == invalid
        std::uint64_t lru = 0;
    };

    FragTlbConfig cfg;
    std::vector<Entry> entries;
    std::uint64_t stamp = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

TEST(FragTlbDiff, MatchesEntryArrayModelAcross16Seeds)
{
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        SplitMix64 rng(0x71b0 + seed);
        FragTlbConfig cfg;
        // Caps run from 1 (every fragment clamped) to 1024 (the
        // calibrated UTCL1's); each meets four different entry counts.
        const unsigned cap_log2[8] = {0, 10, 2, 4, 0, 6, 8, 10};
        cfg.entries = std::array<unsigned, 5>{1, 3, 8, 32, 64}[seed % 5];
        cfg.maxSpanPages = 1u << cap_log2[seed % 8];
        FragTlb flat(cfg);
        EntryArrayTlb oracle(cfg);
        // A window a few times the TLB's reach, so hits, misses and
        // evictions all happen; spans above maxSpanPages get clamped.
        Vpn window = 4 * cfg.entries * cfg.maxSpanPages;
        for (int op = 0; op < 4000; ++op) {
            std::uint64_t kind = rng.nextBelow(100);
            Vpn vpn = rng.nextBelow(window);
            if (kind < 2) {
                flat.flush();
                oracle.flush();
            } else if (kind < 10) {
                // Insert without a lookup first: entries may overlap,
                // so the lowest matching entry must win.
                std::uint64_t span = 1ull << rng.nextBelow(11);
                Vpn base = vpn & ~(span - 1);
                flat.insert(vpn, base, span);
                oracle.insert(vpn, base, span);
            } else {
                bool hit = flat.lookup(vpn);
                ASSERT_EQ(hit, oracle.lookup(vpn))
                    << "seed " << seed << " op " << op;
                if (!hit) {
                    std::uint64_t span = 1ull << rng.nextBelow(11);
                    Vpn base = vpn & ~(span - 1);
                    flat.insert(vpn, base, span);
                    oracle.insert(vpn, base, span);
                }
            }
            ASSERT_EQ(flat.hits(), oracle.hits()) << "seed " << seed;
            ASSERT_EQ(flat.misses(), oracle.misses()) << "seed " << seed;
        }
        EXPECT_GT(flat.hits(), 0u);
        EXPECT_GT(flat.misses(), 0u);
    }
}

} // namespace
} // namespace upm::tlb
