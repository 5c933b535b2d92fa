/**
 * @file
 * Differential race-detector tests.
 *
 * audit::RaceDetector keeps its shadow as an interval map of page runs
 * that share one state. The oracle below is the per-page detector it
 * replaced, kept verbatim (one hash-map entry per page, the rule
 * applied page by page). Seeded random streams of edges and accesses
 * -- several agents, several sites, overlapping, nested and adjacent
 * ranges -- drive both, and after every op the race reports (page,
 * agents, sites, order) and trackedPages() must be exactly equal.
 *
 * Seed base for this file: 0x7ace0000.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/race.hh"
#include "common/rng.hh"

namespace upm::audit {
namespace {

// ---- Oracle: the per-page detector --------------------------------------

class PerPageRaceDetector
{
  public:
    void
    edge(AgentId from, AgentId to)
    {
        ensureAgent(std::max(from, to));
        auto &src = clocks[from];
        auto &dst = clocks[to];
        for (std::size_t i = 0; i < src.size(); ++i)
            dst[i] = std::max(dst[i], src[i]);
        ++clocks[from][from];
    }

    void
    edgeAll(AgentId to)
    {
        ensureAgent(to);
        for (AgentId a = 0; a < clocks.size(); ++a) {
            if (a != to)
                edge(a, to);
        }
    }

    void
    accessRange(AgentId agent, std::uint64_t first, std::uint64_t count,
                bool is_write, const std::string &site,
                std::vector<RaceReport> &races)
    {
        ensureAgent(agent);
        Epoch now{agent, clocks[agent][agent], site};

        for (std::uint64_t p = first; p < first + count; ++p) {
            PageState &state = pages[p];

            const Epoch *conflict = nullptr;
            if (state.hasWrite && !happensBefore(state.lastWrite, agent))
                conflict = &state.lastWrite;
            if (conflict == nullptr && is_write) {
                for (const Epoch &read : state.reads) {
                    if (!happensBefore(read, agent)) {
                        conflict = &read;
                        break;
                    }
                }
            }
            if (conflict != nullptr) {
                races.push_back({p, conflict->agent, conflict->site, agent,
                                 site});
            }

            if (is_write) {
                state.lastWrite = now;
                state.hasWrite = true;
                state.reads.clear();
            } else {
                bool updated = false;
                for (Epoch &read : state.reads) {
                    if (read.agent == agent) {
                        read = now;
                        updated = true;
                        break;
                    }
                }
                if (!updated)
                    state.reads.push_back(now);
            }
        }
    }

    void
    reset()
    {
        clocks.clear();
        pages.clear();
    }

    std::size_t trackedPages() const { return pages.size(); }

  private:
    struct Epoch
    {
        AgentId agent = 0;
        std::uint64_t clock = 0;
        std::string site;
    };

    struct PageState
    {
        Epoch lastWrite;
        bool hasWrite = false;
        std::vector<Epoch> reads;
    };

    void
    ensureAgent(AgentId agent)
    {
        if (agent < clocks.size())
            return;
        std::size_t n = agent + 1;
        for (auto &row : clocks)
            row.resize(n, 0);
        while (clocks.size() < n) {
            clocks.emplace_back(n, 0);
            clocks.back()[clocks.size() - 1] = 1;
        }
    }

    bool
    happensBefore(const Epoch &epoch, AgentId a) const
    {
        if (epoch.agent == a)
            return true;
        if (epoch.agent >= clocks[a].size())
            return false;
        return epoch.clock <= clocks[a][epoch.agent];
    }

    std::vector<std::vector<std::uint64_t>> clocks;
    std::unordered_map<std::uint64_t, PageState> pages;
};

// ---- The differential ----------------------------------------------------

/** Both detectors, driven in lockstep; every op is checked. */
struct Pair
{
    RaceDetector runs;
    PerPageRaceDetector pages;

    void
    edge(AgentId from, AgentId to)
    {
        runs.edge(from, to);
        pages.edge(from, to);
    }

    void
    edgeAll(AgentId to)
    {
        runs.edgeAll(to);
        pages.edgeAll(to);
    }

    /** @return the reports, after asserting both sides agree. */
    std::vector<RaceReport>
    access(AgentId agent, std::uint64_t first, std::uint64_t count,
           bool is_write, const std::string &site)
    {
        std::vector<RaceReport> got, want;
        runs.accessRange(agent, first, count, is_write, site, got);
        pages.accessRange(agent, first, count, is_write, site, want);
        EXPECT_EQ(got, want) << "agent " << agent << " ["
                             << first << ", +" << count << ") "
                             << (is_write ? "write " : "read ") << site;
        EXPECT_EQ(runs.trackedPages(), pages.trackedPages());
        return got;
    }
};

const std::vector<std::string> kSites = {
    "kernel 'stencil'", "cpuStream", "hipMemcpy dst", "kernel 'reduce'",
    "cpuFirstTouch"};

void
differentialRun(std::uint64_t seed, int ops)
{
    SplitMix64 rng(seed);
    Pair pair;
    // Anchors make later ranges overlap, nest inside and abut earlier
    // ones instead of landing on fresh pages.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> recent = {
        {100, 50}};
    for (int op = 0; op < ops; ++op) {
        auto agent = static_cast<AgentId>(rng.nextBelow(5));
        std::uint64_t pick = rng.nextBelow(100);
        if (pick < 12) {
            pair.edge(agent, static_cast<AgentId>(rng.nextBelow(5)));
            continue;
        }
        if (pick < 16) {
            pair.edgeAll(agent);
            continue;
        }
        if (pick < 17) {
            pair.runs.reset();
            pair.pages.reset();
            continue;
        }
        const auto &[a_first, a_len] =
            recent[rng.nextBelow(recent.size())];
        std::uint64_t first = 0;
        std::uint64_t count = 1 + rng.nextBelow(24);
        switch (rng.nextBelow(6)) {
        case 0:  // nested
            first = a_first + rng.nextBelow(a_len);
            count = 1 + rng.nextBelow(a_first + a_len - first);
            break;
        case 1:  // adjacent after
            first = a_first + a_len;
            break;
        case 2:  // adjacent before
            first = a_first > count ? a_first - count : 0;
            break;
        case 3:  // overlapping, wider
            first = a_first > 3 ? a_first - rng.nextBelow(4) : a_first;
            count = a_len + rng.nextBelow(8);
            break;
        case 4:  // empty access
            first = a_first + rng.nextBelow(a_len + 1);
            count = 0;
            break;
        default:  // anywhere in the window
            first = rng.nextBelow(256);
            count = 1 + rng.nextBelow(64);
            break;
        }
        bool is_write = rng.nextBelow(3) == 0;
        pair.access(agent, first, count, is_write,
                    kSites[rng.nextBelow(kSites.size())]);
        if (::testing::Test::HasFailure())
            FAIL() << "seed " << seed << " op " << op;
        if (count != 0) {
            if (recent.size() < 16)
                recent.emplace_back(first, count);
            else
                recent[rng.nextBelow(recent.size())] = {first, count};
        }
    }
}

TEST(RaceDiff, MatchesPerPageDetectorAcross24Seeds)
{
    for (std::uint64_t s = 0; s < 24; ++s)
        differentialRun(0x7ace0000u + s, 3000);
}

TEST(RaceDiff, ZeroCountAccessTracksNothingButRegistersTheAgent)
{
    Pair pair;
    pair.access(3, 10, 0, true, "kernel 'stencil'");
    EXPECT_EQ(pair.runs.trackedPages(), 0u);
    EXPECT_EQ(pair.runs.runCount(), 0u);
    // Agent 3 exists now, so edgeAll(0) bumps its clock in both.
    pair.edgeAll(0);
    pair.access(3, 10, 4, true, "kernel 'stencil'");
    auto races = pair.access(0, 10, 4, false, "cpuStream");
    EXPECT_EQ(races.size(), 4u);
}

TEST(RaceDiff, MidRunSplitThenRemerge)
{
    Pair pair;
    pair.edge(kHostAgent, 1);
    pair.access(1, 0, 64, true, "kernel 'stencil'");
    EXPECT_EQ(pair.runs.runCount(), 1u);

    // An unordered host read in the middle splits [0, 64) in three
    // and races only there, one report per page, ascending.
    auto races = pair.access(kHostAgent, 20, 8, false, "cpuStream");
    ASSERT_EQ(races.size(), 8u);
    for (std::size_t i = 0; i < races.size(); ++i) {
        EXPECT_EQ(races[i].page, 20 + i);
        EXPECT_EQ(races[i].firstAgent, 1u);
        EXPECT_EQ(races[i].firstSite, "kernel 'stencil'");
        EXPECT_EQ(races[i].secondSite, "cpuStream");
    }
    EXPECT_EQ(pair.runs.runCount(), 3u);

    // Synchronize, then rewrite the whole buffer: one state again, so
    // the three runs coalesce into one.
    pair.edgeAll(1);
    EXPECT_TRUE(pair.access(1, 0, 64, true, "kernel 'reduce'").empty());
    EXPECT_EQ(pair.runs.runCount(), 1u);
    EXPECT_EQ(pair.runs.trackedPages(), 64u);

    // A gap-filling write that abuts both neighbours with their state
    // joins them: [0, 64) + [64, 80) + [80, 96) -> one run.
    pair.access(1, 80, 16, true, "kernel 'reduce'");
    EXPECT_EQ(pair.runs.runCount(), 2u);
    pair.access(1, 64, 16, true, "kernel 'reduce'");
    EXPECT_EQ(pair.runs.runCount(), 1u);
    EXPECT_EQ(pair.runs.trackedPages(), 96u);
}

} // namespace
} // namespace upm::audit
