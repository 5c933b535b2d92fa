#include "audit/race.hh"

#include <algorithm>

namespace upm::audit {

void
RaceDetector::ensureAgent(AgentId agent)
{
    if (agent < clocks.size())
        return;
    std::size_t n = agent + 1;
    for (auto &row : clocks)
        row.resize(n, 0);
    while (clocks.size() < n) {
        // An agent's own clock starts at 1 while every other agent's
        // knowledge of it starts at 0: a fresh agent's first access is
        // unordered with everyone until an edge publishes it.
        clocks.emplace_back(n, 0);
        clocks.back()[clocks.size() - 1] = 1;
    }
}

void
RaceDetector::edge(AgentId from, AgentId to)
{
    ensureAgent(std::max(from, to));
    auto &src = clocks[from];
    auto &dst = clocks[to];
    for (std::size_t i = 0; i < src.size(); ++i)
        dst[i] = std::max(dst[i], src[i]);
    // Release bump: work `from` does after this edge is unordered with
    // whatever `to` acquired.
    ++clocks[from][from];
}

void
RaceDetector::edgeAll(AgentId to)
{
    ensureAgent(to);
    for (AgentId a = 0; a < clocks.size(); ++a) {
        if (a != to)
            edge(a, to);
    }
}

bool
RaceDetector::happensBefore(const Epoch &epoch, AgentId a) const
{
    if (epoch.agent == a)
        return true;  // program order
    if (epoch.agent >= clocks[a].size())
        return false;
    return epoch.clock <= clocks[a][epoch.agent];
}

std::uint32_t
RaceDetector::internSite(const std::string &site)
{
    auto [it, inserted] = siteIds.try_emplace(
        site, static_cast<std::uint32_t>(sites.size()));
    if (inserted)
        sites.push_back(site);
    return it->second;
}

void
RaceDetector::accessRange(AgentId agent, std::uint64_t first,
                          std::uint64_t count, bool is_write,
                          const std::string &site,
                          std::vector<RaceReport> &races)
{
    ensureAgent(agent);
    if (count == 0)
        return;
    const Epoch now{agent, clocks[agent][agent], internSite(site)};
    const std::uint64_t end = first + count;

    // Untracked gaps first become runs with a fresh state, which has
    // nothing to conflict with.
    for (std::uint64_t cursor = first; cursor < end;) {
        auto it = runs.firstEndingAfter(cursor);
        std::uint64_t gap_end = end, next = end;
        if (it != runs.end()) {
            gap_end = std::min(end, it->first);
            next = it->first + it->second.len;
        }
        if (cursor < gap_end)
            runs.insert(cursor, gap_end - cursor, PageState{});
        cursor = next;
    }

    // Every page of a run shares its state, so the per-page rule runs
    // once per run; only the race reports fan out per page.
    runs.update(first, end, [&](std::uint64_t run_begin,
                                std::uint64_t run_end, PageState &state) {
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
            for (std::uint64_t p = run_begin; p < run_end; ++p) {
                races.push_back(
                    {p, conflict->agent, sites[conflict->site], agent, site});
            }
        }

        if (is_write) {
            state.lastWrite = now;
            state.hasWrite = true;
            state.reads.clear();
        } else {
            auto read = std::find_if(
                state.reads.begin(), state.reads.end(),
                [&](const Epoch &e) { return e.agent == agent; });
            if (read != state.reads.end())
                *read = now;
            else
                state.reads.push_back(now);
        }
    });
}

void
RaceDetector::reset()
{
    clocks.clear();
    runs.clear();
    sites.clear();
    siteIds.clear();
}

} // namespace upm::audit
