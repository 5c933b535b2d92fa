/**
 * @file
 * Single-page drivers over the run interface of
 * policy::EvictionPolicy, for tests that reason page by page: each is
 * a run of length 1, and a bare eviction admits a scratch page with no
 * room and removes it again.
 */

#ifndef UPM_TESTS_EVICTION_UTIL_HH
#define UPM_TESTS_EVICTION_UTIL_HH

#include <cstdint>
#include <vector>

#include "policy/eviction.hh"

namespace upm::test {

/** Space of the scratch page a bare eviction admits; it sorts after
 *  every other space. */
constexpr std::uint64_t kScratchSpace = ~0ull;

/** The victim pages of @p runs, in order. */
inline std::vector<policy::PageKey>
pagesOf(const std::vector<policy::PageRun> &runs)
{
    std::vector<policy::PageKey> keys;
    for (const policy::PageRun &run : runs) {
        for (std::uint64_t i = 0; i < run.n; ++i)
            keys.push_back({run.space, run.first + i});
    }
    return keys;
}

inline void
insertPage(policy::EvictionPolicy &ev, policy::PageKey key,
           std::uint64_t tick)
{
    std::vector<policy::PageRun> none;
    ev.admitRun(key.space, key.page, 1, tick, 1, none);
}

inline void
touchPage(policy::EvictionPolicy &ev, policy::PageKey key,
          std::uint64_t tick)
{
    ev.touchRun(key.space, key.page, 1, tick);
}

inline void
removePage(policy::EvictionPolicy &ev, policy::PageKey key)
{
    ev.removeRun(key.space, key.page, 1);
}

/**
 * Evict one victim at @p tick and return it. The scratch page goes in
 * after the victim is picked and leaves right away: Random's slot
 * array ends as a pure eviction leaves it, and the other kinds are left
 * one stale entry, so the victim sequence is that of bare evictions.
 */
inline policy::PageKey
evictPage(policy::EvictionPolicy &ev, std::uint64_t tick)
{
    std::vector<policy::PageRun> victims;
    ev.admitRun(kScratchSpace, 0, 1, tick, 0, victims);
    ev.removeRun(kScratchSpace, 0, 1);
    return pagesOf(victims).at(0);
}

} // namespace upm::test

#endif // UPM_TESTS_EVICTION_UTIL_HH
