/**
 * @file
 * A coalesced set of uint64 keys stored as half-open [first, last)
 * intervals: the reference model the buddy free-list bitmap trees
 * (mem::BitTree) and frame coalescing (mem::appendFrameStretches) are
 * tested against. The buddy free lists were IntervalSets before they
 * became bitmap trees.
 */

#ifndef UPM_TESTS_INTERVAL_SET_HH
#define UPM_TESTS_INTERVAL_SET_HH

#include <cstdint>
#include <map>

#include "common/log.hh"

namespace upm::test {

/**
 * Sorted, automatically coalesced set of uint64 keys. Neighbouring
 * keys merge into one interval on insert; erasing from the middle of
 * an interval splits it. All operations are O(log intervals).
 */
class IntervalSet
{
  public:
    bool empty() const { return ivals.empty(); }

    /** Number of keys (not intervals) in the set. */
    std::uint64_t size() const { return count; }

    /** Number of stored intervals (diagnostics / tests). */
    std::uint64_t intervalCount() const { return ivals.size(); }

    /** Smallest key. Requires a non-empty set. */
    std::uint64_t
    first() const
    {
        if (ivals.empty())
            panic("first() on an empty IntervalSet");
        return ivals.begin()->first;
    }

    bool
    contains(std::uint64_t key) const
    {
        auto it = ivals.upper_bound(key);
        if (it == ivals.begin())
            return false;
        --it;
        return key < it->second;
    }

    /** Insert @p key, merging with neighbours. Panics if present. */
    void
    insert(std::uint64_t key)
    {
        auto next = ivals.upper_bound(key);
        auto prev = next;
        bool joins_prev = false;
        if (prev != ivals.begin()) {
            --prev;
            if (key < prev->second)
                panic("IntervalSet: duplicate insert of %llu",
                      static_cast<unsigned long long>(key));
            joins_prev = prev->second == key;
        }
        bool joins_next = next != ivals.end() && next->first == key + 1;
        if (joins_prev && joins_next) {
            prev->second = next->second;
            ivals.erase(next);
        } else if (joins_prev) {
            prev->second = key + 1;
        } else if (joins_next) {
            std::uint64_t end = next->second;
            ivals.erase(next);
            ivals.emplace(key, end);
        } else {
            ivals.emplace(key, key + 1);
        }
        ++count;
    }

    /** Erase @p key, splitting its interval. Panics if absent. */
    void
    erase(std::uint64_t key)
    {
        auto it = ivals.upper_bound(key);
        if (it == ivals.begin())
            panic("IntervalSet: erase of absent key %llu",
                  static_cast<unsigned long long>(key));
        --it;
        if (key >= it->second)
            panic("IntervalSet: erase of absent key %llu",
                  static_cast<unsigned long long>(key));
        std::uint64_t begin = it->first;
        std::uint64_t end = it->second;
        ivals.erase(it);
        if (begin < key)
            ivals.emplace(begin, key);
        if (key + 1 < end)
            ivals.emplace(key + 1, end);
        --count;
    }

    /** Visit intervals in key order. @param fn (first, last) half-open. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[begin, end] : ivals)
            fn(begin, end);
    }

  private:
    /** interval start -> one-past-the-end. Non-overlapping, merged. */
    std::map<std::uint64_t, std::uint64_t> ivals;
    std::uint64_t count = 0;
};

} // namespace upm::test

#endif // UPM_TESTS_INTERVAL_SET_HH
