/**
 * @file
 * A sorted map of disjoint key runs, each run carrying one value.
 *
 * The page tables, the GPU fragment stamps, the race detector's shadow
 * and the backing store all keep runs [start, start + len) of uint64
 * keys in a std::map keyed by run start. RunMap is their one
 * implementation of the containing-run lookup, the clipped walk, and
 * the split and join that keep the runs disjoint and maximally joined.
 *
 * The value type says how a run splits and when two runs join, through
 * two optional member hooks:
 *
 *  - `V splitOff(std::uint64_t off)`: keep the value of the run's first
 *    @p off keys and return the value of the rest. Without the hook
 *    the value is copied.
 *  - `bool joins(std::uint64_t len, const V &next) const`: can a run
 *    of @p len keys carrying this value absorb the run right after it,
 *    which carries @p next? The joined run keeps this value. Without
 *    the hook, runs join when their values are equal.
 *
 * Invariants: runs never overlap, and no two adjacent runs join.
 */

#ifndef UPM_COMMON_RUN_MAP_HH
#define UPM_COMMON_RUN_MAP_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>

#include "common/log.hh"

namespace upm {

template <typename V>
class RunMap
{
  public:
    using Key = std::uint64_t;

    /** A stored run: keys [start, start + len) all carry @ref value. */
    struct Slot
    {
        std::uint64_t len = 0;
        V value;
    };

    using Map = std::map<Key, Slot>;
    using const_iterator = typename Map::const_iterator;

    const_iterator end() const { return runs.end(); }

    /** Number of stored runs. */
    std::uint64_t runCount() const { return runs.size(); }

    /** Number of keys covered by the runs. */
    std::uint64_t keyCount() const { return keys; }

    void
    clear()
    {
        runs.clear();
        keys = 0;
    }

    /** The run containing @p key, else the first run after it. */
    const_iterator
    firstEndingAfter(Key key) const
    {
        return firstEndingAfter(runs, key);
    }

    /** The run containing @p key, or end(). */
    const_iterator
    find(Key key) const
    {
        auto it = firstEndingAfter(key);
        return it != runs.end() && it->first <= key ? it : runs.end();
    }

    /**
     * Visit the runs overlapping [begin, end) in key order, clipped to
     * the window. @param fn callable (Key begin, Key end, uint64 off,
     * const V &value), where @p off is the clipped piece's distance
     * from its stored run's start.
     */
    template <typename Fn>
    void
    forEach(Key begin, Key end, Fn &&fn) const
    {
        if (begin >= end)
            return;
        for (auto it = firstEndingAfter(begin);
             it != runs.end() && it->first < end; ++it) {
            Key b = std::max(begin, it->first);
            Key e = std::min(end, it->first + it->second.len);
            fn(b, e, b - it->first, it->second.value);
        }
    }

    /**
     * Store @p value for [start, start + len), joining it with either
     * neighbour. Panics if any key of the run is already stored.
     */
    void
    insert(Key start, std::uint64_t len, V value)
    {
        if (len == 0)
            return;
        auto next = runs.lower_bound(start);
        bool overlaps = next != runs.end() && next->first - start < len;
        if (next != runs.begin()) {
            auto prev = std::prev(next);
            overlaps = overlaps || start - prev->first < prev->second.len;
        }
        if (overlaps)
            panic("run [0x%llx, 0x%llx) overlaps a stored run",
                  static_cast<unsigned long long>(start),
                  static_cast<unsigned long long>(start + len));
        keys += len;
        if (next != runs.begin()) {
            auto prev = std::prev(next);
            if (prev->first + prev->second.len == start &&
                joinable(prev->second, value)) {
                prev->second.len += len;
                joinNext(prev);
                return;
            }
        }
        joinNext(runs.emplace_hint(next, start, Slot{len, std::move(value)}));
    }

    /**
     * Remove every stored key in [begin, end), splitting the runs that
     * straddle its edges. @param fn called on each removed piece as
     * forEach() would, in key order, *before* any run is split or
     * erased, so pointers into the values stay valid during the call;
     * @p fn must not re-enter the map. @return keys removed.
     */
    template <typename Fn>
    std::uint64_t
    erase(Key begin, Key end, Fn &&fn)
    {
        if (begin >= end)
            return 0;
        std::uint64_t removed = 0;
        auto first = firstEndingAfter(runs, begin);
        auto last = first;
        for (; last != runs.end() && last->first < end; ++last) {
            Key b = std::max(begin, last->first);
            Key e = std::min(end, last->first + last->second.len);
            fn(b, e, b - last->first, std::as_const(last->second.value));
            removed += e - b;
        }
        if (removed == 0)
            return 0;
        auto straddler = std::prev(last);
        if (straddler->first + straddler->second.len > end)
            last = splitRun(straddler, end);
        if (first->first < begin)
            first = splitRun(first, begin);
        runs.erase(first, last);
        keys -= removed;
        return removed;
    }

    std::uint64_t
    erase(Key begin, Key end)
    {
        return erase(begin, end, [](Key, Key, std::uint64_t, const V &) {});
    }

    /**
     * Split the runs at @p begin and @p end, call @p fn (Key begin,
     * Key end, V &value) on each run inside [begin, end) in key order,
     * then join the runs that became joinable, from the run before the
     * window through the run starting at its end. @return keys visited.
     */
    template <typename Fn>
    std::uint64_t
    update(Key begin, Key end, Fn &&fn)
    {
        if (begin >= end)
            return 0;
        auto first = firstEndingAfter(runs, begin);
        if (first == runs.end() || first->first >= end)
            return 0;
        if (first->first < begin)
            first = splitRun(first, begin);
        std::uint64_t updated = 0;
        for (auto it = first; it != runs.end() && it->first < end; ++it) {
            if (it->first + it->second.len > end)
                splitRun(it, end);
            fn(it->first, it->first + it->second.len, it->second.value);
            updated += it->second.len;
        }
        auto it = first == runs.begin() ? first : std::prev(first);
        while (it != runs.end() && it->first <= end) {
            if (!joinNext(it))
                ++it;
        }
        return updated;
    }

  private:
    using Iter = typename Map::iterator;

    static bool
    joinable(const Slot &left, const V &right)
    {
        if constexpr (requires { left.value.joins(left.len, right); })
            return left.value.joins(left.len, right);
        else
            return left.value == right;
    }

    static V
    splitOff(V &head, std::uint64_t off)
    {
        if constexpr (requires { head.splitOff(off); })
            return head.splitOff(off);
        else
            return head;
    }

    /** Absorb the run after @p it if adjacent and joinable. */
    bool
    joinNext(Iter it)
    {
        auto next = std::next(it);
        if (next == runs.end() ||
            it->first + it->second.len != next->first ||
            !joinable(it->second, next->second.value))
            return false;
        it->second.len += next->second.len;
        runs.erase(next);
        return true;
    }

    /** Split run @p it, which holds @p key past its start, so a run
     *  starts at @p key. @return that run. */
    Iter
    splitRun(Iter it, Key key)
    {
        std::uint64_t off = key - it->first;
        Slot tail{it->second.len - off, splitOff(it->second.value, off)};
        it->second.len = off;
        return runs.emplace_hint(std::next(it), key, std::move(tail));
    }

    /** The run of @p map containing @p key, else the first run after
     *  it; an iterator or a const_iterator as @p map is. */
    template <typename M>
    static auto
    firstEndingAfter(M &map, Key key)
    {
        auto it = map.upper_bound(key);
        if (it != map.begin()) {
            auto prev = std::prev(it);
            if (key - prev->first < prev->second.len)
                return prev;
        }
        return it;
    }

    Map runs;
    std::uint64_t keys = 0;
};

} // namespace upm

#endif // UPM_COMMON_RUN_MAP_HH
