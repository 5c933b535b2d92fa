/**
 * @file
 * A set of uint64 keys below a fixed bound, stored as a bitmap with a
 * 64-ary summary tree above it.
 *
 * The buddy free lists keep one per order, of block indices. Probe,
 * insert and erase are a few word operations with no heap node per
 * key, and the smallest key costs one countr_zero per level.
 */

#ifndef UPM_MEM_BIT_TREE_HH
#define UPM_MEM_BIT_TREE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace upm::mem {

/**
 * Sorted set of the keys in [0, bound). Level 0 holds one bit per key;
 * bit i of level l + 1 is set iff word i of level l is nonzero; the
 * top level is one word. Every level grows to the highest word an
 * insert has reached and no further, so an empty set allocates
 * nothing: a System pays for the bits its free lists use, not for
 * zeroing two bits per frame when it is built.
 */
class BitTree
{
  public:
    explicit BitTree(std::uint64_t key_bound) : bound(key_bound)
    {
        for (std::uint64_t words = (key_bound + 63) / 64; words > 1;
             words = (words + 63) / 64)
            ++depth;
    }

    bool empty() const { return count == 0; }

    /** Number of keys in the set. */
    std::uint64_t size() const { return count; }

    /** Number of maximal runs of consecutive keys. */
    std::uint64_t
    intervalCount() const
    {
        std::uint64_t runs = 0;
        std::uint64_t carry = 0;
        for (std::uint64_t w : levels[0]) {
            runs += std::popcount(w & ~((w << 1) | carry));
            carry = w >> 63;
        }
        return runs;
    }

    /** Smallest key. Requires a non-empty set. */
    std::uint64_t
    first() const
    {
        if (count == 0)
            panic("first() on an empty BitTree");
        std::uint64_t idx = 0;
        for (unsigned l = depth; l-- > 0;)
            idx = idx * 64 + std::countr_zero(levels[l][idx]);
        return idx;
    }

    bool
    contains(std::uint64_t key) const
    {
        const auto &leaf = levels[0];
        return key / 64 < leaf.size() && ((leaf[key / 64] >> (key % 64)) & 1);
    }

    /** Insert @p key. Panics if present or not below the bound. */
    void
    insert(std::uint64_t key)
    {
        if (key >= bound || contains(key))
            panic("BitTree: insert of %llu (bound %llu) present or out "
                  "of range",
                  static_cast<unsigned long long>(key),
                  static_cast<unsigned long long>(bound));
        for (unsigned l = 0; l < depth; ++l, key /= 64) {
            auto &words = levels[l];
            if (key / 64 >= words.size())
                words.resize(key / 64 + 1);
            std::uint64_t &word = words[key / 64];
            bool was_empty = word == 0;
            word |= 1ull << (key % 64);
            if (!was_empty)
                break;
        }
        ++count;
    }

    /** Insert the keys [0, @p n) into an empty set, a word at a
     *  time. Panics if the set is not empty or @p n exceeds the bound. */
    void
    insertPrefix(std::uint64_t n)
    {
        if (count != 0 || n > bound)
            panic("BitTree: prefix of %llu keys into a set of %llu "
                  "(bound %llu)",
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(bound));
        count = n;
        for (unsigned l = 0; l < depth && n != 0; ++l, n = (n + 63) / 64) {
            levels[l].assign((n + 63) / 64, ~0ull);
            if (n % 64 != 0)
                levels[l].back() = (1ull << (n % 64)) - 1;
        }
    }

    /** Erase @p key. Panics if absent. */
    void
    erase(std::uint64_t key)
    {
        if (!contains(key))
            panic("BitTree: erase of absent key %llu",
                  static_cast<unsigned long long>(key));
        for (unsigned l = 0; l < depth; ++l, key /= 64) {
            std::uint64_t &word = levels[l][key / 64];
            word &= ~(1ull << (key % 64));
            if (word != 0)
                break;
        }
        --count;
    }

  private:
    /** Levels a 64-bit key space can need (64^11 > 2^64). */
    static constexpr unsigned kMaxDepth = 11;

    std::array<std::vector<std::uint64_t>, kMaxDepth> levels;
    std::uint64_t bound;
    unsigned depth = 1;
    std::uint64_t count = 0;
};

} // namespace upm::mem

#endif // UPM_MEM_BIT_TREE_HH
