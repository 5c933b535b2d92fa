/**
 * @file
 * The GPU's per-CU UTCL1 model.
 *
 * `FragTlb` is fully associative, LRU, and *fragment-aware* -- one
 * entry can cover a whole page-table fragment (a virtually and
 * physically contiguous, identically-flagged range), which is how
 * AMD's adaptive fragment scheme multiplies TLB reach (paper
 * Section 5.3).
 */

#ifndef UPM_TLB_TLB_HH
#define UPM_TLB_TLB_HH

#include <cstdint>
#include <vector>

namespace upm::tlb {

/** Virtual page number. */
using Vpn = std::uint64_t;

/** Parameters of a fragment-aware TLB. */
struct FragTlbConfig
{
    /** Number of entries (UTCL1 is small). */
    unsigned entries = 32;
    /**
     * Maximum pages one entry may cover. The UTCL1 caps the reach of a
     * single entry even when the PTE advertises a larger fragment.
     */
    unsigned maxSpanPages = 256;
};

/**
 * Fully associative, LRU, fragment-aware TLB. An entry is a
 * [base, base+span) page range; any lookup inside the range hits.
 */
class FragTlb
{
  public:
    explicit FragTlb(const FragTlbConfig &config = {});

    /** Look up @p vpn. @return true on hit; counts stats. */
    bool lookup(Vpn vpn);

    /**
     * Install a translation after a miss. @p frag_base / @p frag_span
     * describe the PTE's fragment: a power-of-two span, its base
     * aligned to it, containing @p vpn (panics otherwise). The inserted
     * entry is the aligned sub-block of at most `maxSpanPages` pages
     * containing @p vpn.
     */
    void insert(Vpn vpn, Vpn frag_base, std::uint64_t frag_span);

    /** Drop everything (e.g. after an HMM invalidation). */
    void flush();

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    void resetStats() { hitCount = missCount = 0; }

    const FragTlbConfig &config() const { return cfg; }

  private:
    /** Make valid entry @p i the most recently used. */
    void moveToFront(std::uint32_t i);

    FragTlbConfig cfg;
    /** Entries as parallel arrays, scanned whole on every lookup.
     *  Entry i covers [base[i], base[i] + span[i]); span 0 == invalid. */
    std::vector<Vpn> base;
    std::vector<std::uint64_t> span;
    /** Recency list over the valid entries: `head` is the most
     *  recently used, `tail` the LRU victim. */
    std::vector<std::uint32_t> prev;
    std::vector<std::uint32_t> next;
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    /** Entries [0, filled) are valid. Only flush() invalidates, and it
     *  invalidates all, so the lowest-index invalid entry -- the one
     *  an insert fills first -- is always `filled`. */
    std::uint32_t filled = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

} // namespace upm::tlb

#endif // UPM_TLB_TLB_HH
