/**
 * @file
 * TLB models.
 *
 * `FragTlb` models the GPU's per-CU UTCL1: fully associative, LRU, and
 * *fragment-aware* -- one entry can cover a whole page-table fragment
 * (a virtually and physically contiguous, identically-flagged range),
 * which is how AMD's adaptive fragment scheme multiplies TLB reach
 * (paper Section 5.3). `PlainTlb` is a conventional one-page-per-entry
 * set-associative TLB used for the CPU dTLB model.
 */

#ifndef UPM_TLB_TLB_HH
#define UPM_TLB_TLB_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"

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
    /** Latency charged on a miss (walk through UTCL2 / page walker). */
    SimTime missLatency = 400.0;
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
     * describe the PTE's fragment; the inserted entry is the aligned
     * sub-block of at most `maxSpanPages` pages containing @p vpn.
     */
    void insert(Vpn vpn, Vpn frag_base, std::uint64_t frag_span);

    /** Drop everything (e.g. after an HMM invalidation). */
    void flush();

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    void resetStats() { hitCount = missCount = 0; }

    SimTime missLatency() const { return cfg.missLatency; }
    const FragTlbConfig &config() const { return cfg; }

  private:
    FragTlbConfig cfg;
    /** Entries as parallel arrays, scanned whole on every miss. Entry
     *  i covers [base[i], base[i] + span[i]); span 0 == invalid, and
     *  an invalid entry keeps lru 0, below every valid stamp. */
    std::vector<Vpn> base;
    std::vector<std::uint64_t> span;
    std::vector<std::uint64_t> lru;
    std::uint64_t stamp = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

/** Parameters of a conventional TLB. */
struct PlainTlbConfig
{
    unsigned entries = 1536;  //!< Zen4 L2 dTLB per core (model)
    unsigned assoc = 12;
    SimTime missLatency = 25.0;
};

/** Set-associative single-page TLB (CPU dTLB model). */
class PlainTlb
{
  public:
    explicit PlainTlb(const PlainTlbConfig &config = {});

    /** Look up @p vpn, allocating the entry on miss. @return hit? */
    bool access(Vpn vpn);

    void flush();

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    void resetStats() { hitCount = missCount = 0; }
    SimTime missLatency() const { return cfg.missLatency; }

  private:
    struct Way
    {
        Vpn tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    PlainTlbConfig cfg;
    unsigned sets;
    std::vector<Way> ways;
    std::uint64_t stamp = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

} // namespace upm::tlb

#endif // UPM_TLB_TLB_HH
