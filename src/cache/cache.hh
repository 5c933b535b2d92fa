/**
 * @file
 * Functional set-associative cache model with LRU replacement.
 *
 * Used directly for small structures that need per-access fidelity
 * (TLB backing tests, directory experiments) and as the reference
 * implementation that the analytic hit-fraction models in
 * `hierarchy.hh` are validated against in the test suite.
 */

#ifndef UPM_CACHE_CACHE_HH
#define UPM_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

namespace upm::cache {

/** Static parameters of one cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineSize = 64;
};

/**
 * A set-associative, write-allocate, LRU cache keyed by physical
 * address. Purely functional: answers hit/miss and keeps counters.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config);

    /**
     * Look up @p addr, allocating the line on miss.
     * @return true on hit.
     */
    bool access(std::uint64_t addr);

    /** Look up without allocating. */
    bool probe(std::uint64_t addr) const;

    /** Invalidate one line if present. @return true if it was there. */
    bool invalidate(std::uint64_t addr);

    /** Drop all contents (the paper's benches flush 256 MiB). */
    void flush();

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    void resetStats() { hitCount = missCount = 0; }

    unsigned numSets() const { return sets; }
    const CacheConfig &config() const { return cfg; }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    std::uint64_t lineOf(std::uint64_t addr) const;
    unsigned setOf(std::uint64_t line) const;

    CacheConfig cfg;
    unsigned sets;
    std::vector<Way> ways;  // sets * assoc, row-major by set
    std::uint64_t stamp = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

} // namespace upm::cache

#endif // UPM_CACHE_CACHE_HH
