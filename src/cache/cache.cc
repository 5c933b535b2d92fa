#include "cache/cache.hh"

#include "common/log.hh"
#include "common/units.hh"

namespace upm::cache {

SetAssocCache::SetAssocCache(const CacheConfig &config) : cfg(config)
{
    if (cfg.lineSize == 0 || !isPow2(cfg.lineSize))
        fatal("cache line size must be a power of two");
    if (cfg.assoc == 0)
        fatal("cache associativity must be nonzero");
    std::uint64_t lines = cfg.sizeBytes / cfg.lineSize;
    if (lines == 0 || lines % cfg.assoc != 0)
        fatal("cache size %llu not divisible into %u-way sets",
              static_cast<unsigned long long>(cfg.sizeBytes), cfg.assoc);
    sets = static_cast<unsigned>(lines / cfg.assoc);
    if (!isPow2(sets))
        fatal("cache set count must be a power of two");
    ways.resize(static_cast<std::size_t>(sets) * cfg.assoc);
}

std::uint64_t
SetAssocCache::lineOf(std::uint64_t addr) const
{
    return addr / cfg.lineSize;
}

unsigned
SetAssocCache::setOf(std::uint64_t line) const
{
    return static_cast<unsigned>(line & (sets - 1));
}

bool
SetAssocCache::access(std::uint64_t addr)
{
    std::uint64_t line = lineOf(addr);
    unsigned set = setOf(line);
    Way *base = &ways[static_cast<std::size_t>(set) * cfg.assoc];
    ++stamp;

    Way *victim = base;
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == line) {
            way.lru = stamp;
            ++hitCount;
            return true;
        }
        if (!way.valid) {
            victim = &way;
        } else if (victim->valid && way.lru < victim->lru) {
            victim = &way;
        }
    }
    victim->valid = true;
    victim->tag = line;
    victim->lru = stamp;
    ++missCount;
    return false;
}

bool
SetAssocCache::probe(std::uint64_t addr) const
{
    std::uint64_t line = lineOf(addr);
    unsigned set = setOf(line);
    const Way *base = &ways[static_cast<std::size_t>(set) * cfg.assoc];
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        if (base[w].valid && base[w].tag == line)
            return true;
    }
    return false;
}

bool
SetAssocCache::invalidate(std::uint64_t addr)
{
    std::uint64_t line = lineOf(addr);
    unsigned set = setOf(line);
    Way *base = &ways[static_cast<std::size_t>(set) * cfg.assoc];
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        if (base[w].valid && base[w].tag == line) {
            base[w].valid = false;
            return true;
        }
    }
    return false;
}

void
SetAssocCache::flush()
{
    for (auto &way : ways)
        way.valid = false;
}

} // namespace upm::cache
