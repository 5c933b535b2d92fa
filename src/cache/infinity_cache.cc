#include "cache/infinity_cache.hh"

#include <algorithm>

#include "common/log.hh"

namespace upm::cache {

InfinityCache::InfinityCache(const mem::MemGeometry &geometry,
                             const InfinityCacheConfig &config)
    : geom(geometry), cfg(config)
{
    if (cfg.capacityBytes % geom.numChannels() != 0)
        fatal("Infinity Cache capacity must divide across channels");
    sliceBytes = cfg.capacityBytes / geom.numChannels();
}

double
InfinityCache::hitFractionFromStackLoad(
    const std::vector<std::uint64_t> &pages_per_stack) const
{
    double covered = coveredBytes(pages_per_stack);
    double total = 0.0;
    for (std::uint64_t pages : pages_per_stack)
        total += static_cast<double>(pages) * mem::kPageSize;
    if (total == 0.0)
        return 1.0;
    return covered / total;
}

double
InfinityCache::coveredBytes(
    const std::vector<std::uint64_t> &pages_per_stack) const
{
    if (pages_per_stack.size() != geom.numStacks())
        panic("stack load vector has %zu entries, expected %u",
              pages_per_stack.size(), geom.numStacks());

    unsigned channels_per_stack = geom.numChannels() / geom.numStacks();
    double stack_capacity =
        static_cast<double>(sliceBytes) * channels_per_stack;

    double covered = 0.0;
    for (std::uint64_t pages : pages_per_stack) {
        double load = static_cast<double>(pages) * mem::kPageSize;
        covered += std::min(load, stack_capacity);
    }
    return covered;
}

} // namespace upm::cache
