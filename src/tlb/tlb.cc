#include "tlb/tlb.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/units.hh"

namespace upm::tlb {

FragTlb::FragTlb(const FragTlbConfig &config) : cfg(config)
{
    if (cfg.entries == 0)
        fatal("FragTlb needs at least one entry");
    if (cfg.maxSpanPages == 0 || !isPow2(cfg.maxSpanPages))
        fatal("FragTlb max span must be a power of two");
    base.assign(cfg.entries, 0);
    span.assign(cfg.entries, 0);
    lru.assign(cfg.entries, 0);
}

bool
FragTlb::lookup(Vpn vpn)
{
    ++stamp;
    // One unsigned compare per entry: vpn - base wraps past any span
    // when vpn < base, and nothing is below an invalid entry's span 0.
    for (std::size_t i = 0; i < base.size(); ++i) {
        if (vpn - base[i] < span[i]) {
            lru[i] = stamp;
            ++hitCount;
            return true;
        }
    }
    ++missCount;
    return false;
}

void
FragTlb::insert(Vpn vpn, Vpn frag_base, std::uint64_t frag_span)
{
    if (frag_span == 0)
        panic("FragTlb insert with zero span");
    if (vpn < frag_base || vpn >= frag_base + frag_span)
        panic("FragTlb insert: vpn outside fragment");

    // Clamp to the aligned block of maxSpanPages containing vpn. The
    // fragment is pow2-aligned by construction, so the clamped block is
    // fully covered by the same fragment.
    std::uint64_t entry_span = frag_span;
    Vpn entry_base = frag_base;
    if (entry_span > cfg.maxSpanPages) {
        entry_span = cfg.maxSpanPages;
        entry_base = vpn & ~static_cast<Vpn>(entry_span - 1);
    }

    // LRU victim; the first invalid entry (lru 0) wins.
    auto victim = static_cast<std::size_t>(
        std::min_element(lru.begin(), lru.end()) - lru.begin());
    ++stamp;
    base[victim] = entry_base;
    span[victim] = entry_span;
    lru[victim] = stamp;
}

void
FragTlb::flush()
{
    std::fill(span.begin(), span.end(), 0);
    std::fill(lru.begin(), lru.end(), 0);
}

PlainTlb::PlainTlb(const PlainTlbConfig &config) : cfg(config)
{
    if (cfg.entries == 0 || cfg.assoc == 0 || cfg.entries % cfg.assoc != 0)
        fatal("PlainTlb entries must divide into ways");
    sets = cfg.entries / cfg.assoc;
    // Round sets down to a power of two for cheap indexing.
    while (!isPow2(sets))
        --sets;
    ways.resize(static_cast<std::size_t>(sets) * cfg.assoc);
}

bool
PlainTlb::access(Vpn vpn)
{
    unsigned set = static_cast<unsigned>(vpn & (sets - 1));
    Way *base = &ways[static_cast<std::size_t>(set) * cfg.assoc];
    ++stamp;
    Way *victim = base;
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == vpn) {
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
    victim->tag = vpn;
    victim->lru = stamp;
    ++missCount;
    return false;
}

void
PlainTlb::flush()
{
    for (auto &way : ways)
        way.valid = false;
}

} // namespace upm::tlb
