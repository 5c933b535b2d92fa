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
    prev.assign(cfg.entries, 0);
    next.assign(cfg.entries, 0);
}

bool
FragTlb::lookup(Vpn vpn)
{
    // One unsigned compare per entry: vpn - base wraps past any span
    // when vpn < base, and nothing is below an invalid entry's span 0.
    for (std::size_t i = 0; i < base.size(); ++i) {
        if (vpn - base[i] < span[i]) {
            moveToFront(static_cast<std::uint32_t>(i));
            ++hitCount;
            return true;
        }
    }
    ++missCount;
    return false;
}

void
FragTlb::moveToFront(std::uint32_t i)
{
    if (i == head)
        return;
    next[prev[i]] = next[i];
    if (i == tail)
        tail = prev[i];
    else
        prev[next[i]] = prev[i];
    prev[head] = i;
    next[i] = head;
    head = i;
}

void
FragTlb::insert(Vpn vpn, Vpn frag_base, std::uint64_t frag_span)
{
    if (!isPow2(frag_span))
        panic("FragTlb insert: fragment span must be a power of two");
    if ((frag_base & (frag_span - 1)) != 0)
        panic("FragTlb insert: fragment base not aligned to its span");
    if (vpn < frag_base || vpn >= frag_base + frag_span)
        panic("FragTlb insert: vpn outside fragment");

    // Clamp to the aligned block of maxSpanPages containing vpn; the
    // fragment is aligned to its larger span, so it covers the block.
    std::uint64_t entry_span = frag_span;
    Vpn entry_base = frag_base;
    if (entry_span > cfg.maxSpanPages) {
        entry_span = cfg.maxSpanPages;
        entry_base = vpn & ~static_cast<Vpn>(entry_span - 1);
    }

    // The lowest-index invalid entry first, else the LRU tail.
    std::uint32_t victim;
    if (filled < base.size()) {
        victim = filled++;
        if (victim == 0)
            tail = 0;
        else
            prev[head] = victim;
        next[victim] = head;
        head = victim;
    } else {
        victim = tail;
        moveToFront(victim);
    }
    base[victim] = entry_base;
    span[victim] = entry_span;
}

void
FragTlb::flush()
{
    std::fill(span.begin(), span.end(), 0);
    filled = 0;
}

} // namespace upm::tlb
