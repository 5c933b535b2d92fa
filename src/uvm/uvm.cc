#include "uvm/uvm.hh"

#include "common/log.hh"
#include "mem/geometry.hh"
#include "policy/engine.hh"

namespace upm::uvm {

UvmSimulator::UvmSimulator(std::uint64_t device_memory_bytes,
                           const UvmCosts &costs)
    : UvmSimulator(device_memory_bytes, policy::EvictionKind::Lru, 0,
                   costs)
{
}

UvmSimulator::UvmSimulator(std::uint64_t device_memory_bytes,
                           policy::EvictionKind eviction,
                           std::uint64_t seed, const UvmCosts &costs)
    : cost(costs), capacityPages(device_memory_bytes / mem::kPageSize),
      victims(policy::makeEviction(eviction, seed))
{
    if (capacityPages == 0)
        fatal("UVM device memory must hold at least one page");
}

std::uint64_t
UvmSimulator::allocManaged(std::uint64_t bytes)
{
    if (bytes == 0)
        fatal("managed allocation of zero bytes");
    Region region;
    region.pages = ceilDiv(bytes, mem::kPageSize);
    region.residency.assign(region.pages, Residency::Host);
    std::uint64_t handle = nextHandle++;
    if (pol != nullptr) {
        for (std::uint64_t p = 0; p < region.pages; ++p)
            pol->noteResident({handle, p}, policy::Tier::Slow);
    }
    regions.emplace(handle, std::move(region));
    return handle;
}

void
UvmSimulator::freeManaged(std::uint64_t handle)
{
    auto it = regions.find(handle);
    if (it == regions.end())
        panic("free of unknown managed region %llu",
              static_cast<unsigned long long>(handle));
    for (std::uint64_t p = 0; p < it->second.pages; ++p) {
        auto key = policy::PageKey{handle, p};
        if (it->second.residency[p] == Residency::Device) {
            victims->remove(key);
            --residentPages;
        }
        if (pol != nullptr)
            pol->noteRemoved(key);
    }
    regions.erase(it);
}

SimTime
UvmSimulator::migrationTime(std::uint64_t pages) const
{
    if (pages == 0)
        return 0.0;
    std::uint64_t batches = ceilDiv(pages, cost.faultBatchPages);
    return static_cast<double>(batches) * cost.faultBatchOverhead +
           static_cast<double>(pages) * cost.perPageOverhead +
           static_cast<double>(pages * mem::kPageSize) /
               cost.linkBandwidth;
}

void
UvmSimulator::evictOne()
{
    if (victims->size() == 0)
        panic("UVM eviction with empty device memory");
    policy::PageKey victim = victims->evict();
    auto it = regions.find(victim.space);
    if (it != regions.end())
        it->second.residency[victim.page] = Residency::Host;
    --residentPages;
    ++toHost;
    ++evicted;
    if (pol != nullptr) {
        pol->noteEvicted(victim, residentPages);
        // The page is still allocated, just host-resident again.
        pol->noteResident(victim, policy::Tier::Slow);
    }
}

void
UvmSimulator::pageInToDevice(std::uint64_t handle, std::uint64_t page)
{
    while (residentPages >= capacityPages)
        evictOne();
    auto key = policy::PageKey{handle, page};
    victims->insert(key, tick);
    ++residentPages;
    ++toDevice;
    if (pol != nullptr)
        pol->noteResident(key, policy::Tier::Fast);
}

void
UvmSimulator::pageOutToHost(Region &region, policy::PageKey key)
{
    region.residency[key.page] = Residency::Host;
    victims->remove(key);
    --residentPages;
    ++toHost;
    if (pol != nullptr)
        pol->noteResident(key, policy::Tier::Slow);
}

SimTime
UvmSimulator::gpuAccess(std::uint64_t handle, std::uint64_t offset,
                        std::uint64_t bytes)
{
    auto it = regions.find(handle);
    if (it == regions.end())
        panic("GPU access to unknown managed region");
    Region &region = it->second;
    std::uint64_t first = offset / mem::kPageSize;
    std::uint64_t last = ceilDiv(offset + bytes, mem::kPageSize);
    if (last > region.pages)
        fatal("GPU access beyond managed region");

    ++tick;
    if (pol != nullptr)
        pol->advanceTick();
    std::uint64_t faulted = 0;
    for (std::uint64_t p = first; p < last; ++p) {
        if (region.residency[p] == Residency::Device) {
            victims->touch({handle, p}, tick);
        } else {
            region.residency[p] = Residency::Device;
            pageInToDevice(handle, p);
            ++faulted;
        }
    }
    if (pol != nullptr)
        pol->noteAccessRange(handle, first, last - first);
    return migrationTime(faulted) +
           static_cast<double>(bytes) / cost.deviceBandwidth;
}

SimTime
UvmSimulator::cpuAccess(std::uint64_t handle, std::uint64_t offset,
                        std::uint64_t bytes)
{
    auto it = regions.find(handle);
    if (it == regions.end())
        panic("CPU access to unknown managed region");
    Region &region = it->second;
    std::uint64_t first = offset / mem::kPageSize;
    std::uint64_t last = ceilDiv(offset + bytes, mem::kPageSize);
    if (last > region.pages)
        fatal("CPU access beyond managed region");

    ++tick;
    if (pol != nullptr)
        pol->advanceTick();
    std::uint64_t migrated = 0;
    for (std::uint64_t p = first; p < last; ++p) {
        if (region.residency[p] == Residency::Device) {
            pageOutToHost(region, {handle, p});
            ++migrated;
        }
    }
    if (pol != nullptr)
        pol->noteAccessRange(handle, first, last - first);
    return migrationTime(migrated) +
           static_cast<double>(bytes) / cost.hostBandwidth;
}

SimTime
UvmSimulator::migrationStep()
{
    if (pol == nullptr)
        return 0.0;
    if (!pol->migrates())
        return 0.0;
    std::uint64_t moved = 0;
    for (const auto &action : pol->migrationStep()) {
        auto it = regions.find(action.key.space);
        if (it == regions.end())
            continue;  // proposal raced a free; drop it
        Region &region = it->second;
        if (action.key.page >= region.pages)
            continue;
        Residency current = region.residency[action.key.page];
        if (action.to == policy::Tier::Fast) {
            // Promotion: only into free capacity -- migration is an
            // optimisation and must never force demand evictions.
            if (current == Residency::Device ||
                residentPages >= capacityPages)
                continue;
            region.residency[action.key.page] = Residency::Device;
            victims->insert(action.key, tick);
            ++residentPages;
            ++toDevice;
            pol->noteMigrated(action.key, policy::Tier::Fast);
        } else {
            if (current == Residency::Host)
                continue;
            region.residency[action.key.page] = Residency::Host;
            victims->remove(action.key);
            --residentPages;
            ++toHost;
            pol->noteMigrated(action.key, policy::Tier::Slow);
        }
        ++moved;
    }
    return migrationTime(moved);
}

} // namespace upm::uvm
