#include "uvm/uvm.hh"

#include <algorithm>

#include "common/log.hh"
#include "mem/geometry.hh"
#include "policy/engine.hh"

namespace upm::uvm {

namespace {

/** End of the stretch of pages that share page @p first's residency,
 *  capped at @p last. */
std::uint64_t
stretchEnd(const std::vector<Residency> &residency, std::uint64_t first,
           std::uint64_t last)
{
    std::uint64_t end = first + 1;
    while (end < last && residency[end] == residency[first])
        ++end;
    return end;
}

/** Set the residency of pages [first, first + n). One page, the common
 *  case under Random eviction, is a store, not a call to memset. */
void
setResidency(std::vector<Residency> &residency, std::uint64_t first,
             std::uint64_t n, Residency to)
{
    if (n == 1)
        residency[first] = to;
    else
        std::fill_n(residency.begin() + first, n, to);
}

/** Fatal, naming @p who, when [offset, offset + bytes) reaches past the
 *  @p pages pages of a region -- a range that wraps past 2^64
 *  included. */
void
checkRange(std::uint64_t pages, std::uint64_t offset, std::uint64_t bytes,
           const char *who)
{
    const std::uint64_t size = pages * mem::kPageSize;
    if (offset > size || bytes > size - offset)
        fatal("%s access beyond managed region", who);
}

} // namespace

UvmSimulator::UvmSimulator(std::uint64_t device_memory_bytes,
                           const UvmCosts &costs)
    : UvmSimulator(device_memory_bytes, policy::EvictionKind::Lru, 0,
                   nullptr, costs)
{
}

UvmSimulator::UvmSimulator(std::uint64_t device_memory_bytes,
                           policy::EvictionKind eviction,
                           std::uint64_t seed,
                           policy::PolicyEngine *engine,
                           const UvmCosts &costs)
    : cost(costs), capacityPages(device_memory_bytes / mem::kPageSize),
      victims(policy::makeEviction(eviction, seed)), pol(engine)
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
    const Region &region = it->second;
    for (std::uint64_t p = 0; p < region.pages;) {
        std::uint64_t end = stretchEnd(region.residency, p, region.pages);
        if (region.residency[p] == Residency::Device) {
            victims->removeRun(handle, p, end - p);
            residentPages -= end - p;
        }
        p = end;
    }
    if (pol != nullptr) {
        for (std::uint64_t p = 0; p < region.pages; ++p)
            pol->noteRemoved({handle, p});
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
UvmSimulator::evictRun(Region &region, std::uint64_t handle,
                       const policy::PageRun &run)
{
    Region *owner = &region;
    if (run.space != handle) {
        auto it = regions.find(run.space);
        owner = it == regions.end() ? nullptr : &it->second;
    }
    if (owner != nullptr)
        setResidency(owner->residency, run.first, run.n, Residency::Host);
    residentPages -= run.n;
    toHost += run.n;
    evicted += run.n;
}

void
UvmSimulator::pageIn(Region &region, std::uint64_t handle,
                     std::uint64_t first, std::uint64_t n)
{
    // Migration only promotes into free capacity, so residency never
    // exceeds capacity: one victim per page once the room is used up.
    const std::uint64_t room =
        capacityPages > residentPages ? capacityPages - residentPages : 0;
    victims->admitRun(handle, first, n, tick, room, evictedRuns);
    toDevice += n;
    if (pol == nullptr) {
        // A victim of the run's own pages went in before it left.
        setResidency(region.residency, first, n, Residency::Device);
        residentPages += n;
        for (const policy::PageRun &run : evictedRuns)
            evictRun(region, handle, run);
        return;
    }
    // The hooks see the per-page order: victim j leaves just before
    // page room + j goes in.
    std::uint64_t in = 0, j = 0;
    auto admitUpTo = [&](std::uint64_t end) {
        for (; in < end; ++in) {
            region.residency[first + in] = Residency::Device;
            ++residentPages;
            pol->noteResident({handle, first + in}, policy::Tier::Fast);
        }
    };
    for (const policy::PageRun &run : evictedRuns) {
        for (std::uint64_t q = run.first; q < run.first + run.n; ++q) {
            admitUpTo(room + j++);
            evictRun(region, handle, {run.space, q, 1});
            pol->noteEvicted({run.space, q}, residentPages);
            // The page is still allocated, just host-resident again.
            pol->noteResident({run.space, q}, policy::Tier::Slow);
        }
    }
    admitUpTo(n);
}

SimTime
UvmSimulator::gpuAccess(std::uint64_t handle, std::uint64_t offset,
                        std::uint64_t bytes)
{
    auto it = regions.find(handle);
    if (it == regions.end())
        panic("GPU access to unknown managed region");
    Region &region = it->second;
    checkRange(region.pages, offset, bytes, "GPU");
    std::uint64_t first = offset / mem::kPageSize;
    std::uint64_t last = ceilDiv(offset + bytes, mem::kPageSize);

    ++tick;
    if (pol != nullptr)
        pol->advanceTick();
    std::uint64_t faulted = 0;
    for (std::uint64_t p = first; p < last;) {
        std::uint64_t end = stretchEnd(region.residency, p, last);
        if (region.residency[p] == Residency::Device) {
            victims->touchRun(handle, p, end - p, tick);
        } else {
            pageIn(region, handle, p, end - p);
            faulted += end - p;
        }
        p = end;
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
    checkRange(region.pages, offset, bytes, "CPU");
    std::uint64_t first = offset / mem::kPageSize;
    std::uint64_t last = ceilDiv(offset + bytes, mem::kPageSize);

    ++tick;
    if (pol != nullptr)
        pol->advanceTick();
    std::uint64_t migrated = 0;
    for (std::uint64_t p = first; p < last;) {
        std::uint64_t end = stretchEnd(region.residency, p, last);
        if (region.residency[p] == Residency::Device) {
            victims->removeRun(handle, p, end - p);
            for (std::uint64_t q = p; q < end; ++q) {
                region.residency[q] = Residency::Host;
                if (pol != nullptr)
                    pol->noteResident({handle, q}, policy::Tier::Slow);
            }
            migrated += end - p;
        }
        p = end;
    }
    residentPages -= migrated;
    toHost += migrated;
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
            victims->admitRun(action.key.space, action.key.page, 1, tick,
                              1, evictedRuns);
            ++residentPages;
            ++toDevice;
            pol->noteMigrated(action.key, policy::Tier::Fast);
        } else {
            if (current == Residency::Host)
                continue;
            region.residency[action.key.page] = Residency::Host;
            victims->removeRun(action.key.space, action.key.page, 1);
            --residentPages;
            ++toHost;
            pol->noteMigrated(action.key, policy::Tier::Slow);
        }
        ++moved;
    }
    return migrationTime(moved);
}

} // namespace upm::uvm
