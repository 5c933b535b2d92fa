#include "core/process.hh"

#include <vector>

#include "core/system.hh"

namespace upm::core {

namespace {

/** Per-process fault-jitter seed: derived from the pid through
 *  SplitMix64 so every process prices faults from its own stream,
 *  reproducibly, without touching the System's handler. */
std::uint64_t
faultSeedFor(std::uint64_t pid)
{
    SplitMix64 mix(0xfa17'0000'0000'0000ull ^ pid);
    return mix.next();
}

} // namespace

Process::Process(System &system, std::uint64_t pid, vm::VirtAddr va_base,
                 vm::VirtAddr va_end)
    : sys(system), id(pid),
      as(system.nodeMemory().shard(0), backingStore),
      faults(system.config().faults, faultSeedFor(pid)), registry(as),
      rt(as, registry, faults, system.config(), system.geometry())
{
    as.setVaWindow(va_base, va_end);
    rt.setCalendar(&calendar);
    // Mirror the System's own wiring (system.cc): shards + fabric on
    // multi-socket nodes, then the shared aud/inj/trc hooks. The node
    // itself already holds those hooks; only per-process components
    // are wired here.
    if (sys.numSockets() > 1) {
        as.setNode(&sys.nodeMemory());
        faults.setFabric(sys.fabric());
        rt.perf().setFabric(sys.fabric(),
                            sys.nodeMemory().framesPerSocket());
        std::vector<const cache::InfinityCache *> caches;
        caches.reserve(sys.numSockets());
        for (unsigned s = 0; s < sys.numSockets(); ++s)
            caches.push_back(&sys.socket(s).icache);
        rt.perf().setSocketCaches(std::move(caches));
    }
    if (audit::Auditor *aud = sys.auditor()) {
        as.setAuditor(aud);
        registry.setAuditor(aud);
        rt.setAuditor(aud);
    }
    if (inject::Injector *inj = sys.injector()) {
        faults.setInjector(inj);
        rt.setInjector(inj);
    }
    if (trace::Tracer *tr = sys.tracer()) {
        as.setTracer(tr); // wires the HMM mirror too
        faults.setTracer(tr);
        rt.setTracer(tr); // wires the perf model too
    }
    sys.registerProcess(this);
}

Process::~Process()
{
    reclaim();
    sys.unregisterProcess(this);
}

std::uint64_t
Process::residentPages() const
{
    std::uint64_t pages = as.systemTable().presentCount();
    as.forEachVma([&](const vm::Vma &vma) {
        for (const auto &replica : vma.replicaRanges)
            pages += replica.count;
    });
    return pages;
}

std::uint64_t
Process::reclaim()
{
    std::uint64_t pages = residentPages();
    rt.releaseAll();
    // Stragglers: VMAs mapped directly on the address space (arena
    // experiments, partially unwound crashes). munmapChecked routes
    // every frame through the same audited free paths.
    std::vector<vm::VirtAddr> bases;
    as.forEachVma(
        [&](const vm::Vma &vma) { bases.push_back(vma.base); });
    for (vm::VirtAddr base : bases)
        as.munmapChecked(base);
    return pages;
}

} // namespace upm::core
