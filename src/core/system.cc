#include "core/system.hh"

#include <algorithm>

#include "common/log.hh"
#include "core/process.hh"

namespace upm::core {

namespace {

/**
 * Private VA windows for serving processes: 64 GiB each, starting
 * 1 TiB past the primary address space's mmap base so they can never
 * collide with it. Windows are handed out monotonically and NEVER
 * recycled -- UPMSan's VA shadow is keyed by raw address node-wide,
 * and a reused window would read as overlap / use-after-free. The
 * 64-bit address space fits ~2^27 such windows; a soak would take
 * years to exhaust them.
 */
constexpr vm::VirtAddr kProcessVaBase =
    0x7f00'0000'0000ull + 1 * TiB;
constexpr std::uint64_t kProcessVaSpan = 64 * GiB;

} // namespace

System::System(const SystemConfig &config)
    : cfg(config), apuTopo(cfg), geom(cfg.geometry),
      node(geom, cfg.frames, cfg.numSockets),
      as(node.shard(0), backingStore), faults(cfg.faults), registry(as),
      rt(as, registry, faults, cfg, geom), numaMeminfo(node.shard(0)),
      processRss(as)
{
    rt.setCalendar(&calendar);
    socketList.reserve(node.numSockets());
    for (unsigned s = 0; s < node.numSockets(); ++s) {
        socketList.push_back(
            std::make_unique<Socket>(cfg, s, node.shard(s)));
    }
    if (node.numSockets() > 1) {
        // The fabric exists only on multi-socket nodes; every consumer
        // keeps a null default so the one-socket wiring stays byte
        // identical to the pre-socket System.
        fab = std::make_unique<fabric::Fabric>(cfg.fabric,
                                               node.numSockets());
        as.setNode(&node);
        faults.setFabric(fab.get());
        rt.perf().setFabric(fab.get(), node.framesPerSocket());
        // Per-socket Infinity Caches: each shard's working-set slice
        // is covered by its own socket's 256 MiB, not a pooled cache.
        std::vector<const cache::InfinityCache *> caches;
        caches.reserve(socketList.size());
        for (const auto &socket : socketList)
            caches.push_back(&socket->icache);
        rt.perf().setSocketCaches(std::move(caches));
    }
    if (cfg.audit.enabled) {
        aud = std::make_unique<audit::Auditor>(cfg.audit);
        node.setAuditor(aud.get());
        as.setAuditor(aud.get());
        registry.setAuditor(aud.get());
        rt.setAuditor(aud.get());
    }
    if (cfg.inject.enabled) {
        inj = std::make_unique<inject::Injector>(cfg.inject);
        node.setInjector(inj.get());
        faults.setInjector(inj.get());
        rt.setInjector(inj.get());
    }
    if (cfg.trace.enabled) {
        trc = std::make_unique<trace::Tracer>(cfg.trace);
        trc->setClock(&rt.clock());
        node.setTracer(trc.get());
        as.setTracer(trc.get());  // wires the HMM mirror too
        faults.setTracer(trc.get());
        rt.setTracer(trc.get());  // wires the perf model too
        if (inj)
            inj->setTracer(trc.get());
    }
}

std::unique_ptr<Process>
System::createProcess()
{
    std::uint64_t pid = nextPid++;
    vm::VirtAddr base = kProcessVaBase + (pid - 1) * kProcessVaSpan;
    return std::make_unique<Process>(*this, pid, base,
                                     base + kProcessVaSpan);
}

void
System::registerProcess(Process *process)
{
    procs.push_back(process);
}

void
System::unregisterProcess(Process *process)
{
    auto it = std::find(procs.begin(), procs.end(), process);
    if (it == procs.end())
        panic("unregisterProcess: unknown process");
    procs.erase(it);
}

void
System::finalizeAudit()
{
    if (!aud)
        return;
    std::vector<bool> mapped(node.totalFrames(), false);
    // The shards are shared: the mapped set is the union over the
    // primary address space and every live serving process.
    auto fold = [&](const vm::AddressSpace &space) {
        space.systemTable().forEachRun(
            0, ~0ull, [&](const vm::PteRun &run) {
                for (std::uint64_t i = 0; i < run.len; ++i) {
                    vm::FrameId f = run.frameOf(run.vpn + i);
                    if (f < mapped.size())
                        mapped[f] = true;
                }
            });
        // ReplicateRO replica frames live outside every page table
        // (only the home copy is mapped); they still legitimately own
        // their frames until munmap, so mark them before the leak
        // scan.
        space.forEachVma([&](const vm::Vma &vma) {
            for (const auto &range : vma.replicaRanges) {
                for (std::uint64_t i = 0; i < range.count; ++i) {
                    if (range.base + i < mapped.size())
                        mapped[range.base + i] = true;
                }
            }
        });
    };
    as.auditMirrorConsistency(*aud);
    fold(as);
    for (Process *proc : procs) {
        proc->addressSpace().auditMirrorConsistency(*aud);
        fold(proc->addressSpace());
    }
    node.auditLeaks(mapped, *aud);
    if (node.numSockets() > 1)
        node.auditCrossShard(mapped, *aud);
}

} // namespace upm::core
