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

std::vector<std::unique_ptr<Socket>>
makeSockets(const SystemConfig &cfg, mem::NodeMemory &node)
{
    std::vector<std::unique_ptr<Socket>> sockets;
    sockets.reserve(node.numSockets());
    for (unsigned s = 0; s < node.numSockets(); ++s)
        sockets.push_back(std::make_unique<Socket>(cfg, s, node.shard(s)));
    return sockets;
}

/** Per-socket Infinity Caches on a multi-socket node: each shard's
 *  working-set slice is covered by its own socket's 256 MiB, not a
 *  pooled cache. Empty on one socket (the single-cache model). */
std::vector<const cache::InfinityCache *>
multiSocketCaches(const std::vector<std::unique_ptr<Socket>> &sockets)
{
    std::vector<const cache::InfinityCache *> caches;
    if (sockets.size() > 1) {
        for (const auto &socket : sockets)
            caches.push_back(&socket->icache);
    }
    return caches;
}

} // namespace

System::System(const SystemConfig &config)
    : cfg(config), apuTopo(cfg), geom(cfg.geometry),
      trc(cfg.trace.enabled ? std::make_unique<trace::Tracer>(cfg.trace)
                            : nullptr),
      aud(cfg.audit.enabled ? std::make_unique<audit::Auditor>(cfg.audit)
                            : nullptr),
      inj(cfg.inject.enabled
              ? std::make_unique<inject::Injector>(cfg.inject,
                                                   Hooks{.tr = trc.get()})
              : nullptr),
      fab(cfg.numSockets > 1
              ? std::make_unique<fabric::Fabric>(cfg.fabric, cfg.numSockets)
              : nullptr),
      // The shards use only the observer hooks; the socket caches
      // listed in hooks() are built over the shards.
      node(geom, cfg.frames, cfg.numSockets,
           {aud.get(), inj.get(), trc.get()}),
      socketList(makeSockets(cfg, node)),
      socketCaches(multiSocketCaches(socketList)),
      as(node, backingStore, hooks()),
      faults(cfg.faults, vm::FaultHandler::kDefaultSeed, hooks()),
      registry(as, hooks()),
      rt(as, registry, faults, calendar, cfg, geom, hooks()),
      numaMeminfo(node.shard(0)), processRss(as)
{
    if (trc)
        trc->setClock(&rt.clock());
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
