/**
 * @file
 * The System: one simulated MI300A node running one process.
 *
 * Wires the full stack together -- the optional UPMSan / UPMInject /
 * UPMTrace hooks, geometry, per-socket frame-allocator shards, the
 * fabric, backing store, event calendar, address space, fault handler,
 * allocator registry, HIP runtime, profiling views -- in dependency
 * order, which is member declaration order. Every component receives
 * the one hooks() bundle through its constructor; nothing is attached
 * afterwards. Every probe, bench, example and workload starts by
 * constructing one of these.
 *
 * A node is one or more sockets (SystemConfig::numSockets). Each
 * socket contributes an Apu topology, one geometry-sized HBM shard,
 * an Infinity Cache and a NumaMeminfo view; sockets > 1 are joined by
 * the xGMI link model (fabric::Fabric), which the fault handler
 * (remote fault cost) and perf model (remote bandwidth mix) consult
 * through the hooks. With numSockets == 1 the fabric is never created,
 * the socket-cache list is empty, and the node degenerates to the
 * classic single-APU wiring, byte identical to the pre-socket System.
 */

#ifndef UPM_CORE_SYSTEM_HH
#define UPM_CORE_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/registry.hh"
#include "audit/auditor.hh"
#include "common/hooks.hh"
#include "core/apu.hh"
#include "core/socket.hh"
#include "fabric/fabric.hh"
#include "inject/injector.hh"
#include "core/calibration.hh"
#include "hip/runtime.hh"
#include "mem/backing_store.hh"
#include "mem/frame_allocator.hh"
#include "mem/geometry.hh"
#include "mem/node.hh"
#include "prof/counters.hh"
#include "prof/meminfo.hh"
#include "prof/perf.hh"
#include "prof/rocprof.hh"
#include "sched/calendar.hh"
#include "trace/tracer.hh"
#include "vm/address_space.hh"
#include "vm/fault_handler.hh"

namespace upm::core {

class Process;

/** One node (1..N APUs) + one process, fully wired. */
class System
{
  public:
    explicit System(const SystemConfig &config = {});

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    const SystemConfig &config() const { return cfg; }
    /** Socket 0's topology (the classic single-APU accessor). */
    const Apu &apu() const { return apuTopo; }

    mem::MemGeometry &geometry() { return geom; }
    /** Socket 0's HBM shard. On a one-socket node this is the whole
     *  physical memory, bit-identical to the legacy allocator; on a
     *  multi-socket node use node() for the global view. */
    mem::FrameAllocator &frames() { return node.shard(0); }
    /** The sharded node-wide physical memory (global frame ids). */
    mem::NodeMemory &nodeMemory() { return node; }
    mem::BackingStore &backing() { return backingStore; }
    vm::AddressSpace &addressSpace() { return as; }
    vm::FaultHandler &faultHandler() { return faults; }
    alloc::AllocatorRegistry &allocators() { return registry; }
    hip::Runtime &runtime() { return rt; }
    /** The discrete-event calendar every timed runtime operation posts
     *  completion events to (one FIFO queue per engine). */
    sched::EventCalendar &eventCalendar() { return calendar; }

    // ---- Sockets and the fabric ----------------------------------------
    unsigned numSockets() const { return node.numSockets(); }
    Socket &socket(unsigned s) { return *socketList[s]; }
    const Socket &socket(unsigned s) const { return *socketList[s]; }
    /** The xGMI link model, or null on a one-socket node. */
    fabric::Fabric *fabric() { return fab.get(); }
    const fabric::Fabric *fabric() const { return fab.get(); }

    prof::CounterRegistry &counters() { return counterRegistry; }
    /** Socket 0's NUMA meminfo view (see meminfo(unsigned)). */
    prof::NumaMeminfo &meminfo() { return numaMeminfo; }
    /** Socket @p s's NUMA meminfo view: its shard's frames and its
     *  stacks only, the way libnuma reports one node at a time. */
    prof::NumaMeminfo &meminfo(unsigned s) { return socketList[s]->meminfo; }
    prof::ProcessRss &rss() { return processRss; }

    /** The UPMSan auditor, or null when cfg.audit.enabled is false. */
    audit::Auditor *auditor() { return aud.get(); }
    const audit::Auditor *auditor() const { return aud.get(); }

    /** UPMInject, or null when cfg.inject.enabled is false. */
    inject::Injector *injector() { return inj.get(); }
    const inject::Injector *injector() const { return inj.get(); }

    /** UPMTrace, or null when cfg.trace.enabled is false. */
    trace::Tracer *tracer() { return trc.get(); }
    const trace::Tracer *tracer() const { return trc.get(); }

    /** The hook bundle every component of this node (and of every
     *  createProcess() process) is constructed with. */
    Hooks
    hooks() const
    {
        return {aud.get(), inj.get(), trc.get(), fab.get(), socketCaches};
    }

    /**
     * End-of-run whole-structure checks (cheap per-event hooks cannot
     * see them): full system/GPU page-table cross-check, the per-shard
     * frame leak scan, and -- on multi-socket nodes -- the cross-shard
     * ownership audit (every mapped frame busy in the socket that owns
     * its global id range). Call after the workload is done, before
     * reading auditor()->violations(). No-op when auditing is off.
     */
    void finalizeAudit();

    // ---- Multi-process serving (UPMServe) ------------------------------
    /**
     * Create an additional simulated process over this node's shared
     * shards: its own address space (in a fresh, never-recycled 64 GiB
     * VA window past the primary window), fault handler, allocator
     * registry and runtime, constructed with this System's hooks(). The
     * caller owns the Process and must destroy it before
     * the System. The primary addressSpace()/runtime() pair is
     * untouched -- single-process users are byte-identical.
     */
    std::unique_ptr<Process> createProcess();

    /** Live processes created through createProcess(), creation order
     *  (the primary address space is not a Process). */
    const std::vector<Process *> &processes() const { return procs; }

    /** Total processes ever created (monotonic; pids start at 1). */
    std::uint64_t processesCreated() const { return nextPid - 1; }

  private:
    friend class Process;
    void registerProcess(Process *process);
    void unregisterProcess(Process *process);

    // Declaration order is construction order: the hooks first, then
    // the node and its sockets, then the per-process components that
    // take hooks(). Destruction runs the other way, so the hooks
    // outlive every component that holds them.
    SystemConfig cfg;
    Apu apuTopo;
    mem::MemGeometry geom;
    /** Created only when tracing. */
    std::unique_ptr<trace::Tracer> trc;
    /** Created only when auditing is on. */
    std::unique_ptr<audit::Auditor> aud;
    /** Created only when injecting; traces its decisions. */
    std::unique_ptr<inject::Injector> inj;
    /** xGMI link model; created only when numSockets > 1 so a
     *  one-socket System never consults it (byte-identity). */
    std::unique_ptr<fabric::Fabric> fab;
    /** Per-socket HBM shards over the global frame space. */
    mem::NodeMemory node;
    /** Per-socket slices (Apu + shard ref + meminfo + Infinity Cache);
     *  unique_ptr because Socket carries a reference member. */
    std::vector<std::unique_ptr<Socket>> socketList;
    /** Every socket's Infinity Cache, in socket order; empty on a
     *  one-socket node, which keeps the single pooled cache model. */
    std::vector<const cache::InfinityCache *> socketCaches;
    mem::BackingStore backingStore;
    /** Per-System event calendar the runtime posts to. */
    sched::EventCalendar calendar;
    vm::AddressSpace as;
    vm::FaultHandler faults;
    alloc::AllocatorRegistry registry;
    hip::Runtime rt;
    prof::CounterRegistry counterRegistry;
    prof::NumaMeminfo numaMeminfo;
    prof::ProcessRss processRss;
    /** Live serving processes (owned by their creators), creation
     *  order -- finalizeAudit unions their page tables into the leak
     *  scan's mapped set. */
    std::vector<Process *> procs;
    /** Next pid; also indexes the next private VA window. */
    std::uint64_t nextPid = 1;
};

} // namespace upm::core

#endif // UPM_CORE_SYSTEM_HH
