/**
 * @file
 * UPMTrace event model.
 *
 * Every simulator layer emits typed events onto the trace bus (see
 * tracer.hh). An event is deliberately flat -- a layer, a kind, up to
 * five integer arguments, one scalar, and an optional detail string --
 * so the ring-buffer sink can pack it into a fixed-size binary record
 * and the Chrome exporter can render it with per-kind argument names.
 * All timestamps are *simulated* nanoseconds, stamped from the owning
 * System's host clock, so a trace is a pure function of the simulated
 * execution: bit-identical at any worker count, with tracing on or off
 * having no effect on the simulation itself.
 */

#ifndef UPM_TRACE_EVENT_HH
#define UPM_TRACE_EVENT_HH

#include <cstdint>
#include <string>

#include "common/units.hh"

namespace upm::trace {

/** The simulated engine (track) an event belongs to. */
enum class Layer : std::uint8_t {
    Vm,      //!< address space, page tables, HMM, fault handler
    Mem,     //!< frame allocator / buddy system
    Cache,   //!< set-associative caches and the Infinity Cache model
    Hip,     //!< runtime: allocators, memcpy/SDMA, kernel launches
    Inject,  //!< UPMInject decisions
    Exec,    //!< sweep-task boundaries
    Serve,   //!< UPMServe: requests, admission, degradation
};

inline constexpr unsigned kNumLayers = 7;

/** layerBit() of every layer set (TraceConfig's default mask). */
inline constexpr std::uint32_t kAllLayersMask = (1u << kNumLayers) - 1;

const char *layerName(Layer layer);

/** Bit for @p layer in a TraceConfig::layerMask. */
constexpr std::uint32_t
layerBit(Layer layer)
{
    return 1u << static_cast<unsigned>(layer);
}

/** Every event kind on the bus, grouped by emitting layer. */
enum class EventKind : std::uint8_t {
    // vm: AddressSpace / HmmMirror / FaultHandler
    VmaMap,        //!< a=base, b=bytes, c=placement, d=policy bits
    VmaUnmap,      //!< a=base, b=bytes, c=begin vpn, d=end vpn
    ExtentMap,     //!< a=vpn, b=pages, c=frame, d=1 if scatter-sourced
    Populate,      //!< a=base, b=pages populated
    CpuFault,      //!< a=first vpn, b=pages faulted
    GpuFault,      //!< a=first vpn, b=pages, c=GpuFaultKind
    HmmMirror,     //!< a=begin vpn, b=end vpn, c=ptes propagated
    HmmInvalidate, //!< a=begin vpn, b=end vpn, c=ptes invalidated
    FaultService,  //!< a=type, b=pages, c=retries, d=replays, e=status,
                   //!< value=service time (ns)
    ColdFault,     //!< a=type, value=sampled cold latency (ns)

    // mem: FrameAllocator
    FrameAlloc,    //!< a=base frame, b=count, c=allocation path
    FrameFree,     //!< a=base frame, b=count
    BuddySplit,    //!< a=block base frame, b=resulting order
    PoolRefill,    //!< a=base frame, b=count, c=0 on-demand / 1 stack

    // cache: IcQuery comes from hip::PerfModel. CacheHit/Fill/Evict
    // have no emitter; they keep their ids and names so older dumps
    // still decode.
    CacheHit,      //!< a=line address
    CacheFill,     //!< a=line address (miss that allocated)
    CacheEvict,    //!< a=victim line address, b=new line address
    IcQuery,       //!< a=pages present, b=bytes, value=hit fraction

    // hip: Runtime
    AllocCall,     //!< a=ptr, b=bytes, c=allocator kind, d=status
    FreeCall,      //!< a=ptr, b=status
    Memcpy,        //!< a=dst, b=src, c=bytes, d=CopyPath, e=async,
                   //!< value=transfer time (ns)
    KernelLaunch,  //!< a=buffer count, value=duration (ns)

    // inject: Injector
    InjectDecision, //!< a=site, b=global sequence, c=per-site decision

    // exec: sweep-task boundaries
    TaskBegin,     //!< a=task index
    TaskEnd,       //!< a=task index

    // Multi-socket events (appended so packed kind ids stay stable).
    PagePlace,     //!< a=vpn, b=pages, c=owner socket, d=SocketPolicy
                   //!< (vm layer: node-routed page placement)
    RemoteAccess,  //!< a=access socket, b=remote pages, c=far pages,
                   //!< value=mean xGMI hops (hip layer: region profile
                   //!< crossed the fabric)

    // UPMServe events (appended so packed kind ids stay stable).
    RequestBegin,  //!< a=request id, b=tenant, c=kind, d=attempt
    RequestEnd,    //!< a=request id, b=tenant, c=status, d=retries,
                   //!< value=latency (ns)
    RequestShed,   //!< a=request id, b=tenant, c=status (reject vs
                   //!< deadline), d=queue depth
    Degrade,       //!< a=tier entered, b=pages reclaimed, c=processes
                   //!< affected, value=memory pressure [0,1]
    ProcessSpawn,  //!< a=pid, b=tenant, c=live processes
    ProcessExit,   //!< a=pid, b=tenant, c=1 if crash-killed,
                   //!< d=pages reclaimed

    // UPMPolicy events (appended so packed kind ids stay stable).
    // Emitted into the vm layer: policy decisions are placement /
    // residency decisions, and a new Layer would change
    // kAllLayersMask and every layer-filter surface.
    PolicyPlace,   //!< no longer emitted; slot kept for old dumps
    PolicyMigrate, //!< a=space, b=page, c=destination tier,
                   //!< d=MigrationKind
    PolicyEvict,   //!< a=space, b=victim page, c=EvictionKind,
                   //!< d=resident pages after eviction
};

const char *eventKindName(EventKind kind);

/** The layer an event kind is emitted from. */
Layer layerOf(EventKind kind);

/** Allocation paths recorded in FrameAlloc events (field c). */
enum class AllocPath : std::uint8_t {
    Run,
    Scattered,
    Batch,
    Interleaved,
};

/** One event on the bus. */
struct TraceEvent
{
    /** Simulated time (ns) on the owning System's host clock. */
    SimTime time = 0.0;
    /** Per-tracer sequence number (0-based, across all layers). */
    std::uint64_t seq = 0;
    Layer layer = Layer::Vm;
    EventKind kind = EventKind::VmaMap;
    /** Socket the emitting engine ran on (0 on single-socket nodes;
     *  mem events stamp the owning shard, vm/hip events the accessing
     *  socket). */
    std::uint8_t socket = 0;
    std::uint64_t a = 0, b = 0, c = 0, d = 0, e = 0;
    double value = 0.0;
    /** Free-form context (VMA / kernel / site name); dropped by the
     *  binary ring-buffer sink. */
    std::string detail;

    bool operator==(const TraceEvent &) const = default;
};

/** Per-kind argument names, for human-readable exports. Returns the
 *  name of integer argument @p index (0=a .. 4=e), or null when the
 *  kind does not use that slot. */
const char *argName(EventKind kind, unsigned index);

/** Name of the `value` field for @p kind, or null when unused. */
const char *valueName(EventKind kind);

} // namespace upm::trace

#endif // UPM_TRACE_EVENT_HH
