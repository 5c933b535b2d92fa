#include "hip/runtime.hh"

#include <algorithm>
#include <cstring>

#include "audit/auditor.hh"
#include "common/log.hh"
#include "inject/injector.hh"
#include "sched/calendar.hh"
#include "trace/tracer.hh"

namespace upm::hip {

namespace {

/** Race-detector agent ids: the host is agent 0, stream s is s+1. */
unsigned
agentOf(const Stream &stream)
{
    return stream.id() + 1;
}

} // namespace

Runtime::Runtime(vm::AddressSpace &address_space,
                 alloc::AllocatorRegistry &allocator_registry,
                 vm::FaultHandler &fault_handler,
                 sched::EventCalendar &calendar,
                 const core::SystemConfig &config,
                 const mem::MemGeometry &geometry, const Hooks &hooks)
    : as(address_space), registry(allocator_registry),
      faults(fault_handler), cal(calendar), cfg(config),
      perfModel(config, geometry, hooks),
      copyEngine(config.bandwidth, config.sdmaEnabled, hooks), stream0(0),
      aud(hooks.aud), inj(hooks.inj), tr(hooks.tr)
{
    as.setXnack(cfg.xnack);
}

void
Runtime::auditAccess(unsigned agent, DevPtr ptr, std::uint64_t bytes,
                     bool is_write, const char *site)
{
    if (aud == nullptr || bytes == 0)
        return;
    const vm::Vma *vma = as.findVma(ptr);
    if (vma == nullptr)
        return;  // the caller is about to fatal() anyway
    vm::Vpn first = vm::vpnOf(ptr);
    vm::Vpn last = vm::vpnOf(ptr + bytes + mem::kPageSize - 1);
    last = std::min(last, vma->endVpn());
    if (last > first)
        aud->raceAccess(agent, first, last - first, is_write, site);
}

void
Runtime::notePeak()
{
    const mem::NodeMemory &node = as.nodeMemory();
    std::uint64_t used =
        (node.totalFrames() - node.freeFrames()) * mem::kPageSize;
    peakBytes = std::max(peakBytes, used);
}

void
Runtime::resetPeak()
{
    peakBytes = 0;
    notePeak();
}

hipError_t
Runtime::fail(hipError_t error)
{
    lastErr = error;
    return error;
}

void
Runtime::failThrow(hipError_t error, const std::string &msg)
{
    lastErr = error;
    throw StatusError(error, msg);
}

hipError_t
Runtime::hipGetLastError()
{
    hipError_t error = lastErr;
    lastErr = hipSuccess;
    return error;
}

hipError_t
Runtime::tryAllocate(alloc::AllocatorKind kind, std::uint64_t size,
                     DevPtr &out)
{
    out = 0;
    alloc::Allocation allocation = registry.allocate(kind, size);
    if (!allocation) {
        hipError_t error = allocation.status != Status::Success
                               ? allocation.status
                               : Status::InvalidValue;
        if (tr != nullptr) {
            // Failed allocations are traced too: the oversubscription
            // scenario's OOMs must be visible on the bus.
            tr->emit(trace::EventKind::AllocCall, 0, size,
                     static_cast<std::uint64_t>(kind),
                     static_cast<std::uint64_t>(error));
        }
        ++runtimeStats.failedAllocCalls;
        return fail(error);
    }
    hostClock.advance(allocation.allocTime);
    ++runtimeStats.allocCalls;
    cal.schedule(sched::EngineId::Host, hostClock.now(),
                 allocation.allocTime);
    DevPtr ptr = allocation.addr;
    if (kind == alloc::AllocatorKind::HipMalloc)
        hipMallocBytes += allocation.size;
    allocations.emplace(ptr, allocation);
    notePeak();
    if (tr != nullptr) {
        tr->emit(trace::EventKind::AllocCall, ptr, size,
                 static_cast<std::uint64_t>(kind),
                 static_cast<std::uint64_t>(hipSuccess));
    }
    out = ptr;
    return hipSuccess;
}

DevPtr
Runtime::allocate(alloc::AllocatorKind kind, std::uint64_t size)
{
    DevPtr ptr = 0;
    hipError_t error = tryAllocate(kind, size, ptr);
    if (error != hipSuccess) {
        throw StatusError(error,
                          strprintf("%s of %llu bytes",
                                    alloc::allocatorName(kind),
                                    static_cast<unsigned long long>(
                                        size)));
    }
    return ptr;
}

DevPtr
Runtime::hipMalloc(std::uint64_t size)
{
    return allocate(alloc::AllocatorKind::HipMalloc, size);
}

DevPtr
Runtime::hipHostMalloc(std::uint64_t size)
{
    return allocate(alloc::AllocatorKind::HipHostMalloc, size);
}

DevPtr
Runtime::hipMallocManaged(std::uint64_t size)
{
    return allocate(alloc::AllocatorKind::HipMallocManaged, size);
}

DevPtr
Runtime::hostMalloc(std::uint64_t size)
{
    return allocate(alloc::AllocatorKind::Malloc, size);
}

DevPtr
Runtime::managedStatic(std::uint64_t size)
{
    return allocate(alloc::AllocatorKind::ManagedStatic, size);
}

hipError_t
Runtime::hipFree(DevPtr ptr)
{
    auto it = allocations.find(ptr);
    if (it == allocations.end()) {
        if (tr != nullptr) {
            tr->emit(trace::EventKind::FreeCall, ptr,
                     static_cast<std::uint64_t>(hipErrorNotFound));
        }
        return fail(hipErrorNotFound);
    }
    if (it->second.kind == alloc::AllocatorKind::HipMalloc)
        hipMallocBytes -= it->second.size;
    SimTime free_time = registry.deallocate(it->second);
    hostClock.advance(free_time);
    ++runtimeStats.freeCalls;
    cal.schedule(sched::EngineId::Host, hostClock.now(), free_time);
    allocations.erase(it);
    if (tr != nullptr) {
        tr->emit(trace::EventKind::FreeCall, ptr,
                 static_cast<std::uint64_t>(hipSuccess));
    }
    return hipSuccess;
}

void
Runtime::freeChecked(DevPtr ptr)
{
    hipError_t error = hipFree(ptr);
    if (error != hipSuccess) {
        panic("freeChecked(0x%llx): %s",
              static_cast<unsigned long long>(ptr), hipErrorName(error));
    }
}

std::size_t
Runtime::releaseAll()
{
    // Collect-then-sort: the allocation map is unordered, and the
    // free order must not depend on its bucket layout (determinism
    // contract -- same seed, same event sequence at any worker count).
    std::vector<DevPtr> ptrs;
    ptrs.reserve(allocations.size());
    for (const auto &[ptr, allocation] : allocations) // upmlint: determinism-ok
        ptrs.push_back(ptr);
    std::sort(ptrs.begin(), ptrs.end());
    for (DevPtr ptr : ptrs)
        freeChecked(ptr);
    return ptrs.size();
}

hipError_t
Runtime::hipHostRegister(DevPtr ptr)
{
    auto it = allocations.find(ptr);
    if (it == allocations.end())
        return fail(hipErrorNotFound);
    SimTime register_time = 0.0;
    Status st = registry.hostRegister(it->second, register_time);
    if (st != Status::Success)
        return fail(st);
    hostClock.advance(register_time);
    cal.schedule(sched::EngineId::Host, hostClock.now(),
                 register_time);
    it->second.kind = alloc::AllocatorKind::MallocRegistered;
    notePeak();
    return hipSuccess;
}

const alloc::Allocation &
Runtime::allocationOf(DevPtr ptr) const
{
    auto it = allocations.find(ptr);
    if (it == allocations.end())
        fatal("unknown allocation 0x%llx",
              static_cast<unsigned long long>(ptr));
    return it->second;
}

MemInfo
Runtime::hipMemGetInfo() const
{
    MemInfo info;
    info.totalBytes = as.nodeMemory().geometry().capacity();
    info.freeBytes = info.totalBytes - hipMallocBytes;
    return info;
}

CopyPath
Runtime::hipMemcpy(DevPtr dst, DevPtr src, std::uint64_t bytes)
{
    if (aud != nullptr) {
        // Use checks run before the VMA lookup so a use-after-free is
        // classified as such, not just as an unmapped-pointer fatal.
        aud->noteUse(src, "hipMemcpy source");
        aud->noteUse(dst, "hipMemcpy destination");
        auditAccess(audit::kHostAgent, src, bytes, false, "hipMemcpy read");
        auditAccess(audit::kHostAgent, dst, bytes, true, "hipMemcpy write");
    }
    const vm::Vma *dst_vma = as.findVma(dst);
    const vm::Vma *src_vma = as.findVma(src);
    if (dst_vma == nullptr || src_vma == nullptr)
        failThrow(hipErrorNotFound, "hipMemcpy on unmapped pointer");

    // Functional copy through the backing store.
    if (bytes > 0 && dst != src) {
        std::memcpy(as.backing().hostPtr(dst, bytes),
                    as.backing().hostPtr(src, bytes), bytes);
    }

    // A copy *writes* the destination: on-demand destinations are
    // populated through the CPU fault path first (as a real memcpy
    // into fresh malloc memory would).
    if (dst_vma->policy.onDemand)
        hostClock.advance(cpuFirstTouch(dst, bytes));

    CopyPath path = copyEngine.classify(dst_vma, src_vma);
    SimTime transfer_time = copyEngine.transferTime(path, bytes);
    hostClock.advance(transfer_time);
    ++runtimeStats.memcpyCalls;
    runtimeStats.bytesCopied += bytes;
    runtimeStats.memcpyTimeNs += transfer_time;
    // A synchronous copy completes on the host timeline; the SDMA
    // engine's queue records its occupancy.
    cal.schedule(sched::EngineId::Sdma, hostClock.now(),
                 transfer_time);
    notePeak();
    if (tr != nullptr) {
        tr->emit(trace::EventKind::Memcpy, dst, src, bytes,
                 static_cast<std::uint64_t>(path), 0, transfer_time);
    }
    return path;
}

CopyPath
Runtime::hipMemcpyAsync(DevPtr dst, DevPtr src, std::uint64_t bytes,
                        Stream &stream)
{
    if (aud != nullptr) {
        aud->noteUse(src, "hipMemcpyAsync source");
        aud->noteUse(dst, "hipMemcpyAsync destination");
        // Enqueue orders the copy after everything the host did so far.
        aud->raceEdge(audit::kHostAgent, agentOf(stream));
        auditAccess(agentOf(stream), src, bytes, false,
                    "hipMemcpyAsync read");
        auditAccess(agentOf(stream), dst, bytes, true,
                    "hipMemcpyAsync write");
    }
    const vm::Vma *dst_vma = as.findVma(dst);
    const vm::Vma *src_vma = as.findVma(src);
    if (dst_vma == nullptr || src_vma == nullptr)
        failThrow(hipErrorNotFound, "hipMemcpyAsync on unmapped pointer");

    if (bytes > 0 && dst != src) {
        std::memcpy(as.backing().hostPtr(dst, bytes),
                    as.backing().hostPtr(src, bytes), bytes);
    }
    SimTime fault_time = 0.0;
    if (dst_vma->policy.onDemand) {
        // The engine still faults the destination in, on the stream's
        // timeline rather than the host's.
        const vm::Vma *vma = dst_vma;
        vm::Vpn first = vm::vpnOf(dst);
        vm::Vpn last = vm::vpnOf(dst + bytes + mem::kPageSize - 1);
        last = std::min(last, vma->endVpn());
        auto resolved = as.tryResolveCpuFaultRange(first, last);
        if (!resolved)
            failThrow(resolved.status, "hipMemcpyAsync destination fault");
        if (resolved.pages > 0) {
            runtimeStats.cpuFaultedPages += resolved.pages;
            fault_time =
                faults.service(vm::FaultType::Cpu, resolved.pages, 1)
                    .time;
        }
    }

    CopyPath path = copyEngine.classify(dst_vma, src_vma);
    SimTime transfer_time = copyEngine.transferTime(path, bytes);
    stream.enqueue(hostClock.now(), fault_time + transfer_time);
    ++runtimeStats.memcpyCalls;
    runtimeStats.bytesCopied += bytes;
    runtimeStats.memcpyTimeNs += transfer_time;
    // The async copy completes on the stream's timeline.
    if (fault_time > 0.0) {
        cal.schedule(sched::EngineId::Fault,
                     stream.readyAt() - transfer_time, fault_time);
    }
    cal.schedule(sched::EngineId::Sdma, stream.readyAt(),
                 transfer_time);
    notePeak();
    if (tr != nullptr) {
        tr->emit(trace::EventKind::Memcpy, dst, src, bytes,
                 static_cast<std::uint64_t>(path), 1, transfer_time);
    }
    return path;
}

SimTime
Runtime::resolveKernelFaults(const BufferUse &use)
{
    const vm::Vma *vma = as.findVma(use.ptr);
    if (vma == nullptr)
        fatal("kernel accesses unmapped pointer 0x%llx",
              static_cast<unsigned long long>(use.ptr));

    std::uint64_t footprint =
        std::min<std::uint64_t>(use.footprint(),
                                vma->base + vma->size - use.ptr);
    vm::Vpn first = vm::vpnOf(use.ptr);
    vm::Vpn last = vm::vpnOf(use.ptr + footprint + mem::kPageSize - 1);

    std::uint64_t missing = 0;
    std::uint64_t sys_present = 0;
    as.gpuTable().translations().forEachGap(
        first, last, [&](vm::Vpn gap_begin, vm::Vpn gap_end) {
            missing += gap_end - gap_begin;
            sys_present +=
                as.systemTable().presentInRange(gap_begin, gap_end);
        });
    if (missing == 0)
        return 0.0;

    if (!vma->policy.gpuMapped && !as.xnackEnabled()) {
        failThrow(hipErrorIllegalAddress,
                  strprintf("GPU memory violation: kernel touches "
                            "on-demand memory '%s' with XNACK disabled",
                            vma->name.c_str()));
    }

    bool minor = sys_present == missing;
    auto kind = as.resolveGpuFault(first, last - first);
    if (kind == vm::GpuFaultKind::Violation) {
        failThrow(hipErrorIllegalAddress,
                  strprintf("GPU fault on '%s' could not be resolved",
                            vma->name.c_str()));
    }
    if (kind == vm::GpuFaultKind::OutOfMemory) {
        failThrow(hipErrorOutOfMemory,
                  strprintf("GPU fault on '%s': no free frames",
                            vma->name.c_str()));
    }

    vm::FaultType type =
        minor ? vm::FaultType::GpuMinor : vm::FaultType::GpuMajor;
    if (minor)
        runtimeStats.gpuFaultedPagesMinor += missing;
    else
        runtimeStats.gpuFaultedPagesMajor += missing;
    notePeak();
    auto service = faults.service(type, missing);
    if (!service) {
        // A wedged fault pipeline: the bounded retry gave up. Real
        // hardware reports a GPU hang; simhip reports Timeout.
        failThrow(service.status,
                  strprintf("fault service on '%s' timed out after "
                            "%u retries",
                            vma->name.c_str(), service.retries));
    }
    cal.schedule(sched::EngineId::Fault,
                 hostClock.now() + service.time, service.time);
    return service.time;
}

SimTime
Runtime::launchKernel(const KernelDesc &desc,
                      const std::function<void()> &body, Stream *stream)
{
    if (stream == nullptr)
        stream = &stream0;

    if (aud != nullptr) {
        aud->raceEdge(audit::kHostAgent, agentOf(*stream));
        for (const auto &use : desc.buffers) {
            std::string site = "kernel '" + desc.name + "'";
            aud->noteUse(use.ptr, site.c_str());
            // Descriptors carry no read/write split; treat the whole
            // footprint as written (conservative for race purposes).
            auditAccess(agentOf(*stream), use.ptr, use.footprint(), true,
                        site.c_str());
        }
    }

    SimTime fault_time = 0.0;
    for (const auto &use : desc.buffers)
        fault_time += resolveKernelFaults(use);

    // Memory time: traffic per buffer at that buffer's effective
    // bandwidth (profiles are taken AFTER fault resolution so fragments
    // reflect what the kernel actually sees).
    SimTime mem_time = 0.0;
    for (const auto &use : desc.buffers) {
        if (use.trafficBytes == 0)
            continue;
        auto profile = perfModel.profileRegion(
            as, use.ptr, std::max<std::uint64_t>(use.footprint(), 1));
        mem_time += perfModel.gpuStreamTime(profile, use.trafficBytes);
    }
    if (inj != nullptr && mem_time > 0.0) {
        // One HBM-degradation decision per kernel: the whole streaming
        // phase runs at the degraded channel bandwidth.
        mem_time /= inj->hbmDegradeFactor();
    }
    SimTime compute_time = perfModel.gpuComputeTime(desc.flops);

    SimTime duration = cfg.compute.kernelLaunchOverhead + fault_time +
                       std::max(mem_time, compute_time) +
                       cfg.compute.kernelTeardown;

    if (body)
        body();

    stream->enqueue(hostClock.now(), duration);
    ++runtimeStats.kernelsLaunched;
    runtimeStats.kernelTimeNs += duration;
    // The kernel completes when its stream slot drains.
    cal.schedule(sched::EngineId::Kernel, stream->readyAt(),
                 duration);
    if (tr != nullptr) {
        tr->emit(trace::EventKind::KernelLaunch, desc.buffers.size(), 0,
                 0, 0, 0, duration, desc.name);
    }
    return duration;
}

void
Runtime::deviceSynchronize()
{
    hostClock.advanceTo(stream0.readyAt());
    // hipDeviceSynchronize waits for every stream, so it orders all
    // prior GPU work before subsequent host accesses.
    cal.runUntil(hostClock.now());
    if (aud != nullptr)
        aud->raceEdgeAll(audit::kHostAgent);
}

void
Runtime::streamSynchronize(Stream &stream)
{
    hostClock.advanceTo(stream.readyAt());
    cal.runUntil(hostClock.now());
    if (aud != nullptr)
        aud->raceEdge(agentOf(stream), audit::kHostAgent);
}

Event
Runtime::eventRecord(Stream &stream)
{
    Event event;
    event.time = std::max(stream.readyAt(), hostClock.now());
    return event;
}

SimTime
Runtime::eventElapsed(const Event &start, const Event &stop) const
{
    if (!start.recorded() || !stop.recorded())
        fatal("eventElapsed on unrecorded event");
    return stop.time - start.time;
}

Stream
Runtime::makeStream()
{
    return Stream(nextStreamId++);
}

SimTime
Runtime::cpuFirstTouch(DevPtr ptr, std::uint64_t size, unsigned threads)
{
    if (aud != nullptr) {
        aud->noteUse(ptr, "cpuFirstTouch");
        auditAccess(audit::kHostAgent, ptr, std::max<std::uint64_t>(size, 1),
                    true, "cpuFirstTouch");
    }
    const vm::Vma *vma = as.findVma(ptr);
    if (vma == nullptr)
        failThrow(hipErrorNotFound, "cpuFirstTouch of unmapped pointer");
    vm::Vpn first = vm::vpnOf(ptr);
    vm::Vpn last = vm::vpnOf(ptr + std::max<std::uint64_t>(size, 1) +
                             mem::kPageSize - 1);
    last = std::min(last, vma->endVpn());

    auto resolved = as.tryResolveCpuFaultRange(first, last);
    if (!resolved) {
        failThrow(resolved.status,
                  strprintf("CPU first touch of '%s'", vma->name.c_str()));
    }
    std::uint64_t missing = resolved.pages;
    if (missing == 0)
        return 0.0;
    runtimeStats.cpuFaultedPages += missing;
    SimTime t =
        faults.service(vm::FaultType::Cpu, missing, threads).time;
    hostClock.advance(t);
    cal.schedule(sched::EngineId::Fault, hostClock.now(), t);
    notePeak();
    return t;
}

SimTime
Runtime::cpuStream(DevPtr ptr, std::uint64_t bytes, unsigned threads)
{
    if (aud != nullptr) {
        aud->noteUse(ptr, "cpuStream");
        auditAccess(audit::kHostAgent, ptr, bytes, false, "cpuStream");
    }
    const vm::Vma *vma = as.findVma(ptr);
    if (vma == nullptr)
        failThrow(hipErrorNotFound, "cpuStream of unmapped pointer");
    SimTime fault_time = 0.0;
    if (vma->policy.onDemand)
        fault_time = cpuFirstTouch(ptr, bytes, threads);
    auto profile = perfModel.profileRegion(as, ptr, bytes);
    SimTime t = perfModel.cpuStreamTime(profile, bytes, threads);
    if (inj != nullptr && t > 0.0) {
        // CPU streaming is served by the same HBM channels.
        t /= inj->hbmDegradeFactor();
    }
    hostClock.advance(t);
    // CPU streaming occupies the cache+DRAM subsystem.
    cal.schedule(sched::EngineId::CacheDram, hostClock.now(), t);
    return t + fault_time;
}

void
Runtime::advanceHost(SimTime duration)
{
    hostClock.advance(duration);
    cal.schedule(sched::EngineId::Host, hostClock.now(), duration);
}

} // namespace upm::hip
