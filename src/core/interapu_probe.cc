#include "core/interapu_probe.hh"

namespace upm::core {

hip::DevPtr
InterApuProbe::populateRegion()
{
    // Up-front allocator: placement happens at mmap time through the
    // VMA's socket policy (the interleave rotation and read-only
    // replication only engage on the populate path -- an on-demand
    // region resolved by one big fault batch lands on one shard).
    return sys.runtime().allocate(alloc::AllocatorKind::HipHostMalloc,
                                  cfg.regionBytes);
}

InterApuPairResult
InterApuProbe::measurePair(unsigned access_socket, unsigned home_socket)
{
    vm::AddressSpace &as = sys.addressSpace();

    // Snapshot the policy state so a probe sweep leaves the system the
    // way it found it.
    vm::SocketPolicy prev_policy = as.defaultSocketPolicy();
    unsigned prev_home = as.defaultHomeSocket();
    unsigned prev_socket = as.currentSocket();

    as.setDefaultSocketPolicy(vm::SocketPolicy::Home, home_socket);
    as.setCurrentSocket(access_socket);
    hip::DevPtr ptr = populateRegion();

    hip::PerfModel &perf = sys.runtime().perf();
    hip::RegionProfile profile =
        perf.profileRegion(as, ptr, cfg.regionBytes);

    InterApuPairResult result;
    result.accessSocket = access_socket;
    result.homeSocket = home_socket;
    result.remoteFraction = profile.remoteFraction;
    result.gpuBandwidth = perf.gpuStreamBandwidth(profile);
    result.cpuBandwidth =
        perf.cpuStreamBandwidth(profile, cfg.cpuThreads);
    result.gpuLatency = perf.gpuChaseLatency(profile);
    result.cpuLatency = perf.cpuChaseLatency(profile);

    const fabric::Fabric *fab = sys.fabric();
    if (fab != nullptr && access_socket != home_socket) {
        result.hops = fab->hopDistance(access_socket, home_socket);
        result.farDirection =
            fab->farDirection(access_socket, home_socket);
    }
    result.faultServiceTime = sys.faultHandler().serviceTime(
        vm::FaultType::GpuMajor, cfg.faultBatchPages, 1, result.hops);

    sys.runtime().freeChecked(ptr);
    as.setDefaultSocketPolicy(prev_policy, prev_home);
    as.setCurrentSocket(prev_socket);
    return result;
}

InterApuPlacementResult
InterApuProbe::measurePlacement(vm::SocketPolicy policy,
                                unsigned access_socket)
{
    vm::AddressSpace &as = sys.addressSpace();

    vm::SocketPolicy prev_policy = as.defaultSocketPolicy();
    unsigned prev_home = as.defaultHomeSocket();
    unsigned prev_socket = as.currentSocket();

    // Home-style policies anchor at socket 0 so the remote mix a
    // non-zero access socket sees is the interesting one.
    as.setDefaultSocketPolicy(policy, 0);
    as.setCurrentSocket(access_socket);
    hip::DevPtr ptr = populateRegion();

    hip::PerfModel &perf = sys.runtime().perf();
    hip::RegionProfile profile =
        perf.profileRegion(as, ptr, cfg.regionBytes);

    InterApuPlacementResult result;
    result.policy = policy;
    result.remoteFraction = profile.remoteFraction;
    result.gpuBandwidth = perf.gpuStreamBandwidth(profile);
    result.gpuLatency = perf.gpuChaseLatency(profile);

    sys.runtime().freeChecked(ptr);
    as.setDefaultSocketPolicy(prev_policy, prev_home);
    as.setCurrentSocket(prev_socket);
    return result;
}

} // namespace upm::core
