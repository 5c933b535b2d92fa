/**
 * @file
 * One socket of a multi-APU node: the per-socket slice of a System.
 *
 * An MI300A node scales out by adding whole APUs -- each socket brings
 * its own CCDs/XCDs, its own HBM stacks, and its own NUMA meminfo
 * view, joined to the others over xGMI (fabric::Fabric). The Socket
 * bundle groups the per-socket pieces the System composes so probes
 * and benches can ask "socket s" questions without reassembling the
 * slice by hand.
 */

#ifndef UPM_CORE_SOCKET_HH
#define UPM_CORE_SOCKET_HH

#include "cache/infinity_cache.hh"
#include "core/apu.hh"
#include "core/calibration.hh"
#include "mem/frame_allocator.hh"
#include "prof/meminfo.hh"

namespace upm::core {

/** Per-socket slice: topology + HBM shard + meminfo view. */
struct Socket
{
    /** Socket id == xGMI endpoint id == shard index. */
    unsigned id;
    /** This socket's CCD/XCD/IOD topology. */
    Apu apu;
    /** This socket's HBM shard (owned by mem::NodeMemory). */
    mem::FrameAllocator &frames;
    /** libnuma-style view of this socket's shard only. */
    prof::NumaMeminfo meminfo;
    /** This socket's own 256 MiB Infinity Cache, keyed off the shard:
     *  it caches only traffic to frames this shard owns. On a
     *  multi-socket node PerfModel queries each socket's instance for
     *  its slice of a working set instead of pooling everything into
     *  one cache (Hooks::socketCaches). */
    cache::InfinityCache icache;

    Socket(const SystemConfig &config, unsigned socket_id,
           mem::FrameAllocator &shard)
        : id(socket_id), apu(config, socket_id), frames(shard),
          meminfo(shard), icache(shard.geometry(), config.infinityCache)
    {
    }

    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;
};

} // namespace upm::core

#endif // UPM_CORE_SOCKET_HH
