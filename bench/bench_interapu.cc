/**
 * @file
 * Inter-APU scale-out sweep (the Inter-APU deep-dive follow-up,
 * PAPERS.md): N-socket nodes joined by the xGMI link model.
 *
 * Three sweeps:
 *  1. Socket-count scaling (1/2/4/8): local vs one-hop-remote GPU
 *     stream bandwidth and chase latency. Expected shape: local HBM
 *     is flat in N; remote bandwidth is tens of GB/s (orders below
 *     local) and remote latency sits hundreds of ns above local.
 *  2. Pair matrix at the largest socket count: bandwidth/latency per
 *     hop distance and direction. Expected: monotonically worse with
 *     hops (ring taper), and the far direction (high id -> low id)
 *     strictly below the near direction at equal hops.
 *  3. Placement modes (home / first-touch / interleave / replicate
 *     read-only) for one remote accessor. Expected: home-on-other-
 *     socket is the all-remote worst case, first-touch is all-local,
 *     interleave sits in between, replicate reads local.
 *
 * All metrics are pure model queries -- byte-identical across worker
 * counts, machines, and --trace on/off. `--sockets N` restricts every
 * sweep to one socket count.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "core/interapu_probe.hh"

using namespace upm;

namespace {

struct PairPoint
{
    unsigned sockets;
    unsigned access;
    unsigned home;
    core::InterApuPairResult r;
};

struct PlacePoint
{
    unsigned sockets;
    vm::SocketPolicy policy;
    core::InterApuPlacementResult r;
};

core::InterApuProbe::Params
probeParams(bool smoke)
{
    core::InterApuProbe::Params p;
    p.regionBytes = smoke ? 8 * MiB : 64 * MiB;
    return p;
}

core::SystemConfig
nodeConfig(unsigned sockets)
{
    core::SystemConfig cfg;
    cfg.numSockets = sockets;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::Options::parse(argc, argv, bench::kAllowSockets);
    setQuiet(true);
    bench::banner("Inter-APU deep dive",
                  "Multi-APU scale-out over the xGMI link model");

    std::vector<unsigned> socket_counts = {1, 2, 4, 8};
    if (opt.sockets != 0)
        socket_counts = {opt.sockets};

    // Sweep points: for each socket count, socket 0 touching every
    // home (hop sweep, near direction) plus every socket touching home
    // 0 (the far direction of the same pairs).
    std::vector<PairPoint> points;
    for (unsigned n : socket_counts) {
        for (unsigned home = 0; home < n; ++home)
            points.push_back({n, 0, home, {}});
        for (unsigned access = 1; access < n; ++access)
            points.push_back({n, access, 0, {}});
    }

    // Per-point Systems: independent, deterministic, worker-count
    // invariant (the exec contract every bench sweep follows).
    exec::globalPool().parallelFor(points.size(), [&](std::size_t i) {
        PairPoint &p = points[i];
        core::System sys(nodeConfig(p.sockets));
        core::InterApuProbe probe(sys, probeParams(opt.smoke));
        p.r = probe.measurePair(p.access, p.home);
    });

    bench::JsonReporter report("interapu", opt.jsonPath);

    std::printf("\n%-8s %-6s %-6s %-5s %-4s %12s %12s %12s %12s\n",
                "sockets", "access", "home", "hops", "dir", "gpu GB/s",
                "cpu GB/s", "gpu lat", "fault");
    for (const PairPoint &p : points) {
        report.point()
            .param("sweep", std::string("pair"))
            .param("sockets", static_cast<std::uint64_t>(p.sockets))
            .param("access", static_cast<std::uint64_t>(p.access))
            .param("home", static_cast<std::uint64_t>(p.home))
            .metric("hops", static_cast<std::uint64_t>(p.r.hops))
            .metric("far",
                    static_cast<std::uint64_t>(p.r.farDirection ? 1 : 0))
            .metric("remote_fraction", p.r.remoteFraction)
            .metric("gpu_bw_bytes_per_ns", p.r.gpuBandwidth)
            .metric("cpu_bw_bytes_per_ns", p.r.cpuBandwidth)
            .metric("gpu_latency_ns", p.r.gpuLatency)
            .metric("cpu_latency_ns", p.r.cpuLatency)
            .metric("fault_service_ns", p.r.faultServiceTime);
        std::printf("%-8u %-6u %-6u %-5u %-4s %12.1f %12.1f %12s %12s\n",
                    p.sockets, p.access, p.home, p.r.hops,
                    p.r.hops == 0 ? "-" : (p.r.farDirection ? "far"
                                                            : "near"),
                    p.r.gpuBandwidth, p.r.cpuBandwidth,
                    bench::fmtTime(p.r.gpuLatency).c_str(),
                    bench::fmtTime(p.r.faultServiceTime).c_str());
    }

    // Placement-mode sweep at the largest multi-socket count swept.
    unsigned place_sockets = 0;
    for (unsigned n : socket_counts)
        if (n > 1)
            place_sockets = n;
    if (place_sockets > 0) {
        const vm::SocketPolicy policies[] = {
            vm::SocketPolicy::Home, vm::SocketPolicy::FirstTouch,
            vm::SocketPolicy::Interleave, vm::SocketPolicy::ReplicateRO};
        std::vector<PlacePoint> place;
        for (vm::SocketPolicy pol : policies)
            place.push_back({place_sockets, pol, {}});
        exec::globalPool().parallelFor(place.size(), [&](std::size_t i) {
            PlacePoint &p = place[i];
            core::System sys(nodeConfig(p.sockets));
            core::InterApuProbe probe(sys, probeParams(opt.smoke));
            // Socket 1 accessing memory placed relative to home 0.
            p.r = probe.measurePlacement(p.policy, 1);
        });

        std::printf("\nplacement modes (%u sockets, accessor on socket "
                    "1, home 0):\n",
                    place_sockets);
        std::printf("%-12s %14s %12s %12s\n", "policy", "remote frac",
                    "gpu GB/s", "gpu lat");
        for (const PlacePoint &p : place) {
            report.point()
                .param("sweep", std::string("placement"))
                .param("sockets",
                       static_cast<std::uint64_t>(p.sockets))
                .param("policy",
                       std::string(vm::socketPolicyName(p.policy)))
                .metric("remote_fraction", p.r.remoteFraction)
                .metric("gpu_bw_bytes_per_ns", p.r.gpuBandwidth)
                .metric("gpu_latency_ns", p.r.gpuLatency);
            std::printf("%-12s %14.3f %12.1f %12s\n",
                        vm::socketPolicyName(p.policy),
                        p.r.remoteFraction, p.r.gpuBandwidth,
                        bench::fmtTime(p.r.gpuLatency).c_str());
        }
    }

    report.write();

    // Trace capture: one 2-socket pair in each direction, so the
    // socket-stamped PagePlace / RemoteAccess events land in the file.
    bench::captureTrace(opt, nodeConfig(2), [&](core::System &tsys) {
        core::InterApuProbe tprobe(tsys, probeParams(true));
        tprobe.measurePair(0, 1);
        tprobe.measurePair(1, 0);
    });
    return 0;
}
