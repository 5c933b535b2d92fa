/**
 * @file
 * upmreplay: re-drive the memory system from a packed UPMTrace ring
 * dump (the "UPMT" files RingBufferSink::dump writes) without
 * re-running the simulation.
 *
 * Two jobs:
 *
 *  1. Equivalence oracle. `--json` emits the folded metrics in the
 *     bench JSON schema, so CI can diff a replay against the live
 *     run's metrics with scripts/bench_compare.py --metrics-only.
 *     The fold is byte-exact: trace values are summed in sequence
 *     order, the same order the live accumulators summed in, so every
 *     double must match bit for bit.
 *
 *  2. A/B cost sweeps. `--fault-cost-scale F` reprices the recorded
 *     fault stream under scaled FaultCosts -- answering "what if fault
 *     service were F x slower/faster" from one recorded run, in
 *     milliseconds instead of a re-simulation.
 *
 * Usage:
 *   upmreplay DUMP.upmt [--json PATH] [--bench-id NAME] [--frames N]
 *             [--fault-cost-scale F] [--quiet]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sched/replay.hh"
#include "trace/event.hh"
#include "vm/fault_handler.hh"

namespace upm {
namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s DUMP.upmt [options]\n"
        "  --json PATH           write folded metrics in the bench JSON\n"
        "                        schema (diff vs a live run with\n"
        "                        scripts/bench_compare.py --metrics-only)\n"
        "  --bench-id NAME       bench id for --json (default:\n"
        "                        replay_equiv; must match the live side)\n"
        "  --frames N            physical frame count of the traced\n"
        "                        system (busy map grows on demand when\n"
        "                        omitted)\n"
        "  --fault-cost-scale F  reprice the recorded fault stream with\n"
        "                        steady costs scaled by F (A/B lever)\n"
        "  --quiet               suppress the human-readable summary\n",
        argv0);
    return 2;
}

int
run(int argc, char **argv)
{
    std::string dump_path;
    std::string json_path;
    std::string bench_id = "replay_equiv";
    std::uint64_t total_frames = 0;
    double cost_scale = 1.0;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--bench-id") == 0 &&
                   i + 1 < argc) {
            bench_id = argv[++i];
        } else if (std::strcmp(argv[i], "--frames") == 0 &&
                   i + 1 < argc) {
            total_frames = bench::parseNumber<std::uint64_t>(
                "--frames", argv[++i], "a frame count", 0);
        } else if (std::strcmp(argv[i], "--fault-cost-scale") == 0 &&
                   i + 1 < argc) {
            cost_scale = bench::parseNumber<double>(
                "--fault-cost-scale", argv[++i], "a scale >= 0", 0.0);
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (argv[i][0] == '-') {
            return usage(argv[0]);
        } else if (dump_path.empty()) {
            dump_path = argv[i];
        } else {
            return usage(argv[0]);
        }
    }
    if (dump_path.empty())
        return usage(argv[0]);

    std::vector<trace::TraceEvent> events;
    std::string error;
    if (sched::loadDump(dump_path, events, &error) != Status::Success) {
        std::fprintf(stderr, "upmreplay: %s: %s\n", dump_path.c_str(),
                     error.c_str());
        return 1;
    }

    sched::TraceReplayer rp(total_frames);
    rp.applyAll(events);
    const sched::ReplayMetrics &m = rp.metrics();

    if (!quiet) {
        std::printf("upmreplay: %s\n", dump_path.c_str());
        std::printf("  events applied      %llu (last at %.17g ns)\n",
                    static_cast<unsigned long long>(m.eventsApplied),
                    m.lastEventNs);
        for (unsigned l = 0; l < trace::kNumLayers; ++l) {
            if (m.perLayer[l] == 0)
                continue;
            std::printf("    layer %-8s %llu\n",
                        trace::layerName(
                            static_cast<trace::Layer>(l)),
                        static_cast<unsigned long long>(m.perLayer[l]));
        }
        std::printf("  alloc calls         %llu ok, %llu failed, "
                    "%llu freed\n",
                    static_cast<unsigned long long>(m.allocCalls),
                    static_cast<unsigned long long>(m.failedAllocCalls),
                    static_cast<unsigned long long>(m.freeCalls));
        std::printf("  memcpy              %llu calls, %s, %.17g ns\n",
                    static_cast<unsigned long long>(m.memcpyCalls),
                    bench::fmtBytes(m.bytesCopied).c_str(),
                    m.memcpyTimeNs);
        std::printf("  kernels             %llu, %.17g ns\n",
                    static_cast<unsigned long long>(m.kernelsLaunched),
                    m.kernelTimeNs);
        std::printf("  fault service       %llu calls, %llu pages, "
                    "%.17g ns\n",
                    static_cast<unsigned long long>(m.faultServiceCalls),
                    static_cast<unsigned long long>(m.faultServicePages),
                    m.faultServiceTimeNs);
        std::printf("  frames              %llu allocated, %llu freed, "
                    "%llu busy at end\n",
                    static_cast<unsigned long long>(m.framesAllocated),
                    static_cast<unsigned long long>(m.framesFreed),
                    static_cast<unsigned long long>(rp.busyCount()));
        std::printf("  pages present       %llu\n",
                    static_cast<unsigned long long>(
                        rp.pageTable().presentCount()));
    }

    if (cost_scale != 1.0) {
        vm::FaultCosts scaled;
        scaled.cpuSteady *= cost_scale;
        scaled.gpuMajorSteady *= cost_scale;
        scaled.gpuMinorSteady *= cost_scale;
        SimTime repriced = sched::recostFaultNs(events, scaled);
        std::printf("  recost (x%.3g)       %.17g ns fault service "
                    "(single-core local model)\n",
                    cost_scale, repriced);
    }

    if (!json_path.empty()) {
        bench::JsonReporter report(bench_id, json_path);
        report.point()
            .metric("events", m.eventsApplied)
            .metric("last_event_ns", m.lastEventNs)
            .metric("alloc_calls", m.allocCalls)
            .metric("failed_alloc_calls", m.failedAllocCalls)
            .metric("free_calls", m.freeCalls)
            .metric("memcpy_calls", m.memcpyCalls)
            .metric("bytes_copied", m.bytesCopied)
            .metric("memcpy_time_ns", m.memcpyTimeNs)
            .metric("kernels_launched", m.kernelsLaunched)
            .metric("kernel_time_ns", m.kernelTimeNs)
            .metric("fault_service_calls", m.faultServiceCalls)
            .metric("fault_service_pages", m.faultServicePages)
            .metric("fault_service_time_ns", m.faultServiceTimeNs)
            .metric("busy_frames", rp.busyCount())
            .metric("present_pages", rp.pageTable().presentCount());
        report.write();
        if (!quiet)
            std::printf("  json                %s\n", json_path.c_str());
    }
    return 0;
}

} // namespace
} // namespace upm

int
main(int argc, char **argv)
{
    return upm::run(argc, argv);
}
