/**
 * @file
 * UPMTrace tests: the golden-trace suite (four committed scenarios,
 * exact-diffed against the Chrome-JSON export at 1/2/8 workers), the
 * zero-overhead / byte-identity contract, layer filtering, the binary
 * ring-buffer sink and its on-disk format, the Chrome exporter, and
 * the TaskTraceScope bracket.
 *
 * Golden files live under tests/golden/. To re-bless after an
 * intentional event-schema change run scripts/retrace.sh (which sets
 * UPM_BLESS_GOLDEN=1 and re-runs this suite).
 *
 * Seed base for this file: 0x77ace000 (test hygiene: every test file
 * derives its randomness from a fixed per-file base; no
 * std::random_device anywhere in the tree).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/system.hh"
#include "exec/task_pool.hh"
#include "golden_scenarios.hh"
#include "trace/chrome_export.hh"
#include "trace/sink.hh"
#include "trace/tracer.hh"

namespace upm::trace {
namespace {

using alloc::AllocatorKind;

// The golden scenarios and their frozen configs (including this
// file's historical seed base) live in tests/golden_scenarios.hh,
// shared with the replay-equivalence suite.
using golden::oversubConfig;
using golden::scenarioFaultStorm;
using golden::scenarioManagedPopulate;
using golden::scenarioOversubscription;
using golden::scenarioSdmaStall;
using golden::sdmaConfig;
using golden::tracedConfig;

/** Run @p scenario once on a fresh traced System; return the export. */
std::string
runScenarioJson(const core::SystemConfig &cfg,
                void (*scenario)(core::System &))
{
    core::System sys(cfg);
    {
        TaskTraceScope scope(sys.tracer(), 0, 0);
        scenario(sys);
    }
    return chromeTraceJson(sys.tracer()->events());
}

std::string
goldenPath(const std::string &name)
{
    return std::string(UPM_SOURCE_DIR) + "/tests/golden/" + name +
           ".trace.json";
}

/**
 * Exact-diff @p name's golden against the scenario's export, then
 * re-run the scenario inside pool tasks at 1, 2 and 8 workers and
 * require the identical bytes each time (the determinism contract:
 * a trace is a pure function of the workload, not of scheduling).
 * UPM_BLESS_GOLDEN=1 rewrites the golden instead.
 */
void
goldenCompare(const std::string &name, const core::SystemConfig &cfg,
              void (*scenario)(core::System &))
{
    const std::string json = runScenarioJson(cfg, scenario);
    const std::string path = goldenPath(name);

    if (std::getenv("UPM_BLESS_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        out << json;
        ASSERT_TRUE(out.good()) << "cannot write " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << path << " -- run scripts/retrace.sh";
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), json)
        << "golden mismatch for " << name
        << "; if the event schema changed intentionally, re-bless "
           "with scripts/retrace.sh";

    const unsigned restore = exec::globalPool().workers();
    for (unsigned workers : {1u, 2u, 8u}) {
        exec::setGlobalWorkers(workers);
        auto runs = exec::globalPool().parallelMap<std::string>(
            2, [&](std::size_t) { return runScenarioJson(cfg, scenario); });
        for (const auto &r : runs)
            EXPECT_EQ(r, json) << name << " diverged at " << workers
                               << " workers";
    }
    exec::setGlobalWorkers(restore);
}

TEST(GoldenTrace, FaultStorm)
{
    goldenCompare("fault_storm", tracedConfig(), scenarioFaultStorm);
}

TEST(GoldenTrace, ManagedPopulate)
{
    goldenCompare("managed_populate", tracedConfig(),
                  scenarioManagedPopulate);
}

TEST(GoldenTrace, OversubscriptionEviction)
{
    goldenCompare("oversub_evict", oversubConfig(),
                  scenarioOversubscription);
}

TEST(GoldenTrace, SdmaStall)
{
    goldenCompare("sdma_stall", sdmaConfig(), scenarioSdmaStall);
}

// ---------------------------------------------------------------------
// Zero-overhead-when-off contract.
// ---------------------------------------------------------------------

TEST(TraceWiring, OffByDefault)
{
    core::System sys;
    EXPECT_EQ(sys.tracer(), nullptr);
}

TEST(TraceWiring, OnWhenConfigured)
{
    core::System sys(tracedConfig());
    ASSERT_NE(sys.tracer(), nullptr);
    EXPECT_EQ(sys.tracer()->ringSink(), nullptr); // vector mode
}

TEST(TraceWiring, SimulationByteIdenticalTracingOnOrOff)
{
    auto run = [](bool traced) {
        core::SystemConfig cfg;
        cfg.geometry.capacityBytes = 1 * GiB;
        cfg.trace.enabled = traced;
        core::System sys(cfg);
        scenarioFaultStorm(sys);
        scenarioManagedPopulate(sys);
        return std::tuple(sys.runtime().now(),
                          sys.meminfo().freeBytes(),
                          sys.addressSpace().cpuFaults(),
                          sys.addressSpace().gpuMajorFaults(),
                          sys.frames().freeFrames());
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(TraceWiring, AuditLeavesScatteredUnmapTraceUnchanged)
{
    // Two on-demand (malloc) VMAs populated in interleaved pieces, so
    // each holds scattered frames from shared pool refills; unmapping
    // one frees a fragmented frame set. UPMSan must not change a
    // single event: the audited munmap frees the same merged
    // intervals as the unaudited one.
    auto run = [](bool audited) {
        core::SystemConfig cfg = tracedConfig();
        cfg.audit.enabled = audited;
        cfg.audit.warnOnViolation = false;
        core::System sys(cfg);
        auto &rt = sys.runtime();
        hip::DevPtr a = rt.hostMalloc(1 * MiB);
        hip::DevPtr b = rt.hostMalloc(1 * MiB);
        rt.cpuFirstTouch(a, 96 * KiB);
        rt.cpuFirstTouch(b, 200 * KiB);
        rt.cpuFirstTouch(a + 512 * KiB, 300 * KiB);
        rt.cpuFirstTouch(b + 700 * KiB, 324 * KiB);
        rt.cpuFirstTouch(a + 96 * KiB, 40 * KiB);
        EXPECT_EQ(rt.hipFree(a), hip::hipSuccess);
        EXPECT_EQ(rt.hipFree(b), hip::hipSuccess);
        if (audited) {
            sys.finalizeAudit();
            EXPECT_TRUE(sys.auditor()->clean())
                << sys.auditor()->summary();
        }
        return chromeTraceJson(sys.tracer()->events());
    };
    std::string plain = run(false);
    EXPECT_EQ(run(true), plain);

    // The unmaps batch: fewer FrameFree events than freed pages (a
    // page-by-page audited free would emit one per scattered frame).
    std::size_t frees = 0;
    for (std::size_t pos = plain.find("\"frame_free\"");
         pos != std::string::npos;
         pos = plain.find("\"frame_free\"", pos + 1))
        ++frees;
    EXPECT_GT(frees, 0u);
    EXPECT_LT(frees, (96 + 200 + 300 + 324 + 40) / 4);
}

TEST(TraceWiring, RingModeThroughSystemConfig)
{
    core::SystemConfig cfg = tracedConfig();
    cfg.trace.ring = true;
    cfg.trace.ringCapacity = 64;
    core::System sys(cfg);
    ASSERT_NE(sys.tracer(), nullptr);
    ASSERT_NE(sys.tracer()->ringSink(), nullptr);
    scenarioManagedPopulate(sys);
    EXPECT_EQ(sys.tracer()->ringSink()->size(), 64u);
    EXPECT_GT(sys.tracer()->ringSink()->dropped(), 0u);
    // Retained events are the most recent ones, oldest first.
    auto events = sys.tracer()->events();
    ASSERT_EQ(events.size(), 64u);
    EXPECT_EQ(events.back().seq, sys.tracer()->emitted() - 1);
}

// ---------------------------------------------------------------------
// Layer filtering.
// ---------------------------------------------------------------------

TEST(TraceFilter, MaskKeepsOnlyRequestedLayers)
{
    core::SystemConfig cfg = tracedConfig();
    cfg.trace.layerMask = layerBit(Layer::Vm);
    core::System sys(cfg);
    scenarioFaultStorm(sys);
    auto events = sys.tracer()->events();
    ASSERT_FALSE(events.empty());
    for (const auto &ev : events)
        EXPECT_EQ(ev.layer, Layer::Vm);
}

TEST(TraceFilter, SequenceCountsOnlyAcceptedEvents)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.layerMask = layerBit(Layer::Cache);
    Tracer tr(cfg);
    tr.emit(EventKind::FrameAlloc, 0, 8); // mem: filtered out
    EXPECT_EQ(tr.emitted(), 0u);
    tr.emit(EventKind::CacheHit, 0x40);
    tr.emit(EventKind::VmaMap, 0, 4096); // vm: filtered out
    tr.emit(EventKind::CacheEvict, 0x80, 0xc0);
    auto events = tr.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].seq, 0u);
    EXPECT_EQ(events[1].seq, 1u);
    EXPECT_EQ(tr.emitted(), 2u);
}

TEST(TraceFilter, ParseLayerListEmptyMeansAll)
{
    EXPECT_EQ(parseLayerList(""), kAllLayersMask);
    EXPECT_EQ(kAllLayersMask, 0x7fu);
}

TEST(TraceFilter, ParseLayerListNames)
{
    EXPECT_EQ(parseLayerList("vm"), layerBit(Layer::Vm));
    EXPECT_EQ(parseLayerList("vm,mem"),
              layerBit(Layer::Vm) | layerBit(Layer::Mem));
    EXPECT_EQ(parseLayerList("cache,hip,inject,exec"),
              layerBit(Layer::Cache) | layerBit(Layer::Hip) |
                  layerBit(Layer::Inject) | layerBit(Layer::Exec));
}

TEST(TraceFilter, ParseLayerListRejectsUnknown)
{
    std::string error;
    EXPECT_EQ(parseLayerList("vm,bogus", &error), 0u);
    EXPECT_NE(error.find("bogus"), std::string::npos);
}

// ---------------------------------------------------------------------
// Ring-buffer sink and the binary on-disk format.
// ---------------------------------------------------------------------

TEST(TraceRing, PackedRecordIs72Bytes)
{
    EXPECT_EQ(sizeof(PackedEvent), 72u);
}

TEST(TraceRing, OverwritesOldestKeepsNewest)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.ring = true;
    cfg.ringCapacity = 4;
    Tracer tr(cfg);
    for (std::uint64_t i = 0; i < 10; ++i)
        tr.emit(EventKind::CacheHit, i);
    ASSERT_NE(tr.ringSink(), nullptr);
    EXPECT_EQ(tr.ringSink()->size(), 4u);
    EXPECT_EQ(tr.ringSink()->dropped(), 6u);
    auto events = tr.events();
    ASSERT_EQ(events.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].seq, 6 + i);
        EXPECT_EQ(events[i].a, 6 + i);
    }
}

TEST(TraceRing, DropsDetailStrings)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.ring = true;
    cfg.ringCapacity = 8;
    Tracer tr(cfg);
    tr.emit(EventKind::KernelLaunch, 1, 0, 0, 0, 0, 123.0, "triad");
    auto events = tr.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_TRUE(events[0].detail.empty());
    EXPECT_EQ(events[0].value, 123.0);
}

TEST(TraceRing, DumpReadRoundTrip)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.ring = true;
    cfg.ringCapacity = 16;
    Tracer tr(cfg);
    for (std::uint64_t i = 0; i < 24; ++i)
        tr.emit(EventKind::FrameAlloc, i * 4, 4, i % 3, 0, 0,
                static_cast<double>(i));

    const std::string path =
        ::testing::TempDir() + "upmtrace_ring_test.bin";
    ASSERT_TRUE(tr.ringSink()->dump(path));

    std::vector<PackedEvent> records;
    std::uint64_t total = 0;
    ASSERT_EQ(RingBufferSink::read(path, records, &total),
              Status::Success);
    EXPECT_EQ(total, 24u);
    ASSERT_EQ(records.size(), 16u);

    auto live = tr.events();
    ASSERT_EQ(live.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(unpack(records[i]), live[i]);
    std::remove(path.c_str());
}

TEST(TraceRing, ReadRejectsGarbage)
{
    // Corrupt-but-present and missing are distinct failures.
    const std::string path =
        ::testing::TempDir() + "upmtrace_garbage_test.bin";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file";
    }
    std::vector<PackedEvent> records;
    std::string error;
    EXPECT_EQ(RingBufferSink::read(path, records, nullptr, &error),
              Status::InvalidValue);
    EXPECT_NE(error.find("truncated UPMT header"), std::string::npos)
        << error;
    EXPECT_EQ(
        RingBufferSink::read(path + ".missing", records, nullptr, &error),
        Status::NotFound);
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(TraceRing, ReadRejectsBadMagic)
{
    // Right size for a header, wrong magic: InvalidValue, not a
    // truncation complaint.
    const std::string path =
        ::testing::TempDir() + "upmtrace_badmagic_test.bin";
    {
        std::ofstream out(path, std::ios::binary);
        std::string blob(64, '\0');
        blob.replace(0, 4, "NOPE");
        out << blob;
    }
    std::vector<PackedEvent> records;
    std::string error;
    EXPECT_EQ(RingBufferSink::read(path, records, nullptr, &error),
              Status::InvalidValue);
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
    EXPECT_TRUE(records.empty());
    std::remove(path.c_str());
}

TEST(TraceRing, ReadRejectsTruncatedRecordArray)
{
    // A valid dump cut mid-record-array: header promises more records
    // than the file holds. The reader must refuse rather than return a
    // short (silently lossy) stream.
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.ring = true;
    cfg.ringCapacity = 16;
    Tracer tr(cfg);
    for (std::uint64_t i = 0; i < 8; ++i)
        tr.emit(EventKind::FrameAlloc, i * 4, 4);

    const std::string path =
        ::testing::TempDir() + "upmtrace_truncated_test.bin";
    ASSERT_TRUE(tr.ringSink()->dump(path));

    // Chop the last record in half.
    std::uintmax_t full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - sizeof(PackedEvent) / 2);

    std::vector<PackedEvent> records;
    std::string error;
    EXPECT_EQ(RingBufferSink::read(path, records, nullptr, &error),
              Status::InvalidValue);
    EXPECT_NE(error.find("truncated record array"), std::string::npos)
        << error;
    EXPECT_TRUE(records.empty());
    std::remove(path.c_str());
}

TEST(TraceRing, ReadRejectsRecordSizeMismatch)
{
    // Valid magic + version but a record size from some other build:
    // decoding would misparse every field, so the reader refuses.
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.ring = true;
    cfg.ringCapacity = 4;
    Tracer tr(cfg);
    tr.emit(EventKind::FrameAlloc, 0, 4);

    const std::string path =
        ::testing::TempDir() + "upmtrace_recsize_test.bin";
    ASSERT_TRUE(tr.ringSink()->dump(path));

    // Patch the recordSize field (offset 8: magic[4] + version u32).
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
        std::uint32_t bogus = 48;
        ASSERT_EQ(std::fwrite(&bogus, sizeof(bogus), 1, f), 1u);
        std::fclose(f);
    }

    std::vector<PackedEvent> records;
    std::string error;
    EXPECT_EQ(RingBufferSink::read(path, records, nullptr, &error),
              Status::InvalidValue);
    EXPECT_NE(error.find("record size 48"), std::string::npos) << error;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Chrome exporter.
// ---------------------------------------------------------------------

std::vector<TraceEvent>
sampleEvents()
{
    TraceConfig cfg;
    cfg.enabled = true;
    Tracer tr(cfg);
    tr.emit(EventKind::VmaMap, 0x10000, 4096, 0, 1, 0, 0.0, "heap");
    tr.emit(EventKind::FrameAlloc, 32, 4, 0);
    tr.emit(EventKind::KernelLaunch, 2, 0, 0, 0, 0, 1500.0, "triad");
    return tr.events();
}

TEST(ChromeExport, ShapeAndTracks)
{
    std::string json = chromeTraceJson(sampleEvents());
    EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
    // One named track per layer...
    for (unsigned l = 0; l < kNumLayers; ++l)
        EXPECT_NE(
            json.find(layerName(static_cast<Layer>(l))),
            std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    // ...and every event is an instant event with named args.
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"detail\": \"triad\""), std::string::npos);
}

TEST(ChromeExport, DeterministicBytes)
{
    auto events = sampleEvents();
    EXPECT_EQ(chromeTraceJson(events), chromeTraceJson(events));
    EXPECT_NE(chromeTraceJson(events, 0), chromeTraceJson(events, 7));
}

TEST(ChromeExport, WritesFile)
{
    const std::string path =
        ::testing::TempDir() + "upmtrace_chrome_test.json";
    auto events = sampleEvents();
    ASSERT_TRUE(writeChromeTrace(path, events));
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), chromeTraceJson(events));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Tracer bookkeeping and the task bracket.
// ---------------------------------------------------------------------

TEST(Tracer, ClearRestartsSequenceIdentically)
{
    TraceConfig cfg;
    cfg.enabled = true;
    Tracer tr(cfg);
    auto drive = [&] {
        tr.emit(EventKind::CacheHit, 1);
        tr.emit(EventKind::CacheFill, 2);
        tr.emit(EventKind::CacheEvict, 2, 3);
    };
    drive();
    auto first = tr.events();
    tr.clear();
    drive();
    EXPECT_EQ(tr.events(), first);
}

TEST(TaskScope, NullTracerIsSafe)
{
    TaskTraceScope scope(nullptr, 3, 99);
    // No tracer, no events, no crash.
}

TEST(TaskScope, BracketsAndCountsInnerEvents)
{
    TraceConfig cfg;
    cfg.enabled = true;
    Tracer tr(cfg);
    {
        TaskTraceScope scope(&tr, 7, 42);
        tr.emit(EventKind::CacheHit, 1);
        tr.emit(EventKind::CacheHit, 2);
    }
    auto events = tr.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().kind, EventKind::TaskBegin);
    EXPECT_EQ(events.front().a, 7u);
    EXPECT_EQ(events.front().b, 42u);
    EXPECT_EQ(events.back().kind, EventKind::TaskEnd);
    EXPECT_EQ(events.back().a, 7u);
    EXPECT_EQ(events.back().b, 2u); // events inside the bracket
}

TEST(TraceNames, TablesAreComplete)
{
    const auto last = static_cast<unsigned>(EventKind::TaskEnd);
    for (unsigned k = 0; k <= last; ++k) {
        auto kind = static_cast<EventKind>(k);
        ASSERT_NE(eventKindName(kind), nullptr);
        EXPECT_NE(eventKindName(kind)[0], '\0');
        ASSERT_NE(layerName(layerOf(kind)), nullptr);
        for (unsigned arg = 0; arg < 5; ++arg) {
            const char *name = argName(kind, arg);
            if (name != nullptr) {
                EXPECT_NE(name[0], '\0');
            }
        }
    }
}

} // namespace
} // namespace upm::trace
