/**
 * @file
 * MetricsRegistry tests: the counter API the old `upm::prof` registry
 * exposed (now a type alias, so the rocprofv3/perf adapters compile
 * against the same class), thread safety of a single registry, and
 * per-System registry isolation under a worker pool -- the regression
 * the registry consolidation was done for.
 * No randomness in this file (test hygiene: nothing to seed).
 */

#include <gtest/gtest.h>

#include <thread>
#include <type_traits>
#include <vector>

#include "core/system.hh"
#include "exec/task_pool.hh"
#include "prof/counters.hh"
#include "prof/rocprof.hh"
#include "trace/metrics.hh"

namespace upm::trace {
namespace {

TEST(Metrics, ProfRegistryIsTheMetricsRegistry)
{
    // The alias is the compatibility contract: every probe and
    // adapter written against prof::CounterRegistry now runs on the
    // thread-safe registry without a cast anywhere.
    static_assert(
        std::is_same_v<prof::CounterRegistry, MetricsRegistry>);
    SUCCEED();
}

TEST(Metrics, CounterAddSetReadReset)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.read("x"), 0u);
    reg.add("x");
    reg.add("x", 4);
    EXPECT_EQ(reg.read("x"), 5u);
    reg.set("x", 100);
    EXPECT_EQ(reg.read("x"), 100u);
    reg.reset("x");
    EXPECT_EQ(reg.read("x"), 0u);
}

TEST(Metrics, NamesAreSortedAndResetAllClearsEverything)
{
    MetricsRegistry reg;
    reg.add("zeta");
    reg.add("alpha");
    auto names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");

    reg.resetAll();
    EXPECT_TRUE(reg.names().empty());
}

TEST(Metrics, ConcurrentMutationFromTwoThreads)
{
    // The one place the lock matters: a tool thread reading while a
    // workload thread writes. Two writers, interleaved reads; the
    // final totals must be exact.
    MetricsRegistry reg;
    constexpr std::uint64_t kPerThread = 50'000;
    auto writer = [&reg] {
        for (std::uint64_t i = 0; i < kPerThread; ++i)
            reg.add("shared");
    };
    std::thread a(writer);
    std::thread b(writer);
    for (int i = 0; i < 100; ++i)
        (void)reg.read("shared");
    a.join();
    b.join();
    EXPECT_EQ(reg.read("shared"), 2 * kPerThread);
}

TEST(Metrics, PerSystemRegistriesStayIsolatedUnderPool)
{
    // The sweep pattern: worker-local Systems must never share
    // counter state. Each task writes a task-specific count into its
    // own System's registry and reports what it read back.
    const unsigned restore = exec::globalPool().workers();
    exec::setGlobalWorkers(2);
    auto counts = exec::globalPool().parallelMap<std::uint64_t>(
        8, [](std::size_t i) {
            core::System sys;
            for (std::size_t k = 0; k <= i; ++k)
                sys.counters().add("task_local");
            return sys.counters().read("task_local");
        });
    exec::setGlobalWorkers(restore);
    ASSERT_EQ(counts.size(), 8u);
    for (std::uint64_t i = 0; i < counts.size(); ++i)
        EXPECT_EQ(counts[i], i + 1);
}

TEST(Metrics, RocprofSessionRunsOnMetricsRegistry)
{
    // The adapter regression: sessions take deltas off the registry
    // exactly as they did off the old prof counters.
    MetricsRegistry reg;
    reg.add(prof::gpu_counters::kUtcl1TranslationMiss, 100);
    prof::RocprofSession session(reg);
    session.start();
    reg.add(prof::gpu_counters::kUtcl1TranslationMiss, 42);
    EXPECT_EQ(session.delta(prof::gpu_counters::kUtcl1TranslationMiss),
              42u);
}

TEST(Metrics, SystemCountersBackedByRegistry)
{
    core::System sys;
    static_assert(
        std::is_same_v<decltype(sys.counters()), MetricsRegistry &>);
    sys.counters().add("fault_latency_ns", 9000);
    sys.counters().add("fault_latency_ns", 11000);
    EXPECT_EQ(sys.counters().read("fault_latency_ns"), 20000u);
}

} // namespace
} // namespace upm::trace
