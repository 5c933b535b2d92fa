/**
 * @file
 * Event-calendar tests: TimeHeap ordering, the calendar's total
 * execution order (when, target engine, source engine, per-source
 * sequence), runUntil horizon semantics and scheduling from inside a
 * handler.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sched/calendar.hh"
#include "sched/time_heap.hh"

namespace upm::sched {
namespace {

// ---- TimeHeap -----------------------------------------------------------

TEST(TimeHeap, PopsInTimeKeySequenceOrder)
{
    TimeHeap<int> heap;
    // Shuffled pushes; pops must come back ordered by (when, key,
    // order) regardless of insertion order or heap internals.
    heap.push(30.0, 0, 0, 1);
    heap.push(10.0, 2, 0, 2);
    heap.push(10.0, 0, 1, 3);
    heap.push(10.0, 0, 0, 4);
    heap.push(20.0, 1, 0, 5);

    std::vector<int> order;
    while (!heap.empty())
        order.push_back(heap.pop().payload);
    EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 5, 1}));
}

TEST(TimeHeap, InternalOrderCounterIsFifo)
{
    TimeHeap<int> heap;
    // The two-argument push stamps its own arrival order: same (when,
    // key) entries pop first-in first-out.
    for (int i = 0; i < 8; ++i)
        heap.push(5.0, 0, i);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(heap.pop().payload, i);
}

// ---- Serial calendar order ----------------------------------------------

TEST(EventCalendar, ExecutesInTimeOrderAcrossEngines)
{
    EventCalendar cal;
    std::vector<int> order;
    cal.schedule(EngineId::Fault, 30.0, 0.0, [&] { order.push_back(3); });
    cal.schedule(EngineId::Host, 10.0, 0.0, [&] { order.push_back(1); });
    cal.schedule(EngineId::Sdma, 20.0, 0.0, [&] { order.push_back(2); });
    EXPECT_EQ(cal.pending(), 3u);
    EXPECT_EQ(cal.nextTime(), 10.0);
    EXPECT_EQ(cal.runAll(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(cal.empty());
    EXPECT_EQ(cal.completedThrough(), 30.0);
}

TEST(EventCalendar, SameTimeTiesAreFifoPerEngineInEngineOrder)
{
    EventCalendar cal;
    std::vector<std::string> order;
    auto mark = [&](const char *tag) -> EventCalendar::Handler {
        return [&order, tag] { order.emplace_back(tag); };
    };
    // All at t=5, scheduled in deliberately scrambled engine order:
    // execution must group by EngineId (Host < Sdma < Fault) and stay
    // FIFO within each engine.
    cal.schedule(EngineId::Fault, 5.0, 0.0, mark("fault-a"));
    cal.schedule(EngineId::Host, 5.0, 0.0, mark("host-a"));
    cal.schedule(EngineId::Sdma, 5.0, 0.0, mark("sdma-a"));
    cal.schedule(EngineId::Host, 5.0, 0.0, mark("host-b"));
    cal.schedule(EngineId::Sdma, 5.0, 0.0, mark("sdma-b"));
    cal.schedule(EngineId::Fault, 5.0, 0.0, mark("fault-b"));
    cal.runAll();
    EXPECT_EQ(order,
              (std::vector<std::string>{"host-a", "host-b", "sdma-a",
                                        "sdma-b", "fault-a", "fault-b"}));
}

TEST(EventCalendar, RunUntilHorizonIsInclusive)
{
    EventCalendar cal;
    cal.schedule(EngineId::Host, 10.0);
    cal.schedule(EngineId::Host, 20.0);
    cal.schedule(EngineId::Host, 30.0);
    EXPECT_EQ(cal.runUntil(20.0), 2u);
    EXPECT_EQ(cal.pending(), 1u);
    EXPECT_EQ(cal.completedThrough(), 20.0);
    EXPECT_EQ(cal.nextTime(), 30.0);
    EXPECT_EQ(cal.runAll(), 1u);
}

TEST(EventCalendar, HandlerCascadesStayInCalendarOrder)
{
    EventCalendar cal;
    std::vector<int> order;
    cal.schedule(EngineId::Host, 10.0, 0.0, [&] {
        order.push_back(1);
        // Scheduled mid-run for an earlier-converging pair: the 15 ns
        // event must still run before the pre-scheduled 20 ns one.
        cal.schedule(EngineId::Sdma, 15.0, 0.0,
                     [&] { order.push_back(2); });
    });
    cal.schedule(EngineId::Host, 20.0, 0.0, [&] { order.push_back(3); });
    EXPECT_EQ(cal.runAll(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventCalendar, StatsAccumulateBusyAndLastEvent)
{
    EventCalendar cal;
    cal.schedule(EngineId::Sdma, 10.0, 3.5);
    cal.schedule(EngineId::Sdma, 20.0, 1.25);
    cal.schedule(EngineId::Kernel, 15.0, 7.0);
    cal.runAll();
    EngineStats sdma = cal.stats(EngineId::Sdma);
    EXPECT_EQ(sdma.executed, 2u);
    EXPECT_EQ(sdma.busyNs, 4.75);
    EXPECT_EQ(sdma.lastEventNs, 20.0);
    EngineStats kern = cal.stats(EngineId::Kernel);
    EXPECT_EQ(kern.executed, 1u);
    EXPECT_EQ(kern.busyNs, 7.0);
    EXPECT_EQ(cal.stats(EngineId::Fault).executed, 0u);
}

// ---- Handler scheduling --------------------------------------------------

TEST(EventCalendar, SerialRunsAllowSameTimeScheduling)
{
    // A handler may schedule at its own timestamp (even on an
    // earlier-ordered engine) and the event still executes.
    EventCalendar cal;
    std::vector<int> order;
    cal.schedule(EngineId::Sdma, 5.0, 0.0, [&] {
        order.push_back(1);
        cal.schedule(EngineId::Host, 5.0, 0.0, [&] { order.push_back(2); });
    });
    EXPECT_EQ(cal.runAll(), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

} // namespace
} // namespace upm::sched
