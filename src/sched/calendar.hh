/**
 * @file
 * The event calendar: a SimTime-ordered discrete-event core with one
 * FIFO queue per engine.
 *
 * Ordering contract. Every event is executed in the strict total order
 *
 *     (when, target engine, source engine, per-source sequence)
 *
 * where the source is the engine whose handler scheduled the event
 * (kExternalSource for events scheduled from outside any handler).
 * Same-timestamp ties therefore resolve FIFO per engine and in fixed
 * EngineId order across engines -- never by scheduling-thread or heap
 * internals -- so a calendar run is a pure function of the schedule
 * calls.
 *
 * Lock discipline: the queues, sequence counters and stats are
 * UPM_GUARDED_BY the calendar mutex; handlers run outside the lock, so
 * a handler may schedule further events.
 */

#ifndef UPM_SCHED_CALENDAR_HH
#define UPM_SCHED_CALENDAR_HH

#include <array>
#include <cstdint>
#include <functional>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "common/units.hh"
#include "sched/engine.hh"
#include "sched/time_heap.hh"

namespace upm::sched {

/** Per-engine bookkeeping the calendar accumulates as it executes. */
struct EngineStats
{
    /** Events executed on this engine. */
    std::uint64_t executed = 0;
    /** Sum of the busy durations carried by executed events (ns). */
    SimTime busyNs = 0.0;
    /** Timestamp of the latest executed event (ns). */
    SimTime lastEventNs = 0.0;
};

/** The per-System event calendar. */
class EventCalendar
{
  public:
    using Handler = std::function<void()>;

    EventCalendar();

    EventCalendar(const EventCalendar &) = delete;
    EventCalendar &operator=(const EventCalendar &) = delete;

    /**
     * Schedule @p fn on @p target at simulated time @p when. @p busy
     * is accounted into the engine's EngineStats::busyNs when the
     * event executes (pass the operation's duration to build engine
     * utilization profiles); an empty @p fn is a pure completion
     * marker that only updates the stats.
     */
    void schedule(EngineId target, SimTime when, SimTime busy = 0.0,
                  Handler fn = {});

    bool empty() const;
    std::size_t pending() const;
    /** Earliest pending event time, or a negative value when empty. */
    SimTime nextTime() const;

    /** Execute every event with `when <= horizon` in calendar order.
     *  @return the number of events executed. */
    std::size_t runUntil(SimTime horizon);

    /** Execute every pending event in calendar order. */
    std::size_t runAll();

    /** Timestamp of the latest executed event across all engines. */
    SimTime completedThrough() const;

    EngineStats stats(EngineId engine) const;

  private:
    /** One scheduled event on an engine queue. */
    struct Event
    {
        SimTime busy = 0.0;
        Handler fn;
    };

    void scheduleLocked(unsigned source, EngineId target, SimTime when,
                        SimTime busy, Handler fn) UPM_REQUIRES(mtx);
    /** Engine with the globally minimal (when, engine) key, or -1. */
    int bestEngineLocked() const UPM_REQUIRES(mtx);

    mutable Mutex mtx;
    std::array<TimeHeap<Event>, kNumEngines> queues UPM_GUARDED_BY(mtx);
    /** Per-source FIFO sequence counters (last slot: external). */
    std::array<std::uint64_t, kNumEngines + 1> seqOf UPM_GUARDED_BY(mtx);
    std::array<EngineStats, kNumEngines> engineStats UPM_GUARDED_BY(mtx);
    SimTime completedNs UPM_GUARDED_BY(mtx) = 0.0;
};

} // namespace upm::sched

#endif // UPM_SCHED_CALENDAR_HH
