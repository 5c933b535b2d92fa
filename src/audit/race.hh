/**
 * @file
 * Vector-clock happens-before engine over simulated page accesses.
 *
 * The classic UPM porting bug (paper Section 3.3 / Section 5): under
 * the unified model nothing forces the CPU to wait for the GPU before
 * touching shared memory -- the hipMemcpy that used to act as a
 * barrier is gone. The detector models each ordering agent (the host
 * thread, plus one agent per HIP stream) with a vector clock; stream
 * enqueues, stream/device synchronization, and event edges establish
 * happens-before, and every *modelled* page access (kernel buffer
 * footprints, memcpy source/destination, cpuStream/cpuFirstTouch
 * ranges) is checked against the last conflicting access to the page.
 *
 * This is FastTrack-lite at page-*run* granularity: the shadow is a
 * RunMap of maximal runs of pages that share one state (the last write
 * epoch and the read epochs since that write). An access inserts each
 * untracked gap as a run with a fresh state, then updates the window:
 * the runs split at its two ends, the per-page rule applies once per
 * run, and neighbours whose states became equal join, so a kernel
 * sweeping a whole buffer costs O(runs), not O(pages). Races are
 * still reported per page: a conflicting run fans out one report per
 * page, in ascending page order, exactly as a per-page shadow would.
 * Site strings are interned, so an epoch is three integers.
 */

#ifndef UPM_AUDIT_RACE_HH
#define UPM_AUDIT_RACE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/run_map.hh"

namespace upm::audit {

/** An ordering agent: kHostAgent, or a per-stream id (stream id + 1). */
using AgentId = unsigned;

/** The host (CPU) agent. */
inline constexpr AgentId kHostAgent = 0;

/** One racing pair, handed to the Auditor for reporting. */
struct RaceReport
{
    std::uint64_t page = 0;  //!< virtual page number
    AgentId firstAgent = 0;
    std::string firstSite;
    AgentId secondAgent = 0;
    std::string secondSite;

    bool operator==(const RaceReport &) const = default;
};

/**
 * The happens-before engine. Pure shadow state: it never touches the
 * simulation, and the Auditor owns exactly one.
 */
class RaceDetector
{
  public:
    /**
     * Establish a happens-before edge @p from -> @p to (release on
     * @p from, acquire on @p to): to's clock absorbs from's, and from
     * advances so its later work is not retroactively ordered.
     */
    void edge(AgentId from, AgentId to);

    /** Edge from every known agent into @p to (hipDeviceSynchronize). */
    void edgeAll(AgentId to);

    /**
     * Record an access by @p agent to pages [first, first+count) and
     * collect any races against prior unordered conflicting accesses.
     * @p site labels the access in reports (e.g. "kernel 'fdwt53'").
     * At most one race is reported per page per call, in ascending
     * page order.
     */
    void accessRange(AgentId agent, std::uint64_t first,
                     std::uint64_t count, bool is_write,
                     const std::string &site,
                     std::vector<RaceReport> &races);

    /** Forget all page state, clocks and sites (between benchmark
     *  runs). */
    void reset();

    /** Pages currently tracked (test/introspection surface). */
    std::uint64_t trackedPages() const { return runs.keyCount(); }

    /** Shadow runs currently stored (test/introspection surface). */
    std::size_t runCount() const { return runs.runCount(); }

  private:
    /** An access epoch: who, at what point of their clock, and where
     *  (an index into @ref sites). */
    struct Epoch
    {
        AgentId agent = 0;
        std::uint64_t clock = 0;
        std::uint32_t site = 0;

        bool operator==(const Epoch &) const = default;
    };

    struct PageState
    {
        Epoch lastWrite;
        bool hasWrite = false;
        /** Reads since the last write, at most one epoch per agent, in
         *  first-read order (the first unordered one is reported). */
        std::vector<Epoch> reads;

        bool operator==(const PageState &) const = default;
    };

    /** Grow the clock matrix to cover @p agent. */
    void ensureAgent(AgentId agent);
    /** Does @p epoch happen-before agent @p a's current clock? */
    bool happensBefore(const Epoch &epoch, AgentId a) const;
    /** Id of @p site, interning it on first use. */
    std::uint32_t internSite(const std::string &site);

    /** clocks[a][b]: the latest clock of b that a has acquired. */
    std::vector<std::vector<std::uint64_t>> clocks;
    /** Tracked pages in maximal runs of equal state. */
    RunMap<PageState> runs;
    std::vector<std::string> sites;
    std::unordered_map<std::string, std::uint32_t> siteIds;
};

} // namespace upm::audit

#endif // UPM_AUDIT_RACE_HH
