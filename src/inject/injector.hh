/**
 * @file
 * UPMInject: deterministic, seed-driven fault injection.
 *
 * The paper's failure semantics are only half the story without a way
 * to *reach* them: UPM's OOM is a rare event in a healthy run, and
 * the fault pipeline (HMM workers, XNACK replay, SDMA, HBM channels)
 * never loses anything in the functional model. The Injector makes
 * those losses reproducible: instrumented components
 * (mem::FrameAllocator, vm::FaultHandler, hip::MemcpyEngine,
 * hip::Runtime) hold an `Injector *` that is null unless injection is
 * enabled, and consult cheap decision hooks at each fault site.
 *
 * Determinism contract: each site draws from its own SplitMix64
 * stream seeded from InjectConfig::seed, and every decision is
 * counted, so two Systems constructed with the same config observe
 * the same injected-event sequence for the same operation sequence --
 * independent of worker count, because each sweep task owns its
 * System (DESIGN.md §8/§10). The Injector sits directly above
 * `common` in the layering, beside the auditor, and speaks plain
 * integers so lower layers can depend on it without inversion.
 */

#ifndef UPM_INJECT_INJECTOR_HH
#define UPM_INJECT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hooks.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "inject/config.hh"

namespace upm::inject {

/** The fault sites UPMInject can perturb. */
enum class Site : std::uint8_t {
    FrameAlloc,  //!< frame-allocation failure (mem layer)
    HmmDrop,     //!< dropped HMM fault-worker completion (vm layer)
    HmmDelay,    //!< delayed HMM fault-worker completion (vm layer)
    XnackStorm,  //!< bounded XNACK replay storm (vm layer)
    SdmaStall,   //!< SDMA engine stall (hip layer)
    HbmDegrade,  //!< transient HBM channel degradation (hip layer)
    // Appended sites (serve layer). Streams are seeded sequentially
    // from the root seed, so appending sites leaves every existing
    // site's decision stream identical -- the Fig. 11 campaign CI
    // pins those streams.
    ProcessKill,   //!< simulated serving-process crash (serve layer)
    RequestStorm,  //!< burst of extra request arrivals (serve layer)
};

inline constexpr unsigned kNumSites = 8;

const char *siteName(Site site);

/** One injected fault, in decision order. */
struct InjectedEvent
{
    Site site = Site::FrameAlloc;
    /** Global event sequence number (0-based, across all sites). */
    std::uint64_t sequence = 0;
    /** Which decision at this site fired (0-based per-site index). */
    std::uint64_t decision = 0;
    std::string detail;
};

/**
 * Decision engine + event log. Each hook both decides (from the
 * site's private stream) and records what it injected, so a campaign
 * can print the exact sequence for replay.
 */
class Injector
{
  public:
    /** With a tracer in @p hooks, every injected event (a record()
     *  call) also lands on the trace bus as an InjectDecision event. */
    explicit Injector(const InjectConfig &config, const Hooks &hooks = {});

    const InjectConfig &config() const { return cfg; }

    // ---- Decision hooks ----------------------------------------------
    /** Should this @p frames-frame allocation request fail? */
    bool failFrameAlloc(std::uint64_t frames);

    /** Was this HMM fault-worker completion dropped (needs retry)? */
    bool dropHmmCompletion();

    /** Delay multiplier for an HMM completion (1.0 = on time). */
    double hmmDelayFactor();

    /** Extra XNACK replay rounds for a @p pages-page GPU fault batch
     *  (0 = no storm; bounded by config().xnackStormMaxReplays). */
    unsigned xnackReplayStorm(std::uint64_t pages);

    /** Additional SDMA stall time for one transfer (0.0 = none). */
    SimTime sdmaStall();

    /** Bandwidth multiplier for one HBM-bound operation (1.0 = full
     *  bandwidth; < 1.0 while a degradation episode is active). */
    double hbmDegradeFactor();

    /** Should serving process @p pid crash at this request dispatch?
     *  The caller cancels the request and reclaims the process. */
    bool killProcess(std::uint64_t pid);

    /** Extra request arrivals injected at this arrival (0 = no storm;
     *  bounded by config().requestStormMaxBurst). */
    unsigned requestStorm();

    // ---- Reporting ---------------------------------------------------
    /** Recorded events, in decision order (capped at maxRecorded). */
    const std::vector<InjectedEvent> &events() const { return log; }

    /** Total events injected (keeps counting past maxRecorded). */
    std::uint64_t totalEvents() const { return total; }

    /** Events injected at one site. */
    std::uint64_t countOf(Site site) const;

    /** Decisions taken at one site (fired or not). */
    std::uint64_t decisionsAt(Site site) const;

    /** One-line summary for a bench's campaign footer. */
    std::string summary() const;

  private:
    /** Draw the @p site stream; true with probability @p prob. */
    bool roll(Site site, double prob);
    void record(Site site, std::string detail);

    InjectConfig cfg;
    std::vector<SplitMix64> streams;
    std::array<std::uint64_t, kNumSites> decisions{};
    std::array<std::uint64_t, kNumSites> counts{};
    std::vector<InjectedEvent> log;
    std::uint64_t total = 0;
    /** Remaining operations in the active HBM degradation episode. */
    std::uint64_t degradeOpsLeft = 0;
    /** UPMTrace hook; null (no overhead) unless tracing is on. */
    trace::Tracer *tr;
};

} // namespace upm::inject

#endif // UPM_INJECT_INJECTOR_HH
