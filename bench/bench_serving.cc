/**
 * @file
 * UPMServe serving-node bench: tail latency and robustness under
 * multi-tenant churn (paper Sections 2.1/7 robustness findings, taken
 * from one-shot survival to a long-lived serving shape).
 *
 * Four scenarios sweep the serving node's regimes: `steady` (ample
 * headroom, pure tail-latency baseline), `churn` (process lifetime 1:
 * every request is a full AddressSpace create/run/destroy cycle),
 * `pressure` (ballast parks the node against the degradation tiers so
 * admission control, arena shrinking and idle eviction all engage),
 * and `burst` (arrival rate far past per-tenant service capacity, so
 * queueing in virtual time breaks the SLO and requests report
 * structured Timeouts).
 *
 * Each point runs on its own audited System: the report carries
 * p50/p99/p999 latency, shed/degrade/OOM counters, and churn totals,
 * and the point fails if UPMSan finds a leaked frame, if the free
 * lists fragment, or if any disposition is missing. All points run on
 * the deterministic worker pool -- byte-identical at any --workers,
 * with tracing on or off.
 *
 * `--inject` runs the chaos campaign: every scenario x `--inject-runs`
 * seeds under the standard campaign mix plus the serve-layer sites
 * (process kills, request storms). Each run must complete with every
 * failure surfaced as a structured Status -- and leak-free -- or fail
 * with a structured StatusError; anything else fails the bench.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "audit/auditor.hh"
#include "bench_util.hh"
#include "core/system.hh"
#include "serve/node.hh"

using namespace upm;

namespace {

struct Scenario
{
    const char *label;
    std::uint64_t capacityBytes;
    /** Pre-occupied by the primary process, to park the node's base
     *  memory pressure where the scenario needs it. */
    std::uint64_t ballastBytes;
    std::uint64_t requests;  //!< full scale; --smoke divides by 8
    unsigned tenants;
    std::uint64_t lifetime;
    double rateHz;
};

constexpr Scenario kScenarios[] = {
    {"steady", 512 * MiB, 0, 4096, 8, 64, 50.0e3},
    {"churn", 512 * MiB, 0, 4096, 8, 1, 50.0e3},
    {"pressure", 256 * MiB, 120 * MiB, 2048, 16, 32, 50.0e3},
    {"burst", 512 * MiB, 0, 2048, 4, 64, 2.0e6},
    // Ballast past rejectPressure and unreclaimable (it belongs to
    // the primary process): admission must shed everything with
    // structured statuses and spawn nothing.
    {"overload", 256 * MiB, 240 * MiB, 1024, 8, 64, 50.0e3},
};
constexpr std::size_t kNumScenarios =
    sizeof(kScenarios) / sizeof(kScenarios[0]);

serve::ServeConfig
serveConfigFor(const Scenario &s, bool smoke)
{
    serve::ServeConfig cfg;
    cfg.numRequests = smoke ? s.requests / 8 : s.requests;
    cfg.numTenants = s.tenants;
    cfg.processLifetime = s.lifetime;
    cfg.arrivalRateHz = s.rateHz;
    return cfg;
}

/** Outcome of one scenario point. */
struct Point
{
    serve::ServeStats st;
    std::uint64_t frameLeaks = 0;
    std::uint64_t freeListGrowth = 0;
    bool auditClean = false;
    std::string auditSummary;
};

Point
runPoint(const Scenario &s, bool smoke)
{
    core::SystemConfig syscfg;
    syscfg.geometry.capacityBytes = s.capacityBytes;
    syscfg.audit.enabled = true;
    syscfg.audit.warnOnViolation = false;
    core::System sys(syscfg);
    if (s.ballastBytes != 0)
        sys.runtime().hipMalloc(s.ballastBytes);
    std::uint64_t nodes0 = sys.nodeMemory().freeListNodes();

    serve::ServeNode node(sys, serveConfigFor(s, smoke));
    node.run();

    Point out;
    out.st = node.stats();
    std::uint64_t nodes1 = sys.nodeMemory().freeListNodes();
    out.freeListGrowth = nodes1 > nodes0 ? nodes1 - nodes0 : 0;
    sys.finalizeAudit();
    out.frameLeaks =
        sys.auditor()->countOf(audit::ViolationKind::FrameLeak);
    out.auditClean = sys.auditor()->clean();
    out.auditSummary = sys.auditor()->summary();
    return out;
}

/** One chaos-campaign cell: scenario x derived seed. */
struct CampaignCell
{
    bool ok = false;
    bool completed = false;
    std::string outcome;
    std::uint64_t seed = 0;
    std::uint64_t crashes = 0;
    std::uint64_t storms = 0;
    std::uint64_t frameLeaks = 0;
};

CampaignCell
runCampaignCell(const Scenario &s, std::uint64_t seed, bool smoke)
{
    CampaignCell cell;
    cell.seed = seed;

    core::SystemConfig syscfg;
    syscfg.geometry.capacityBytes = s.capacityBytes;
    syscfg.audit.enabled = true;
    syscfg.audit.warnOnViolation = false;
    // The standard campaign mix, plus the serve-layer chaos sites.
    syscfg.inject = inject::InjectConfig::campaign(seed);
    syscfg.inject.processKillProb = 0.02;
    syscfg.inject.requestStormProb = 0.02;
    syscfg.inject.requestStormMaxBurst = 8;
    core::System sys(syscfg);
    if (s.ballastBytes != 0)
        sys.runtime().hipMalloc(s.ballastBytes);

    try {
        serve::ServeNode node(sys, serveConfigFor(s, smoke));
        node.run();
        cell.completed = true;
        cell.ok = true;
        cell.crashes = node.stats().processesCrashed;
        cell.storms = node.stats().stormArrivals;
        cell.outcome = strprintf(
            "completed: %llu crash(es), %llu storm arrival(s), "
            "%llu/%llu served",
            static_cast<unsigned long long>(cell.crashes),
            static_cast<unsigned long long>(cell.storms),
            static_cast<unsigned long long>(node.stats().completed),
            static_cast<unsigned long long>(node.stats().arrivals));
    } catch (const StatusError &e) {
        // An injected fault escaped a request body: still a
        // structured, typed failure -- acceptable by contract.
        cell.ok = true;
        cell.outcome = std::string("structured failure: ") + e.what();
    } catch (const SimError &e) {
        cell.outcome = std::string("UNSTRUCTURED ERROR: ") + e.what();
    }

    // Whatever happened above, the ServeNode has been destroyed and
    // with it every process; the node must be leak-free.
    sys.finalizeAudit();
    cell.frameLeaks =
        sys.auditor()->countOf(audit::ViolationKind::FrameLeak);
    if (cell.frameLeaks != 0) {
        cell.ok = false;
        cell.outcome += strprintf(
            " + %llu frame leak(s)",
            static_cast<unsigned long long>(cell.frameLeaks));
    }
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::Options::parse(argc, argv, bench::kAllowInject);
    setQuiet(true);
    bench::banner("UPMServe serving node (robustness)",
                  "multi-tenant churn: admission, degradation, chaos");

    bench::JsonReporter json("serving", opt.jsonPath);

    std::vector<Point> points(kNumScenarios);
    exec::globalPool().parallelFor(kNumScenarios, [&](std::size_t t) {
        points[t] = runPoint(kScenarios[t], opt.smoke);
    });

    int failures = 0;
    std::printf("%-10s %9s %9s %9s %9s %9s %9s %9s\n", "scenario",
                "arrivals", "complete", "shed", "oom", "p50", "p99",
                "p999");
    for (std::size_t i = 0; i < kNumScenarios; ++i) {
        const Scenario &s = kScenarios[i];
        const Point &p = points[i];
        const serve::ServeStats &st = p.st;
        bool has_lat = st.latency.count() != 0;
        bool bad = p.frameLeaks != 0 || !p.auditClean ||
                   p.freeListGrowth > 16;
        if (bad)
            ++failures;
        std::printf(
            "%-10s %9llu %9llu %9llu %9llu %9s %9s %9s%s\n", s.label,
            static_cast<unsigned long long>(st.arrivals),
            static_cast<unsigned long long>(st.completed),
            static_cast<unsigned long long>(st.rejected +
                                            st.deadlineShed),
            static_cast<unsigned long long>(st.oomFailed),
            has_lat ? bench::fmtTime(st.latency.percentile(50.0)).c_str()
                    : "-",
            has_lat ? bench::fmtTime(st.latency.percentile(99.0)).c_str()
                    : "-",
            has_lat ? bench::fmtTime(st.latency.p999()).c_str() : "-",
            bad ? "  <-- FAIL" : "");
        if (bad)
            std::printf("  audit: %s, free-list growth %llu\n",
                        p.auditSummary.c_str(),
                        static_cast<unsigned long long>(
                            p.freeListGrowth));
        json.point()
            .param("scenario", std::string(s.label))
            .param("capacity_bytes", s.capacityBytes)
            .param("tenants", static_cast<std::uint64_t>(s.tenants))
            .param("lifetime", s.lifetime)
            .metric("arrivals", st.arrivals)
            .metric("completed", st.completed)
            .metric("rejected", st.rejected)
            .metric("deadline_shed", st.deadlineShed)
            .metric("cancelled", st.cancelled)
            .metric("oom_failed", st.oomFailed)
            .metric("timed_out", st.timedOut)
            .metric("retries", st.retries)
            .metric("queued", st.queued)
            .metric("degrade_t1", st.degradeEvents[0])
            .metric("degrade_t2", st.degradeEvents[1])
            .metric("degrade_t3", st.degradeEvents[2])
            .metric("pages_reclaimed_degrade", st.pagesReclaimedDegrade)
            .metric("processes_spawned", st.processesSpawned)
            .metric("processes_retired", st.processesRetired)
            .metric("processes_evicted", st.processesEvicted)
            .metric("latency_p50_ns",
                    has_lat ? st.latency.percentile(50.0) : 0.0)
            .metric("latency_p99_ns",
                    has_lat ? st.latency.percentile(99.0) : 0.0)
            .metric("latency_p999_ns", has_lat ? st.latency.p999() : 0.0)
            .metric("latency_mean_ns", has_lat ? st.latency.mean() : 0.0)
            .metric("queue_wait_mean_ns",
                    st.queueWait.count() != 0 ? st.queueWait.mean()
                                              : 0.0)
            .metric("end_ns", st.endNs)
            .metric("frame_leaks", p.frameLeaks)
            .metric("free_list_growth", p.freeListGrowth);
    }

    // ---- Chaos campaign (--inject) -------------------------------------
    unsigned campaign_failures = 0;
    if (opt.inject) {
        std::printf("\nUPMServe chaos campaign: %u run(s) per "
                    "scenario, root seed 0x%llx\n",
                    opt.injectRuns,
                    static_cast<unsigned long long>(opt.injectSeed));
        const std::size_t tasks =
            kNumScenarios * static_cast<std::size_t>(opt.injectRuns);
        std::vector<CampaignCell> camp(tasks);
        exec::globalPool().parallelFor(tasks, [&](std::size_t t) {
            camp[t] = runCampaignCell(
                kScenarios[t / opt.injectRuns],
                exec::taskSeed(opt.injectSeed, t), opt.smoke);
        });
        std::size_t completed = 0, structured = 0;
        std::uint64_t crashes = 0, storms = 0;
        for (std::size_t t = 0; t < tasks; ++t) {
            const CampaignCell &cell = camp[t];
            crashes += cell.crashes;
            storms += cell.storms;
            if (cell.ok) {
                (cell.completed ? completed : structured) += 1;
                continue;
            }
            ++campaign_failures;
            std::printf("  FAIL %-10s seed 0x%016llx: %s\n"
                        "       replay: task %zu of --inject-seed "
                        "0x%llx\n",
                        kScenarios[t / opt.injectRuns].label,
                        static_cast<unsigned long long>(cell.seed),
                        cell.outcome.c_str(), t,
                        static_cast<unsigned long long>(
                            opt.injectSeed));
        }
        std::printf("campaign: %zu run(s), %zu completed clean, "
                    "%zu structured failure(s), %u FAILURE(s), "
                    "%llu kill(s), %llu storm arrival(s)\n",
                    tasks, completed, structured, campaign_failures,
                    static_cast<unsigned long long>(crashes),
                    static_cast<unsigned long long>(storms));
    }

    json.write();

    // Traced capture: a small chaotic serving run, so request
    // begin/end/shed, degradation and process spawn/exit events all
    // land on the bus.
    {
        core::SystemConfig tcfg;
        tcfg.geometry.capacityBytes = 128 * MiB;
        tcfg.inject.enabled = true;
        tcfg.inject.processKillProb = 0.05;
        tcfg.inject.requestStormProb = 0.05;
        bench::captureTrace(opt, tcfg, [&](core::System &sys) {
            serve::ServeConfig scfg;
            scfg.numRequests = 128;
            scfg.numTenants = 4;
            scfg.processLifetime = 8;
            serve::ServeNode node(sys, scfg);
            node.run();
        });
    }

    failures += static_cast<int>(campaign_failures);
    if (failures > 0) {
        std::printf("\n%d serving check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("\nall serving checks passed\n");
    return 0;
}
