/**
 * @file
 * Fig. 11: six Rodinia HPC applications ported to the unified memory
 * model, relative to the explicit-model baseline: total execution
 * time, main-compute time, and peak memory usage (libnuma sampling).
 *
 * Expected shape (paper Section 6): unified matches or beats explicit
 * everywhere except the nn compute outlier (GPU page faults on the
 * default-allocator std::vector) and heartwall-v1 (+~18% from managed
 * statics); memory drops 10-44% in backprop/hotspot/nn/srad and stays
 * flat in dwt2d (peak is in the CPU-only I/O phase) and heartwall
 * (double buffer == host+device pair).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "inject/config.hh"
#include "workloads/workload.hh"

using namespace upm;
using namespace upm::workloads;

namespace {

/** One (app, model) run: its report plus the audit outcome. */
struct RunCell
{
    RunReport report;
    std::uint64_t violations = 0;
    std::string auditSummary;  //!< non-empty only when not clean
};

} // namespace

int
main(int argc, char **argv)
{
    // --audit: run every app under the UPMSan invariant auditor and
    // race detector, and fail if any run is not clean.
    // --inject: after the baseline table, run the UPMInject campaign
    // (seeded fault injection over every app x model).
    auto opt = bench::Options::parse(
        argc, argv, bench::kAllowAudit | bench::kAllowInject);
    core::SystemConfig cfg;
    cfg.audit.enabled = opt.audit;

    setQuiet(true);
    bench::banner("Figure 11",
                  "Six Rodinia apps: unified vs explicit model");

    bench::JsonReporter json("fig11_apps", opt.jsonPath);

    // Each (app, model) run consumes a fresh System, so the whole
    // suite fans out: task 2i runs app i explicit, task 2i+1 unified.
    // Workload objects are constructed per task -- run() may keep
    // per-instance scratch state.
    const std::size_t num_apps = makeAllWorkloads().size();
    std::vector<RunCell> cells(num_apps * 2);
    exec::globalPool().parallelFor(num_apps * 2, [&](std::size_t t) {
        auto workload = std::move(makeAllWorkloads()[t / 2]);
        Model model = t % 2 == 0 ? Model::Explicit : Model::Unified;
        core::System sys(cfg);
        RunCell &cell = cells[t];
        cell.report = workload->run(sys, model);
        if (sys.auditor() != nullptr) {
            sys.finalizeAudit();
            cell.violations = sys.auditor()->totalViolations();
            if (!sys.auditor()->clean())
                cell.auditSummary = sys.auditor()->summary();
        }
    });

    std::uint64_t total_violations = 0;
    std::printf("%-14s %21s %21s %19s %9s\n", "app",
                "total (exp -> uni)", "compute (exp -> uni)",
                "peak mem (MiB)", "validate");
    for (std::size_t i = 0; i < num_apps; ++i) {
        const RunReport &e = cells[2 * i].report;
        const RunReport &u = cells[2 * i + 1].report;
        for (const RunCell *cell : {&cells[2 * i], &cells[2 * i + 1]}) {
            total_violations += cell->violations;
            if (!cell->auditSummary.empty()) {
                std::printf("  [%s] %s\n",
                            modelName(cell->report.model),
                            cell->auditSummary.c_str());
            }
        }
        bool valid = e.checksum == u.checksum;
        json.point()
            .param("app", e.app)
            .metric("explicit_total_ns", e.totalTime)
            .metric("unified_total_ns", u.totalTime)
            .metric("explicit_compute_ns", e.computeTime)
            .metric("unified_compute_ns", u.computeTime)
            .metric("explicit_peak_bytes", e.peakMemory)
            .metric("unified_peak_bytes", u.peakMemory)
            .metric("validated", static_cast<std::uint64_t>(valid));
        std::printf(
            "%-14s %7.1f->%7.1fms %4.2fx %6.2f->%6.2fms %5.2fx "
            "%5llu->%5llu %+4.0f%% %9s\n",
            e.app.c_str(), e.totalTime / 1e6, u.totalTime / 1e6,
            u.totalTime / e.totalTime, e.computeTime / 1e6,
            u.computeTime / 1e6, u.computeTime / e.computeTime,
            static_cast<unsigned long long>(e.peakMemory / MiB),
            static_cast<unsigned long long>(u.peakMemory / MiB),
            100.0 * (static_cast<double>(u.peakMemory) /
                         static_cast<double>(e.peakMemory) -
                     1.0),
            valid ? "OK" : "MISMATCH");
    }
    json.write();
    bench::captureTrace(opt, cfg, [&](core::System &sys) {
        auto workload = std::move(makeAllWorkloads()[0]);
        workload->run(sys, Model::Unified);
    });
    if (opt.audit) {
        std::printf("UPMSan: %llu violation(s) across the suite\n",
                    static_cast<unsigned long long>(total_violations));
        if (total_violations > 0)
            return 1;
    }

    // ---- UPMInject campaign --------------------------------------------
    // Every app x model runs `--inject-runs` times under the standard
    // campaign fault mix, each run with its own deterministic seed
    // derived from the root. The survival contract: each run either
    // completes with the clean run's checksum, or fails with a
    // structured StatusError -- never an unstructured crash, a hang,
    // or silent corruption. Per-task Systems keep the outcome
    // independent of --workers.
    unsigned campaign_failures = 0;
    if (opt.inject) {
        std::printf("\nUPMInject campaign: %u run(s) per config, "
                    "root seed 0x%llx\n",
                    opt.injectRuns,
                    static_cast<unsigned long long>(opt.injectSeed));

        struct CampaignCell
        {
            bool ok = false;
            bool completed = false;
            std::string outcome;
            std::uint64_t seed = 0;
            std::uint64_t events = 0;
        };
        const std::size_t tasks =
            num_apps * 2 * static_cast<std::size_t>(opt.injectRuns);
        std::vector<CampaignCell> camp(tasks);
        exec::globalPool().parallelFor(tasks, [&](std::size_t t) {
            std::size_t config = t / opt.injectRuns;
            std::size_t app_idx = config / 2;
            Model model =
                config % 2 == 0 ? Model::Explicit : Model::Unified;
            CampaignCell &cell = camp[t];
            cell.seed = exec::taskSeed(opt.injectSeed, t);

            core::SystemConfig icfg = cfg;
            icfg.inject = inject::InjectConfig::campaign(cell.seed);
            auto workload = std::move(makeAllWorkloads()[app_idx]);
            core::System sys(icfg);
            double expect =
                cells[config].report.checksum;  // clean-run checksum
            try {
                RunReport r = workload->run(sys, model);
                cell.completed = true;
                if (r.checksum == expect) {
                    cell.ok = true;
                    cell.outcome = "completed, checksum OK";
                } else {
                    cell.outcome = strprintf(
                        "SILENT CORRUPTION: checksum %.17g != %.17g",
                        r.checksum, expect);
                }
            } catch (const StatusError &e) {
                cell.ok = true;
                cell.outcome =
                    std::string("structured failure: ") + e.what();
            } catch (const SimError &e) {
                cell.outcome =
                    std::string("UNSTRUCTURED ERROR: ") + e.what();
            }
            if (sys.injector() != nullptr)
                cell.events = sys.injector()->totalEvents();
        });

        std::size_t completed = 0, structured = 0;
        std::uint64_t total_events = 0;
        for (std::size_t t = 0; t < tasks; ++t) {
            const CampaignCell &cell = camp[t];
            total_events += cell.events;
            if (cell.ok) {
                (cell.completed ? completed : structured) += 1;
                continue;
            }
            ++campaign_failures;
            std::size_t config = t / opt.injectRuns;
            std::printf(
                "  FAIL %-12s %-8s seed 0x%016llx: %s\n"
                "       replay: task %zu of --inject-seed 0x%llx "
                "(campaign seed above feeds InjectConfig::campaign)\n",
                cells[config].report.app.c_str(),
                modelName(config % 2 == 0 ? Model::Explicit
                                          : Model::Unified),
                static_cast<unsigned long long>(cell.seed),
                cell.outcome.c_str(), t,
                static_cast<unsigned long long>(opt.injectSeed));
        }
        std::printf("campaign: %zu run(s), %zu completed clean, "
                    "%zu structured failure(s), %u violation(s), "
                    "%llu injected event(s)\n",
                    tasks, completed, structured, campaign_failures,
                    static_cast<unsigned long long>(total_events));
    }
    return campaign_failures > 0 ? 1 : 0;
}
