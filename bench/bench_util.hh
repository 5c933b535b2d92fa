/**
 * @file
 * Shared helpers for the per-figure bench binaries: pretty units, the
 * standard header each bench prints, the common command-line options
 * (`--json <path>`, `--workers N`, `--smoke`, and per-bench extras),
 * and the structured JSON reporter that records bench id, worker
 * count, wall time and every sweep point's parameters and metrics --
 * the `BENCH_*.json` artifacts CI uploads to track the perf
 * trajectory. Metric values are printed with full precision, so two
 * runs at different worker counts must produce byte-identical point
 * arrays (only the wall-time field may differ).
 */

#ifndef UPM_BENCH_BENCH_UTIL_HH
#define UPM_BENCH_BENCH_UTIL_HH

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/units.hh"
#include "core/system.hh"
#include "exec/task_pool.hh"
#include "policy/policy.hh"
#include "trace/chrome_export.hh"
#include "trace/tracer.hh"

namespace upm::bench {

/** Print the standard bench banner. */
inline void
banner(const char *artifact, const char *what)
{
    std::printf("==============================================================\n");
    std::printf("upmsim reproduction of %s\n", artifact);
    std::printf("%s\n", what);
    std::printf("model scale: 8 GiB simulated HBM (real MI300A: 128 GiB); "
                "timing is model-simulated\n");
    std::printf("==============================================================\n");
}

/** Human-readable byte count (KiB/MiB/GiB). */
inline std::string
fmtBytes(std::uint64_t bytes)
{
    if (bytes >= GiB && bytes % GiB == 0)
        return strprintf("%llu GiB",
                         static_cast<unsigned long long>(bytes / GiB));
    if (bytes >= MiB && bytes % MiB == 0)
        return strprintf("%llu MiB",
                         static_cast<unsigned long long>(bytes / MiB));
    if (bytes >= KiB && bytes % KiB == 0)
        return strprintf("%llu KiB",
                         static_cast<unsigned long long>(bytes / KiB));
    return strprintf("%llu B", static_cast<unsigned long long>(bytes));
}

/** Human-readable time from nanoseconds. */
inline std::string
fmtTime(double ns)
{
    if (ns >= 1e9)
        return strprintf("%.3g s", ns / 1e9);
    if (ns >= 1e6)
        return strprintf("%.3g ms", ns / 1e6);
    if (ns >= 1e3)
        return strprintf("%.3g us", ns / 1e3);
    return strprintf("%.3g ns", ns);
}

/**
 * Parse @p text, the value of command-line flag @p flag, as a number
 * in [@p lo, @p hi]. The whole token must be the number: integers are
 * decimal or 0x-prefixed hex, reals are plain decimal. Anything else
 * (empty, trailing junk, a sign on an unsigned, out of range) prints
 * "<flag> needs <what>" and exits 2, like every other bad bench flag.
 */
template <typename T>
T
parseNumber(const char *flag, const char *text, const char *what, T lo,
            T hi = std::numeric_limits<T>::max())
{
    const char *first = text;
    const char *last = text + std::strlen(text);
    T v{};
    std::from_chars_result res;
    if constexpr (std::is_integral_v<T>) {
        int base = 10;
        if (last - first > 2 && first[0] == '0' &&
            (first[1] == 'x' || first[1] == 'X')) {
            first += 2;
            base = 16;
        }
        res = std::from_chars(first, last, v, base);
    } else {
        res = std::from_chars(first, last, v);
    }
    // Written so a NaN fails the range test too.
    if (res.ec != std::errc() || res.ptr != last || !(v >= lo && v <= hi)) {
        std::fprintf(stderr, "%s needs %s, got '%s'\n", flag, what, text);
        std::exit(2);
    }
    return v;
}

/** Per-bench extra flags Options::parse accepts; OR them together. */
enum AllowFlags : unsigned {
    kAllowAudit = 1u << 0,          //!< --audit
    kAllowInject = 1u << 1,         //!< --inject / --inject-seed / -runs
    kAllowOversubscribe = 1u << 2,  //!< --oversubscribe F
    kAllowSockets = 1u << 3,        //!< --sockets N
    kAllowPolicy = 1u << 4,         //!< --policy NAME
};

/**
 * Command-line options shared by every bench binary. `--workers`
 * resizes the global sweep pool before any point runs; `--smoke`
 * selects each bench's reduced-scale sweep (CI's bench-smoke step);
 * the AllowFlags extras are accepted only where a bench opts in.
 */
struct Options
{
    std::string jsonPath;   //!< --json <path>; empty = no report
    unsigned workers = 0;   //!< --workers N; 0 = UPM_WORKERS/default
    bool smoke = false;     //!< --smoke: reduced-scale sweep
    bool audit = false;     //!< --audit (benches that allow it)

    // UPMInject campaign flags (benches that allow them; fig. 11).
    bool inject = false;                     //!< --inject
    std::uint64_t injectSeed = 0x5eedfa11u;  //!< --inject-seed S
    unsigned injectRuns = 3;                 //!< --inject-runs N

    /** --oversubscribe F (oversubscription bench): sweep only the
     *  given working-set/capacity factor. 0 = full sweep. */
    double oversubscribe = 0.0;

    /** --sockets N (multi-socket benches): run only the N-socket
     *  configuration. 0 = the bench's full socket-count sweep. */
    unsigned sockets = 0;

    /** --policy NAME (benches that allow it): run only the named
     *  eviction policy (lru / lfu / random / predictive). When unset,
     *  policy benches sweep all of them and other benches keep their
     *  hard-wired default (lru). */
    bool policySet = false;
    policy::EvictionKind policyKind = policy::EvictionKind::Lru;

    // UPMTrace flags (every bench).
    std::string tracePath;  //!< --trace <path>; empty = tracing off
    /** --trace-filter <layer,...>; default all layers. */
    std::uint32_t traceMask = trace::kAllLayersMask;
    bool traceRing = false;         //!< --trace-ring [cap]
    std::size_t traceRingCap = 0;   //!< 0 = TraceConfig default

    /** Parse @p argv; @p allow is a set of AllowFlags. Unknown or
     *  disallowed flags print the usage line and exit 2. */
    static Options
    parse(int argc, char **argv, unsigned allow = 0)
    {
        // Usage text per extra, in the order the usage line lists them.
        static constexpr std::pair<unsigned, const char *> kExtras[] = {
            {kAllowAudit, " [--audit]"},
            {kAllowInject,
             " [--inject] [--inject-seed S] [--inject-runs N]"},
            {kAllowOversubscribe, " [--oversubscribe F]"},
            {kAllowSockets, " [--sockets N]"},
            {kAllowPolicy, " [--policy NAME]"},
        };
        Options opt;
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            // Flag @p name, allowed here, matched at argv[i].
            auto is = [&](const char *name, unsigned needs = 0) {
                return (needs & ~allow) == 0 && std::strcmp(arg, name) == 0;
            };
            // Same, for a flag that takes the next argument.
            auto takes = [&](const char *name, unsigned needs = 0) {
                return i + 1 < argc && is(name, needs);
            };
            if (takes("--json")) {
                opt.jsonPath = argv[++i];
            } else if (takes("--workers")) {
                opt.workers = parseNumber<unsigned>(
                    arg, argv[++i], "a count > 0", 1);
            } else if (is("--smoke")) {
                opt.smoke = true;
            } else if (is("--audit", kAllowAudit)) {
                opt.audit = true;
            } else if (is("--inject", kAllowInject)) {
                opt.inject = true;
            } else if (takes("--inject-seed", kAllowInject)) {
                opt.injectSeed = parseNumber<std::uint64_t>(
                    arg, argv[++i], "a 64-bit seed", 0);
            } else if (takes("--inject-runs", kAllowInject)) {
                opt.injectRuns = parseNumber<unsigned>(
                    arg, argv[++i], "a count > 0", 1);
            } else if (takes("--trace")) {
                opt.tracePath = argv[++i];
            } else if (takes("--trace-filter")) {
                std::string error;
                opt.traceMask =
                    trace::parseLayerList(argv[++i], &error);
                if (opt.traceMask == 0) {
                    std::fprintf(stderr, "--trace-filter: %s\n",
                                 error.c_str());
                    std::exit(2);
                }
            } else if (is("--trace-ring")) {
                opt.traceRing = true;
                // Optional capacity: consume the next arg iff numeric.
                if (i + 1 < argc && argv[i + 1][0] != '\0' &&
                    std::strspn(argv[i + 1], "0123456789") ==
                        std::strlen(argv[i + 1])) {
                    opt.traceRingCap = parseNumber<std::size_t>(
                        arg, argv[++i], "a ring capacity", 0);
                }
            } else if (takes("--oversubscribe", kAllowOversubscribe)) {
                // denorm_min: the smallest double > 0.
                opt.oversubscribe = parseNumber<double>(
                    arg, argv[++i], "a factor > 0",
                    std::numeric_limits<double>::denorm_min());
            } else if (takes("--sockets", kAllowSockets)) {
                opt.sockets = parseNumber<unsigned>(
                    arg, argv[++i], "a count > 0", 1);
            } else if (takes("--policy", kAllowPolicy)) {
                const char *name = argv[++i];
                if (!policy::parseEvictionKind(name,
                                               &opt.policyKind)) {
                    std::fprintf(stderr,
                                 "--policy: unknown eviction policy "
                                 "'%s' (lru, lfu, random, "
                                 "predictive)\n",
                                 name);
                    std::exit(2);
                }
                opt.policySet = true;
            } else {
                std::string extras;
                for (const auto &[bit, text] : kExtras)
                    if ((allow & bit) != 0)
                        extras += text;
                std::fprintf(stderr,
                             "usage: %s [--json <path>] [--workers N] "
                             "[--smoke] [--trace <path>] "
                             "[--trace-filter <layer,...>] "
                             "[--trace-ring [cap]]%s\n",
                             argv[0], extras.c_str());
                std::exit(2);
            }
        }
        if (opt.workers > 0)
            exec::setGlobalWorkers(opt.workers);
        return opt;
    }
};

/**
 * Apply the --trace flags to the SystemConfig a bench is about to
 * construct Systems from. No-op unless --trace was given, so traced
 * and untraced runs share one code path.
 */
inline void
applyTrace(const Options &opt, core::SystemConfig &config)
{
    if (opt.tracePath.empty())
        return;
    config.trace.enabled = true;
    config.trace.layerMask = opt.traceMask;
    config.trace.ring = opt.traceRing;
    if (opt.traceRingCap > 0)
        config.trace.ringCapacity = opt.traceRingCap;
}

/**
 * Write a traced System's event stream to the --trace path: Chrome
 * trace JSON (Perfetto-loadable) in vector mode, the binary ring file
 * in ring mode. No-op when the bench was not traced.
 */
inline void
writeTrace(const Options &opt, core::System &sys)
{
    trace::Tracer *tr = sys.tracer();
    if (opt.tracePath.empty() || tr == nullptr)
        return;
    bool ok = tr->ringSink() != nullptr
                  ? tr->ringSink()->dump(opt.tracePath)
                  : trace::writeChromeTrace(opt.tracePath, tr->events());
    if (!ok)
        fatal("cannot write trace to %s", opt.tracePath.c_str());
    std::printf("UPMTrace: %llu event(s) -> %s\n",
                static_cast<unsigned long long>(tr->emitted()),
                opt.tracePath.c_str());
}

/**
 * Run one representative traced scenario and write it to the --trace
 * path. The sweep itself stays untraced (its per-task Systems die with
 * their tasks, and its numbers must stay byte-identical with tracing
 * on); the capture re-runs @p body on a single System built from
 * @p config plus the trace flags. No-op without --trace.
 */
template <typename Body>
inline void
captureTrace(const Options &opt, const core::SystemConfig &config,
             Body &&body)
{
    if (opt.tracePath.empty())
        return;
    core::SystemConfig traced = config;
    applyTrace(opt, traced);
    core::System sys(traced);
    {
        trace::TaskTraceScope scope(sys.tracer(), 0, 0);
        body(sys);
    }
    writeTrace(opt, sys);
}

/** One key under a point's "params" or "metrics" object. */
struct JsonField
{
    std::string key;
    std::string encoded;  //!< already-valid JSON value text
};

/** JSON-encode a string (quotes + minimal escapes). */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    out += "\"";
    return out;
}

/**
 * Collects one bench run's sweep points and writes the structured
 * report. Disabled (all no-ops) when constructed with an empty path.
 */
class JsonReporter
{
  public:
    /** A point under construction; chain param()/metric() calls. */
    class Point
    {
      public:
        Point &
        param(const char *key, const std::string &v)
        {
            params.push_back({key, jsonEscape(v)});
            return *this;
        }

        Point &
        param(const char *key, std::uint64_t v)
        {
            params.push_back(
                {key, strprintf("%llu",
                                static_cast<unsigned long long>(v))});
            return *this;
        }

        Point &
        metric(const char *key, double v)
        {
            // %.17g round-trips doubles exactly: worker-count-
            // independent runs yield byte-identical metrics.
            metrics.push_back({key, strprintf("%.17g", v)});
            return *this;
        }

        Point &
        metric(const char *key, std::uint64_t v)
        {
            metrics.push_back(
                {key, strprintf("%llu",
                                static_cast<unsigned long long>(v))});
            return *this;
        }

      private:
        friend class JsonReporter;
        std::vector<JsonField> params;
        std::vector<JsonField> metrics;
    };

    JsonReporter(std::string bench_id, std::string path)
        : benchId(std::move(bench_id)), filePath(std::move(path)),
          start(std::chrono::steady_clock::now())
    {}

    bool enabled() const { return !filePath.empty(); }

    /** Append a new point; fill it via the returned reference. */
    Point &
    point()
    {
        points.emplace_back();
        return points.back();
    }

    /**
     * Write the report: bench id, worker count, wall time since
     * construction, and every point. Call once, after the sweep.
     */
    void
    write()
    {
        if (!enabled())
            return;
        double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        std::FILE *f = std::fopen(filePath.c_str(), "w");
        if (f == nullptr)
            fatal("cannot open JSON report path %s", filePath.c_str());
        std::fprintf(f, "{\n  \"bench\": %s,\n",
                     jsonEscape(benchId).c_str());
        std::fprintf(f, "  \"workers\": %u,\n",
                     exec::globalPool().workers());
        std::fprintf(f, "  \"wall_ms\": %.3f,\n", wall_ms);
        std::fprintf(f, "  \"points\": [\n");
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::fprintf(f, "    {\"params\": {");
            writeFields(f, points[i].params);
            std::fprintf(f, "}, \"metrics\": {");
            writeFields(f, points[i].metrics);
            std::fprintf(f, "}}%s\n",
                         i + 1 < points.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
    }

  private:
    static void
    writeFields(std::FILE *f, const std::vector<JsonField> &fields)
    {
        for (std::size_t i = 0; i < fields.size(); ++i) {
            std::fprintf(f, "%s%s: %s", i ? ", " : "",
                         jsonEscape(fields[i].key).c_str(),
                         fields[i].encoded.c_str());
        }
    }

    std::string benchId;
    std::string filePath;
    std::chrono::steady_clock::time_point start;
    std::vector<Point> points;
};

} // namespace upm::bench

#endif // UPM_BENCH_BENCH_UTIL_HH
