/**
 * @file
 * MetricsRegistry: named counters, owned per-System.
 *
 * Supersedes the ad-hoc `upm::prof` counter registry: same counter
 * API (so the rocprofv3/perf adapter sessions work unchanged), with
 * every operation guarded by a mutex. Each System owns exactly one
 * registry, so sweep workers touching their own Systems never contend
 * -- the lock exists for tools (UPMTrace exporters, audit sweeps) that
 * read a registry while a workload is still driving it.
 */

#ifndef UPM_TRACE_METRICS_HH
#define UPM_TRACE_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace upm::trace {

/** Thread-safe named counters. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Add @p delta to counter @p name (created at zero on demand). */
    void add(const std::string &name, std::uint64_t delta = 1);

    /** Overwrite a counter (for gauge-style values). */
    void set(const std::string &name, std::uint64_t value);

    /** Read a counter; absent counters read zero. */
    std::uint64_t read(const std::string &name) const;

    /** Reset one counter to zero. */
    void reset(const std::string &name);

    /** Reset all counters. */
    void resetAll();

    /** All counter names in sorted order. */
    std::vector<std::string> names() const;

  private:
    mutable Mutex mtx;
    std::map<std::string, std::uint64_t> counters UPM_GUARDED_BY(mtx);
};

} // namespace upm::trace

#endif // UPM_TRACE_METRICS_HH
