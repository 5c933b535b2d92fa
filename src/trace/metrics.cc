#include "trace/metrics.hh"

namespace upm::trace {

void
MetricsRegistry::add(const std::string &name, std::uint64_t delta)
{
    MutexLock lock(mtx);
    counters[name] += delta;
}

void
MetricsRegistry::set(const std::string &name, std::uint64_t value)
{
    MutexLock lock(mtx);
    counters[name] = value;
}

std::uint64_t
MetricsRegistry::read(const std::string &name) const
{
    MutexLock lock(mtx);
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

void
MetricsRegistry::reset(const std::string &name)
{
    MutexLock lock(mtx);
    auto it = counters.find(name);
    if (it != counters.end())
        it->second = 0;
}

void
MetricsRegistry::resetAll()
{
    MutexLock lock(mtx);
    counters.clear();
}

std::vector<std::string>
MetricsRegistry::names() const
{
    MutexLock lock(mtx);
    std::vector<std::string> out;
    out.reserve(counters.size());
    for (const auto &[name, value] : counters)
        out.push_back(name);
    return out;
}

} // namespace upm::trace
