#include "policy/engine.hh"

#include "trace/tracer.hh"

namespace upm::policy {

PolicyEngine::PolicyEngine(const PolicyConfig &config,
                           trace::Tracer *tracer)
    : cfg(config), mig(makeMigration(cfg.migration, cfg.migrationTuning)),
      tr(tracer)
{
}

PolicyEngine::~PolicyEngine() = default;

std::unique_ptr<EvictionPolicy>
PolicyEngine::makeEvictionPolicy() const
{
    return makeEviction(cfg.eviction, cfg.seed);
}

void
PolicyEngine::noteEvicted(PageKey key, std::uint64_t residentAfter)
{
    ++counters.evictions;
    mig->onRemove(key);
    if (tr != nullptr)
        tr->emit(trace::EventKind::PolicyEvict, key.space, key.page,
                 static_cast<std::uint64_t>(cfg.eviction),
                 residentAfter);
}

void
PolicyEngine::noteResident(PageKey key, Tier tier)
{
    mig->onResident(key, tier);
}

void
PolicyEngine::noteRemoved(PageKey key)
{
    mig->onRemove(key);
}

void
PolicyEngine::noteAccess(PageKey key)
{
    ++counters.accesses;
    mig->onAccess(key, now);
}

void
PolicyEngine::noteAccessRange(std::uint64_t space, std::uint64_t first,
                              std::uint64_t n)
{
    if (!migrates()) {
        counters.accesses += n;
        return;
    }
    for (std::uint64_t i = 0; i < n; ++i)
        noteAccess({space, first + i});
}

std::vector<MigrationAction>
PolicyEngine::migrationStep()
{
    ++counters.migrationSteps;
    return mig->decide(now);
}

void
PolicyEngine::noteMigrated(PageKey key, Tier tier)
{
    mig->onResident(key, tier);
    if (tier == Tier::Fast)
        ++counters.promotions;
    else
        ++counters.demotions;
    if (tr != nullptr)
        tr->emit(trace::EventKind::PolicyMigrate, key.space, key.page,
                 static_cast<std::uint64_t>(tier),
                 static_cast<std::uint64_t>(cfg.migration));
}

} // namespace upm::policy
