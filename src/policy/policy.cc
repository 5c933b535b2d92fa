#include "policy/policy.hh"

#include <cstring>
#include <initializer_list>

namespace upm::policy {

const char *
evictionKindName(EvictionKind kind)
{
    switch (kind) {
      case EvictionKind::Lru: return "lru";
      case EvictionKind::Lfu: return "lfu";
      case EvictionKind::Random: return "random";
      case EvictionKind::Predictive: return "predictive";
    }
    return "?";
}

const char *
migrationKindName(MigrationKind kind)
{
    switch (kind) {
      case MigrationKind::Off: return "off";
      case MigrationKind::HotCold: return "hotcold";
    }
    return "?";
}

bool
parseEvictionKind(const char *name, EvictionKind *out)
{
    for (auto kind : {EvictionKind::Lru, EvictionKind::Lfu,
                      EvictionKind::Random, EvictionKind::Predictive}) {
        if (std::strcmp(name, evictionKindName(kind)) == 0) {
            *out = kind;
            return true;
        }
    }
    return false;
}

bool
parseMigrationKind(const char *name, MigrationKind *out)
{
    for (auto kind : {MigrationKind::Off, MigrationKind::HotCold}) {
        if (std::strcmp(name, migrationKindName(kind)) == 0) {
            *out = kind;
            return true;
        }
    }
    return false;
}

} // namespace upm::policy
