/**
 * @file
 * The hook bundle: every optional observer and multi-socket model a
 * component can be wired to, passed once through its constructor.
 *
 * core::System builds one bundle and hands it to each component it
 * constructs; core::Process hands the same bundle to its own. A null
 * pointer or an empty span is the "off" / one-socket value, so a
 * default-constructed Hooks{} is the unwired, byte-identical baseline.
 * Each component copies only the fields it uses into its own
 * `aud` / `inj` / `tr` / `fab` members and null-checks them at every
 * use (DESIGN.md section 12).
 *
 * Forward declarations only: mem, vm and hip sit below the modules
 * these types live in, so this header must include no other module.
 */

#ifndef UPM_COMMON_HOOKS_HH
#define UPM_COMMON_HOOKS_HH

#include <span>

namespace upm::audit {
class Auditor;
}

namespace upm::inject {
class Injector;
}

namespace upm::trace {
class Tracer;
}

namespace upm::fabric {
class Fabric;
}

namespace upm::cache {
class InfinityCache;
}

namespace upm {

/** Optional hooks shared by every component of one node. */
struct Hooks
{
    /** UPMSan; null unless auditing is enabled. */
    audit::Auditor *aud = nullptr;
    /** UPMInject; null unless injection is enabled. */
    inject::Injector *inj = nullptr;
    /** UPMTrace; null unless tracing is enabled. */
    trace::Tracer *tr = nullptr;
    /** xGMI link model; null on a one-socket node. */
    const fabric::Fabric *fab = nullptr;
    /** One Infinity Cache per socket, in socket order; empty on a
     *  one-socket node. */
    std::span<const cache::InfinityCache *const> socketCaches = {};
};

} // namespace upm

#endif // UPM_COMMON_HOOKS_HH
