/**
 * @file
 * Table 1: memory allocators on MI300A -- GPU access, CPU access, and
 * physical allocation policy (on-demand vs up-front).
 *
 * The capability matrix is printed from the allocator traits and then
 * *verified behaviorally*: each allocator is exercised with a CPU
 * first touch and a GPU kernel (with and without XNACK) against the
 * simulated VM, and the observed behaviour must match the table. Any
 * MISMATCH makes the bench exit 1. `--json` writes one point per row:
 * the expected and observed traits plus the allocation and free call
 * times at 4 MiB.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/system.hh"

using namespace upm;
using AK = alloc::AllocatorKind;

namespace {

/** Behavioral check of one row; returns the observed traits. */
alloc::AllocTraits
observe(AK kind, bool xnack)
{
    core::System sys;
    auto &rt = sys.runtime();
    rt.setXnack(xnack);

    alloc::AllocTraits observed;
    hip::DevPtr ptr = rt.allocate(kind, 4 * MiB);

    // On-demand == no physical pages before first touch.
    observed.onDemand =
        rt.addressSpace().framesOf(ptr, 4 * MiB).empty();

    // CPU access: a first touch must succeed.
    rt.cpuFirstTouch(ptr, 4 * MiB);
    observed.cpuAccess = !rt.addressSpace().framesOf(ptr, 4 * MiB).empty();

    // GPU access: a kernel touching the buffer must not fault the
    // process. (Violations are reported as SimError by the model.)
    hip::KernelDesc touch;
    touch.name = "touch";
    touch.buffers.push_back({ptr, 4 * MiB, 4 * MiB});
    try {
        rt.launchKernel(touch, nullptr);
        rt.deviceSynchronize();
        observed.gpuAccess = true;
    } catch (const SimError &) {
        observed.gpuAccess = false;
    }
    return observed;
}

/**
 * Print and report one row. @return true when the observed traits
 * match Table 1.
 */
bool
row(bench::JsonReporter &report, const char *name, AK kind, bool xnack)
{
    auto expected = alloc::traitsOf(kind, xnack);
    auto observed = observe(kind, xnack);
    bool match = expected.gpuAccess == observed.gpuAccess &&
                 expected.cpuAccess == observed.cpuAccess &&
                 expected.onDemand == observed.onDemand;
    std::printf("| %-28s | %-10s | %-10s | %-9s | %s\n", name,
                expected.gpuAccess ? "yes" : "no",
                expected.cpuAccess ? "yes" : "no",
                expected.onDemand ? "on-demand" : "up-front",
                match ? "verified" : "MISMATCH");

    core::System sys;
    sys.runtime().setXnack(xnack);
    alloc::Allocation allocation = sys.allocators().allocate(kind, 4 * MiB);
    SimTime alloc_ns = allocation.allocTime;
    SimTime free_ns = sys.allocators().deallocate(allocation);
    auto flag = [](bool b) { return static_cast<std::uint64_t>(b); };
    report.point()
        .param("allocator", std::string(name))
        .metric("expected_gpu", flag(expected.gpuAccess))
        .metric("expected_cpu", flag(expected.cpuAccess))
        .metric("expected_on_demand", flag(expected.onDemand))
        .metric("observed_gpu", flag(observed.gpuAccess))
        .metric("observed_cpu", flag(observed.cpuAccess))
        .metric("observed_on_demand", flag(observed.onDemand))
        .metric("alloc_ns", alloc_ns)
        .metric("free_ns", free_ns);
    return match;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::Options::parse(argc, argv);
    setQuiet(true);
    bench::banner("Table 1", "Memory allocators on MI300A");
    std::printf("| %-28s | %-10s | %-10s | %-9s |\n", "Allocator",
                "GPU access", "CPU access", "Physical");
    static const struct
    {
        const char *name;
        AK kind;
        bool xnack;
    } rows[] = {
        {"malloc", AK::Malloc, false},
        {"malloc (XNACK=1)", AK::Malloc, true},
        {"malloc + hipHostRegister", AK::MallocRegistered, false},
        {"hipMalloc", AK::HipMalloc, false},
        {"hipHostMalloc", AK::HipHostMalloc, false},
        {"hipMallocManaged", AK::HipMallocManaged, false},
        {"hipMallocManaged (XNACK=1)", AK::HipMallocManaged, true},
        {"__managed__", AK::ManagedStatic, false},
    };
    bench::JsonReporter report("tab1_allocators", opt.jsonPath);
    unsigned mismatches = 0;
    for (const auto &r : rows)
        mismatches += row(report, r.name, r.kind, r.xnack) ? 0 : 1;
    report.write();
    bench::captureTrace(opt, {}, [](core::System &sys) {
        auto &rt = sys.runtime();
        rt.setXnack(true);
        hip::DevPtr p = rt.allocate(AK::HipMallocManaged, 4 * MiB);
        rt.cpuFirstTouch(p, 4 * MiB);
        hip::KernelDesc touch;
        touch.name = "touch";
        touch.buffers.push_back({p, 4 * MiB, 4 * MiB});
        rt.launchKernel(touch, nullptr);
        rt.deviceSynchronize();
        rt.freeChecked(p);
    });
    if (mismatches > 0) {
        std::printf("%u row(s) do not match Table 1\n", mismatches);
        return 1;
    }
    return 0;
}
