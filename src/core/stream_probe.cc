#include "core/stream_probe.hh"

#include <algorithm>

#include "common/scope_guard.hh"
#include "exec/task_pool.hh"
#include "prof/rocprof.hh"
#include "tlb/tlb.hh"

namespace upm::core {

StreamProbe::Arrays
StreamProbe::allocate(alloc::AllocatorKind kind, std::uint64_t bytes,
                      FirstTouch first_touch)
{
    auto &rt = sys.runtime();
    Arrays arrays;
    arrays.bytes = bytes;
    arrays.a = rt.allocate(kind, bytes);
    arrays.b = rt.allocate(kind, bytes);
    arrays.c = rt.allocate(kind, bytes);

    for (hip::DevPtr ptr : {arrays.a, arrays.b, arrays.c}) {
        if (first_touch == FirstTouch::Cpu) {
            rt.cpuFirstTouch(ptr, bytes);
        } else {
            hip::KernelDesc init;
            init.name = "stream_init";
            init.buffers.push_back({ptr, bytes, bytes});
            rt.launchKernel(init, nullptr);
        }
    }
    rt.deviceSynchronize();
    return arrays;
}

void
StreamProbe::release(Arrays &arrays)
{
    auto &rt = sys.runtime();
    rt.freeChecked(arrays.a);
    rt.freeChecked(arrays.b);
    rt.freeChecked(arrays.c);
    arrays = {};
}

std::uint64_t
StreamProbe::simulateTlbMisses(const Arrays &arrays)
{
    const auto &tlb_cal = sys.config().gpuTlb;
    const auto &as = sys.addressSpace();
    unsigned total_cus = sys.config().numCus;
    unsigned sampled = std::min(cfg.sampledCus, total_cus);

    std::uint64_t blocks_per_array = arrays.bytes / cfg.blockBytes;
    std::uint64_t pages_per_block =
        std::max<std::uint64_t>(1, cfg.blockBytes / mem::kPageSize);

    // Each array's stretches of nonzero fragment, in page order. A page
    // outside them (fragment 0 or unmapped) translates alone.
    struct FragSeg
    {
        vm::Vpn begin;
        vm::Vpn end;
        std::uint64_t span;
    };
    struct Array
    {
        vm::Vpn first;
        std::vector<FragSeg> segs;
    };
    auto array_of = [&](hip::DevPtr ptr) {
        Array array{vm::vpnOf(ptr), {}};
        as.gpuTable().forEachFragmentRun(
            array.first, array.first + arrays.bytes / mem::kPageSize,
            [&](vm::Vpn seg_begin, std::uint64_t len, std::uint8_t frag) {
                if (frag != 0)
                    array.segs.push_back(
                        {seg_begin, seg_begin + len, 1ull << frag});
            });
        return array;
    };
    // TRIAD order: one translation of b, c, then a per touched page.
    const Array refs[3] = {array_of(arrays.b), array_of(arrays.c),
                           array_of(arrays.a)};

    // Simulate `sampled` CUs: blocks are dispatched round-robin, so CU
    // k executes blocks k, k+228, ... For each block the TRIAD kernel
    // issues one translation request per touched page of b, c and a.
    // Each CU owns a private UTCL1 over the read-only segment lists,
    // so the per-CU walks fan out to the pool; the summation order is
    // fixed, keeping the total exact at any worker count. A CU's pages
    // only climb within an iteration, so each array's segment is found
    // by a cursor that moves forward and restarts every iteration.
    tlb::FragTlbConfig tcfg;
    tcfg.entries = tlb_cal.utcl1Entries;
    tcfg.maxSpanPages = tlb_cal.utcl1MaxSpanPages;
    std::vector<std::uint64_t> cu_misses(sampled, 0);
    exec::globalPool().parallelFor(sampled, [&](std::size_t cu) {
        tlb::FragTlb utcl1(tcfg);
        for (unsigned iter = 0; iter < cfg.profiledIterations; ++iter) {
            std::size_t cursor[3] = {0, 0, 0};
            for (std::uint64_t blk = cu; blk < blocks_per_array;
                 blk += total_cus) {
                std::uint64_t first_page =
                    blk * cfg.blockBytes / mem::kPageSize;
                for (std::uint64_t p = first_page;
                     p < first_page + pages_per_block; ++p) {
                    for (int r = 0; r < 3; ++r) {
                        vm::Vpn vpn = refs[r].first + p;
                        if (utcl1.lookup(vpn))
                            continue;
                        const auto &segs = refs[r].segs;
                        std::size_t &at = cursor[r];
                        while (at < segs.size() && segs[at].end <= vpn)
                            ++at;
                        std::uint64_t span =
                            at < segs.size() && segs[at].begin <= vpn
                                ? segs[at].span
                                : 1;
                        utcl1.insert(vpn, vpn & ~(span - 1), span);
                    }
                }
            }
        }
        cu_misses[cu] = utcl1.misses();
    });
    std::uint64_t misses = 0;
    for (std::uint64_t m : cu_misses)
        misses += m;
    // Scale the sampled CUs to the whole GPU.
    return misses * total_cus / sampled;
}

GpuStreamResult
StreamProbe::gpuTriad(alloc::AllocatorKind kind, FirstTouch first_touch)
{
    auto &rt = sys.runtime();
    bool saved_xnack = rt.xnack();
    ScopeExit restore_xnack([&rt, saved_xnack] {
        rt.setXnack(saved_xnack);
    });
    auto traits = alloc::traitsOf(kind, saved_xnack);
    if (traits.onDemand || first_touch == FirstTouch::Gpu)
        rt.setXnack(true);

    Arrays arrays = allocate(kind, cfg.gpuArrayBytes, first_touch);

    // TRIAD a = b + s*c moves 3 N bytes per iteration. All three
    // arrays share allocator and placement; profile one and model the
    // aggregate stream.
    auto profile = rt.perf().profileRegion(rt.addressSpace(), arrays.a,
                                           arrays.bytes);
    GpuStreamResult result;
    result.bandwidth = rt.perf().gpuStreamBandwidth(profile);
    result.pagesPerArray = arrays.bytes / mem::kPageSize;
    result.tlbMisses = simulateTlbMisses(arrays);

    sys.counters().add(prof::gpu_counters::kUtcl1TranslationMiss,
                       result.tlbMisses);
    sys.counters().add(prof::gpu_counters::kKernels, cfg.iterations);

    release(arrays);
    return result;
}

CpuStreamResult
StreamProbe::cpuTriad(alloc::AllocatorKind kind, FirstTouch first_touch)
{
    auto &rt = sys.runtime();
    bool saved_xnack = rt.xnack();
    ScopeExit restore_xnack([&rt, saved_xnack] {
        rt.setXnack(saved_xnack);
    });
    auto traits = alloc::traitsOf(kind, saved_xnack);
    if (traits.onDemand && first_touch == FirstTouch::Gpu)
        rt.setXnack(true);

    std::uint64_t fault_base = rt.addressSpace().cpuFaults();
    Arrays arrays = allocate(kind, cfg.cpuArrayBytes, first_touch);

    auto profile = rt.perf().profileRegion(rt.addressSpace(), arrays.a,
                                           arrays.bytes);
    CpuStreamResult result;
    unsigned max_threads = sys.config().numCpuCores;
    result.perThreadBandwidth.resize(max_threads);
    for (unsigned t = 1; t <= max_threads; ++t) {
        double bw = rt.perf().cpuStreamBandwidth(profile, t);
        result.perThreadBandwidth[t - 1] = bw;
        if (bw >= result.bandwidth) {
            result.bandwidth = bw;
            result.bestThreads = t;
        }
    }

    // perf page-faults over the whole benchmark: the three arrays'
    // first-touch faults plus the residual process noise perf sees on
    // a real node (empty for the simulated process itself).
    result.pageFaults = rt.addressSpace().cpuFaults() - fault_base +
                        kResidualProcessFaults(first_touch);

    // Streaming reads exceed dTLB reach identically for every
    // allocator (the paper's observation: CPU-side TLB behaviour does
    // not differentiate them): one miss per page per pass.
    result.dtlbMisses = 3ull * (arrays.bytes / mem::kPageSize) *
                        cfg.iterations;

    release(arrays);
    return result;
}

std::uint64_t
StreamProbe::kResidualProcessFaults(FirstTouch first_touch)
{
    // Fig. 10 floor: even fully pre-populated runs show a few thousand
    // faults from the runtime/loader; GPU-init runs show about twice
    // as many (HIP initialization touches more of its own state).
    return first_touch == FirstTouch::Cpu ? 4200 : 8400;
}

} // namespace upm::core
