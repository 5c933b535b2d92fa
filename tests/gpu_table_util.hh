/**
 * @file
 * Per-page views of the page tables for tests, built only on their
 * public walks: page-by-page walks of a vm::SystemPageTable and a
 * vm::GpuPageTable, the stored run holding a page, the fragment block
 * covering a page, the fragment-size histogram, and whether the CPU or
 * the GPU reaches an address of a vm::AddressSpace without a fault.
 */

#ifndef UPM_TESTS_GPU_TABLE_UTIL_HH
#define UPM_TESTS_GPU_TABLE_UTIL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/log.hh"
#include "vm/address_space.hh"
#include "vm/gpu_page_table.hh"

namespace upm::test {

/** The fragment block a UTCL1 fill would cover. */
struct Fragment
{
    vm::Vpn base = 0;
    std::uint64_t span = 1;  //!< pages
};

/** True if the CPU reaches @p addr of @p as without a fault. */
inline bool
cpuPresent(const vm::AddressSpace &as, mem::VirtAddr addr)
{
    return as.systemTable().present(vm::vpnOf(addr));
}

/** True if the GPU reaches @p addr of @p as without a fault. */
inline bool
gpuPresent(const vm::AddressSpace &as, mem::VirtAddr addr)
{
    return as.gpuTable().translations().present(vm::vpnOf(addr));
}

/** Fragment containing @p vpn. Panics if @p vpn is not mapped. */
inline Fragment
fragmentOf(const vm::GpuPageTable &pt, vm::Vpn vpn)
{
    auto pte = pt.lookup(vpn);
    if (!pte)
        panic("fragmentOf on absent vpn 0x%llx",
              static_cast<unsigned long long>(vpn));
    std::uint64_t span = 1ull << pte->fragment;
    return Fragment{vpn & ~(span - 1), span};
}

/** Visit present PTEs in [begin, end) in vpn order:
 *  fn(Vpn, const vm::Pte &). */
template <typename Fn>
void
forRange(const vm::SystemPageTable &pt, vm::Vpn begin, vm::Vpn end,
         Fn &&fn)
{
    pt.forEachRun(begin, end, [&](const vm::PteRun &run) {
        for (vm::Vpn vpn = run.vpn; vpn < run.end(); ++vpn)
            fn(vpn, vm::Pte{run.frameOf(vpn), run.flags});
    });
}

/** The whole stored run holding @p vpn, if it is present. */
inline std::optional<vm::PteRun>
runOf(const vm::SystemPageTable &pt, vm::Vpn vpn)
{
    std::optional<vm::PteRun> found;
    pt.forEachRun(0, ~0ull, [&](const vm::PteRun &run) {
        if (run.vpn <= vpn && vpn < run.end())
            found = run;
    });
    return found;
}

/** Visit present PTEs in [begin, end) in vpn order:
 *  fn(Vpn, const vm::GpuPte &). */
template <typename Fn>
void
forRange(const vm::GpuPageTable &pt, vm::Vpn begin, vm::Vpn end, Fn &&fn)
{
    pt.forEachFragmentRun(
        begin, end, [&](vm::Vpn seg_begin, std::uint64_t len, std::uint8_t) {
            for (vm::Vpn vpn = seg_begin; vpn < seg_begin + len; ++vpn)
                fn(vpn, *pt.lookup(vpn));
        });
}

/** Pages of [begin, end) per fragment log2-size. */
inline std::vector<std::uint64_t>
fragmentHistogram(const vm::GpuPageTable &pt, vm::Vpn begin, vm::Vpn end)
{
    std::vector<std::uint64_t> histogram(vm::GpuPageTable::kMaxFragment + 1,
                                         0);
    pt.forEachFragmentRun(
        begin, end, [&](vm::Vpn, std::uint64_t len, std::uint8_t frag) {
            histogram[frag] += len;
        });
    return histogram;
}

} // namespace upm::test

#endif // UPM_TESTS_GPU_TABLE_UTIL_HH
