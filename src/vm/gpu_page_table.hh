/**
 * @file
 * The GPU page table with AMD's adaptive fragment scheme.
 *
 * Each GPU PTE carries a 5-bit *fragment* field: log2 of the number of
 * pages in a virtually and physically contiguous, identically-flagged,
 * naturally-aligned block containing the page. The amdgpu driver sets
 * it opportunistically by scanning for maximal contiguous ranges when
 * it writes PTEs (see the `amdgpu_vm_pt.c` comment the paper cites).
 * A UTCL1 entry covers a whole fragment, so large fragments multiply
 * TLB reach -- the mechanism behind hipMalloc's bandwidth advantage
 * (paper Sections 4.2/5.3).
 *
 * Translations live in a SystemPageTable (the same extent run store
 * the CPU side uses); the fragment field is the only thing a GPU PTE
 * adds. Fragment values are *stamped by window* (each
 * recomputeFragments call only rewrites the pages inside its window),
 * so they cannot be derived from the translations alone. They are kept
 * beside them in a RunMap of equal-fragment stretches that holds only
 * nonzero stamps: a page without a stamp carries fragment 0, the value
 * fresh PTEs get, so scattered mirrors store no stamps at all.
 * Invariant: every stamped page is present; unmapping a page erases
 * its stamp.
 */

#ifndef UPM_VM_GPU_PAGE_TABLE_HH
#define UPM_VM_GPU_PAGE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <optional>

#include "vm/page_table.hh"

namespace upm::vm {

/** GPU PTE: translation plus the fragment field. */
struct GpuPte
{
    FrameId frame = 0;
    PteFlags flags;
    std::uint8_t fragment = 0;  //!< log2(pages) of the covering block
};

/**
 * GPU page table. PTEs are inserted by the HMM mirror (or directly by
 * the up-front allocators); `recomputeFragments` runs the driver's
 * opportunistic scan over a window after every batch of inserts.
 */
class GpuPageTable
{
  public:
    /** Largest fragment the PTE encoding supports (2^31 pages). */
    static constexpr unsigned kMaxFragment = 31;

    /** Map [vpn, vpn+len) to [frame, frame+len) with fragment 0. */
    void
    insertRange(Vpn vpn, std::uint64_t len, FrameId frame,
                PteFlags flags = {})
    {
        ptes.insertRange(vpn, len, frame, flags);
    }

    /** Map page vpn+i to frames[i] for i in [0, n) with fragment 0. */
    void
    insertFrames(Vpn vpn, const FrameId *frames, std::uint64_t n,
                 PteFlags flags = {})
    {
        ptes.insertFrames(vpn, frames, n, flags);
    }

    std::optional<GpuPte> lookup(Vpn vpn) const;

    /**
     * Unmap every present page in [begin, end) and erase their
     * fragment stamps. @return pages removed.
     */
    std::uint64_t removeRange(Vpn begin, Vpn end);

    /** The translations, for read-only walks (runs, gaps, counts). */
    const SystemPageTable &translations() const { return ptes; }

    /**
     * Driver fragment scan over [begin, end): find maximal stretches
     * that are virtually contiguous, physically contiguous, and share
     * flags — detected from per-page frame *values*, independent of
     * how runs are stored — split each stretch into naturally-aligned
     * power-of-two blocks (alignment limited by both the virtual and
     * physical base) and stamp every PTE with its block's log2 size.
     * Pages outside the window keep their previous stamps, exactly as
     * the driver only rewrites the PTE range of the current map
     * operation.
     */
    void recomputeFragments(Vpn begin, Vpn end);

    /**
     * Visit same-fragment stretches of mapped pages in [begin, end) in
     * vpn order. @param fn callable (Vpn seg_begin, uint64 seg_len,
     * uint8 fragment). UTCL1 walkers use this instead of per-page
     * lookups. Segment boundaries are a storage artifact; only the
     * per-page values are meaningful.
     */
    template <typename Fn>
    void
    forEachFragmentRun(Vpn begin, Vpn end, Fn &&fn) const
    {
        auto st = stamps.firstEndingAfter(begin);
        ptes.forEachRun(begin, end, [&](const PteRun &run) {
            Vpn v = run.vpn;
            while (v < run.end()) {
                while (st != stamps.end() && st->first + st->second.len <= v)
                    ++st;
                if (st == stamps.end() || st->first >= run.end()) {
                    fn(v, run.end() - v, std::uint8_t{0});
                    return;
                }
                if (v < st->first) {
                    fn(v, st->first - v, std::uint8_t{0});
                    v = st->first;
                }
                Vpn seg_end =
                    std::min(run.end(), st->first + st->second.len);
                fn(v, seg_end - v, st->second.value);
                v = seg_end;
            }
        });
    }

  private:
    SystemPageTable ptes;
    /** Nonzero fragments of stamped pages; a page without one reads 0. */
    RunMap<std::uint8_t> stamps;
};

} // namespace upm::vm

#endif // UPM_VM_GPU_PAGE_TABLE_HH
