/**
 * @file
 * The system (CPU) page table.
 *
 * MI300A keeps two page tables: the Linux system page table, walked by
 * the CPU cores, and a GPU page table walked by the GPU's UTC. This
 * class models the former. Mappings are stored *extent-coalesced*: a
 * sorted map of [vpn, vpn+len) runs. A run is either *strided* (page
 * vpn+i -> frame+i, physically contiguous) or a *scatter* run carrying
 * an explicit per-page frame vector — one node for a million-page
 * interleaved pinned buffer instead of a million tree nodes. The runs
 * live in a RunMap: they never overlap, and strided runs are maximally
 * merged against strided neighbours, so a multi-GiB hipMalloc costs a
 * handful of nodes and range operations are O(log runs + touched
 * runs).
 */

#ifndef UPM_VM_PAGE_TABLE_HH
#define UPM_VM_PAGE_TABLE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/run_map.hh"
#include "mem/backing_store.hh"
#include "mem/geometry.hh"

namespace upm::vm {

using mem::FrameId;
using mem::VirtAddr;

/** Virtual page number. */
using Vpn = std::uint64_t;

/** Page-level attributes; equality matters for fragment formation. */
struct PteFlags
{
    bool writable = true;
    bool pinned = false;    //!< page-locked (mlock / hipHostRegister)
    bool uncached = false;  //!< GPU-side uncacheable (managed statics)

    bool operator==(const PteFlags &) const = default;
};

/** One page-table entry. */
struct Pte
{
    FrameId frame = 0;
    PteFlags flags;
};

/**
 * An extent of present pages sharing @ref flags. When @ref scatter is
 * null, page vpn+i maps frame+i; otherwise scatter[i] gives the frame
 * of page vpn+i (and frame == scatter[0]). The scatter pointer aliases
 * table-owned storage: it is valid only until the next table mutation,
 * so callers that outlive the callback must copy the frames out.
 */
struct PteRun
{
    Vpn vpn = 0;
    std::uint64_t len = 0;
    FrameId frame = 0;
    PteFlags flags;
    const FrameId *scatter = nullptr;

    Vpn end() const { return vpn + len; }

    FrameId
    frameOf(Vpn v) const
    {
        return scatter != nullptr ? scatter[v - vpn] : frame + (v - vpn);
    }
};

/** vpn helpers. */
constexpr Vpn
vpnOf(VirtAddr addr)
{
    return addr >> mem::kPageShift;
}

constexpr VirtAddr
addrOf(Vpn vpn)
{
    return vpn << mem::kPageShift;
}

/**
 * Extent-coalesced page table. Lookup is O(log runs); range iteration
 * is ordered, which the HMM mirror and fragment computation rely on.
 *
 * Invariants: runs never overlap, and adjacent *strided* runs that are
 * virtually and physically contiguous with equal flags are joined.
 * Scatter runs are kept as inserted (bulk faults and pinned buffers
 * arrive as one batch each), so the representation of a given mapping
 * may depend on insertion granularity — every consumer reads per-page
 * *values*, which do not.
 */
class SystemPageTable
{
  public:
    /**
     * Map [vpn, vpn+len) to frames [frame, frame+len), merging with
     * contiguous same-flag strided neighbours. Panics if any page is
     * present.
     */
    void
    insertRange(Vpn vpn, std::uint64_t len, FrameId frame,
                PteFlags flags = {})
    {
        runs.insert(vpn, len, Run{frame, flags, {}});
    }

    /**
     * Map page vpn+i to frames[i] for i in [0, n) as one run. A
     * frame-contiguous batch degenerates to a strided run; anything
     * else becomes a single scatter run (no per-page tree nodes).
     * Panics if any page is present.
     */
    void insertFrames(Vpn vpn, const FrameId *frames, std::uint64_t n,
                      PteFlags flags = {});

    /** insertFrames overload that adopts the vector (no copy). */
    void insertFrames(Vpn vpn, std::vector<FrameId> &&frames,
                      PteFlags flags = {});

    /** @return the PTE if present. */
    std::optional<Pte>
    lookup(Vpn vpn) const
    {
        auto it = runs.find(vpn);
        if (it == runs.end())
            return std::nullopt;
        const Run &run = it->second.value;
        return Pte{run.frameAt(vpn - it->first), run.flags};
    }

    bool present(Vpn vpn) const { return runs.find(vpn) != runs.end(); }

    /**
     * Unmap every present page in [begin, end), splitting runs at the
     * boundaries. @param fn called once per removed sub-run with a
     * (const PteRun &) describing it, in vpn order, *before* the table
     * is restructured — the run's scatter pointer is valid only for
     * the duration of the call, and @p fn must not re-enter the table.
     * @return pages removed.
     */
    template <typename Fn>
    std::uint64_t
    removeRange(Vpn begin, Vpn end, Fn &&fn)
    {
        return runs.erase(begin, end,
                          [&](Vpn b, Vpn e, std::uint64_t off,
                              const Run &run) { fn(run.piece(b, e, off)); });
    }

    /**
     * Update flags of every present page in [begin, end), splitting at
     * the boundaries and re-merging neighbours that become compatible.
     * @return pages updated.
     */
    std::uint64_t
    setFlagsRange(Vpn begin, Vpn end, PteFlags flags)
    {
        return runs.update(begin, end,
                           [&](Vpn, Vpn, Run &run) { run.flags = flags; });
    }

    /** Number of present pages. */
    std::uint64_t presentCount() const { return runs.keyCount(); }

    /** Number of stored runs (diagnostics / tests). */
    std::uint64_t runCount() const { return runs.runCount(); }

    /** Present pages within [begin, end). O(log runs + runs hit). */
    std::uint64_t
    presentInRange(Vpn begin, Vpn end) const
    {
        std::uint64_t n = 0;
        runs.forEach(begin, end, [&](Vpn b, Vpn e, std::uint64_t,
                                     const Run &) { n += e - b; });
        return n;
    }

    /**
     * Visit runs overlapping [begin, end) in vpn order, clipped to the
     * window. @param fn callable (const PteRun &); the run's scatter
     * pointer is valid only while the table is unmodified.
     */
    template <typename Fn>
    void
    forEachRun(Vpn begin, Vpn end, Fn &&fn) const
    {
        runs.forEach(begin, end,
                     [&](Vpn b, Vpn e, std::uint64_t off, const Run &run) {
                         fn(run.piece(b, e, off));
                     });
    }

    /**
     * Visit the *unmapped* gaps of [begin, end) in vpn order.
     * @param fn callable (Vpn gap_begin, Vpn gap_end).
     */
    template <typename Fn>
    void
    forEachGap(Vpn begin, Vpn end, Fn &&fn) const
    {
        Vpn cursor = begin;
        runs.forEach(begin, end,
                     [&](Vpn b, Vpn e, std::uint64_t, const Run &) {
                         if (cursor < b)
                             fn(cursor, b);
                         cursor = e;
                     });
        if (cursor < end)
            fn(cursor, end);
    }

  private:
    /**
     * Value of a stored run: strided (scatter empty, page i maps
     * frame + i) or scatter (scatter[i] is page i's frame, frame ==
     * scatter[0]).
     */
    struct Run
    {
        FrameId frame = 0;
        PteFlags flags;
        std::vector<FrameId> scatter;

        FrameId
        frameAt(std::uint64_t off) const
        {
            return scatter.empty() ? frame + off : scatter[off];
        }

        /** Pages [b, e) of this run, which starts @p off pages before b. */
        PteRun
        piece(Vpn b, Vpn e, std::uint64_t off) const
        {
            return PteRun{b, e - b, frameAt(off), flags,
                          scatter.empty() ? nullptr : scatter.data() + off};
        }

        /** RunMap hook: a scatter run hands over its tail. */
        Run
        splitOff(std::uint64_t off)
        {
            if (scatter.empty())
                return Run{frame + off, flags, {}};
            Run tail{scatter[off], flags,
                     std::vector<FrameId>(scatter.begin() + off,
                                          scatter.end())};
            scatter.resize(off);
            return tail;
        }

        /** RunMap hook: strided runs join when frame-contiguous with
         *  equal flags; scatter runs never join. */
        bool
        joins(std::uint64_t len, const Run &next) const
        {
            return scatter.empty() && next.scatter.empty() &&
                   frame + len == next.frame && flags == next.flags;
        }
    };

    RunMap<Run> runs;
};

} // namespace upm::vm

#endif // UPM_VM_PAGE_TABLE_HH
