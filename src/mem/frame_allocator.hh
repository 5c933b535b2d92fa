/**
 * @file
 * Physical frame allocator with contiguity semantics.
 *
 * The allocator is a classic binary buddy over the frame space, plus an
 * "on-demand pool" that models the behaviour of Linux per-CPU page
 * caches on a long-running, fragmented node. Three allocation paths
 * exist because they are what distinguishes the MI300A allocators the
 * paper studies (Sections 5.3/5.4):
 *
 *  - allocRun():     up-front allocators (hipMalloc) grab large
 *                    physically contiguous runs; contiguity later turns
 *                    into big GPU page-table fragments and an even
 *                    spread over HBM stacks.
 *  - allocScattered(): CPU first-touch faults take single frames from
 *                    the on-demand pool. The pool is refilled from one
 *                    buddy block at a time and handed out *grouped by
 *                    stack* (mimicking freelist clustering), so
 *                    consecutive faults receive physically discontiguous
 *                    frames with a biased stack distribution.
 *  - allocBatch():   GPU fault batches (XNACK replay floods the handler
 *                    with many faults at once) are served with short
 *                    contiguous runs -- balanced across stacks but too
 *                    short to earn large fragments.
 */

#ifndef UPM_MEM_FRAME_ALLOCATOR_HH
#define UPM_MEM_FRAME_ALLOCATOR_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/hooks.hh"
#include "common/rng.hh"
#include "mem/bit_tree.hh"
#include "mem/geometry.hh"

namespace upm::mem {

/** A physically contiguous run of frames. */
struct FrameRange
{
    FrameId base = 0;
    std::uint64_t count = 0;

    bool operator==(const FrameRange &) const = default;
};

/**
 * Append the distinct frames @p frames[0..n) (any order) to @p out as
 * their maximal contiguous ranges, ascending: each range is a
 * stretch of consecutive frames with neither neighbour in the set.
 * Panics if a frame appears twice. Dense sets go through a bitmap
 * over [min, max], sparse ones through a sort.
 */
void appendFrameStretches(const FrameId *frames, std::uint64_t n,
                          std::vector<FrameRange> &out);

/**
 * Sort @p ranges by base and merge touching ones in place, so they
 * become the maximal intervals of their union. Panics if two ranges
 * overlap (a frame freed twice).
 */
void mergeFrameRanges(std::vector<FrameRange> &ranges);

/** Tunables for the on-demand path. */
struct FrameAllocatorConfig
{
    /** Largest buddy order (order 9 == 2 MiB blocks, like THP). */
    unsigned maxOrder = 9;
    /** Buddy order carved per on-demand pool refill. */
    unsigned onDemandRefillOrder = 9;
    /** Frames per contiguous run on the GPU fault-batch path. */
    unsigned faultBatchRun = 4;
    /** Seed for refill-placement randomness (deterministic). */
    std::uint64_t seed = 0x5eedu;
};

/**
 * Buddy allocator over the physical frame space.
 *
 * All operations are O(log frames) except the bulk helpers, which are
 * linear in the number of returned frames.
 *
 * Sharding: on a multi-socket node each socket's HBM is one
 * FrameAllocator shard covering the *global* frame window
 * [baseFrame, baseFrame + totalFrames()). Every public API speaks
 * global frame ids (allocations come back offset, frees are
 * translated); internal buddy state stays shard-local. The default
 * base of 0 makes the single-socket allocator bit-identical to the
 * unsharded one.
 *
 * Hooks (taken from @p hooks at construction): with an auditor,
 * double-alloc/double-free become recorded violations instead of
 * panics, so tests can assert on the exact failure class. With an
 * injector, every public allocation entry point consults the
 * frame-alloc site first, so a campaign can force clean OOM failures
 * deep inside any allocator or fault path. With a tracer, FrameAlloc
 * is emitted for every contiguous run handed to a caller, FrameFree
 * for every successful caller free, BuddySplit on block splits and
 * PoolRefill when the on-demand / per-stack pools pull a block.
 * Rolled-back partial allocations emit nothing, so the event stream
 * replays to exactly the set of caller-held frames.
 */
class FrameAllocator
{
  public:
    FrameAllocator(const MemGeometry &geometry,
                   const FrameAllocatorConfig &config = {},
                   FrameId base_frame = 0, unsigned socket = 0,
                   const Hooks &hooks = {});

    /**
     * Allocate @p n_frames as few large contiguous runs (largest-first
     * buddy decomposition). Used by up-front allocators.
     *
     * @return the runs, or std::nullopt if memory is exhausted (all
     *         partial progress is rolled back). A zero-frame request
     *         succeeds with an empty run list, so exhaustion is never
     *         ambiguous.
     */
    [[nodiscard]] std::optional<std::vector<FrameRange>>
    allocRun(std::uint64_t n_frames);

    /**
     * Allocate @p n single frames through the fragmented on-demand
     * pool. Appends to @p out. @return false (and rolls back) on OOM.
     */
    [[nodiscard]] bool allocScattered(std::uint64_t n,
                                      std::vector<FrameId> &out);

    /**
     * Allocate @p n frames in short contiguous runs of
     * `faultBatchRun` frames, as the GPU fault path does. Appends
     * ranges to @p out. @return false (and rolls back) on OOM.
     */
    [[nodiscard]] bool allocBatch(std::uint64_t n,
                                  std::vector<FrameRange> &out);

    /**
     * Allocate @p n single frames round-robin across stacks, the way
     * the driver places pinned host buffers (hipHostMalloc /
     * hipMallocManaged without XNACK): stack-balanced but physically
     * discontiguous. Appends to @p out. @return false on OOM.
     */
    [[nodiscard]] bool allocInterleaved(std::uint64_t n,
                                        std::vector<FrameId> &out);

    /**
     * Free one frame. @return false on an out-of-range or
     * not-allocated frame, leaving state intact (recorded as a
     * violation when audited). Internal callers that *know* the frame
     * is allocated treat false as an invariant break and panic.
     */
    [[nodiscard]] bool freeFrame(FrameId frame);

    /**
     * Free a contiguous range as naturally-aligned buddy blocks --
     * O(log frames) per block instead of per page. Without an auditor
     * a block holding a not-allocated frame is rejected whole. With
     * one attached, the range is split into maximal runs of allocated
     * frames, each freed as blocks, and every not-allocated frame in
     * between is reported on its own (FrameDoubleFree, ascending) and
     * skipped, so every good frame is freed. Eager merging makes the
     * final buddy state a function of the free frame set alone.
     * @return false if any frame in the range was invalid.
     */
    [[nodiscard]] bool freeRange(const FrameRange &range);

    /** @return the number of currently free frames. Frames parked in
     *  the on-demand / per-stack pools count as free, as Linux counts
     *  its per-CPU page caches. */
    std::uint64_t freeFrames() const;

    /** @return total frames managed. */
    std::uint64_t totalFrames() const { return geom.numFrames(); }

    /** @return runs of consecutive free blocks, summed over the
     *  orders -- the buddy allocator's structural fragmentation. A
     *  coalesced heap is a handful of runs; churn that fragments the
     *  free space grows this, so long-soak tests pin it under a
     *  ceiling. */
    std::uint64_t freeListNodes() const;

    /** First global frame id of this shard (0 when unsharded). */
    FrameId baseFrame() const { return baseF; }

    /** Socket owning this shard (0 when unsharded). */
    unsigned socket() const { return socketId; }

    /** @return true iff global frame @p frame belongs to this shard. */
    bool
    ownsFrame(FrameId frame) const
    {
        return frame >= baseF && frame - baseF < geom.numFrames();
    }

    /** @return free frames per stack (for the NUMA meminfo model). */
    std::vector<std::uint64_t> perStackFree() const;

    const MemGeometry &geometry() const { return geom; }

    /**
     * Frames currently held by callers: busy and not parked in the
     * on-demand / per-stack pools. Indexed by *shard-local* frame id
     * (global id minus baseFrame()). This is the state the
     * trace-replay tests reconstruct from FrameAlloc / FrameFree
     * events.
     */
    std::vector<bool> busyMap() const;

    /**
     * Teardown leak check: every busy frame must either be referenced
     * by a page table (@p mapped, indexed by *global* FrameId) or
     * parked in one of the free pools; anything else leaked. Reports
     * FrameLeak per offending frame through @p auditor.
     * @return leaked frame count.
     */
    std::uint64_t auditLeaks(const std::vector<bool> &mapped,
                             audit::Auditor &auditor) const;

    /**
     * Fault-seeding surface for UPMSan tests: set (@p busy) or clear
     * the busy bits of the global frames in @p range without touching
     * the free lists -- the free-list/busy-bit divergence that
     * allocation reports as FrameDoubleAlloc. Panics outside the shard.
     */
    void seedBusyBits(const FrameRange &range, bool busy);

  private:
    /** Allocate one buddy block of @p order or, when no free block
     *  is that large, of the largest free order below it, splitting
     *  the smallest free block that fits. Sets @p order to the order
     *  taken and @p base to the block. @return false iff nothing is
     *  free. */
    bool allocBlock(unsigned &order, FrameId &base);
    /** Add block @p index of @p order to its free list. */
    void pushFree(unsigned order, std::uint64_t index);
    /** Take block @p index of @p order off its free list. */
    void popFree(unsigned order, std::uint64_t index);
    /** Return a block to the free lists, merging with buddies.
     *  @return false (state intact) if any frame was not allocated. */
    bool freeBlock(FrameId base, unsigned order);
    /** Free [base, base+count) as maximal naturally-aligned blocks.
     *  @return false if any block was rejected. */
    bool freeBlocks(FrameId base, std::uint64_t count);
    /** First shard-local frame in [begin, end) whose busy bit equals
     *  @p busy, or @p end. Scans a word at a time. */
    FrameId findBusy(FrameId begin, FrameId end, bool busy) const;
    /** Set (@p busy) or clear the busy bits of [begin, end). */
    void markBusy(FrameId begin, FrameId end, bool busy);
    /** Visit the maximal runs of frames whose busy bit equals
     *  @p busy: fn(begin, end), ascending. */
    template <typename Fn>
    void
    forEachRun(bool busy, Fn &&fn) const
    {
        FrameId n = geom.numFrames();
        for (FrameId f = findBusy(0, n, busy); f < n;) {
            FrameId end = findBusy(f, n, !busy);
            fn(f, end);
            f = findBusy(end, n, busy);
        }
    }
    /** Refill the on-demand pool from one buddy block. */
    bool refillOnDemandPool();
    /** Refill the per-stack pools used by allocInterleaved(). */
    bool refillStackPools();
    /** Return known-valid frames without emitting FrameFree (rollback
     *  of partially-completed allocations). */
    void releaseRange(const FrameRange &range);
    /** Roll back a failed single-frame allocation: release the
     *  shard-local frames out[start..] as coalesced ranges and drop
     *  them from @p out. */
    void rollback(std::vector<FrameId> &out, std::size_t start);
    /** Emit FrameAlloc events for out[start..], coalescing physically
     *  adjacent frames into single run events. */
    void emitFrameAllocs(const std::vector<FrameId> &out,
                         std::size_t start, unsigned path);

    const MemGeometry &geom;
    FrameAllocatorConfig cfg;
    /** Global frame id of this shard's first frame. */
    FrameId baseF = 0;
    /** Socket owning this shard; stamps trace events. */
    unsigned socketId = 0;
    std::uint64_t freeCount = 0;

    /** Free lists: per order, the set of free block *indices*
     *  (base >> order) as a bitmap tree. */
    std::vector<BitTree> freeLists;
    /** Bit o is set iff freeLists[o] is non-empty. */
    std::uint32_t freeOrders = 0;
    /** Allocation state, one bit per shard-local frame, 64 frames a
     *  word (bits past numFrames stay clear). Frames parked in the
     *  pools are busy here. */
    std::vector<std::uint64_t> busyWords;

    /** Frames waiting to be handed to single-frame (CPU fault) users. */
    std::deque<FrameId> onDemandPool;
    /** Per-stack pools for stack-balanced pinned allocations. */
    std::vector<std::deque<FrameId>> stackPools;
    unsigned nextStack = 0;
    SplitMix64 rng;
    /** UPMSan hook; null (no overhead) unless auditing is enabled. */
    audit::Auditor *aud;
    /** UPMInject hook; null (no overhead) unless injection is on. */
    inject::Injector *inj;
    /** UPMTrace hook; null (no overhead) unless tracing is on. */
    trace::Tracer *tr;
};

} // namespace upm::mem

#endif // UPM_MEM_FRAME_ALLOCATOR_HH
