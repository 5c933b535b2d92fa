/**
 * @file
 * EvictionPolicy: victim selection under memory pressure.
 *
 * The pre-policy simulator had exactly one eviction strategy, an LRU
 * list buried inside uvm::UvmSimulator. This interface lifts victim
 * selection out so LRU / LFU / seeded-random / predictive variants
 * are interchangeable behind one contract. The caller speaks in page
 * runs -- pages [first, first + n) of one space -- because that is
 * how residency changes: one access call faults or touches whole
 * stretches of a region.
 *
 *  - touchRun / admitRun / removeRun report residency changes with a
 *    monotonically non-decreasing logical tick (every kind panics on
 *    a tick older than the last one it saw);
 *  - admitRun(space, first, n, tick, room, victims) inserts the n
 *    pages in ascending order and, before inserting page i >= room,
 *    evicts one victim: the j-th victim is chosen just before page
 *    room + j goes in, so a run can evict pages it admitted earlier.
 *    The victims come back as PageRuns, in that order, each maximal
 *    stretch of consecutive pages of one space as one run. Every call
 *    means exactly the per-page sequence it stands for, and a single
 *    page is a run of length 1;
 *  - every policy breaks ties by the lowest PageKey, so the victim
 *    sequence is a pure function of the access stream (and, for
 *    Random, the seed) -- never of container representation.
 *
 * LRU compatibility gate: with per-call ticks, (stamp asc, key asc)
 * ordering reproduces the retired uvm list-LRU byte for byte. Pages
 * touched by the same call share a stamp and were list-appended in
 * ascending page order, so the list head was always the lowest key of
 * the oldest stamp -- exactly what the explicit tie-break picks. The
 * differential tests in tests/policy_diff_test.cc pin both this and
 * the slow per-page reference-model oracle for every variant.
 *
 * Layout: no per-page trees and no per-page entries. Each policy
 * keeps
 *
 *  - a PageSlab: per-page state (stamp, frequency, EWMA gap, slot,
 *    validity sequence -- whatever the kind needs) in fixed 512-page
 *    chunks per space, created when a chunk's first page is tracked
 *    and freed with its last one. Tracking a page never allocates
 *    per page and never copies existing state; a run is tracked or
 *    dropped with one bitmap update per word and one count update
 *    per chunk;
 *  - ordering entries (stamp, key, seq), stored as runs: a StampRun
 *    (stamp, key, seq, n) stands for the n entries
 *    (stamp, key + i, seq + i). Sequence numbers are handed out in
 *    call order, so the pages of one run call get consecutive ones
 *    and one run entry covers a whole stretch: an admitted run, or a
 *    touched stretch of equal rank, is one push. Entries are never
 *    erased in place: a touch or remove gives the page a new sequence
 *    number (or untracks it), which turns its old entry stale; stale
 *    entries are skipped when they reach a run's head and dropped in
 *    bulk by a compaction, which splits runs at stale pages.
 *
 * StampQueue is the (stamp, key) priority queue behind LRU, every LFU
 * frequency level and Predictive's never-reused pages. Ticks never
 * decrease, so entries arrive in stamp order: an entry that does not
 * sort below the FIFO's last entry is appended -- by bumping the tail
 * run's count when it is the tail's next entry (same stamp and space,
 * next page, next seq), as a new run otherwise -- so the FIFO stays
 * sorted by (stamp, key), stale entries included. The only entries
 * that would break the order are a key lower than the tail's within
 * the tail's stamp (migrationStep promotions at the current tick, or
 * an out-of-order caller); those go one by one to a small spill
 * min-heap. Each live page has exactly one valid entry, and it
 * carries the page's current stamp, so the smaller of the two valid
 * heads is the live minimum and the queue pops in exactly (stamp,
 * key) order. The FIFO is a run-length encoding of the per-page entry
 * sequence, so it pops the same victims that sequence would.
 *
 * Victims in runs. Every page an admit inserts sorts at or above
 * (tick, {space, first}) in the queue it enters, and for LRU, LFU and
 * Predictive that queue holds the least entries (LFU's level 1, the
 * lowest there can be; Predictive's never-reused pages, which rank
 * ahead of all others). So while that queue's least valid entry sorts
 * strictly below (tick, {space, first}), the victims do not depend on
 * how they interleave with the run's inserts: admitRun pops them as
 * the maximal valid stretch at the head of the FIFO, capped by the
 * victims still due, and drops the stretch from the slab in one step.
 * The stretch needs no cap at that bound or at the spill heap's top:
 * an entry that sorts between two of its entries names one of its
 * pages, so the stretch's own entry for that page is stale and ends
 * it (the run's page first is untracked, and each page has one valid
 * entry). The pages those
 * victims were due for then go in as one run. From the first victim
 * that does not sort below the bound on, the run may evict its own
 * pages, and the rest of the call goes page by page.
 *
 *  - LRU: one StampQueue.
 *  - LFU: one StampQueue per frequency, in a map keyed by the
 *    frequencies tracked pages have (never one entry per page). A
 *    touch moves the page one level up at the current tick, so each
 *    level is stamp-ordered too; the victim is the lowest level's
 *    minimum. A touched run splits into segments of equal frequency,
 *    one level lookup and one pushed run each.
 *  - Predictive: pages that were never re-touched (or whose
 *    prediction overflows) rank as "never reused", which orders them
 *    exactly like LRU and ahead of everything else -- a StampQueue.
 *    Re-touched pages rank by predicted next touch, which is not
 *    stamp-monotone, so they sit in a lazy min-heap of runs of equal
 *    rank, keyed by each run's head. A run's head is its least entry
 *    and popping it advances the head, so the heap pops the per-page
 *    heap's sequence. Runs grow in one open run kept outside the heap
 *    (so it can grow in place); the open run is pushed when a stretch
 *    does not extend it, and the victim is the smaller of the open
 *    run's head and the heap's top. An admit takes at most one victim
 *    from the heap: the page it then inserts is never-reused and
 *    outranks every heap entry.
 *  - Random: the swap-remove slot vector, with the slot index in the
 *    slab. The victims are uniform draws over a vector of up to a
 *    million keys and a slab of as many pages, so each one misses the
 *    cache twice. The policy therefore draws ahead: it keeps the next
 *    kDrawAhead raw SplitMix64 values in a ring and uses them in the
 *    order drawn, each as raw % slots.size() at use time -- the very
 *    sequence of next() % bound that per-draw nextBelow gives. When a
 *    value enters the ring, the slot it would pick at the current
 *    size is prefetched; half a ring ahead, so are the slab lines
 *    that dropping the key in that slot writes. Each ring entry keeps
 *    the slot it picked and the size it picked it at, so a run of
 *    victims, which keeps the size, divides once per draw. A size
 *    change inside the window only makes a prefetch miss; the draw
 *    itself always uses the size at use.
 *
 * Lazy entries are bounded: whenever entries go stale and the stale
 * entries then exceed half the live pages (and a floor of 64), every
 * structure is compacted, order kept. So the entries stay within 1.5x
 * the live pages plus the floor plus one call's run, and a
 * compaction's O(live + stale) cost is under three times the stale
 * entries it drops: amortised O(1) per touched or removed page.
 * Compaction keeps the order, so when it runs never changes a victim.
 * A run call checks page by page: a panic on a bad page leaves the
 * pages before it applied and the policy consistent (an admit may
 * have taken victims due after the bad page). Sequence numbers and
 * slots are 64-bit.
 */

#ifndef UPM_POLICY_EVICTION_HH
#define UPM_POLICY_EVICTION_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "policy/policy.hh"

namespace upm::policy {

/** The pages [first, first + n) of one space. */
struct PageRun
{
    std::uint64_t space = 0;
    std::uint64_t first = 0;
    std::uint64_t n = 0;
};

/**
 * Victim selection interface. Implementations are single-threaded
 * model objects, like the simulators that own them. Every call names
 * the run [first, first + n) of pages in @p space.
 */
class EvictionPolicy
{
  public:
    virtual ~EvictionPolicy() = default;

    /** The tracked pages of the run were accessed at @p tick, in
     *  ascending page order. */
    virtual void touchRun(std::uint64_t space, std::uint64_t first,
                          std::uint64_t n, std::uint64_t tick) = 0;

    /**
     * The pages of the run, none of them tracked, become resident at
     * @p tick, in ascending page order. Before page i goes in, for
     * every i >= @p room, one victim is picked, untracked and appended
     * to @p victims (cleared first), extending the last victim run
     * when it is that run's next page. Panics when a victim is due and
     * no page is tracked.
     */
    virtual void admitRun(std::uint64_t space, std::uint64_t first,
                          std::uint64_t n, std::uint64_t tick,
                          std::uint64_t room,
                          std::vector<PageRun> &victims) = 0;

    /** The tracked pages of the run left residency for a non-eviction
     *  reason (free, explicit migration); drop them. */
    virtual void removeRun(std::uint64_t space, std::uint64_t first,
                           std::uint64_t n) = 0;

    /** Pages currently tracked. */
    virtual std::uint64_t size() const = 0;

    /** True when @p key is tracked. */
    virtual bool contains(PageKey key) const = 0;

    virtual EvictionKind kind() const = 0;
    const char *name() const { return evictionKindName(kind()); }

  protected:
    /** Enforce the tick contract: panics when @p tick is older than
     *  the last tick seen. */
    void advanceTo(std::uint64_t tick);

  private:
    std::uint64_t lastTick = 0;
};

/**
 * Per-page state of one policy: per space, a directory of fixed-size
 * chunks indexed by page / kChunkPages. A chunk is created when its
 * first page is tracked and freed when its last page leaves; a space
 * is dropped with its last page. The run calls update the live bitmap
 * one word at a time and the counts once per chunk.
 */
template <typename Node>
class PageSlab
{
  public:
    static constexpr std::uint64_t kChunkPages = 512;

    /** The state of @p key, or nullptr when it is not tracked. */
    const Node *find(PageKey key) const;
    Node *find(PageKey key)
    {
        return const_cast<Node *>(std::as_const(*this).find(key));
    }
    /** Start tracking @p key and return its node for the caller to
     *  fill; nullptr when @p key is already tracked. */
    Node *
    add(PageKey key)
    {
        Node *node = nullptr;
        addRun(key, 1, [&](Node &added, std::uint64_t) { node = &added; });
        return node;
    }
    /** Stop tracking @p key; false when it was not tracked. */
    bool drop(PageKey key) { return dropRun(key, 1) == 1; }
    /**
     * Start tracking the pages [first.page, first.page + n) of
     * first.space in ascending order, stopping at the first one that
     * is already tracked, and call @p fill(node, i) on the node of
     * each page first.page + i it tracks. Returns how many it tracked.
     */
    template <typename Fill>
    std::uint64_t addRun(PageKey first, std::uint64_t n, Fill fill);
    /** Stop tracking the pages of the run in ascending order, stopping
     *  at the first one that is not tracked; returns how many it
     *  dropped. */
    std::uint64_t dropRun(PageKey first, std::uint64_t n);
    /** Hint the cache lines that add or drop of @p key writes. */
    void prefetch(PageKey key) const;
    std::uint64_t size() const { return tracked; }

  private:
    struct Chunk
    {
        std::array<Node, kChunkPages> nodes{};
        std::array<std::uint64_t, kChunkPages / 64> live{};
        std::uint64_t count = 0;
    };
    struct Space
    {
        std::vector<std::unique_ptr<Chunk>> chunks;
        std::uint64_t count = 0;
    };

    /** The bits [bit, bit + len) of a word; bit + len <= 64. */
    static std::uint64_t
    bitRange(std::uint64_t bit, std::uint64_t len)
    {
        return (len >= 64 ? ~0ull : (1ull << len) - 1) << bit;
    }

    Space *spaceOf(std::uint64_t id) const;
    const Chunk *chunkOf(PageKey key) const;

    std::unordered_map<std::uint64_t, Space> spaces;
    /** One-entry lookup cache: a run of operations almost always
     *  stays in one space. */
    mutable std::uint64_t cachedId = 0;
    mutable Space *cached = nullptr;
    std::uint64_t tracked = 0;
};

template <typename Node>
typename PageSlab<Node>::Space *
PageSlab<Node>::spaceOf(std::uint64_t id) const
{
    if (cached != nullptr && cachedId == id)
        return cached;
    auto it = spaces.find(id);
    if (it == spaces.end())
        return nullptr;
    cachedId = id;
    // The map owns its values; the cache only hands them back.
    cached = const_cast<Space *>(&it->second);
    return cached;
}

template <typename Node>
const typename PageSlab<Node>::Chunk *
PageSlab<Node>::chunkOf(PageKey key) const
{
    const Space *space = spaceOf(key.space);
    if (space == nullptr)
        return nullptr;
    std::uint64_t index = key.page / kChunkPages;
    return index < space->chunks.size() ? space->chunks[index].get()
                                        : nullptr;
}

template <typename Node>
const Node *
PageSlab<Node>::find(PageKey key) const
{
    const Chunk *chunk = chunkOf(key);
    if (chunk == nullptr)
        return nullptr;
    std::uint64_t slot = key.page % kChunkPages;
    if ((chunk->live[slot / 64] >> (slot % 64) & 1) == 0)
        return nullptr;
    return &chunk->nodes[slot];
}

template <typename Node>
void
PageSlab<Node>::prefetch(PageKey key) const
{
    if (const Chunk *chunk = chunkOf(key)) {
        __builtin_prefetch(&chunk->live[key.page % kChunkPages / 64], 1);
        __builtin_prefetch(&chunk->count, 1);
    }
}

template <typename Node>
template <typename Fill>
std::uint64_t
PageSlab<Node>::addRun(PageKey first, std::uint64_t n, Fill fill)
{
    if (n == 0)
        return 0;
    Space *space = spaceOf(first.space);
    if (space == nullptr) {
        space = &spaces[first.space];
        cachedId = first.space;
        cached = space;
    }
    const std::uint64_t end = first.page + n;
    if ((end - 1) / kChunkPages >= space->chunks.size())
        space->chunks.resize((end - 1) / kChunkPages + 1);
    std::uint64_t page = first.page;
    bool blocked = false;
    while (page < end && !blocked) {
        std::unique_ptr<Chunk> &owned = space->chunks[page / kChunkPages];
        if (!owned)
            owned = std::make_unique<Chunk>();
        Chunk &chunk = *owned;
        const std::uint64_t start = page;
        const std::uint64_t chunkEnd =
            std::min(end, (page / kChunkPages + 1) * kChunkPages);
        while (page < chunkEnd && !blocked) {
            const std::uint64_t slot = page % kChunkPages;
            std::uint64_t &word = chunk.live[slot / 64];
            std::uint64_t len = std::min(64 - slot % 64, chunkEnd - page);
            if (std::uint64_t taken = word & bitRange(slot % 64, len)) {
                len = std::countr_zero(taken) - slot % 64;
                blocked = true;
            }
            word |= bitRange(slot % 64, len);
            for (; len > 0; --len, ++page)
                fill(chunk.nodes[page % kChunkPages], page - first.page);
        }
        chunk.count += page - start;
        space->count += page - start;
        tracked += page - start;
    }
    return page - first.page;
}

template <typename Node>
std::uint64_t
PageSlab<Node>::dropRun(PageKey first, std::uint64_t n)
{
    Space *space = spaceOf(first.space);
    if (space == nullptr)
        return 0;
    const std::uint64_t end = first.page + n;
    std::uint64_t page = first.page;
    bool blocked = false;
    while (page < end && !blocked) {
        const std::uint64_t index = page / kChunkPages;
        if (index >= space->chunks.size() || !space->chunks[index])
            break;
        Chunk &chunk = *space->chunks[index];
        const std::uint64_t start = page;
        const std::uint64_t chunkEnd =
            std::min(end, (index + 1) * kChunkPages);
        while (page < chunkEnd && !blocked) {
            const std::uint64_t slot = page % kChunkPages;
            std::uint64_t &word = chunk.live[slot / 64];
            std::uint64_t len = std::min(64 - slot % 64, chunkEnd - page);
            if (std::uint64_t missing = ~word & bitRange(slot % 64, len)) {
                len = std::countr_zero(missing) - slot % 64;
                blocked = true;
            }
            word &= ~bitRange(slot % 64, len);
            page += len;
        }
        tracked -= page - start;
        if ((chunk.count -= page - start) == 0)
            space->chunks[index].reset();
        if ((space->count -= page - start) == 0) {
            spaces.erase(first.space);
            cached = nullptr;
            break;
        }
    }
    return page - first.page;
}

/** One ordering entry. It speaks for its page while the page's node
 *  still carries @c seq; after that it is stale. */
struct StampEntry
{
    std::uint64_t stamp = 0;
    PageKey key;
    std::uint64_t seq = 0;

    /** (stamp, key) order; @c seq never decides. */
    friend bool
    operator<(const StampEntry &a, const StampEntry &b)
    {
        return std::tie(a.stamp, a.key) < std::tie(b.stamp, b.key);
    }
};

/** @p n ordering entries in one: entry i is (head.stamp,
 *  head.key + i pages, head.seq + i). The head is the least. */
struct StampRun
{
    StampEntry head;
    std::uint64_t n = 1;

    /** True when @p e is the entry right after the last one. */
    bool
    continuedBy(const StampEntry &e) const
    {
        return e.stamp == head.stamp && e.key.space == head.key.space &&
               e.key.page == head.key.page + n && e.seq == head.seq + n;
    }
    /** Drop the first @p k entries; the next one becomes the head. */
    void
    advance(std::uint64_t k = 1)
    {
        head.key.page += k;
        head.seq += k;
        n -= k;
    }
};

/**
 * (stamp, key) priority queue of lazily invalidated entries: a sorted
 * FIFO of runs for entries that keep the order, a spill min-heap for
 * the rest (see the file comment). The FIFO is a deque, so it grows
 * and shrinks block by block and only compaction copies its runs.
 * Callers pass a validity predicate that is asked once per entry
 * inspected; an entry it rejects is dropped.
 */
class StampQueue
{
  public:
    /** Push the entries of @p run, in order. */
    void push(StampRun run);
    /** The least valid entry, or nullptr when none is left. Drops the
     *  stale entries it passes. */
    template <typename Valid>
    const StampEntry *front(Valid valid);
    /** Remove the entry the last front() returned. */
    void pop();
    /**
     * When the least valid entry sorts strictly below @p limit, pop it
     * and the valid entries that follow it in its run, at most @p max
     * in all, and return them; n == 0 otherwise. Every popped entry
     * sorts below @p limit and below every entry left.
     */
    template <typename Valid>
    StampRun popRun(Valid valid, const StampEntry &limit,
                    std::uint64_t max);
    /** Drop every stale entry, keeping the order. */
    template <typename Valid>
    void compact(Valid valid);
    bool empty() const { return fifo.empty() && spill.empty(); }

  private:
    std::deque<StampRun> fifo;      //!< sorted by (stamp, key)
    std::vector<StampEntry> spill;  //!< min-heap by (stamp, key)
    bool spillFront = false;        //!< front() came from the spill
};

/**
 * What the lazily ordered kinds (LRU, LFU, Predictive) share: the page
 * slab, the validity sequence, the stale-entry count that triggers
 * compaction, and the admit path (see "Victims in runs" in the file
 * comment). @p Node must carry a @c seq and an admit(tick) that sets
 * the state of a newly admitted page.
 */
template <typename Node>
class LazyEviction : public EvictionPolicy
{
  public:
    void admitRun(std::uint64_t space, std::uint64_t first,
                  std::uint64_t n, std::uint64_t tick, std::uint64_t room,
                  std::vector<PageRun> &victims) final;
    void removeRun(std::uint64_t space, std::uint64_t first,
                   std::uint64_t n) final;
    std::uint64_t size() const final { return pages.size(); }
    bool contains(PageKey key) const final;

  protected:
    /**
     * Give the tracked pages of the run new, consecutive sequence
     * numbers at @p tick. @p update(node) updates each page's state
     * and returns its rank; each maximal stretch of equal rank goes to
     * @p push(run, rank) as one StampRun. Panics on an untracked page,
     * after pushing the pages before it.
     */
    template <typename Update, typename Push>
    void touchStretches(std::uint64_t space, std::uint64_t first,
                        std::uint64_t n, std::uint64_t tick, Update update,
                        Push push);
    /** True while @p entry speaks for its page. Asked once per entry
     *  inspected; a false answer means the entry is being dropped. */
    bool current(const StampEntry &entry);
    /** Untrack the page of the valid entry @p entry, popped by the
     *  caller, and return its key. */
    PageKey take(const StampEntry &entry);

    PageSlab<Node> pages;

  private:
    /** The queue admitted pages enter. */
    virtual StampQueue &admitQueue() = 0;
    /** admitQueue() when it holds the least entries of all; nullptr
     *  when it does not exist yet (LFU without a level 1). */
    virtual StampQueue *leastQueue() = 0;
    /** Pick, untrack and return the least page; panics when none is
     *  tracked. */
    virtual PageKey evictOne() = 0;
    /** Drop every stale entry from every ordering structure. */
    virtual void compact() = 0;
    /** Track the run's pages at @p tick and push them as one run;
     *  panics on an already-tracked page, after the pages before it. */
    void admit(std::uint64_t space, std::uint64_t first, std::uint64_t n,
               std::uint64_t tick);
    /** Count @p n entries gone stale; compact once the budget is spent
     *  (see the file comment). */
    void retire(std::uint64_t n);

    std::uint64_t nextSeq = 0;
    std::uint64_t stale = 0;
};

/** Per-page state of the lazily ordered kinds. */
struct LruNode
{
    std::uint64_t seq = 0;

    void admit(std::uint64_t) {}
};

struct LfuNode
{
    std::uint64_t freq = 0;
    std::uint64_t seq = 0;

    void admit(std::uint64_t) { freq = 1; }
};

struct PredictiveNode
{
    /** Predicted-next-touch sentinel for pages never re-accessed. */
    static constexpr std::uint64_t kNeverReused = ~0ull;

    std::uint64_t stamp = 0;
    /** EWMA inter-access gap; kNeverReused until the first re-touch. */
    std::uint64_t ewmaGap = 0;
    std::uint64_t seq = 0;

    void
    admit(std::uint64_t tick)
    {
        stamp = tick;
        ewmaGap = kNeverReused;
    }
};

/**
 * LRU: victim = oldest stamp, lowest key on ties. Bit-identical to
 * the retired uvm list LRU (see file comment), and the explicit
 * tie-break makes the choice representation-independent -- the fix
 * for the old evictOne() tying on map-iteration order.
 */
class LruEviction : public LazyEviction<LruNode>
{
  public:
    void touchRun(std::uint64_t space, std::uint64_t first,
                  std::uint64_t n, std::uint64_t tick) override;
    EvictionKind kind() const override { return EvictionKind::Lru; }

  private:
    StampQueue &admitQueue() override { return order; }
    StampQueue *leastQueue() override { return &order; }
    PageKey evictOne() override;
    void compact() override;

    StampQueue order;
};

/**
 * LFU: victim = lowest access frequency; ties fall back to the least
 * recent stamp, then the lowest key.
 */
class LfuEviction : public LazyEviction<LfuNode>
{
  public:
    void touchRun(std::uint64_t space, std::uint64_t first,
                  std::uint64_t n, std::uint64_t tick) override;
    EvictionKind kind() const override { return EvictionKind::Lfu; }

  private:
    /** Level 1, the lowest there can be: begin() or a new head. */
    StampQueue &admitQueue() override;
    StampQueue *leastQueue() override;
    PageKey evictOne() override;
    void compact() override;

    /** Frequency -> that level's queue; begin() is the lowest. */
    std::map<std::uint64_t, StampQueue> levels;
};

/**
 * Seeded-random: victim = uniform SplitMix64 draw over the tracked
 * keys, held in a swap-remove vector (the standard O(1) random-
 * eviction structure). The vector's order -- and therefore the victim
 * sequence -- is a pure function of the admit/remove stream and the
 * seed, never of container internals; two policies built with the
 * same seed and fed the same stream pick the same victims. The draws
 * run kDrawAhead values ahead of their use (see the file comment).
 */
class RandomEviction : public EvictionPolicy
{
  public:
    /** Raw draws kept ahead of their use. */
    static constexpr std::uint64_t kDrawAhead = 16;

    explicit RandomEviction(std::uint64_t seed) : rng(seed)
    {
        for (Draw &draw : ahead)
            draw.raw = rng.next();
    }

    void touchRun(std::uint64_t space, std::uint64_t first,
                  std::uint64_t n, std::uint64_t tick) override;
    void admitRun(std::uint64_t space, std::uint64_t first,
                  std::uint64_t n, std::uint64_t tick, std::uint64_t room,
                  std::vector<PageRun> &victims) override;
    void removeRun(std::uint64_t space, std::uint64_t first,
                   std::uint64_t n) override;
    std::uint64_t size() const override { return pages.size(); }
    bool contains(PageKey key) const override;
    EvictionKind kind() const override { return EvictionKind::Random; }

  private:
    struct Node
    {
        std::uint64_t slot = 0;  //!< index into slots
    };
    /** Track the run's pages in new slots at the end; panics on an
     *  already-tracked page, after the pages before it. */
    void insert(std::uint64_t space, std::uint64_t first, std::uint64_t n);
    /** A raw draw, and the slot it picks among @c size slots. */
    struct Draw
    {
        std::uint64_t raw = 0;
        std::uint64_t size = 0;
        std::uint64_t slot = 0;

        /** The slot @c raw picks among @p n > 0 slots. */
        std::uint64_t
        slotAmong(std::uint64_t n) const
        {
            return n == size ? slot : raw % n;
        }
    };
    /** The slot of the next victim among slots.size() > 0 slots, from
     *  the oldest draw in the ring; refills the ring and prefetches. */
    std::uint64_t nextSlot();
    /** Drop slot @p slot by swapping the last key into it. */
    void swapRemove(std::uint64_t slot);

    SplitMix64 rng;
    /** The next kDrawAhead draws, each with the slot it picked at the
     *  size it was drawn at (none before the first); the oldest is
     *  ahead[at]. */
    std::array<Draw, kDrawAhead> ahead{};
    std::uint64_t at = 0;
    std::vector<PageKey> slots;
    PageSlab<Node> pages;
};

/**
 * Predictive: per-page EWMA of the inter-access gap predicts the next
 * touch; the victim is the page whose predicted next touch is
 * furthest in the future (largest predicted tick), with never-reused
 * pages treated as infinitely far. Ties fall back to the oldest
 * stamp, then the lowest key. Integer arithmetic throughout
 * (ewma' = (3*ewma + gap) / 4), so predictions are exact and
 * platform-independent.
 */
class PredictiveEviction : public LazyEviction<PredictiveNode>
{
  public:
    void touchRun(std::uint64_t space, std::uint64_t first,
                  std::uint64_t n, std::uint64_t tick) override;
    EvictionKind kind() const override
    {
        return EvictionKind::Predictive;
    }

    /** Predicted-next-touch sentinel for pages never re-accessed. */
    static constexpr std::uint64_t kNeverReused =
        PredictiveNode::kNeverReused;

  private:
    /** Re-touched pages' entries of one rank = ~predicted next touch,
     *  so the ascending order puts the furthest prediction first. */
    struct RankedRun
    {
        std::uint64_t rank = 0;
        StampRun run{{}, 0};

        friend bool
        operator<(const RankedRun &a, const RankedRun &b)
        {
            return a.rank != b.rank ? a.rank < b.rank
                                    : a.run.head < b.run.head;
        }
    };
    static std::uint64_t predictedNext(const PredictiveNode &node);
    /** Queue the entries of @p run, all of rank @p rank. */
    void enqueue(const StampRun &run, std::uint64_t rank);
    /** Drop stale heads of the open run and the heap top; the least
     *  valid re-touched run, or nullptr. */
    RankedRun *reusedFront();
    StampQueue &admitQueue() override { return fresh; }
    StampQueue *leastQueue() override { return &fresh; }
    PageKey evictOne() override;
    void compact() override;

    /** Rank 0 (never reused, or the prediction overflowed): ordered
     *  by (stamp, key) alone, ahead of every re-touched page. */
    StampQueue fresh;
    std::vector<RankedRun> reused;  //!< lazy min-heap by head
    RankedRun open;                 //!< not in the heap; n == 0: none
};

/** Build an eviction policy. @p seed feeds the seeded variants. */
std::unique_ptr<EvictionPolicy> makeEviction(EvictionKind kind,
                                             std::uint64_t seed);

} // namespace upm::policy

#endif // UPM_POLICY_EVICTION_HH
