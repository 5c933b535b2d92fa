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
 *    evicts one victim: victims[j] is chosen just before page
 *    room + j goes in, so a run can evict pages it admitted earlier.
 *    Every call means exactly the per-page sequence it stands for,
 *    and a single page is a run of length 1;
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
 *    per page and never copies existing state;
 *  - ordering entries (stamp, key, seq), stored as runs: a StampRun
 *    (stamp, key, seq, n) stands for the n entries
 *    (stamp, key + i, seq + i). Sequence numbers are handed out in
 *    call order, so the pages of one run call get consecutive ones
 *    and one run entry covers a whole stretch. Entries are never
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
 *    (so it can grow in place); the open run is pushed when an entry
 *    does not extend it, and the victim is the smaller of the open
 *    run's head and the heap's top.
 *  - Random: the swap-remove vector, with the slot index in the slab;
 *    admitRun draws and inserts in one loop.
 *
 * Lazy entries are bounded: whenever an entry goes stale and the
 * stale entries then exceed half the live pages (and a floor of 64),
 * every structure is compacted, order kept. So the entries stay within
 * 1.5x the live pages plus the floor, and a compaction's O(live +
 * stale) cost is under three times the stale entries it drops:
 * amortised O(1) per touched or removed page. A run call counts and
 * checks page by page, so a panic on a bad page leaves the pages
 * before it applied and consistent. Sequence numbers and slots are
 * 64-bit.
 */

#ifndef UPM_POLICY_EVICTION_HH
#define UPM_POLICY_EVICTION_HH

#include <array>
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
     * to @p victims (cleared first). Panics when a victim is due and
     * no page is tracked.
     */
    virtual void admitRun(std::uint64_t space, std::uint64_t first,
                          std::uint64_t n, std::uint64_t tick,
                          std::uint64_t room,
                          std::vector<PageKey> &victims) = 0;

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
 * is dropped with its last page.
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
    Node *add(PageKey key);
    /** Stop tracking @p key; false when it was not tracked. */
    bool drop(PageKey key);
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

    Space *spaceOf(std::uint64_t id) const;

    std::unordered_map<std::uint64_t, Space> spaces;
    /** One-entry lookup cache: a run of operations almost always
     *  stays in one space. */
    mutable std::uint64_t cachedId = 0;
    mutable Space *cached = nullptr;
    std::uint64_t tracked = 0;
};

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
    /** Drop the head; the next entry becomes the head. */
    void
    advance()
    {
        ++head.key.page;
        ++head.seq;
        --n;
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
 * slab, the validity sequence, and the stale-entry count that triggers
 * compaction. @p Node must carry a @c seq.
 */
template <typename Node>
class LazyEviction : public EvictionPolicy
{
  public:
    void removeRun(std::uint64_t space, std::uint64_t first,
                   std::uint64_t n) override;
    std::uint64_t size() const override { return pages.size(); }
    bool contains(PageKey key) const override;

  protected:
    /** Start tracking @p key; panics when it already is. */
    Node &claim(PageKey key);
    /** The node of tracked @p key; panics naming @p op otherwise. */
    Node &tracked(PageKey key, const char *op);
    /** Give @p node a fresh sequence number, turning its previous
     *  entry stale, and return it. */
    std::uint64_t reissue(Node &node) { return node.seq = nextSeq++; }
    /** True while @p entry speaks for its page. Asked once per entry
     *  inspected; a false answer means the entry is being dropped. */
    bool current(const StampEntry &entry);
    /** Untrack the page of the valid entry @p entry, popped by the
     *  caller, and return its key. */
    PageKey take(const StampEntry &entry);
    /** Count one entry gone stale; compact once the budget is spent
     *  (see the file comment). */
    void retire();
    /** Drop every stale entry from every ordering structure. */
    virtual void compact() = 0;

    PageSlab<Node> pages;

  private:
    std::uint64_t nextSeq = 0;
    std::uint64_t stale = 0;
};

/** Per-page state of the lazily ordered kinds. */
struct LruNode
{
    std::uint64_t seq = 0;
};

struct LfuNode
{
    std::uint64_t freq = 0;
    std::uint64_t seq = 0;
};

struct PredictiveNode
{
    std::uint64_t stamp = 0;
    /** EWMA inter-access gap; PredictiveEviction::kNeverReused until
     *  the first re-touch. */
    std::uint64_t ewmaGap = 0;
    std::uint64_t seq = 0;
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
    void admitRun(std::uint64_t space, std::uint64_t first,
                  std::uint64_t n, std::uint64_t tick, std::uint64_t room,
                  std::vector<PageKey> &victims) override;
    EvictionKind kind() const override { return EvictionKind::Lru; }

  private:
    PageKey evictOne();
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
    void admitRun(std::uint64_t space, std::uint64_t first,
                  std::uint64_t n, std::uint64_t tick, std::uint64_t room,
                  std::vector<PageKey> &victims) override;
    EvictionKind kind() const override { return EvictionKind::Lfu; }

  private:
    PageKey evictOne();
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
 * same seed and fed the same stream pick the same victims.
 */
class RandomEviction : public EvictionPolicy
{
  public:
    explicit RandomEviction(std::uint64_t seed) : rng(seed) {}

    void touchRun(std::uint64_t space, std::uint64_t first,
                  std::uint64_t n, std::uint64_t tick) override;
    void admitRun(std::uint64_t space, std::uint64_t first,
                  std::uint64_t n, std::uint64_t tick, std::uint64_t room,
                  std::vector<PageKey> &victims) override;
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
    /** Drop slot @p slot by swapping the last key into it. */
    void swapRemove(std::uint64_t slot);

    SplitMix64 rng;
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
    void admitRun(std::uint64_t space, std::uint64_t first,
                  std::uint64_t n, std::uint64_t tick, std::uint64_t room,
                  std::vector<PageKey> &victims) override;
    EvictionKind kind() const override
    {
        return EvictionKind::Predictive;
    }

    /** Predicted-next-touch sentinel for pages never re-accessed. */
    static constexpr std::uint64_t kNeverReused = ~0ull;

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
    void enqueue(PageKey key, PredictiveNode &node);
    /** Drop stale heads of the open run and the heap top; the least
     *  valid re-touched run, or nullptr. */
    RankedRun *reusedFront();
    PageKey evictOne();
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
