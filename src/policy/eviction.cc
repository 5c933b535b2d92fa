#include "policy/eviction.hh"

#include <algorithm>
#include <iterator>

#include "common/log.hh"

namespace upm::policy {

namespace {

/** Floor of the stale-entry budget, so tiny sets do not compact on
 *  every touch. */
constexpr std::uint64_t kMinStale = 64;

/** Lazy min-heap helpers over a vector ordered by its entries'
 *  operator<. */
template <typename E>
bool
later(const E &a, const E &b)
{
    return b < a;
}

template <typename E>
void
heapPush(std::vector<E> &heap, const E &entry)
{
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end(), later<E>);
}

template <typename E>
void
heapPop(std::vector<E> &heap)
{
    std::pop_heap(heap.begin(), heap.end(), later<E>);
    heap.pop_back();
}

/** Restore the heap after its top entry grew: sift it down, stopping
 *  as soon as it is no larger than both children. */
template <typename E>
void
heapSiftTop(std::vector<E> &heap)
{
    const std::size_t size = heap.size();
    E moving = heap.front();
    std::size_t at = 0;
    for (std::size_t child = 1; child < size; child = 2 * at + 1) {
        if (child + 1 < size && heap[child + 1] < heap[child])
            ++child;
        if (!(heap[child] < moving))
            break;
        heap[at] = heap[child];
        at = child;
    }
    heap[at] = moving;
}

/** Drop stale tops; the least valid entry, or nullptr. */
template <typename E, typename Valid>
const E *
heapTop(std::vector<E> &heap, Valid valid)
{
    while (!heap.empty() && !valid(heap.front()))
        heapPop(heap);
    return heap.empty() ? nullptr : &heap.front();
}

/** The last entry of @p run. */
StampEntry
lastOf(const StampRun &run)
{
    return {run.head.stamp,
            {run.head.key.space, run.head.key.page + run.n - 1},
            run.head.seq + run.n - 1};
}

/** Append the victims [first, first + n) to @p victims, extending the
 *  last run when they continue it. */
void
appendVictims(std::vector<PageRun> &victims, PageKey first, std::uint64_t n)
{
    if (!victims.empty() && victims.back().space == first.space &&
        victims.back().first + victims.back().n == first.page) {
        victims.back().n += n;
        return;
    }
    victims.push_back({first.space, first.page, n});
}

/** Hand each maximal stretch of valid entries of @p run to @p out, in
 *  order, as a run of its own. */
template <typename Valid, typename Out>
void
splitValid(StampRun run, Valid valid, Out out)
{
    StampRun piece{run.head, 0};
    for (; run.n > 0; run.advance()) {
        if (valid(run.head)) {
            if (piece.n == 0)
                piece.head = run.head;
            ++piece.n;
        } else if (piece.n > 0) {
            out(piece);
            piece.n = 0;
        }
    }
    if (piece.n > 0)
        out(piece);
}

} // namespace

// --------------------------------------------------------- tick check

void
EvictionPolicy::advanceTo(std::uint64_t tick)
{
    if (tick < lastTick)
        panic("%s eviction: tick %llu precedes tick %llu", name(),
              static_cast<unsigned long long>(tick),
              static_cast<unsigned long long>(lastTick));
    lastTick = tick;
}

// --------------------------------------------------------- StampQueue

void
StampQueue::push(StampRun run)
{
    while (run.n > 0 && !fifo.empty() && run.head < lastOf(fifo.back())) {
        heapPush(spill, run.head);
        run.advance();
    }
    if (run.n == 0)
        return;
    if (!fifo.empty() && fifo.back().continuedBy(run.head))
        fifo.back().n += run.n;
    else
        fifo.push_back(run);
}

template <typename Valid>
const StampEntry *
StampQueue::front(Valid valid)
{
    while (!fifo.empty() && !valid(fifo.front().head)) {
        fifo.front().advance();
        if (fifo.front().n == 0)
            fifo.pop_front();
    }
    const StampEntry *spilled = heapTop(spill, valid);
    spillFront = spilled != nullptr &&
                 (fifo.empty() || *spilled < fifo.front().head);
    if (spillFront)
        return spilled;
    return fifo.empty() ? nullptr : &fifo.front().head;
}

void
StampQueue::pop()
{
    if (spillFront) {
        heapPop(spill);
    } else {
        fifo.front().advance();
        if (fifo.front().n == 0)
            fifo.pop_front();
    }
    spillFront = false;
}

template <typename Valid>
StampRun
StampQueue::popRun(Valid valid, const StampEntry &limit, std::uint64_t max)
{
    const StampEntry *least = front(valid);
    if (least == nullptr || !(*least < limit))
        return {{}, 0};
    if (spillFront) {
        StampRun one{*least, 1};
        pop();
        return one;
    }
    // A valid stretch of the head run needs no cap at @p limit or at
    // the spill top: an entry that sorts between two of its entries
    // names one of its pages, whose entry there is then stale.
    StampRun &head = fifo.front();
    const std::uint64_t cap = std::min(max, head.n);
    StampRun out{head.head, 1};
    while (out.n < cap && valid({out.head.stamp,
                                 {out.head.key.space,
                                  out.head.key.page + out.n},
                                 out.head.seq + out.n}))
        ++out.n;
    // An entry valid() rejected is dropped with the stretch.
    head.advance(out.n < cap ? out.n + 1 : out.n);
    if (head.n == 0)
        fifo.pop_front();
    return out;
}

template <typename Valid>
void
StampQueue::compact(Valid valid)
{
    std::deque<StampRun> kept;
    for (const StampRun &run : fifo)
        splitValid(run, valid,
                   [&](const StampRun &piece) { kept.push_back(piece); });
    fifo.swap(kept);
    std::erase_if(spill, [&](const StampEntry &e) { return !valid(e); });
    std::make_heap(spill.begin(), spill.end(), later<StampEntry>);
    spillFront = false;
}

// ------------------------------------------------------- LazyEviction

template <typename Node>
void
LazyEviction<Node>::admitRun(std::uint64_t space, std::uint64_t first,
                             std::uint64_t n, std::uint64_t tick,
                             std::uint64_t room,
                             std::vector<PageRun> &victims)
{
    advanceTo(tick);
    victims.clear();
    // Victims below every page of the run do not depend on how they
    // interleave with its inserts: take them in stretches.
    std::uint64_t due = n > room ? n - room : 0;
    const StampEntry limit{tick, {space, first}, 0};
    auto valid = [this](const StampEntry &e) { return current(e); };
    for (StampQueue *least = leastQueue(); least != nullptr && due > 0;) {
        const StampRun run = least->popRun(valid, limit, due);
        if (run.n == 0)
            break;
        pages.dropRun(run.head.key, run.n);
        appendVictims(victims, run.head.key, run.n);
        due -= run.n;
    }
    admit(space, first, n - due, tick);
    // The run may evict its own pages from here on: page by page.
    for (std::uint64_t i = n - due; i < n; ++i) {
        appendVictims(victims, evictOne(), 1);
        admit(space, first + i, 1, tick);
    }
}

template <typename Node>
void
LazyEviction<Node>::admit(std::uint64_t space, std::uint64_t first,
                          std::uint64_t n, std::uint64_t tick)
{
    const std::uint64_t seq = nextSeq;
    const std::uint64_t added =
        pages.addRun({space, first}, n, [&](Node &node, std::uint64_t i) {
            node.admit(tick);
            node.seq = seq + i;
        });
    nextSeq += added;
    if (added > 0)
        admitQueue().push({{tick, {space, first}, seq}, added});
    if (added < n)
        panic("%s insert of an already-tracked page", name());
}

template <typename Node>
template <typename Update, typename Push>
void
LazyEviction<Node>::touchStretches(std::uint64_t space, std::uint64_t first,
                                   std::uint64_t n, std::uint64_t tick,
                                   Update update, Push push)
{
    StampRun run{{tick, {space, first}, nextSeq}, 0};
    std::uint64_t rank = 0;
    auto flush = [&] {
        if (run.n == 0)
            return;
        push(run, rank);
        retire(run.n);
    };
    for (std::uint64_t i = 0; i < n; ++i) {
        Node *node = pages.find({space, first + i});
        if (node == nullptr) {
            flush();
            panic("%s touch of an untracked page", name());
        }
        const std::uint64_t r = update(*node);
        if (run.n > 0 && r != rank) {
            flush();
            run = {{tick, {space, first + i}, nextSeq}, 0};
        }
        rank = r;
        node->seq = nextSeq++;
        ++run.n;
    }
    flush();
}

template <typename Node>
bool
LazyEviction<Node>::current(const StampEntry &entry)
{
    const Node *node = pages.find(entry.key);
    if (node != nullptr && node->seq == entry.seq)
        return true;
    --stale;
    return false;
}

template <typename Node>
PageKey
LazyEviction<Node>::take(const StampEntry &entry)
{
    PageKey key = entry.key;
    pages.drop(key);
    return key;
}

template <typename Node>
void
LazyEviction<Node>::retire(std::uint64_t n)
{
    stale += n;
    if (stale > kMinStale && 2 * stale > pages.size())
        compact();
}

template <typename Node>
void
LazyEviction<Node>::removeRun(std::uint64_t space, std::uint64_t first,
                              std::uint64_t n)
{
    const std::uint64_t dropped = pages.dropRun({space, first}, n);
    retire(dropped);
    if (dropped < n)
        panic("%s remove of an untracked page", name());
}

template <typename Node>
bool
LazyEviction<Node>::contains(PageKey key) const
{
    return pages.find(key) != nullptr;
}

template class LazyEviction<LruNode>;
template class LazyEviction<LfuNode>;
template class LazyEviction<PredictiveNode>;

// ---------------------------------------------------------------- LRU

void
LruEviction::touchRun(std::uint64_t space, std::uint64_t first,
                      std::uint64_t n, std::uint64_t tick)
{
    advanceTo(tick);
    touchStretches(
        space, first, n, tick, [](LruNode &) { return 0; },
        [this](const StampRun &run, std::uint64_t) { order.push(run); });
}

PageKey
LruEviction::evictOne()
{
    const StampEntry *victim =
        order.front([this](const StampEntry &e) { return current(e); });
    if (victim == nullptr)
        panic("LRU eviction with no resident pages");
    PageKey key = take(*victim);
    order.pop();
    return key;
}

void
LruEviction::compact()
{
    order.compact([this](const StampEntry &e) { return current(e); });
}

// ---------------------------------------------------------------- LFU

void
LfuEviction::touchRun(std::uint64_t space, std::uint64_t first,
                      std::uint64_t n, std::uint64_t tick)
{
    advanceTo(tick);
    // One level lookup per segment of equal frequency.
    touchStretches(
        space, first, n, tick, [](LfuNode &node) { return ++node.freq; },
        [this](const StampRun &run, std::uint64_t freq) {
            levels[freq].push(run);
        });
}

StampQueue &
LfuEviction::admitQueue()
{
    return levels.try_emplace(levels.begin(), 1)->second;
}

StampQueue *
LfuEviction::leastQueue()
{
    auto lowest = levels.begin();
    return lowest != levels.end() && lowest->first == 1 ? &lowest->second
                                                        : nullptr;
}

PageKey
LfuEviction::evictOne()
{
    auto valid = [this](const StampEntry &e) { return current(e); };
    // Levels left with only stale entries drain and go.
    for (auto it = levels.begin(); it != levels.end();
         it = levels.erase(it)) {
        if (const StampEntry *victim = it->second.front(valid)) {
            PageKey key = take(*victim);
            it->second.pop();
            return key;
        }
    }
    panic("LFU eviction with no resident pages");
}

void
LfuEviction::compact()
{
    auto valid = [this](const StampEntry &e) { return current(e); };
    for (auto it = levels.begin(); it != levels.end();) {
        it->second.compact(valid);
        it = it->second.empty() ? levels.erase(it) : std::next(it);
    }
}

// ------------------------------------------------------------- Random

void
RandomEviction::touchRun(std::uint64_t space, std::uint64_t first,
                         std::uint64_t n, std::uint64_t tick)
{
    advanceTo(tick);
    for (std::uint64_t i = 0; i < n; ++i) {
        if (pages.find({space, first + i}) == nullptr)
            panic("random-eviction touch of an untracked page");
    }
}

void
RandomEviction::admitRun(std::uint64_t space, std::uint64_t first,
                         std::uint64_t n, std::uint64_t tick,
                         std::uint64_t room, std::vector<PageRun> &victims)
{
    advanceTo(tick);
    victims.clear();
    const std::uint64_t free = std::min(room, n);
    insert(space, first, free);
    for (std::uint64_t i = free; i < n; ++i) {
        if (slots.empty())
            panic("random eviction with no resident pages");
        const std::uint64_t slot = nextSlot();
        appendVictims(victims, slots[slot], 1);
        pages.drop(slots[slot]);
        swapRemove(slot);
        insert(space, first + i, 1);
    }
}

void
RandomEviction::insert(std::uint64_t space, std::uint64_t first,
                       std::uint64_t n)
{
    const std::uint64_t base = slots.size();
    const std::uint64_t added = pages.addRun(
        {space, first}, n,
        [&](Node &node, std::uint64_t i) { node.slot = base + i; });
    for (std::uint64_t i = 0; i < added; ++i)
        slots.push_back({space, first + i});
    if (added < n)
        panic("random-eviction insert of an already-tracked page");
}

std::uint64_t
RandomEviction::nextSlot()
{
    // A run of victims keeps the size, so each draw divides once.
    const std::uint64_t size = slots.size();
    const std::uint64_t slot = ahead[at].slotAmong(size);
    Draw &drawn = ahead[at];
    drawn.raw = rng.next();
    drawn.size = size;
    drawn.slot = drawn.raw % size;
    __builtin_prefetch(&slots[drawn.slot]);
    pages.prefetch(
        slots[ahead[(at + kDrawAhead / 2) % kDrawAhead].slotAmong(size)]);
    at = (at + 1) % kDrawAhead;
    return slot;
}

void
RandomEviction::swapRemove(std::uint64_t slot)
{
    if (slot + 1 != slots.size()) {
        slots[slot] = slots.back();
        pages.find(slots[slot])->slot = slot;
    }
    slots.pop_back();
}

void
RandomEviction::removeRun(std::uint64_t space, std::uint64_t first,
                          std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        PageKey key{space, first + i};
        const Node *node = pages.find(key);
        if (node == nullptr)
            panic("random-eviction remove of an untracked page");
        std::uint64_t slot = node->slot;
        pages.drop(key);
        swapRemove(slot);
    }
}

bool
RandomEviction::contains(PageKey key) const
{
    return pages.find(key) != nullptr;
}

// --------------------------------------------------------- Predictive

std::uint64_t
PredictiveEviction::predictedNext(const PredictiveNode &node)
{
    if (node.ewmaGap == kNeverReused)
        return kNeverReused;
    std::uint64_t next = node.stamp + node.ewmaGap;
    return next < node.stamp ? kNeverReused : next;  // overflow clamp
}

void
PredictiveEviction::enqueue(const StampRun &run, std::uint64_t rank)
{
    if (rank == 0) {
        fresh.push(run);
    } else if (open.run.n > 0 && open.rank == rank &&
               open.run.continuedBy(run.head)) {
        open.run.n += run.n;
    } else {
        if (open.run.n > 0)
            heapPush(reused, open);
        open = {rank, run};
    }
}

void
PredictiveEviction::touchRun(std::uint64_t space, std::uint64_t first,
                             std::uint64_t n, std::uint64_t tick)
{
    advanceTo(tick);
    touchStretches(
        space, first, n, tick,
        [tick](PredictiveNode &node) {
            std::uint64_t gap = tick - node.stamp;
            node.ewmaGap = node.ewmaGap == kNeverReused
                               ? gap
                               : (3 * node.ewmaGap + gap) / 4;
            node.stamp = tick;
            return ~predictedNext(node);
        },
        [this](const StampRun &run, std::uint64_t rank) {
            enqueue(run, rank);
        });
}

PredictiveEviction::RankedRun *
PredictiveEviction::reusedFront()
{
    auto valid = [this](const StampEntry &e) { return current(e); };
    while (open.run.n > 0 && !valid(open.run.head))
        open.run.advance();
    while (!reused.empty() && !valid(reused.front().run.head)) {
        reused.front().run.advance();
        if (reused.front().run.n == 0)
            heapPop(reused);
        else
            heapSiftTop(reused);
    }
    RankedRun *best = reused.empty() ? nullptr : &reused.front();
    if (open.run.n > 0 && (best == nullptr || open < *best))
        best = &open;
    return best;
}

PageKey
PredictiveEviction::evictOne()
{
    if (const StampEntry *victim = fresh.front(
            [this](const StampEntry &e) { return current(e); })) {
        PageKey key = take(*victim);
        fresh.pop();
        return key;
    }
    RankedRun *ranked = reusedFront();
    if (ranked == nullptr)
        panic("predictive eviction with no resident pages");
    PageKey key = take(ranked->run.head);
    ranked->run.advance();
    if (ranked != &open) {
        if (ranked->run.n == 0)
            heapPop(reused);
        else
            heapSiftTop(reused);
    }
    return key;
}

void
PredictiveEviction::compact()
{
    auto valid = [this](const StampEntry &e) { return current(e); };
    fresh.compact(valid);
    std::vector<RankedRun> kept;
    for (RankedRun ranked : reused) {
        splitValid(ranked.run, valid, [&](const StampRun &piece) {
            kept.push_back({ranked.rank, piece});
        });
    }
    splitValid(open.run, valid, [&](const StampRun &piece) {
        kept.push_back({open.rank, piece});
    });
    open.run.n = 0;
    std::make_heap(kept.begin(), kept.end(), later<RankedRun>);
    reused.swap(kept);
}

// ------------------------------------------------------------ factory

std::unique_ptr<EvictionPolicy>
makeEviction(EvictionKind kind, std::uint64_t seed)
{
    switch (kind) {
      case EvictionKind::Lru:
        return std::make_unique<LruEviction>();
      case EvictionKind::Lfu:
        return std::make_unique<LfuEviction>();
      case EvictionKind::Random:
        return std::make_unique<RandomEviction>(seed);
      case EvictionKind::Predictive:
        return std::make_unique<PredictiveEviction>();
    }
    panic("unknown eviction kind %u", static_cast<unsigned>(kind));
}

} // namespace upm::policy
