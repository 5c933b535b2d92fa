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

// ----------------------------------------------------------- PageSlab

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
const Node *
PageSlab<Node>::find(PageKey key) const
{
    const Space *space = spaceOf(key.space);
    if (space == nullptr)
        return nullptr;
    std::uint64_t index = key.page / kChunkPages;
    if (index >= space->chunks.size() || !space->chunks[index])
        return nullptr;
    const Chunk &chunk = *space->chunks[index];
    std::uint64_t slot = key.page % kChunkPages;
    if ((chunk.live[slot / 64] >> (slot % 64) & 1) == 0)
        return nullptr;
    return &chunk.nodes[slot];
}

template <typename Node>
Node *
PageSlab<Node>::add(PageKey key)
{
    Space *space = spaceOf(key.space);
    if (space == nullptr) {
        space = &spaces[key.space];
        cachedId = key.space;
        cached = space;
    }
    std::uint64_t index = key.page / kChunkPages;
    if (index >= space->chunks.size())
        space->chunks.resize(index + 1);
    if (!space->chunks[index])
        space->chunks[index] = std::make_unique<Chunk>();
    Chunk &chunk = *space->chunks[index];
    std::uint64_t slot = key.page % kChunkPages;
    std::uint64_t bit = 1ull << (slot % 64);
    if (chunk.live[slot / 64] & bit)
        return nullptr;
    chunk.live[slot / 64] |= bit;
    ++chunk.count;
    ++space->count;
    ++tracked;
    return &chunk.nodes[slot];
}

template <typename Node>
bool
PageSlab<Node>::drop(PageKey key)
{
    Space *space = spaceOf(key.space);
    if (space == nullptr)
        return false;
    std::uint64_t index = key.page / kChunkPages;
    if (index >= space->chunks.size() || !space->chunks[index])
        return false;
    Chunk &chunk = *space->chunks[index];
    std::uint64_t slot = key.page % kChunkPages;
    std::uint64_t bit = 1ull << (slot % 64);
    if ((chunk.live[slot / 64] & bit) == 0)
        return false;
    chunk.live[slot / 64] &= ~bit;
    --tracked;
    if (--chunk.count == 0)
        space->chunks[index].reset();
    if (--space->count == 0) {
        spaces.erase(key.space);
        cached = nullptr;
    }
    return true;
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
Node &
LazyEviction<Node>::claim(PageKey key)
{
    Node *node = pages.add(key);
    if (node == nullptr)
        panic("%s insert of an already-tracked page", name());
    return *node;
}

template <typename Node>
Node &
LazyEviction<Node>::tracked(PageKey key, const char *op)
{
    Node *node = pages.find(key);
    if (node == nullptr)
        panic("%s %s of an untracked page", name(), op);
    return *node;
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
LazyEviction<Node>::retire()
{
    ++stale;
    if (stale > kMinStale && 2 * stale > pages.size())
        compact();
}

template <typename Node>
void
LazyEviction<Node>::removeRun(std::uint64_t space, std::uint64_t first,
                              std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!pages.drop({space, first + i}))
            panic("%s remove of an untracked page", name());
        retire();
    }
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
    for (std::uint64_t i = 0; i < n; ++i) {
        PageKey key{space, first + i};
        order.push({{tick, key, reissue(tracked(key, "touch"))}, 1});
        retire();
    }
}

void
LruEviction::admitRun(std::uint64_t space, std::uint64_t first,
                      std::uint64_t n, std::uint64_t tick,
                      std::uint64_t room, std::vector<PageKey> &victims)
{
    advanceTo(tick);
    victims.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        if (i >= room)
            victims.push_back(evictOne());
        PageKey key{space, first + i};
        order.push({{tick, key, reissue(claim(key))}, 1});
    }
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
    // One level lookup per segment of equal frequency. The level holds
    // valid entries from the segment's first push on, so a compaction
    // inside the segment cannot erase it.
    StampQueue *level = nullptr;
    std::uint64_t segmentFreq = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        PageKey key{space, first + i};
        LfuNode &node = tracked(key, "touch");
        if (level == nullptr || node.freq != segmentFreq) {
            segmentFreq = node.freq;
            level = &levels[segmentFreq + 1];
        }
        ++node.freq;
        level->push({{tick, key, reissue(node)}, 1});
        retire();
    }
}

void
LfuEviction::admitRun(std::uint64_t space, std::uint64_t first,
                      std::uint64_t n, std::uint64_t tick,
                      std::uint64_t room, std::vector<PageKey> &victims)
{
    advanceTo(tick);
    victims.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        if (i >= room)
            victims.push_back(evictOne());
        PageKey key{space, first + i};
        LfuNode &node = claim(key);
        node.freq = 1;
        // Level 1 is the lowest there can be: begin() or a new head.
        auto level = levels.begin();
        if (level == levels.end() || level->first != 1)
            level = levels.emplace_hint(level, 1, StampQueue());
        level->second.push({{tick, key, reissue(node)}, 1});
    }
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
                         std::uint64_t room, std::vector<PageKey> &victims)
{
    advanceTo(tick);
    victims.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        if (i >= room) {
            if (slots.empty())
                panic("random eviction with no resident pages");
            std::uint64_t slot = rng.nextBelow(slots.size());
            victims.push_back(slots[slot]);
            pages.drop(slots[slot]);
            swapRemove(slot);
        }
        PageKey key{space, first + i};
        Node *node = pages.add(key);
        if (node == nullptr)
            panic("random-eviction insert of an already-tracked page");
        node->slot = slots.size();
        slots.push_back(key);
    }
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
PredictiveEviction::enqueue(PageKey key, PredictiveNode &node)
{
    StampEntry entry{node.stamp, key, reissue(node)};
    std::uint64_t rank = ~predictedNext(node);
    if (rank == 0) {
        fresh.push({entry, 1});
    } else if (open.run.n > 0 && open.rank == rank &&
               open.run.continuedBy(entry)) {
        ++open.run.n;
    } else {
        if (open.run.n > 0)
            heapPush(reused, open);
        open = {rank, {entry, 1}};
    }
}

void
PredictiveEviction::touchRun(std::uint64_t space, std::uint64_t first,
                             std::uint64_t n, std::uint64_t tick)
{
    advanceTo(tick);
    for (std::uint64_t i = 0; i < n; ++i) {
        PageKey key{space, first + i};
        PredictiveNode &node = tracked(key, "touch");
        std::uint64_t gap = tick - node.stamp;
        node.ewmaGap = node.ewmaGap == kNeverReused
                           ? gap
                           : (3 * node.ewmaGap + gap) / 4;
        node.stamp = tick;
        enqueue(key, node);
        retire();
    }
}

void
PredictiveEviction::admitRun(std::uint64_t space, std::uint64_t first,
                             std::uint64_t n, std::uint64_t tick,
                             std::uint64_t room,
                             std::vector<PageKey> &victims)
{
    advanceTo(tick);
    victims.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        if (i >= room)
            victims.push_back(evictOne());
        PageKey key{space, first + i};
        PredictiveNode &node = claim(key);
        node.stamp = tick;
        node.ewmaGap = kNeverReused;
        enqueue(key, node);
    }
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
