#include "policy/eviction.hh"

#include <algorithm>
#include <iterator>

#include "common/log.hh"

namespace upm::policy {

namespace {

/** Floor of the stale-entry budget, so tiny sets do not compact on
 *  every touch. */
constexpr std::uint64_t kMinStale = 64;

/** Lazy min-heap helpers over a random-access container ordered by
 *  its entries' operator<. */
template <typename E>
bool
later(const E &a, const E &b)
{
    return b < a;
}

template <typename Heap>
void
heapPush(Heap &heap, const typename Heap::value_type &entry)
{
    using E = typename Heap::value_type;
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end(), later<E>);
}

template <typename Heap>
void
heapPop(Heap &heap)
{
    using E = typename Heap::value_type;
    std::pop_heap(heap.begin(), heap.end(), later<E>);
    heap.pop_back();
}

/** Drop stale tops; the least valid entry, or nullptr. */
template <typename Heap, typename Valid>
const typename Heap::value_type *
heapTop(Heap &heap, Valid valid)
{
    while (!heap.empty() && !valid(heap.front()))
        heapPop(heap);
    return heap.empty() ? nullptr : &heap.front();
}

template <typename Heap, typename Valid>
void
heapCompact(Heap &heap, Valid valid)
{
    using E = typename Heap::value_type;
    std::erase_if(heap, [&](const E &e) { return !valid(e); });
    std::make_heap(heap.begin(), heap.end(), later<E>);
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
void
PageSlab<Node>::drop(PageKey key)
{
    Space *space = spaceOf(key.space);
    std::uint64_t index = key.page / kChunkPages;
    std::uint64_t slot = key.page % kChunkPages;
    Chunk &chunk = *space->chunks[index];
    chunk.live[slot / 64] &= ~(1ull << (slot % 64));
    --tracked;
    if (--chunk.count == 0)
        space->chunks[index].reset();
    if (--space->count == 0) {
        spaces.erase(key.space);
        cached = nullptr;
    }
}

// --------------------------------------------------------- StampQueue

void
StampQueue::push(const StampEntry &entry)
{
    if (!fifo.empty() && entry < fifo.back())
        heapPush(spill, entry);
    else
        fifo.push_back(entry);
}

template <typename Valid>
const StampEntry *
StampQueue::front(Valid valid)
{
    while (!fifo.empty() && !valid(fifo.front()))
        fifo.pop_front();
    const StampEntry *spilled = heapTop(spill, valid);
    spillFront =
        spilled != nullptr && (fifo.empty() || *spilled < fifo.front());
    if (spillFront)
        return spilled;
    return fifo.empty() ? nullptr : &fifo.front();
}

void
StampQueue::pop()
{
    if (spillFront)
        heapPop(spill);
    else
        fifo.pop_front();
    spillFront = false;
}

template <typename Valid>
void
StampQueue::compact(Valid valid)
{
    std::erase_if(fifo, [&](const StampEntry &e) { return !valid(e); });
    heapCompact(spill, valid);
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
void
LazyEviction<Node>::retire()
{
    ++stale;
    if (stale > kMinStale && 2 * stale > pages.size())
        compact();
}

template <typename Node>
void
LazyEviction<Node>::remove(PageKey key)
{
    tracked(key, "remove");
    pages.drop(key);
    retire();
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
LruEviction::insert(PageKey key, std::uint64_t tick)
{
    advanceTo(tick);
    order.push({tick, key, reissue(claim(key))});
}

void
LruEviction::touch(PageKey key, std::uint64_t tick)
{
    advanceTo(tick);
    order.push({tick, key, reissue(tracked(key, "touch"))});
    retire();
}

PageKey
LruEviction::evict()
{
    const StampEntry *victim =
        order.front([this](const StampEntry &e) { return current(e); });
    if (victim == nullptr)
        panic("LRU eviction with no resident pages");
    PageKey key = victim->key;
    order.pop();
    pages.drop(key);
    return key;
}

void
LruEviction::compact()
{
    order.compact([this](const StampEntry &e) { return current(e); });
}

// ---------------------------------------------------------------- LFU

void
LfuEviction::insert(PageKey key, std::uint64_t tick)
{
    advanceTo(tick);
    LfuNode &node = claim(key);
    node.freq = 1;
    levels[node.freq].push({tick, key, reissue(node)});
}

void
LfuEviction::touch(PageKey key, std::uint64_t tick)
{
    advanceTo(tick);
    LfuNode &node = tracked(key, "touch");
    ++node.freq;
    levels[node.freq].push({tick, key, reissue(node)});
    retire();
}

PageKey
LfuEviction::evict()
{
    auto valid = [this](const StampEntry &e) { return current(e); };
    // Levels left with only stale entries drain and go.
    for (auto it = levels.begin(); it != levels.end();
         it = levels.erase(it)) {
        if (const StampEntry *victim = it->second.front(valid)) {
            PageKey key = victim->key;
            it->second.pop();
            pages.drop(key);
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
RandomEviction::insert(PageKey key, std::uint64_t tick)
{
    advanceTo(tick);
    Node *node = pages.add(key);
    if (node == nullptr)
        panic("random-eviction insert of an already-tracked page");
    node->slot = slots.size();
    slots.push_back(key);
}

void
RandomEviction::touch(PageKey key, std::uint64_t tick)
{
    advanceTo(tick);
    if (pages.find(key) == nullptr)
        panic("random-eviction touch of an untracked page");
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
RandomEviction::remove(PageKey key)
{
    const Node *node = pages.find(key);
    if (node == nullptr)
        panic("random-eviction remove of an untracked page");
    std::uint64_t slot = node->slot;
    pages.drop(key);
    swapRemove(slot);
}

PageKey
RandomEviction::evict()
{
    if (slots.empty())
        panic("random eviction with no resident pages");
    std::uint64_t slot = rng.nextBelow(slots.size());
    PageKey key = slots[slot];
    pages.drop(key);
    swapRemove(slot);
    return key;
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
    if (rank == 0)
        fresh.push(entry);
    else
        heapPush(reused, RankedEntry{rank, entry});
}

void
PredictiveEviction::insert(PageKey key, std::uint64_t tick)
{
    advanceTo(tick);
    PredictiveNode &node = claim(key);
    node.stamp = tick;
    node.ewmaGap = kNeverReused;
    enqueue(key, node);
}

void
PredictiveEviction::touch(PageKey key, std::uint64_t tick)
{
    advanceTo(tick);
    PredictiveNode &node = tracked(key, "touch");
    std::uint64_t gap = tick - node.stamp;
    node.ewmaGap = node.ewmaGap == kNeverReused
                       ? gap
                       : (3 * node.ewmaGap + gap) / 4;
    node.stamp = tick;
    enqueue(key, node);
    retire();
}

PageKey
PredictiveEviction::evict()
{
    PageKey key;
    if (const StampEntry *victim = fresh.front(
            [this](const StampEntry &e) { return current(e); })) {
        key = victim->key;
        fresh.pop();
    } else if (const RankedEntry *ranked = heapTop(
                   reused, [this](const RankedEntry &r) {
                       return current(r.entry);
                   })) {
        key = ranked->entry.key;
        heapPop(reused);
    } else {
        panic("predictive eviction with no resident pages");
    }
    pages.drop(key);
    return key;
}

void
PredictiveEviction::compact()
{
    fresh.compact([this](const StampEntry &e) { return current(e); });
    heapCompact(reused,
                [this](const RankedEntry &r) { return current(r.entry); });
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
