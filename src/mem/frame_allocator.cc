#include "mem/frame_allocator.hh"

#include <algorithm>
#include <bit>

#include "audit/auditor.hh"
#include "common/log.hh"
#include "inject/injector.hh"
#include "trace/tracer.hh"

namespace upm::mem {

namespace {

/**
 * First index in [begin, end) whose bit in @p words is @p set, or end;
 * a word at a time. Bits of @p words past @p end are never read as a
 * hit.
 */
std::uint64_t
findBit(const std::vector<std::uint64_t> &words, std::uint64_t begin,
        std::uint64_t end, bool set)
{
    while (begin < end) {
        std::size_t w = begin / 64;
        std::uint64_t word = set ? words[w] : ~words[w];
        word &= ~0ull << (begin % 64);
        if (word != 0)
            return std::min<std::uint64_t>(end,
                                           w * 64 + std::countr_zero(word));
        begin = (w + 1) * 64;
    }
    return end;
}

} // namespace

FrameAllocator::FrameAllocator(const MemGeometry &geometry,
                               const FrameAllocatorConfig &config,
                               FrameId base_frame, unsigned socket,
                               const Hooks &hooks)
    : geom(geometry), cfg(config), baseF(base_frame), socketId(socket),
      rng(config.seed), aud(hooks.aud), inj(hooks.inj), tr(hooks.tr)
{
    if (cfg.maxOrder > 20)
        fatal("buddy max order %u too large", cfg.maxOrder);
    if (cfg.onDemandRefillOrder > cfg.maxOrder)
        fatal("on-demand refill order exceeds max order");
    if (cfg.faultBatchRun == 0)
        fatal("fault batch run must be nonzero");
    // Global and shard-local frame ids must map to the same HBM stack
    // (stackOfFrame is frame % numStacks), or one shard's notion of
    // stack balance would disagree with the Infinity Cache model's.
    if (baseF % geom.numStacks() != 0)
        fatal("shard base frame %llu not stack-aligned (%u stacks)",
              static_cast<unsigned long long>(baseF), geom.numStacks());

    freeLists.reserve(cfg.maxOrder + 1);
    for (unsigned o = 0; o <= cfg.maxOrder; ++o)
        freeLists.emplace_back(geom.numFrames() >> o);
    busyWords.assign(ceilDiv(geom.numFrames(), 64), 0);

    // Carve the frame space into maximal naturally-aligned blocks:
    // max-order blocks up to the last whole one, then one block per
    // set bit of the tail's length, largest first.
    std::uint64_t top = geom.numFrames() >> cfg.maxOrder;
    freeLists[cfg.maxOrder].insertPrefix(top);
    if (top != 0)
        freeOrders |= 1u << cfg.maxOrder;
    FrameId next = top << cfg.maxOrder;
    std::uint64_t tail = geom.numFrames() - next;
    for (unsigned o = cfg.maxOrder; o-- > 0;) {
        if ((tail >> o) & 1) {
            pushFree(o, next >> o);
            next += 1ull << o;
        }
    }
    freeCount = geom.numFrames();
}

void
FrameAllocator::pushFree(unsigned order, std::uint64_t index)
{
    freeLists[order].insert(index);
    freeOrders |= 1u << order;
}

void
FrameAllocator::popFree(unsigned order, std::uint64_t index)
{
    freeLists[order].erase(index);
    if (freeLists[order].empty())
        freeOrders &= ~(1u << order);
}

bool
FrameAllocator::allocBlock(unsigned &order, FrameId &base)
{
    // The one fit rule: split the smallest free block of order or
    // above; with none, take a block of the largest free order below
    // it whole. Trying order, order - 1, ..., 0 in turn gives the same.
    if (freeOrders == 0)
        return false;
    if ((freeOrders >> order) == 0)
        order = std::bit_width(freeOrders) - 1;
    unsigned o = order + std::countr_zero(freeOrders >> order);

    FrameId block = freeLists[o].first() << o;
    popFree(o, block >> o);

    // Split down to the requested order, keeping the upper halves free.
    while (o > order) {
        --o;
        pushFree(o, (block + (1ull << o)) >> o);
        if (tr != nullptr)
            tr->emitAt(socketId, trace::EventKind::BuddySplit,
                       block + baseF, o);
    }

    std::uint64_t n = 1ull << order;
    FrameId block_end = block + n;
    if (aud != nullptr && aud->config().checkFrames) {
        for (FrameId f = findBusy(block, block_end, true); f < block_end;
             f = findBusy(f + 1, block_end, true)) {
            aud->record(audit::ViolationKind::FrameDoubleAlloc, f + baseF,
                        strprintf("buddy handed out frame %llu, already "
                                  "busy (free-list/busy-bit divergence)",
                                  static_cast<unsigned long long>(
                                      f + baseF)));
        }
    }
    markBusy(block, block_end, true);
    freeCount -= n;
    base = block;
    return true;
}

bool
FrameAllocator::freeBlock(FrameId base, unsigned order)
{
    std::uint64_t n = 1ull << order;
    // Validate the whole block before mutating anything: a double
    // free is recorded (when audited) for the first free frame and
    // rejected, leaving state intact either way.
    FrameId bad = findBusy(base, base + n, false);
    if (bad < base + n) {
        if (aud != nullptr && aud->config().checkFrames) {
            aud->record(audit::ViolationKind::FrameDoubleFree, bad + baseF,
                        strprintf("free of frame %llu, which is not "
                                  "allocated",
                                  static_cast<unsigned long long>(
                                      bad + baseF)));
        }
        return false;
    }
    markBusy(base, base + n, false);
    freeCount += n;

    // Merge with the buddy while possible.
    unsigned o = order;
    FrameId block = base;
    while (o < cfg.maxOrder) {
        FrameId buddy = block ^ (1ull << o);
        if (!freeLists[o].contains(buddy >> o))
            break;
        popFree(o, buddy >> o);
        block = std::min(block, buddy);
        ++o;
    }
    pushFree(o, block >> o);
    return true;
}

std::optional<std::vector<FrameRange>>
FrameAllocator::allocRun(std::uint64_t n_frames)
{
    if (inj != nullptr && inj->failFrameAlloc(n_frames))
        return std::nullopt;
    std::vector<FrameRange> out;
    std::uint64_t remaining = n_frames;
    while (remaining > 0) {
        unsigned order = std::min<unsigned>(
            cfg.maxOrder, floorLog2(remaining));
        FrameId base = 0;
        // Falls back to smaller orders under fragmentation.
        if (!allocBlock(order, base)) {
            for (const auto &r : out)
                releaseRange(r);
            return std::nullopt;
        }
        out.push_back({base, 1ull << order});
        remaining -= 1ull << order;
    }

    // Coalesce adjacent runs (buddy often returns neighbours).
    std::sort(out.begin(), out.end(),
              [](const FrameRange &a, const FrameRange &b) {
                  return a.base < b.base;
              });
    std::vector<FrameRange> merged;
    for (const auto &r : out) {
        if (!merged.empty() &&
            merged.back().base + merged.back().count == r.base) {
            merged.back().count += r.count;
        } else {
            merged.push_back(r);
        }
    }
    for (auto &r : merged)
        r.base += baseF;
    if (tr != nullptr) {
        for (const auto &r : merged) {
            tr->emitAt(socketId, trace::EventKind::FrameAlloc, r.base,
                       r.count,
                       static_cast<std::uint64_t>(
                           trace::AllocPath::Run));
        }
    }
    return merged;
}

bool
FrameAllocator::refillOnDemandPool()
{
    // Take one block and hand its frames out grouped by stack. On a
    // fragmented system the per-CPU freelists return pages clustered in
    // physical regions; grouping by stack reproduces the biased,
    // discontiguous placement the paper infers for CPU-first-touch
    // malloc memory (Section 5.4).
    unsigned order = cfg.onDemandRefillOrder;
    FrameId base = 0;
    if (!allocBlock(order, base))
        return false;
    std::uint64_t n = 1ull << order;
    unsigned stacks = geom.numStacks();
    unsigned start = static_cast<unsigned>(rng.nextBelow(stacks));
    for (unsigned s = 0, stack = start; s < stacks; ++s) {
        for (FrameId f = geom.firstFrameOnStack(base, stack); f < base + n;
             f += stacks)
            onDemandPool.push_back(f);
        if (++stack == stacks)
            stack = 0;
    }
    if (tr != nullptr)
        tr->emitAt(socketId, trace::EventKind::PoolRefill, base + baseF,
                   n, 0);
    return true;
}

bool
FrameAllocator::allocScattered(std::uint64_t n, std::vector<FrameId> &out)
{
    if (inj != nullptr && inj->failFrameAlloc(n))
        return false;
    std::size_t start_size = out.size();
    // Appended ids stay shard-local until success so the rollback path
    // can feed them straight back to the local buddy. The pool is
    // drained in whole stretches; it refills only when empty, exactly
    // as a frame-at-a-time grab would.
    for (std::uint64_t remaining = n; remaining > 0;) {
        if (onDemandPool.empty() && !refillOnDemandPool()) {
            rollback(out, start_size);
            return false;
        }
        auto take = static_cast<std::ptrdiff_t>(
            std::min<std::uint64_t>(remaining, onDemandPool.size()));
        out.insert(out.end(), onDemandPool.begin(),
                   onDemandPool.begin() + take);
        onDemandPool.erase(onDemandPool.begin(),
                           onDemandPool.begin() + take);
        remaining -= static_cast<std::uint64_t>(take);
    }
    for (std::size_t j = start_size; j < out.size(); ++j)
        out[j] += baseF;
    emitFrameAllocs(out, start_size,
                    static_cast<unsigned>(trace::AllocPath::Scattered));
    return true;
}

bool
FrameAllocator::allocBatch(std::uint64_t n, std::vector<FrameRange> &out)
{
    if (inj != nullptr && inj->failFrameAlloc(n))
        return false;
    std::size_t start_size = out.size();
    std::uint64_t remaining = n;
    unsigned run_order = floorLog2(cfg.faultBatchRun);
    while (remaining > 0) {
        std::uint64_t want = std::min<std::uint64_t>(
            remaining, 1ull << run_order);
        unsigned order = floorLog2(want);
        FrameId base = 0;
        if (!allocBlock(order, base)) {
            for (std::size_t j = start_size; j < out.size(); ++j)
                releaseRange(out[j]);
            out.resize(start_size);
            return false;
        }
        out.push_back({base, 1ull << order});
        remaining -= 1ull << order;
    }
    for (std::size_t j = start_size; j < out.size(); ++j)
        out[j].base += baseF;
    if (tr != nullptr) {
        for (std::size_t j = start_size; j < out.size(); ++j) {
            tr->emitAt(socketId, trace::EventKind::FrameAlloc,
                       out[j].base, out[j].count,
                       static_cast<std::uint64_t>(
                           trace::AllocPath::Batch));
        }
    }
    return true;
}

bool
FrameAllocator::refillStackPools()
{
    unsigned order = cfg.onDemandRefillOrder;
    FrameId base = 0;
    if (!allocBlock(order, base))
        return false;
    if (stackPools.empty())
        stackPools.resize(geom.numStacks());
    std::uint64_t n = 1ull << order;
    unsigned stacks = geom.numStacks();

    // Append each stack's frames of the block (an arithmetic
    // progression) rotated by its stack id: the round-robin consumer
    // then receives frames that are stack-balanced but never
    // physically adjacent (pinned buffers are assembled page-by-page
    // on the real system, not carved whole).
    for (unsigned s = 0; s < stacks; ++s) {
        FrameId first = geom.firstFrameOnStack(base, s);
        if (first >= base + n)
            continue;
        std::uint64_t count = ceilDiv(base + n - first, stacks);
        std::uint64_t rot = s % count;
        auto &pool = stackPools[s];
        for (std::uint64_t i = rot; i < count; ++i)
            pool.push_back(first + i * stacks);
        for (std::uint64_t i = 0; i < rot; ++i)
            pool.push_back(first + i * stacks);
    }
    if (tr != nullptr)
        tr->emitAt(socketId, trace::EventKind::PoolRefill, base + baseF,
                   n, 1);
    return true;
}

bool
FrameAllocator::allocInterleaved(std::uint64_t n, std::vector<FrameId> &out)
{
    if (inj != nullptr && inj->failFrameAlloc(n))
        return false;
    std::size_t start_size = out.size();
    unsigned stacks = geom.numStacks();
    if (stackPools.empty())
        stackPools.resize(stacks);
    auto next_of = [stacks](unsigned stack) {
        return stack + 1 == stacks ? 0 : stack + 1;
    };
    for (std::uint64_t i = 0; i < n; ++i) {
        unsigned tried = 0;
        while (stackPools[nextStack].empty() && tried < stacks) {
            nextStack = next_of(nextStack);
            ++tried;
        }
        if (stackPools[nextStack].empty() && !refillStackPools()) {
            rollback(out, start_size);
            return false;
        }
        // After a refill the preferred stack may still be empty on a
        // fragmented node; fall back to any non-empty pool.
        unsigned stack = nextStack;
        while (stackPools[stack].empty())
            stack = next_of(stack);
        out.push_back(stackPools[stack].front());
        stackPools[stack].pop_front();
        nextStack = next_of(stack);
    }
    for (std::size_t j = start_size; j < out.size(); ++j)
        out[j] += baseF;
    emitFrameAllocs(out, start_size,
                    static_cast<unsigned>(
                        trace::AllocPath::Interleaved));
    return true;
}

bool
FrameAllocator::freeFrame(FrameId frame)
{
    if (!ownsFrame(frame)) {
        if (aud != nullptr && aud->config().checkFrames) {
            aud->record(audit::ViolationKind::FrameDoubleFree, frame,
                        strprintf("free of out-of-shard frame %llu "
                                  "(shard owns [%llu, +%llu))",
                                  static_cast<unsigned long long>(frame),
                                  static_cast<unsigned long long>(baseF),
                                  static_cast<unsigned long long>(
                                      geom.numFrames())));
        }
        return false;
    }
    bool ok = freeBlock(frame - baseF, 0);
    if (ok && tr != nullptr)
        tr->emitAt(socketId, trace::EventKind::FrameFree, frame, 1);
    return ok;
}

bool
FrameAllocator::freeRange(const FrameRange &range)
{
    if (!ownsFrame(range.base) ||
        range.base - baseF + range.count > geom.numFrames() ||
        range.base + range.count < range.base) {
        if (aud != nullptr && aud->config().checkFrames) {
            aud->record(audit::ViolationKind::FrameDoubleFree, range.base,
                        strprintf("free of out-of-shard run [%llu, +%llu)",
                                  static_cast<unsigned long long>(
                                      range.base),
                                  static_cast<unsigned long long>(
                                      range.count)));
        }
        return false;
    }
    FrameId local_base = range.base - baseF;
    bool ok = true;
    if (aud != nullptr) {
        // Free each maximal run of busy frames as blocks, and hand
        // every not-busy frame to freeBlock alone so it is reported
        // once, in ascending order. Eager merging makes the final
        // buddy state the same as a page-by-page free.
        FrameId cur = local_base;
        FrameId end = local_base + range.count;
        while (cur < end) {
            FrameId bad = findBusy(cur, end, false);
            ok = freeBlocks(cur, bad - cur) && ok;
            if (bad == end)
                break;
            ok = freeBlock(bad, 0) && ok;
            cur = bad + 1;
        }
    } else {
        ok = freeBlocks(local_base, range.count);
    }
    if (ok && tr != nullptr)
        tr->emitAt(socketId, trace::EventKind::FrameFree, range.base,
                   range.count);
    return ok;
}

bool
FrameAllocator::freeBlocks(FrameId base, std::uint64_t count)
{
    // Maximal naturally-aligned blocks: O(log frames) buddy work per
    // block instead of per page.
    bool ok = true;
    FrameId cur = base;
    std::uint64_t remaining = count;
    while (remaining > 0) {
        unsigned align = cfg.maxOrder;
        while (align > 0 && (cur & ((1ull << align) - 1)) != 0)
            --align;
        unsigned order = std::min<unsigned>(align, floorLog2(remaining));
        ok = freeBlock(cur, order) && ok;
        cur += 1ull << order;
        remaining -= 1ull << order;
    }
    return ok;
}

void
FrameAllocator::releaseRange(const FrameRange &range)
{
    // Rollback path: the frames were allocated moments ago and no
    // FrameAlloc event has been emitted for them, so this must not
    // emit FrameFree either. Same block decomposition as freeRange;
    // eager merging yields the identical buddy state.
    if (!freeBlocks(range.base, range.count))
        fatal("rollback free of unallocated frames in [%llu, +%llu)",
              static_cast<unsigned long long>(range.base),
              static_cast<unsigned long long>(range.count));
}

void
FrameAllocator::rollback(std::vector<FrameId> &out, std::size_t start)
{
    std::vector<FrameRange> ranges;
    appendFrameStretches(out.data() + start, out.size() - start, ranges);
    for (const auto &range : ranges)
        releaseRange(range);
    out.resize(start);
}

void
FrameAllocator::seedBusyBits(const FrameRange &range, bool busy)
{
    if (!ownsFrame(range.base) ||
        range.base - baseF + range.count > geom.numFrames())
        panic("seedBusyBits of out-of-shard run [%llu, +%llu)",
              static_cast<unsigned long long>(range.base),
              static_cast<unsigned long long>(range.count));
    markBusy(range.base - baseF, range.base - baseF + range.count, busy);
}

FrameId
FrameAllocator::findBusy(FrameId begin, FrameId end, bool busy) const
{
    return findBit(busyWords, begin, end, busy);
}

void
FrameAllocator::markBusy(FrameId begin, FrameId end, bool busy)
{
    while (begin < end) {
        std::size_t w = begin / 64;
        FrameId word_end = std::min<FrameId>(end, (w + 1) * 64);
        std::uint64_t span = word_end - begin;
        std::uint64_t mask = (span == 64 ? ~0ull : (1ull << span) - 1)
                             << (begin % 64);
        if (busy)
            busyWords[w] |= mask;
        else
            busyWords[w] &= ~mask;
        begin = word_end;
    }
}

void
FrameAllocator::emitFrameAllocs(const std::vector<FrameId> &out,
                                std::size_t start, unsigned path)
{
    if (tr == nullptr)
        return;
    const FrameId *batch = out.data() + start;
    forEachFrameStretch(batch, out.size() - start,
                        [&](std::uint64_t i, std::uint64_t len) {
        tr->emitAt(socketId, trace::EventKind::FrameAlloc, batch[i], len,
                   path);
    });
}

std::vector<bool>
FrameAllocator::busyMap() const
{
    std::vector<bool> held(geom.numFrames(), false);
    forEachRun(true, [&](FrameId begin, FrameId end) {
        std::fill(held.begin() + begin, held.begin() + end, true);
    });
    for (FrameId f : onDemandPool)
        held[f] = false;
    for (const auto &pool : stackPools) {
        for (FrameId f : pool)
            held[f] = false;
    }
    return held;
}

std::uint64_t
FrameAllocator::freeFrames() const
{
    std::uint64_t pooled = onDemandPool.size();
    for (const auto &pool : stackPools)
        pooled += pool.size();
    return freeCount + pooled;
}

std::uint64_t
FrameAllocator::freeListNodes() const
{
    std::uint64_t nodes = 0;
    for (const auto &list : freeLists)
        nodes += list.intervalCount();
    return nodes;
}

std::uint64_t
FrameAllocator::auditLeaks(const std::vector<bool> &mapped,
                           audit::Auditor &auditor) const
{
    if (!auditor.config().checkFrames)
        return 0;
    std::vector<bool> pooled(geom.numFrames(), false);
    for (FrameId f : onDemandPool)
        pooled[f] = true;
    for (const auto &pool : stackPools) {
        for (FrameId f : pool)
            pooled[f] = true;
    }
    std::uint64_t leaked = 0;
    forEachRun(true, [&](FrameId begin, FrameId end) {
        for (FrameId f = begin; f < end; ++f) {
            if (pooled[f])
                continue;
            FrameId global = f + baseF;
            if (global < mapped.size() && mapped[global])
                continue;
            ++leaked;
            auditor.record(audit::ViolationKind::FrameLeak, global,
                           strprintf("frame %llu is allocated but mapped "
                                     "by no page table at teardown",
                                     static_cast<unsigned long long>(
                                         global)));
        }
    });
    return leaked;
}

std::vector<std::uint64_t>
FrameAllocator::perStackFree() const
{
    std::vector<std::uint64_t> free_per_stack(geom.numStacks(), 0);
    forEachRun(false, [&](FrameId begin, FrameId end) {
        geom.addRunLoad(begin, end - begin, free_per_stack);
    });
    for (FrameId f : onDemandPool)
        ++free_per_stack[geom.stackOfFrame(f)];
    for (const auto &pool : stackPools) {
        for (FrameId f : pool)
            ++free_per_stack[geom.stackOfFrame(f)];
    }
    return free_per_stack;
}

namespace {

/**
 * Coalesce through a bitmap over [min, max] while the span is at most
 * this many frames per frame (the bitmap then has no more words to
 * scan than there are frames); sort sparser sets. Scatter runs are
 * mostly shuffles of whole pool blocks, a span per frame near 1, so
 * nearly all of them take the bitmap.
 */
constexpr std::uint64_t kDenseSpanPerFrame = 64;

[[noreturn]] void
duplicateFrame(FrameId frame)
{
    panic("frame %llu appears twice in one free",
          static_cast<unsigned long long>(frame));
}

} // namespace

void
appendFrameStretches(const FrameId *frames, std::uint64_t n,
                     std::vector<FrameRange> &out)
{
    if (n == 0)
        return;
    auto [lo, hi] = std::minmax_element(frames, frames + n);
    FrameId min = *lo;
    std::uint64_t span = *hi - min + 1;
    if (span / kDenseSpanPerFrame <= n) {
        std::vector<std::uint64_t> bits(ceilDiv(span, 64), 0);
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint64_t off = frames[i] - min;
            std::uint64_t bit = 1ull << (off % 64);
            if ((bits[off / 64] & bit) != 0)
                duplicateFrame(frames[i]);
            bits[off / 64] |= bit;
        }
        for (std::uint64_t off = 0; off < span;) {
            std::uint64_t end = findBit(bits, off, span, false);
            out.push_back({min + off, end - off});
            off = findBit(bits, end, span, true);
        }
        return;
    }
    std::vector<FrameId> sorted(frames, frames + n);
    std::sort(sorted.begin(), sorted.end());
    forEachFrameStretch(sorted.data(), n, [&](std::uint64_t i,
                                              std::uint64_t len) {
        if (i + len < n && sorted[i + len] == sorted[i + len - 1])
            duplicateFrame(sorted[i + len]);
        out.push_back({sorted[i], len});
    });
}

void
mergeFrameRanges(std::vector<FrameRange> &ranges)
{
    std::sort(ranges.begin(), ranges.end(),
              [](const FrameRange &a, const FrameRange &b) {
                  return a.base < b.base;
              });
    std::size_t kept = 0;
    for (const FrameRange &range : ranges) {
        if (range.count == 0)
            continue;
        if (kept != 0) {
            FrameRange &last = ranges[kept - 1];
            if (range.base < last.base + last.count)
                duplicateFrame(range.base);
            if (range.base == last.base + last.count) {
                last.count += range.count;
                continue;
            }
        }
        ranges[kept++] = range;
    }
    ranges.resize(kept);
}

} // namespace upm::mem
