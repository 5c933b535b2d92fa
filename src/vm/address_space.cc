#include "vm/address_space.hh"

#include <algorithm>

#include "audit/auditor.hh"
#include "common/log.hh"
#include "trace/tracer.hh"

namespace upm::vm {

namespace {

/** Simulated mmap base; arbitrary but away from zero. */
constexpr VirtAddr kMmapBase = 0x7f00'0000'0000ull;
/** Guard gap between VMAs (catches overruns in the backing store). */
constexpr std::uint64_t kGuardGap = 2 * mem::kPageSize;
/**
 * VMA base alignment. HIP aligns device allocations to 2 MiB so the
 * driver can form large page-table fragments; a misaligned virtual
 * base would cap every fragment regardless of physical contiguity.
 */
constexpr std::uint64_t kVmaAlign = 2 * MiB;
/**
 * End of the simulated VA window. 1 TiB of simulated span is orders
 * of magnitude above anything the benches map, so hitting this cap
 * means the caller is asking for the impossible -- which must be a
 * recoverable ENOMEM, not a crash, just like frame exhaustion.
 */
constexpr VirtAddr kVaEnd = kMmapBase + 1 * TiB;
/**
 * Socket-interleave granularity: 2 MiB chunks, matching the VMA / GPU
 * fragment alignment so interleaving never splits a large fragment.
 */
constexpr std::uint64_t kSocketChunkPages = (2 * MiB) / mem::kPageSize;

} // namespace

const char *
socketPolicyName(SocketPolicy policy)
{
    switch (policy) {
      case SocketPolicy::Default: return "default";
      case SocketPolicy::Home: return "home";
      case SocketPolicy::FirstTouch: return "first-touch";
      case SocketPolicy::Interleave: return "interleave";
      case SocketPolicy::ReplicateRO: return "replicate-ro";
    }
    return "?";
}

AddressSpace::AddressSpace(mem::NodeMemory &node_memory,
                           mem::BackingStore &backing_store,
                           const Hooks &hooks)
    : node(node_memory), backingStore(backing_store),
      hmm(sysTable, gpuPt, hooks), nextBase(kMmapBase), vaEnd(kVaEnd),
      aud(hooks.aud), tr(hooks.tr)
{
}

void
AddressSpace::setVaWindow(VirtAddr base, VirtAddr end)
{
    if (!vmas.empty())
        panic("setVaWindow after a VMA was mapped");
    if (base == 0 || end <= base)
        panic("setVaWindow: bad window [0x%llx, 0x%llx)",
              static_cast<unsigned long long>(base),
              static_cast<unsigned long long>(end));
    nextBase = base;
    vaEnd = end;
}

std::uint64_t
AddressSpace::demoteReplicas()
{
    std::uint64_t pages = 0;
    for (auto &[base, vma] : vmas) {
        for (const auto &replica : vma.replicaRanges) {
            if (!node.freeRange(replica))
                panic("demoteReplicas freed a replica frame the "
                      "allocator says is not allocated");
            pages += replica.count;
        }
        vma.replicaRanges.clear();
        if (vma.policy.socketPolicy == SocketPolicy::ReplicateRO)
            vma.policy.socketPolicy = SocketPolicy::Home;
    }
    return pages;
}

MmapResult
AddressSpace::tryMmapAnon(std::uint64_t size, const VmaPolicy &policy,
                          std::string name)
{
    if (size == 0)
        return {Status::InvalidValue, 0};
    std::uint64_t span = roundUp(size, mem::kPageSize);
    VirtAddr base = roundUp(nextBase, kVmaAlign);
    // VA-window exhaustion before any state changes: a huge request
    // must leave the space exactly as it found it.
    if (base >= vaEnd || span > vaEnd - base)
        return {Status::OutOfMemory, 0};
    // The bump allocator never reuses VA, so an overlap can only mean
    // corrupted internal state or a hand-crafted request; reject it
    // rather than silently aliasing someone else's backing.
    auto next_vma = vmas.lower_bound(base);
    if (next_vma != vmas.end() && next_vma->first < base + span)
        return {Status::InvalidValue, 0};
    if (next_vma != vmas.begin()) {
        const Vma &prev = std::prev(next_vma)->second;
        if (prev.base + prev.size > base)
            return {Status::InvalidValue, 0};
    }
    nextBase = base + span + kGuardGap;

    Vma vma;
    vma.base = base;
    vma.size = span;
    vma.policy = policy;
    if (vma.policy.socketPolicy == SocketPolicy::Default) {
        vma.policy.socketPolicy = defSocketPolicy;
        vma.policy.homeSocket = defHomeSocket;
    }
    vma.nextSocket = vma.policy.homeSocket;
    vma.name = std::move(name);
    vmas.emplace(base, vma);
    backingStore.attach(base, span);
    if (tr != nullptr) {
        std::uint64_t bits =
            (policy.cpuAccess ? 1u : 0u) | (policy.gpuMapped ? 2u : 0u) |
            (policy.onDemand ? 4u : 0u) | (policy.pinned ? 8u : 0u) |
            (policy.uncachedGpu ? 16u : 0u);
        tr->emit(trace::EventKind::VmaMap, base, span,
                 static_cast<std::uint64_t>(policy.placement), bits, 0,
                 0.0, vmas.at(base).name);
    }
    return {Status::Success, base};
}

VirtAddr
AddressSpace::mmapAnon(std::uint64_t size, const VmaPolicy &policy,
                       std::string name)
{
    auto result = tryMmapAnon(size, policy, std::move(name));
    if (!result) {
        throw StatusError(result.status,
                          strprintf("mmap of %llu bytes",
                                    static_cast<unsigned long long>(size)));
    }
    return result.base;
}

Status
AddressSpace::munmap(VirtAddr base)
{
    auto it = vmas.find(base);
    if (it == vmas.end())
        return Status::NotFound;
    const Vma &vma = it->second;

    hmm.invalidateRange(vma.beginVpn(), vma.endVpn());
    // munmap *knows* every mapped frame is allocated (the page table
    // said so); a failed free here is free-list/busy-bit divergence,
    // an internal invariant break, and stays a panic.
    //
    // Batch: coalesce the freed frames into their maximal intervals
    // first, then hand the buddy a few big ranges. Eager buddy merging
    // makes the final free-list state a pure function of the free
    // frame set, so this is equivalent to per-run frees -- audited or
    // not, which keeps the FrameFree trace the same with UPMSan on.
    std::vector<mem::FrameRange> freed;
    sysTable.removeRange(
        vma.beginVpn(), vma.endVpn(), [&](const PteRun &cut) {
            if (cut.scatter == nullptr)
                freed.push_back({cut.frame, cut.len});
            else
                mem::appendFrameStretches(cut.scatter, cut.len, freed);
        });
    mem::mergeFrameRanges(freed);
    for (const auto &range : freed) {
        if (!node.freeRange(range)) {
            panic("munmap freed a frame the allocator says is not "
                  "allocated");
        }
    }
    for (const auto &replica : vma.replicaRanges) {
        if (!node.freeRange(replica))
            panic("munmap freed a replica frame the allocator says is "
                  "not allocated");
    }
    if (tr != nullptr) {
        tr->emit(trace::EventKind::VmaUnmap, vma.base, vma.size,
                 vma.beginVpn(), vma.endVpn());
    }
    backingStore.detach(base);
    vmas.erase(it);
    return Status::Success;
}

void
AddressSpace::munmapChecked(VirtAddr base)
{
    Status status = munmap(base);
    if (status != Status::Success) {
        panic("munmapChecked(0x%llx): %s",
              static_cast<unsigned long long>(base), statusName(status));
    }
}

const Vma *
AddressSpace::findVma(VirtAddr addr) const
{
    auto it = vmas.upper_bound(addr);
    if (it == vmas.begin())
        return nullptr;
    --it;
    if (!it->second.contains(addr))
        return nullptr;
    return &it->second;
}

Vma *
AddressSpace::findVmaMutable(VirtAddr addr)
{
    return const_cast<Vma *>(
        static_cast<const AddressSpace *>(this)->findVma(addr));
}

PteFlags
AddressSpace::flagsFor(const Vma &vma) const
{
    PteFlags flags;
    flags.pinned = vma.policy.pinned;
    flags.uncached = vma.policy.uncachedGpu;
    return flags;
}

void
AddressSpace::emitListExtents(Vpn vpn, const FrameId *frames,
                              std::uint64_t n)
{
    if (tr == nullptr)
        return;
    mem::forEachFrameStretch(frames, n, [&](std::uint64_t i,
                                            std::uint64_t len) {
        tr->emit(trace::EventKind::ExtentMap, vpn + i, len, frames[i], 1);
    });
}

void
AddressSpace::mapFrames(const Vma &vma, Vpn vpn,
                        std::vector<FrameId> frame_list)
{
    std::uint64_t n = frame_list.size();
    emitListExtents(vpn, frame_list.data(), n);
    sysTable.insertFrames(vpn, std::move(frame_list), flagsFor(vma));
    if (vma.policy.gpuMapped)
        hmm.mirrorRange(vpn, vpn + n);
}

void
AddressSpace::mapRanges(const Vma &vma, Vpn vpn,
                        const std::vector<mem::FrameRange> &ranges)
{
    PteFlags flags = flagsFor(vma);
    Vpn cursor = vpn;
    for (const auto &range : ranges) {
        if (tr != nullptr) {
            tr->emit(trace::EventKind::ExtentMap, cursor, range.count,
                     range.base, 0);
        }
        sysTable.insertRange(cursor, range.count, range.base, flags);
        cursor += range.count;
    }
    if (vma.policy.gpuMapped)
        hmm.mirrorRange(vpn, cursor);
}

PopulateResult
AddressSpace::tryPopulateRange(VirtAddr base, std::uint64_t size)
{
    Vma *vma = findVmaMutable(base);
    if (vma == nullptr)
        return {Status::NotFound, 0};
    Vpn first = vpnOf(base);
    Vpn last = vpnOf(base + size + mem::kPageSize - 1);
    last = std::min(last, vma->endVpn());

    // Collect the holes up front (populating mutates the table while a
    // gap walk would be iterating), then fill them contiguously.
    std::vector<std::pair<Vpn, Vpn>> holes;
    sysTable.forEachGap(first, last, [&](Vpn gap_begin, Vpn gap_end) {
        holes.emplace_back(gap_begin, gap_end);
    });
    std::uint64_t populated = 0;
    bool interleave_sockets =
        node.numSockets() > 1 &&
        vma->policy.socketPolicy == SocketPolicy::Interleave;
    for (const auto &[hole_start, hole_end] : holes) {
        std::uint64_t n = hole_end - hole_start;
        // OOM mid-walk leaves earlier holes mapped; callers unwind by
        // unmapping the whole VMA, which reclaims them.
        if (interleave_sockets) {
            // Chunked round-robin across sockets, 2 MiB at a time.
            Vpn cursor = hole_start;
            std::uint64_t remaining = n;
            while (remaining > 0) {
                std::uint64_t take =
                    std::min<std::uint64_t>(remaining, kSocketChunkPages);
                if (!allocAndMap(*vma, sourceFor(*vma), cursor, take))
                    return {Status::OutOfMemory, populated};
                cursor += take;
                remaining -= take;
                populated += take;
            }
        } else {
            if (!allocAndMap(*vma, sourceFor(*vma), hole_start, n))
                return {Status::OutOfMemory, populated};
            populated += n;
        }
    }
    if (populated > 0 && node.numSockets() > 1 &&
        vma->policy.socketPolicy == SocketPolicy::ReplicateRO) {
        if (!replicate(*vma, populated))
            return {Status::OutOfMemory, populated};
    }
    if (tr != nullptr)
        tr->emit(trace::EventKind::Populate, base, populated);
    return {Status::Success, populated};
}

mem::FrameAllocator &
AddressSpace::sourceFor(const Vma &vma)
{
    unsigned sockets = node.numSockets();
    switch (vma.policy.socketPolicy) {
      case SocketPolicy::FirstTouch:
        return node.shard(curSocket % sockets);
      case SocketPolicy::Interleave: {
        // Rotating cursor: populate chunks and fault batches take the
        // next socket in turn (const_cast: the cursor is placement
        // bookkeeping, not logical VMA state).
        Vma &mut = const_cast<Vma &>(vma);
        unsigned s = mut.nextSocket % sockets;
        mut.nextSocket = (s + 1) % sockets;
        return node.shard(s);
      }
      case SocketPolicy::Home:
      case SocketPolicy::ReplicateRO:
      default:
        return node.shard(vma.policy.homeSocket % sockets);
    }
}

bool
AddressSpace::allocAndMap(Vma &vma, mem::FrameAllocator &src, Vpn vpn,
                          std::uint64_t n)
{
    switch (vma.policy.placement) {
      case Placement::Contiguous: {
        auto ranges = src.allocRun(n);
        if (!ranges)
            return false;
        mapRanges(vma, vpn, *ranges);
        break;
      }
      case Placement::Interleaved: {
        std::vector<FrameId> frame_list;
        if (!src.allocInterleaved(n, frame_list))
            return false;
        mapFrames(vma, vpn, std::move(frame_list));
        break;
      }
      case Placement::FaultBatch: {
        std::vector<mem::FrameRange> ranges;
        if (!src.allocBatch(n, ranges))
            return false;
        mapRanges(vma, vpn, ranges);
        break;
      }
      case Placement::Scattered:
      default: {
        std::vector<FrameId> frame_list;
        if (!src.allocScattered(n, frame_list))
            return false;
        mapFrames(vma, vpn, std::move(frame_list));
        break;
      }
    }
    if (vma.policy.placement == Placement::Scattered)
        vma.pagesScattered += n;
    else
        vma.pagesPlaced += n;
    if (node.numSockets() > 1 && tr != nullptr) {
        tr->emitAt(src.socket(), trace::EventKind::PagePlace, vpn, n,
                   src.socket(),
                   static_cast<std::uint64_t>(vma.policy.socketPolicy));
    }
    return true;
}

bool
AddressSpace::replicate(Vma &vma, std::uint64_t n)
{
    unsigned sockets = node.numSockets();
    unsigned home = vma.policy.homeSocket % sockets;
    for (unsigned s = 0; s < sockets; ++s) {
        if (s == home)
            continue;
        auto ranges = node.shard(s).allocRun(n);
        if (!ranges)
            return false;
        for (const auto &range : *ranges) {
            vma.replicaRanges.push_back(range);
            if (tr != nullptr) {
                tr->emitAt(s, trace::EventKind::PagePlace,
                           vma.beginVpn(), range.count, s,
                           static_cast<std::uint64_t>(
                               SocketPolicy::ReplicateRO));
            }
        }
    }
    return true;
}

Status
AddressSpace::pinAndMapGpu(VirtAddr base)
{
    auto it = vmas.find(base);
    if (it == vmas.end())
        return Status::NotFound;
    Vma &vma = it->second;

    // pin_user_pages drives missing pages through the ordinary CPU
    // fault path, so placement stays whatever the VMA had.
    auto populated = tryPopulateRange(vma.base, vma.size);
    if (!populated)
        return populated.status;
    vma.policy.pinned = true;
    vma.policy.gpuMapped = true;
    vma.policy.onDemand = false;

    sysTable.setFlagsRange(vma.beginVpn(), vma.endVpn(), flagsFor(vma));
    hmm.mirrorRange(vma.beginVpn(), vma.endVpn());
    return Status::Success;
}

PopulateResult
AddressSpace::tryResolveCpuFaultRange(Vpn first, Vpn last)
{
    Vma *vma = findVmaMutable(addrOf(first));
    if (vma == nullptr)
        return {Status::AccessFault, 0};
    if (!vma->policy.cpuAccess)
        return {Status::AccessFault, 0};
    last = std::min(last, vma->endVpn());

    std::vector<std::pair<Vpn, Vpn>> holes;
    std::uint64_t missing = 0;
    sysTable.forEachGap(first, last, [&](Vpn gap_begin, Vpn gap_end) {
        holes.emplace_back(gap_begin, gap_end);
        missing += gap_end - gap_begin;
    });
    if (missing == 0)
        return {Status::Success, 0};  // benign race: already resolved

    // One batched pool grab: the on-demand pool hands out the same
    // frame sequence as `missing` single-frame grabs would.
    mem::FrameAllocator &src = sourceFor(*vma);
    std::vector<FrameId> frame_list;
    frame_list.reserve(missing);
    if (!src.allocScattered(missing, frame_list))
        return {Status::OutOfMemory, 0};
    PteFlags flags = flagsFor(*vma);
    std::size_t next = 0;
    for (const auto &[gap_begin, gap_end] : holes) {
        emitListExtents(gap_begin, frame_list.data() + next,
                        gap_end - gap_begin);
        sysTable.insertFrames(gap_begin, frame_list.data() + next,
                              gap_end - gap_begin, flags);
        next += gap_end - gap_begin;
    }
    vma->pagesScattered += missing;
    cpuFaultCount += missing;
    if (node.numSockets() > 1 && tr != nullptr) {
        tr->emitAt(src.socket(), trace::EventKind::PagePlace, first,
                   missing, src.socket(),
                   static_cast<std::uint64_t>(
                       vma->policy.socketPolicy));
    }
    if (tr != nullptr)
        tr->emitAt(curSocket, trace::EventKind::CpuFault, first, missing);
    return {Status::Success, missing};
}

std::uint64_t
AddressSpace::resolveCpuFaultRange(Vpn first, Vpn last)
{
    auto result = tryResolveCpuFaultRange(first, last);
    if (!result) {
        throw StatusError(
            result.status,
            strprintf("CPU fault on vpn 0x%llx",
                      static_cast<unsigned long long>(first)));
    }
    return result.pages;
}

GpuFaultKind
AddressSpace::resolveGpuFault(Vpn first, std::uint64_t count)
{
    Vma *vma = findVmaMutable(addrOf(first));
    if (vma == nullptr)
        return GpuFaultKind::Violation;
    Vpn last = std::min<Vpn>(first + count, vma->endVpn());

    // A GPU-mapped region never faults once populated; reaching here
    // with the region fully present means no fault at all.
    std::uint64_t span = last > first ? last - first : 0;
    bool any_missing_gpu =
        gpuPt.translations().presentInRange(first, last) < span;
    bool any_missing_sys = sysTable.presentInRange(first, last) < span;
    auto emit_fault = [&](GpuFaultKind kind) {
        if (tr != nullptr) {
            tr->emitAt(curSocket, trace::EventKind::GpuFault, first,
                       span, static_cast<std::uint64_t>(kind));
        }
        return kind;
    };
    if (!any_missing_gpu) {
        // An XNACK replay arriving for a fully mapped range means the
        // retry logic re-sent a fault the handler already resolved --
        // wasted replay bandwidth on real hardware, a logic bug here.
        if (aud != nullptr && aud->config().checkMirror) {
            aud->record(audit::ViolationKind::XnackReplayMapped,
                        addrOf(first),
                        strprintf("GPU fault replay on [vpn 0x%llx, "
                                  "+%llu) but every page is already "
                                  "GPU-mapped",
                                  static_cast<unsigned long long>(first),
                                  static_cast<unsigned long long>(
                                      last - first)));
        }
        return emit_fault(GpuFaultKind::None);
    }

    // Retry-able GPU page faults require XNACK unless the VMA was
    // GPU-mapped up-front (in which case there is nothing to resolve
    // on demand and a missing page is a real violation).
    if (!xnack)
        return emit_fault(GpuFaultKind::Violation);

    if (!any_missing_sys) {
        // Minor: physical pages exist, only the GPU mapping is absent.
        gpuMinorCount += hmm.mirrorRange(first, last);
        return emit_fault(GpuFaultKind::Minor);
    }

    // Major: thousands of wavefronts fault in arbitrary virtual order,
    // and the handler gives each fault the next free frame. The result
    // is a stack-balanced but virtually-random frame assignment: big
    // fragments never form, exactly as the paper's TLB-miss counts
    // show for GPU-initialized on-demand memory.
    std::vector<std::pair<Vpn, Vpn>> gaps;
    std::vector<Vpn> holes;
    sysTable.forEachGap(first, last, [&](Vpn gap_begin, Vpn gap_end) {
        gaps.emplace_back(gap_begin, gap_end);
        for (Vpn vpn = gap_begin; vpn < gap_end; ++vpn)
            holes.push_back(vpn);
    });
    mem::FrameAllocator &src = sourceFor(*vma);
    std::vector<mem::FrameRange> ranges;
    if (!src.allocBatch(holes.size(), ranges)) {
        // Nothing has been inserted yet, so failing here is clean:
        // the tables are exactly as they were before the fault.
        return emit_fault(GpuFaultKind::OutOfMemory);
    }
    std::vector<FrameId> frame_list;
    frame_list.reserve(holes.size());
    for (const auto &range : ranges) {
        for (std::uint64_t i = 0; i < range.count; ++i)
            frame_list.push_back(range.base + i);
    }
    // Fisher-Yates over the virtual arrival order.
    for (std::size_t i = holes.size(); i > 1; --i) {
        std::size_t j = static_cast<std::size_t>(faultRng.nextBelow(i));
        std::swap(holes[i - 1], holes[j]);
    }
    // Page holes[i] gets frame_list[i]; gather the frames by vpn so
    // each gap is mapped as one run.
    std::vector<FrameId> by_vpn(last - first);
    std::size_t run_end = 0; // exclusive end of the last emitted run
    for (std::size_t i = 0; i < holes.size(); ++i) {
        // The shuffled arrival order leaves little (vpn, frame)
        // adjacency; coalesce what little there is, emitting each run
        // exactly once (replay relies on non-overlapping extents).
        if (tr != nullptr && i >= run_end) {
            std::size_t j = i;
            while (j + 1 < holes.size() &&
                   holes[j + 1] == holes[j] + 1 &&
                   frame_list[j + 1] == frame_list[j] + 1) {
                ++j;
            }
            tr->emit(trace::EventKind::ExtentMap, holes[i], j - i + 1,
                     frame_list[i], 1);
            run_end = j + 1;
        }
        by_vpn[holes[i] - first] = frame_list[i];
    }
    PteFlags flags = flagsFor(*vma);
    for (const auto &[gap_begin, gap_end] : gaps) {
        sysTable.insertFrames(gap_begin, by_vpn.data() + (gap_begin - first),
                              gap_end - gap_begin, flags);
    }
    hmm.mirrorRange(first, last);
    vma->pagesPlaced += holes.size();
    gpuMajorCount += holes.size();
    if (node.numSockets() > 1 && tr != nullptr) {
        tr->emitAt(src.socket(), trace::EventKind::PagePlace, first,
                   holes.size(), src.socket(),
                   static_cast<std::uint64_t>(
                       vma->policy.socketPolicy));
    }
    return emit_fault(GpuFaultKind::Major);
}

std::vector<FrameId>
AddressSpace::framesOf(VirtAddr base, std::uint64_t size) const
{
    std::vector<FrameId> out;
    sysTable.forEachRun(vpnOf(base),
                        vpnOf(base + size + mem::kPageSize - 1),
                        [&](const PteRun &run) {
                            if (run.scatter != nullptr) {
                                out.insert(out.end(), run.scatter,
                                           run.scatter + run.len);
                                return;
                            }
                            for (std::uint64_t i = 0; i < run.len; ++i)
                                out.push_back(run.frame + i);
                        });
    return out;
}

void
AddressSpace::setDefaultSocketPolicy(SocketPolicy policy, unsigned home)
{
    // Default-to-Default would recurse at mmap time; resolve it here.
    defSocketPolicy =
        policy == SocketPolicy::Default ? SocketPolicy::Home : policy;
    defHomeSocket = home;
}

std::uint64_t
AddressSpace::auditMirrorConsistency(audit::Auditor &auditor) const
{
    if (!auditor.config().checkMirror)
        return 0;
    std::uint64_t violations = 0;
    // Walk each GPU run against the system runs and gaps it overlaps,
    // in vpn order: a gap is stale, a run compares frames per run.
    auto stale = [&](const PteRun &gpu, Vpn begin, Vpn end) {
        for (Vpn vpn = begin; vpn < end; ++vpn) {
            ++violations;
            auditor.record(
                audit::ViolationKind::StaleMirror, addrOf(vpn),
                strprintf("GPU PTE for vpn 0x%llx (frame %llu) has no "
                          "system PTE: the MMU notifier missed an "
                          "invalidation",
                          static_cast<unsigned long long>(vpn),
                          static_cast<unsigned long long>(
                              gpu.frameOf(vpn))));
        }
    };
    gpuPt.translations().forEachRun(0, ~0ull, [&](const PteRun &gpu) {
        Vpn cursor = gpu.vpn;
        sysTable.forEachRun(gpu.vpn, gpu.end(), [&](const PteRun &sys) {
            stale(gpu, cursor, sys.vpn);
            violations += auditRunDivergence(auditor, sys, gpu);
            cursor = sys.end();
        });
        stale(gpu, cursor, gpu.end());
    });
    return violations;
}

} // namespace upm::vm
