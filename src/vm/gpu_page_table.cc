#include "vm/gpu_page_table.hh"

#include <bit>
#include <vector>

#include "common/units.hh"

namespace upm::vm {

std::optional<GpuPte>
GpuPageTable::lookup(Vpn vpn) const
{
    auto pte = ptes.lookup(vpn);
    if (!pte)
        return std::nullopt;
    auto st = stamps.find(vpn);
    std::uint8_t frag = st != stamps.end() ? st->second.value : 0;
    return GpuPte{pte->frame, pte->flags, frag};
}

std::uint64_t
GpuPageTable::removeRange(Vpn begin, Vpn end)
{
    stamps.erase(begin, end);
    return ptes.removeRange(begin, end, [](const PteRun &) {});
}

void
GpuPageTable::recomputeFragments(Vpn begin, Vpn end)
{
    if (begin >= end)
        return;

    // Phase 1: find the driver's contiguity stretches inside the
    // window from per-page *values* — maximal sequences of present
    // pages with consecutive frames and equal flags — so the result
    // does not depend on how the mapping is split into stored runs.
    // Greedily stamp each stretch with naturally-aligned power-of-two
    // blocks; blocks are page-absolute and RLE-compressed. Only
    // nonzero blocks are kept (fragment 0 is never stored), so
    // fragment-0 blocks, one-page stretches among them, are skipped.
    struct Block
    {
        Vpn begin;
        std::uint64_t len;
        std::uint8_t frag;
    };
    std::vector<Block> blocks;
    auto stampStretch = [&](Vpn s, Vpn e, FrameId frame0) {
        Vpn v = s;
        while (v < e) {
            // countr_zero(0) == 64 is capped by kMaxFragment.
            auto align = static_cast<unsigned>(std::min(
                std::countr_zero(v), std::countr_zero(frame0 + (v - s))));
            unsigned len_log = floorLog2(e - v);
            unsigned frag = std::min({align, len_log, kMaxFragment});
            std::uint64_t block = 1ull << frag;
            if (frag == 0) {
                v += block;
                continue;
            }
            if (!blocks.empty() &&
                blocks.back().frag == static_cast<std::uint8_t>(frag) &&
                blocks.back().begin + blocks.back().len == v) {
                blocks.back().len += block;
            } else {
                blocks.push_back(
                    {v, block, static_cast<std::uint8_t>(frag)});
            }
            v += block;
        }
    };

    // The open stretch [s_begin, s_end) from frame s_frame. It starts
    // empty, and an empty stretch stamps nothing.
    Vpn s_begin = 0, s_end = 0;
    FrameId s_frame = 0;
    PteFlags s_flags;
    // Extend the open stretch with the frame-contiguous piece
    // [p, piece_end) from frame f0, or stamp it and open the piece.
    auto addPiece = [&](Vpn p, Vpn piece_end, FrameId f0,
                        const PteFlags &flags) {
        if (p != s_end || f0 != s_frame + (s_end - s_begin) ||
            flags != s_flags) {
            stampStretch(s_begin, s_end, s_frame);
            s_begin = p;
            s_frame = f0;
            s_flags = flags;
        }
        s_end = piece_end;
    };
    ptes.forEachRun(begin, end, [&](const PteRun &part) {
        if (part.scatter == nullptr) {
            addPiece(part.vpn, part.end(), part.frame, part.flags);
            return;
        }
        auto page = [&](std::uint64_t i, std::uint64_t len) {
            addPiece(part.vpn + i, part.vpn + i + len, part.scatter[i],
                     part.flags);
        };
        // Lone pages stamp nothing. Only a part's first page may extend
        // the open stretch and only its last may be extended by the
        // next part, so of a block of them just the ends matter.
        mem::forEachFrameStretch(
            part.scatter, part.len, page,
            [&](std::uint64_t i, std::uint64_t count) {
                page(i, 1);
                if (count > 1)
                    page(i + count - 1, 1);
            });
    });
    stampStretch(s_begin, s_end, s_frame);

    // Phase 2: the window's stamps are exactly the blocks.
    stamps.erase(begin, end);
    for (const Block &b : blocks)
        stamps.insert(b.begin, b.len, b.frag);
}

} // namespace upm::vm
