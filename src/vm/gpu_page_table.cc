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

    bool open = false;
    Vpn s_begin = 0, s_end = 0;
    FrameId s_frame = 0;
    PteFlags s_flags;
    ptes.forEachRun(begin, end, [&](const PteRun &part) {
        Vpn p = part.vpn;
        while (p < part.end()) {
            // Maximal internally frame-contiguous piece of the part.
            FrameId f0 = part.frameOf(p);
            Vpn piece_end;
            if (part.scatter == nullptr) {
                piece_end = part.end();
            } else {
                piece_end = p + 1;
                while (piece_end < part.end() &&
                       part.scatter[piece_end - part.vpn] ==
                           f0 + (piece_end - p))
                    ++piece_end;
            }
            if (open && p == s_end &&
                f0 == s_frame + (s_end - s_begin) &&
                part.flags == s_flags) {
                s_end = piece_end;
            } else {
                if (open)
                    stampStretch(s_begin, s_end, s_frame);
                s_begin = p;
                s_end = piece_end;
                s_frame = f0;
                s_flags = part.flags;
                open = true;
            }
            p = piece_end;
        }
    });
    if (open)
        stampStretch(s_begin, s_end, s_frame);

    // Phase 2: the window's stamps are exactly the blocks.
    stamps.erase(begin, end);
    for (const Block &b : blocks)
        stamps.insert(b.begin, b.len, b.frag);
}

} // namespace upm::vm
