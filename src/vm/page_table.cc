#include "vm/page_table.hh"

namespace upm::vm {

void
SystemPageTable::insertFrames(Vpn vpn, const FrameId *frames,
                              std::uint64_t n, PteFlags flags)
{
    insertFrames(vpn, std::vector<FrameId>(frames, frames + n), flags);
}

void
SystemPageTable::insertFrames(Vpn vpn, std::vector<FrameId> &&frames,
                              PteFlags flags)
{
    std::uint64_t n = frames.size();
    if (n == 0)
        return;
    if (mem::frameStretchEnd(frames.data(), 0, n) == n) {
        insertRange(vpn, n, frames[0], flags);
        return;
    }
    FrameId first = frames.front();
    runs.insert(vpn, n, Run{first, flags, std::move(frames)});
}

} // namespace upm::vm
