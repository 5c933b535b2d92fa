#include "mem/geometry.hh"

#include <algorithm>

#include "common/log.hh"

namespace upm::mem {

MemGeometry::MemGeometry(const MemGeometryConfig &config) : cfg(config)
{
    if (cfg.numStacks == 0 || cfg.channelsPerStack == 0)
        fatal("memory geometry needs at least one stack and channel");
    if (cfg.capacityBytes % kPageSize != 0)
        fatal("capacity must be page aligned");
    frames = cfg.capacityBytes / kPageSize;
    channels = cfg.numStacks * cfg.channelsPerStack;
}

unsigned
MemGeometry::stackOfFrame(FrameId frame) const
{
    // A power-of-two stack count (the MI300A's eight) takes no division.
    FrameId stacks = cfg.numStacks;
    return static_cast<unsigned>(
        (stacks & (stacks - 1)) == 0 ? frame & (stacks - 1) : frame % stacks);
}

unsigned
MemGeometry::channelOfFrame(FrameId frame, std::uint64_t offset) const
{
    unsigned stack = stackOfFrame(frame);
    unsigned sub = static_cast<unsigned>(
        (offset / cfg.channelInterleave) % cfg.channelsPerStack);
    return stack * cfg.channelsPerStack + sub;
}

std::vector<std::uint64_t>
MemGeometry::stackLoad(const std::vector<FrameId> &frame_list) const
{
    std::vector<std::uint64_t> load(cfg.numStacks, 0);
    forEachFrameStretch(
        frame_list.data(), frame_list.size(),
        [&](std::uint64_t i, std::uint64_t len) {
            addRunLoad(frame_list[i], len, load);
        },
        [&](std::uint64_t i, std::uint64_t count) {
            for (std::uint64_t k = i; k < i + count; ++k)
                ++load[stackOfFrame(frame_list[k])];
        });
    return load;
}

void
MemGeometry::addRunLoad(FrameId first, std::uint64_t len,
                        std::vector<std::uint64_t> &load) const
{
    for (std::uint64_t &stack_load : load)
        stack_load += len / cfg.numStacks;
    auto stack = stackOfFrame(first);
    for (std::uint64_t r = len % cfg.numStacks; r != 0; --r) {
        ++load[stack];
        if (++stack == cfg.numStacks)
            stack = 0;
    }
}

double
MemGeometry::balanceOfLoad(const std::vector<std::uint64_t> &load) const
{
    std::uint64_t total = 0;
    for (std::uint64_t stack_load : load)
        total += stack_load;
    if (total == 0)
        return 1.0;
    std::uint64_t max_load = *std::max_element(load.begin(), load.end());
    double mean =
        static_cast<double>(total) / static_cast<double>(cfg.numStacks);
    return mean / static_cast<double>(max_load);
}

} // namespace upm::mem
