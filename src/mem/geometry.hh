/**
 * @file
 * Physical memory geometry of the modelled MI300A.
 *
 * The APU has eight HBM3 stacks, each with 16 channels and 16 GiB of
 * capacity (CDNA3 white paper). Physical pages are interleaved among
 * the eight stacks at 4 KiB granularity; within a stack, addresses
 * spread over the 16 channels at 256 B granularity. The memory-side
 * Infinity Cache is partitioned into slices mapped 1:1 to channels, so
 * any bias in the placement of physical pages across stacks directly
 * translates into uneven Infinity Cache slice utilization -- the
 * mechanism the paper identifies in Section 5.4.
 */

#ifndef UPM_MEM_GEOMETRY_HH
#define UPM_MEM_GEOMETRY_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"

namespace upm::mem {

/** Physical byte address. */
using PhysAddr = std::uint64_t;
/** Physical frame number (PhysAddr >> kPageShift). */
using FrameId = std::uint64_t;

inline constexpr unsigned kPageShift = 12;
inline constexpr std::uint64_t kPageSize = 1ull << kPageShift;

/** End of the maximal stretch of consecutive frames from frames[i]. */
inline std::uint64_t
frameStretchEnd(const FrameId *frames, std::uint64_t i, std::uint64_t n)
{
    std::uint64_t j = i + 1;
    while (j < n && frames[j] == frames[j - 1] + 1)
        ++j;
    return j;
}

/**
 * Visit the maximal stretches of consecutive frames of frames[0, n) in
 * order: run(i, len) for each of two or more frames, and singles(i,
 * count) for each block of lone frames, found by one tight loop.
 */
template <typename RunFn, typename SinglesFn>
void
forEachFrameStretch(const FrameId *frames, std::uint64_t n, RunFn &&run,
                    SinglesFn &&singles)
{
    std::uint64_t i = 0;
    while (i < n) {
        std::uint64_t j = i;
        while (j + 1 < n && frames[j + 1] != frames[j] + 1)
            ++j;
        if (j + 1 == n) {
            singles(i, n - i);
            return;
        }
        if (j > i)
            singles(i, j - i);
        i = frameStretchEnd(frames, j, n);
        run(j, i - j);
    }
}

/** forEachFrameStretch() with every stretch, one frame or more, to fn. */
template <typename Fn>
void
forEachFrameStretch(const FrameId *frames, std::uint64_t n, Fn &&fn)
{
    forEachFrameStretch(frames, n, fn,
                        [&](std::uint64_t i, std::uint64_t count) {
                            for (std::uint64_t k = i; k < i + count; ++k)
                                fn(k, 1);
                        });
}

/** Geometry parameters; defaults model one MI300A at reduced capacity. */
struct MemGeometryConfig
{
    unsigned numStacks = 8;
    unsigned channelsPerStack = 16;
    /**
     * Modelled capacity. The real APU has 128 GiB; the default model
     * uses 8 GiB so frame-table structures stay laptop-sized. Benches
     * print the scale factor they assume.
     */
    std::uint64_t capacityBytes = 8 * GiB;
    /** Sub-stack channel interleave granularity (bytes). */
    std::uint64_t channelInterleave = 256;
};

/**
 * Maps physical addresses to stacks and channels and answers capacity
 * questions. Immutable after construction.
 */
class MemGeometry
{
  public:
    explicit MemGeometry(const MemGeometryConfig &config = {});

    std::uint64_t capacity() const { return cfg.capacityBytes; }
    std::uint64_t numFrames() const { return frames; }
    unsigned numStacks() const { return cfg.numStacks; }
    unsigned numChannels() const { return channels; }

    /** Stack owning @p frame (4 KiB page interleave across stacks). */
    unsigned stackOfFrame(FrameId frame) const;

    /**
     * First frame at or after @p from on @p stack. The frames of one
     * stack step by numStacks(), so a block's frames on that stack are
     * firstFrameOnStack(base, stack) + k * numStacks().
     */
    FrameId
    firstFrameOnStack(FrameId from, unsigned stack) const
    {
        unsigned from_stack = stackOfFrame(from);
        return from + (stack + cfg.numStacks - from_stack) % cfg.numStacks;
    }

    /** Channel of a (frame, sub-page offset) pair. */
    unsigned channelOfFrame(FrameId frame, std::uint64_t offset) const;

    /**
     * Histogram of frames per stack for a frame set; used by probes to
     * quantify placement bias. Each stretch of two or more consecutive
     * frames is counted whole (addRunLoad), a lone frame with one
     * increment.
     */
    std::vector<std::uint64_t>
    stackLoad(const std::vector<FrameId> &frame_list) const;

    /**
     * Add the consecutive frames [first, first+len) to the per-stack
     * histogram @p load: len / numStacks to every stack, plus the
     * remainder one each from first's stack on.
     */
    void addRunLoad(FrameId first, std::uint64_t len,
                    std::vector<std::uint64_t> &load) const;

    /**
     * Placement-balance metric in (0, 1] of a stackLoad() histogram:
     * ratio of the mean per-stack load to the max per-stack load.
     * 1.0 == perfectly even.
     */
    double balanceOfLoad(const std::vector<std::uint64_t> &load) const;

  private:
    MemGeometryConfig cfg;
    std::uint64_t frames;
    unsigned channels;
};

} // namespace upm::mem

#endif // UPM_MEM_GEOMETRY_HH
