/**
 * @file
 * Host backing store for simulated allocations.
 *
 * upmsim kernels are functional: they really compute on host memory
 * while the timing side is modelled. The backing store maps simulated
 * virtual address ranges to real host buffers so workloads can validate
 * their numerical results across programming-model variants.
 *
 * Host buffers are allocated lazily on first access: probes that only
 * exercise the timing model can map multi-GiB simulated regions
 * without consuming real RAM.
 */

#ifndef UPM_MEM_BACKING_STORE_HH
#define UPM_MEM_BACKING_STORE_HH

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/log.hh"
#include "common/run_map.hh"

namespace upm::mem {

/** Simulated virtual byte address. */
using VirtAddr = std::uint64_t;

/**
 * Registry of host buffers backing simulated virtual ranges. Ranges
 * never overlap; lookups resolve any address inside a range.
 */
class BackingStore
{
  public:
    /** Create a zero-initialized buffer backing [base, base+size). */
    void attach(VirtAddr base, std::uint64_t size);

    /** Drop the buffer whose range contains @p base (must be a base). */
    void detach(VirtAddr base);

    /**
     * Resolve a simulated address to a host pointer. Panics if the
     * address is not backed or `size` bytes would run off the end.
     */
    std::uint8_t *hostPtr(VirtAddr addr, std::uint64_t size = 1);

    /** Typed convenience wrapper around hostPtr(). */
    template <typename T>
    T *
    hostPtrAs(VirtAddr addr, std::uint64_t count = 1)
    {
        return reinterpret_cast<T *>(hostPtr(addr, count * sizeof(T)));
    }

    /** @return true if @p addr falls inside a backed range. */
    bool
    contains(VirtAddr addr) const
    {
        return regions.find(addr) != regions.end();
    }

    /** Total bytes currently backed (for leak checks in tests). */
    std::uint64_t totalBytes() const { return regions.keyCount(); }

  private:
    struct FreeDeleter
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    /** One simulated range's host buffer; its size is the run length. */
    struct Region
    {
        /** Lazily allocated, zeroed, on first hostPtr() call. */
        mutable std::unique_ptr<std::uint8_t[], FreeDeleter> data;

        /** RunMap hook: regions are attached and detached whole. */
        Region
        splitOff(std::uint64_t) const
        {
            panic("backing region split");
        }

        /** RunMap hook: adjacent regions stay separate buffers. */
        bool joins(std::uint64_t, const Region &) const { return false; }
    };

    RunMap<Region> regions;
};

} // namespace upm::mem

#endif // UPM_MEM_BACKING_STORE_HH
