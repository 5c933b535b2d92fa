#include "mem/backing_store.hh"

namespace upm::mem {

void
BackingStore::attach(VirtAddr base, std::uint64_t size)
{
    if (size == 0)
        panic("attach of empty backing region at 0x%llx",
              static_cast<unsigned long long>(base));
    regions.insert(base, size, Region{});
}

void
BackingStore::detach(VirtAddr base)
{
    auto it = regions.find(base);
    if (it == regions.end() || it->first != base)
        panic("detach of unknown backing region 0x%llx",
              static_cast<unsigned long long>(base));
    regions.erase(base, base + it->second.len);
}

std::uint8_t *
BackingStore::hostPtr(VirtAddr addr, std::uint64_t size)
{
    auto it = regions.find(addr);
    if (it == regions.end())
        panic("access to unbacked simulated address 0x%llx",
              static_cast<unsigned long long>(addr));
    std::uint64_t offset = addr - it->first;
    std::uint64_t region_size = it->second.len;
    if (offset + size > region_size)
        panic("access of %llu bytes at 0x%llx overruns backing region",
              static_cast<unsigned long long>(size),
              static_cast<unsigned long long>(addr));
    auto &data = it->second.value.data;
    if (!data) {
        // calloc leaves the zeroing to the OS's zero pages, so a
        // region costs RSS only for the pages the workload touches.
        data.reset(static_cast<std::uint8_t *>(std::calloc(region_size, 1)));
        if (!data)
            panic("cannot allocate %llu bytes of host backing",
                  static_cast<unsigned long long>(region_size));
    }
    return data.get() + offset;
}

} // namespace upm::mem
