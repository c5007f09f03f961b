/**
 * @file
 * Simulated-memory implementation.
 */

#include "memory.hh"

#include <bit>
#include <cstring>

#include "common/bits.hh"
#include "common/logging.hh"

namespace nb::sim
{

// read() and write() copy the bytes of a std::uint64_t in host order.
static_assert(std::endian::native == std::endian::little,
              "PhysMemory assumes a little-endian host");

PhysMemory::Page &
PhysMemory::pageFor(Addr paddr)
{
    Addr page = paddr / kPageSize;
    auto &slot = pages_[page];
    if (!slot)
        slot = std::make_unique<Page>();
    return *slot;
}

const PhysMemory::Page *
PhysMemory::pageForRead(Addr paddr) const
{
    auto it = pages_.find(paddr / kPageSize);
    return it == pages_.end() ? nullptr : it->second.get();
}

std::uint64_t
PhysMemory::read(Addr paddr, unsigned bytes) const
{
    NB_ASSERT(bytes >= 1 && bytes <= 8, "bad read size ", bytes);
    std::uint64_t value = 0;
    const Addr offset = paddr % kPageSize;
    if (offset + bytes <= kPageSize) {
        if (const Page *page = pageForRead(paddr))
            std::memcpy(&value, page->data() + offset, bytes);
        return value;
    }
    for (unsigned i = 0; i < bytes; ++i) {
        Addr a = paddr + i;
        const Page *page = pageForRead(a);
        std::uint8_t b = page ? (*page)[a % kPageSize] : 0;
        value |= static_cast<std::uint64_t>(b) << (8 * i);
    }
    return value;
}

void
PhysMemory::write(Addr paddr, std::uint64_t value, unsigned bytes)
{
    NB_ASSERT(bytes >= 1 && bytes <= 8, "bad write size ", bytes);
    const Addr offset = paddr % kPageSize;
    if (offset + bytes <= kPageSize) {
        std::memcpy(pageFor(paddr).data() + offset, &value, bytes);
        return;
    }
    for (unsigned i = 0; i < bytes; ++i) {
        Addr a = paddr + i;
        pageFor(a)[a % kPageSize] =
            static_cast<std::uint8_t>((value >> (8 * i)) & 0xFF);
    }
}

PhysMemory::Snapshot
PhysMemory::snapshot() const
{
    Snapshot s;
    for (const auto &[page, data] : pages_)
        s.pages.emplace(page, *data);
    return s;
}

void
PhysMemory::restore(const Snapshot &s)
{
    // Pages are never removed except here, so every page of the
    // snapshot is still present.
    for (auto it = pages_.begin(); it != pages_.end();) {
        auto saved = s.pages.find(it->first);
        if (saved == s.pages.end()) {
            it = pages_.erase(it);
        } else {
            *it->second = saved->second;
            ++it;
        }
    }
}

void
PageTable::mapPage(Addr vaddr, Addr paddr)
{
    map_[vaddr / kPageSize] = paddr / kPageSize;
    lastVpage_ = ~Addr{0};
}

void
PageTable::unmapPage(Addr vaddr)
{
    map_.erase(vaddr / kPageSize);
    lastVpage_ = ~Addr{0};
}

bool
PageTable::isMapped(Addr vaddr) const
{
    return map_.count(vaddr / kPageSize) != 0;
}

Addr
PageTable::translate(Addr vaddr) const
{
    const Addr vpage = vaddr / kPageSize;
    if (vpage != lastVpage_) {
        auto it = map_.find(vpage);
        if (it == map_.end())
            fatal("page fault: virtual address 0x", std::hex, vaddr,
                  " is not mapped");
        lastVpage_ = vpage;
        lastPpage_ = it->second;
    }
    return lastPpage_ * kPageSize + vaddr % kPageSize;
}

} // namespace nb::sim
