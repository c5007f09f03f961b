/**
 * @file
 * Simulated-memory implementation.
 */

#include "memory.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace nb::sim
{

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
}

void
PageTable::unmapPage(Addr vaddr)
{
    map_.erase(vaddr / kPageSize);
}

bool
PageTable::isMapped(Addr vaddr) const
{
    return map_.count(vaddr / kPageSize) != 0;
}

Addr
PageTable::translate(Addr vaddr) const
{
    auto it = map_.find(vaddr / kPageSize);
    if (it == map_.end())
        fatal("page fault: virtual address 0x", std::hex, vaddr,
              " is not mapped");
    return it->second * kPageSize + vaddr % kPageSize;
}

} // namespace nb::sim
