/**
 * @file
 * Simulated physical memory and virtual-to-physical page mapping.
 *
 * The machine executes on virtual addresses; L1 index bits fall within
 * the page offset, but L2/L3 set selection and the slice hash use
 * physical addresses, so the mapping matters for the cache case study —
 * exactly why nanoBench's kernel version offers physically-contiguous
 * allocation (§III-G, §IV-D).
 */

#ifndef NB_SIM_MEMORY_HH
#define NB_SIM_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/types.hh"

namespace nb::sim
{

/** Byte-addressable sparse physical memory. */
class PhysMemory
{
    using Page = std::array<std::uint8_t, kPageSize>;

  public:
    /** Little-endian access of 1-8 bytes: one page lookup, or one per
     *  byte when the access straddles a page boundary. */
    std::uint64_t read(Addr paddr, unsigned bytes) const;
    void write(Addr paddr, std::uint64_t value, unsigned bytes);

    /** The pages that exist at one point, with their contents. */
    struct Snapshot
    {
        std::unordered_map<Addr, Page> pages;
    };

    Snapshot snapshot() const;

    /** Drop every page first written after @p s was taken and put
     *  back the contents of the pages @p s holds. Costs one step per
     *  existing page; pages read as zero until written, so a dropped
     *  page reads exactly as it did at the snapshot. */
    void restore(const Snapshot &s);

  private:
    Page &pageFor(Addr paddr);
    const Page *pageForRead(Addr paddr) const;

    mutable std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
};

/** Per-page virtual-to-physical mapping. */
class PageTable
{
  public:
    /** Map virtual page containing @p vaddr to the physical page
     *  containing @p paddr (both aligned down). */
    void mapPage(Addr vaddr, Addr paddr);

    /** Remove a mapping. */
    void unmapPage(Addr vaddr);

    bool isMapped(Addr vaddr) const;

    /** Translate; throws nb::FatalError (page fault) if unmapped. */
    Addr translate(Addr vaddr) const;

    /** Number of mapped pages. */
    std::size_t size() const { return map_.size(); }

  private:
    std::unordered_map<Addr, Addr> map_; ///< vpage -> ppage
    /** The last translation (vpage -> ppage), so consecutive accesses
     *  to one page skip the map; cleared by mapPage() and unmapPage(). */
    mutable Addr lastVpage_ = ~Addr{0};
    mutable Addr lastPpage_ = 0;
};

/** Combined memory system handed to the machine. */
class Memory
{
  public:
    PageTable &pageTable() { return pt_; }
    const PageTable &pageTable() const { return pt_; }
    PhysMemory &phys() { return phys_; }
    const PhysMemory &phys() const { return phys_; }

    Addr translate(Addr vaddr) const { return pt_.translate(vaddr); }

    std::uint64_t
    readVirt(Addr vaddr, unsigned bytes) const
    {
        return phys_.read(pt_.translate(vaddr), bytes);
    }

    void
    writeVirt(Addr vaddr, std::uint64_t value, unsigned bytes)
    {
        phys_.write(pt_.translate(vaddr), value, bytes);
    }

  private:
    PageTable pt_;
    PhysMemory phys_;
};

} // namespace nb::sim

#endif // NB_SIM_MEMORY_HH
