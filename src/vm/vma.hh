/**
 * @file
 * Virtual memory areas: contiguous mappings of a backing object.
 */

#ifndef BF_VM_VMA_HH
#define BF_VM_VMA_HH

#include <cstdint>

#include "common/types.hh"
#include "vm/paging.hh"

namespace bf::vm
{

class MappedObject;

/** One contiguous mapping in a process address space. */
struct Vma
{
    Addr start = 0;                //!< First canonical VA (page aligned).
    Addr end = 0;                  //!< One past the last VA.
    bool writable = false;
    bool exec = false;
    bool shared = false;           //!< MAP_SHARED vs MAP_PRIVATE.
    /**
     * Backing page size: 4 KB normally, 2 MB for THP / hugetlbfs
     * mappings, 1 GB for giga-page mappings. BabelFish merges the table
     * holding the leaf entries in every case: PTE tables for 4 KB
     * pages, PMD tables for 2 MB pages, PUD tables for 1 GB pages
     * (paper §IV-C).
     */
    PageSize page_size = PageSize::Size4K;
    MappedObject *object = nullptr;
    std::uint64_t object_offset = 0; //!< Byte offset of 'start' in object.

    bool
    contains(Addr va) const
    {
        return va >= start && va < end;
    }

    std::uint64_t bytes() const { return end - start; }

    /** Whether the mapping is huge-page backed (2 MB or 1 GB). */
    bool hugeBacked() const { return page_size != PageSize::Size4K; }

    /** Page-table level of the leaf entries mapping this VMA. */
    int
    leafLevel() const
    {
        switch (page_size) {
          case PageSize::Size4K: return LevelPte;
          case PageSize::Size2M: return LevelPmd;
          case PageSize::Size1G: return LevelPud;
        }
        return LevelPte;
    }

    /** Object page index (4 KB granularity) backing the page of va. */
    std::uint64_t
    objectPageFor(Addr va) const
    {
        return (object_offset + (va - start)) / basePageBytes;
    }

    /** Index of the huge chunk (in page_size units) backing va. */
    std::uint64_t
    objectChunkFor(Addr va) const
    {
        return (object_offset + (entryBase(va, leafLevel()) - start)) /
               pageBytes(page_size);
    }
};

} // namespace bf::vm

#endif // BF_VM_VMA_HH
