// Simulated virtual memory: page table, heap allocator (the program's
// malloc), and the reserved direct-store region allocator (the program's
// mmap(MAP_FIXED) after source translation, §III-C/D of the paper).
//
// The direct-store region is the high-order VA range with bit 46 set. The
// TLB recognizes translations inside it and tags CPU stores as remote.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "sim/types.h"
#include "snap/snapshot.h"

namespace dscoh {

/// Base (and tag bit) of the reserved direct-store virtual address region.
inline constexpr Addr kDsRegionBase = 1ull << 46;

/// True when @p va lies in the reserved direct-store region.
constexpr bool inDsRegion(Addr va) { return (va & kDsRegionBase) != 0; }

struct Translation {
    Addr paddr = 0;
    bool dsRegion = false; ///< store must be forwarded to the GPU L2
};

/// Page-granular address space with eager physical backing.
class AddressSpace {
public:
    /// @p physBytes is the simulated DRAM capacity (Table I: 2 GB).
    explicit AddressSpace(std::uint64_t physBytes);

    /// Heap allocation (the program's malloc/cudaMalloc). Line-aligned.
    Addr heapAlloc(std::uint64_t bytes);

    /// Fixed-address allocation in the direct-store region, mirroring what
    /// the source translator emits: consecutive non-overlapping MAP_FIXED
    /// mmaps starting at the region base. Returns the mapped VA.
    Addr dsMmap(std::uint64_t bytes);

    /// MAP_FIXED at an explicit direct-store address (translator output has
    /// explicit start addresses). Throws on overlap or non-DS address.
    Addr dsMmapFixed(Addr va, std::uint64_t bytes);

    /// Translates @p va. Throws std::out_of_range for unmapped addresses
    /// (the simulated program segfaulted — a workload bug).
    Translation translate(Addr va) const;

    bool isMapped(Addr va) const;

    std::uint64_t physBytes() const { return physBytes_; }

    /// Allocator cursors plus the page table in VA order.
    void snapSave(snap::SnapWriter& w) const { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) { snapState(*this, r); }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        ar.u64(self.heapCursor_);
        ar.u64(self.dsCursor_);
        ar.u64(self.nextPhysPage_);
        snap::keyed(ar, self.pages_, [](Ar& a, auto& pa) { a.u64(pa); });
    }

private:
    void mapRange(Addr vaBase, std::uint64_t bytes);

    std::uint64_t physBytes_;
    std::map<Addr, Addr> pages_; ///< VA page -> PA page base
    Addr heapCursor_;
    Addr dsCursor_;
    std::uint64_t nextPhysPage_ = 1; ///< page 0 kept unmapped (null guard)
};

} // namespace dscoh
