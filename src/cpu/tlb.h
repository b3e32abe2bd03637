// CPU TLB with the paper's added logic (§III-E): a comparator on high-order
// virtual address bits detects the reserved direct-store region and signals
// the MMU to forward the store to the GPU L2 over the dedicated network.
//
// Timing: a hit costs nothing extra (folded into L1 access); a miss charges a
// fixed page-table-walk latency. Fully associative, true-LRU, as small TLBs
// typically are.
#pragma once

#include <cstdint>
#include <iterator>
#include <list>
#include <unordered_map>

#include "sim/sim_object.h"
#include "sim/stats.h"
#include "vm/address_space.h"

namespace dscoh {

struct TlbResult {
    Translation translation;
    Tick latency = 0; ///< extra ticks charged (page-table walk on miss)
    bool hit = false;
};

class Tlb final : public SimObject {
public:
    struct Params {
        std::uint32_t entries = 64;
        Tick walkLatency = 80;
    };

    Tlb(std::string name, SimContext& ctx, const AddressSpace& space,
        Params params);

    Tlb(std::string name, SimContext& ctx, const AddressSpace& space)
        : Tlb(std::move(name), ctx, space, Params{})
    {
    }

    /// Translates @p va; result.translation.dsRegion is the paper's
    /// "forward this store to the GPU" signal.
    TlbResult translate(Addr va);

    void flush();

    void regStats(StatRegistry& registry) override;

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /// LRU recency order is machine state: after restore the next victim
    /// must match the uninterrupted run.
    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        // Front = most recent.
        snap::seq(ar, self.lru_, [](Ar& a, auto& page) { a.u64(page); });
        if constexpr (Ar::kLoading) {
            self.entries_.clear();
            for (auto it = self.lru_.begin(); it != self.lru_.end(); ++it)
                self.entries_[*it] = it;
        }
    }

private:
    const AddressSpace& space_;
    Params params_;

    // LRU list of VA pages, most recent at front; map into the list.
    std::list<Addr> lru_;
    std::unordered_map<Addr, std::list<Addr>::iterator> entries_;

    Counter hits_;
    Counter misses_;
    Counter dsDetections_;
};

} // namespace dscoh
