// Per-SM GPU L1 data cache (Table I: 16 KB, 4-way).
//
// As in gem5-gpu's Hammer configuration, the GPU L1s are NOT kept coherent
// by hardware: stores write through (no-allocate), and the cache is flash-
// invalidated when a kernel launches, which is how software guarantees the
// GPU observes CPU-produced data at kernel boundaries.
#pragma once

#include <cstdint>

#include "mem/cache_array.h"
#include "sim/stats.h"

namespace dscoh {

class GpuL1 {
public:
    explicit GpuL1(const CacheGeometry& geom) : array_(geom) {}

    struct L1Meta {};
    using Line = CacheArray<L1Meta>::Line;

    /// Load lookup; returns the line (and touches LRU) or nullptr.
    Line* lookup(Addr addr)
    {
        Line* line = array_.find(addr);
        accesses_.inc();
        if (line != nullptr) {
            array_.touch(addr);
            hits_.inc();
        } else {
            misses_.inc();
        }
        return line;
    }

    /// Installs a line returned by the L2 slice.
    void fill(Addr addr, const DataBlock& data)
    {
        if (Line* existing = array_.find(addr)) {
            existing->data = data;
            array_.touch(addr);
            return;
        }
        auto* way = array_.findFreeWay(addr);
        if (way == nullptr) {
            way = array_.selectVictim(
                addr, [](const Line&) { return true; }); // all lines clean
            array_.invalidate(*way);
        }
        Line& line = array_.install(*way, addr);
        line.data = data;
    }

    /// Write-through store: updates a present copy (write-update) so later
    /// local loads see fresh bytes; never allocates.
    void storeUpdate(Addr addr, const DataBlock& data, const ByteMask& mask)
    {
        if (Line* line = array_.find(addr))
            mask.apply(line->data, data);
    }

    /// Kernel-launch flash invalidate.
    void flashInvalidate()
    {
        flashes_.inc();
        array_.forEachValid([this](Line& line) { array_.invalidate(line); });
    }

    void regStats(StatRegistry& registry, const std::string& prefix)
    {
        registry.registerCounter(prefix + ".accesses", &accesses_);
        registry.registerCounter(prefix + ".hits", &hits_);
        registry.registerCounter(prefix + ".misses", &misses_);
        registry.registerCounter(prefix + ".flash_invalidates", &flashes_);
    }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        ar.nested(self.array_, [](Ar&, auto&) {});
    }

private:
    CacheArray<L1Meta> array_;
    Counter accesses_;
    Counter hits_;
    Counter misses_;
    Counter flashes_;
};

} // namespace dscoh
