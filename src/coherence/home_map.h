// The machine's address routing and node-id layout, as one value.
//
// With N GPUs the shared (DS) address range is split into per-GPU homed
// sub-ranges: every physical line has exactly one home GPU whose L2 slice
// group installs direct-store pushes for it and whose directory shard
// orders coherence transactions on it. Within a GPU the low line-number
// bits pick the L2 slice, so a GPU's slices own disjoint address sets and a
// line has exactly one possible coherent cache per GPU.
//
// System builds one HomeMap from its config and every component — CPU
// cores, cache agents, L2 slices, SMs and directory shards — keeps a copy,
// so "which node holds address A" has one answer computed in one place. A
// single-GPU map returns home 0 for every address, reducing the system to
// the original 1-CPU/1-GPU shape bit for bit.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "sim/types.h"

namespace dscoh {

enum class ShardPolicy : std::uint8_t {
    kPage = 0, ///< page number modulo GPU count (default)
    kLine = 1, ///< line number modulo GPU count (finest interleave)
    kRange = 2 ///< contiguous 16-page ranges round-robin across GPUs
};

constexpr const char* to_string(ShardPolicy p)
{
    switch (p) {
    case ShardPolicy::kPage: return "page";
    case ShardPolicy::kLine: return "line";
    case ShardPolicy::kRange: return "range";
    }
    return "?";
}

/// Inverse of to_string, for the shard-policy config key. Returns false on
/// anything but the exact names.
inline bool parseShardPolicy(std::string_view text, ShardPolicy& out)
{
    if (text == "page")
        out = ShardPolicy::kPage;
    else if (text == "line")
        out = ShardPolicy::kLine;
    else if (text == "range")
        out = ShardPolicy::kRange;
    else
        return false;
    return true;
}

class HomeMap {
public:
    /// Pages per contiguous range under ShardPolicy::kRange.
    static constexpr std::uint64_t kRangePages = 16;

    // Node-id layout (one global space across all networks). With G GPUs,
    // S slices per GPU and C CPU cores: the CPU cache agent is node 0, GPU
    // g's slice s is 1 + g*S + s, directory shard h is 1 + G*S + h (one
    // shard per GPU), CPU core c follows the shards, and GPU g's SM i
    // follows the cores. At G=1, C=1 this is exactly the historical layout.
    // A map with no GPU (G=0) describes a CPU agent and one directory
    // shard alone.
    static constexpr NodeId kCpuAgentNode = 0;
    static constexpr NodeId kFirstSliceNode = 1;

    HomeMap() = default;
    /// Throws std::invalid_argument unless @p slicesPerGpu is a power of
    /// two (the slice is picked by masking line-number bits).
    HomeMap(std::uint32_t gpus, ShardPolicy policy,
            std::uint32_t slicesPerGpu = 1, std::uint32_t cpuCores = 1,
            std::uint32_t smsPerGpu = 1)
        : gpus_(gpus), shards_(gpus == 0 ? 1 : gpus), policy_(policy),
          slices_(slicesPerGpu),
          sliceBits_(static_cast<std::uint32_t>(std::countr_zero(slices_))),
          cpuCores_(cpuCores), smsPerGpu_(smsPerGpu)
    {
        if (!takesSlices(slicesPerGpu))
            throw std::invalid_argument("slice count must be a power of two");
    }

    static bool takesSlices(std::uint32_t slicesPerGpu)
    {
        return std::has_single_bit(slicesPerGpu);
    }

    std::uint32_t shards() const { return shards_; }
    ShardPolicy policy() const { return policy_; }
    std::uint32_t slicesPerGpu() const { return slices_; }
    /// Line-number bits consumed by the slice index (feeds
    /// CacheGeometry::setShift).
    std::uint32_t sliceBits() const { return sliceBits_; }

    /// Home GPU index of @p pa (0 <= result < shards()).
    std::uint32_t homeOf(Addr pa) const
    {
        if (shards_ <= 1)
            return 0;
        switch (policy_) {
        case ShardPolicy::kLine:
            return static_cast<std::uint32_t>(lineNumber(pa) % shards_);
        case ShardPolicy::kRange:
            return static_cast<std::uint32_t>(
                (pa / (kRangePages * kPageSize)) % shards_);
        case ShardPolicy::kPage:
            break;
        }
        return static_cast<std::uint32_t>((pa / kPageSize) % shards_);
    }

    /// Slice index of @p pa within any GPU.
    std::uint32_t sliceIndexOf(Addr pa) const
    {
        return static_cast<std::uint32_t>(lineNumber(pa) & (slices_ - 1));
    }

    NodeId sliceNode(std::uint32_t g, std::uint32_t s) const
    {
        return kFirstSliceNode + g * slices_ + s;
    }
    /// GPU @p g's slice serving @p pa (the SM-side routing, and the slices
    /// a home snoops).
    NodeId sliceOn(std::uint32_t g, Addr pa) const
    {
        return sliceNode(g, sliceIndexOf(pa));
    }
    /// The slice on @p pa's home GPU: where a direct store, an uncached
    /// read or a lease read for @p pa lands.
    NodeId homeSlice(Addr pa) const { return sliceOn(homeOf(pa), pa); }

    /// Calls @p f for every cache that may hold @p pa, in snoop order: the
    /// CPU agent, then the line's slice on each GPU in GPU order.
    template <typename F>
    void forEachHolder(Addr pa, F&& f) const
    {
        f(kCpuAgentNode);
        for (std::uint32_t g = 0; g < gpus_; ++g)
            f(sliceOn(g, pa));
    }

    NodeId homeNode(std::uint32_t h = 0) const
    {
        return kFirstSliceNode + gpus_ * slices_ + h;
    }
    /// The directory shard ordering @p pa.
    NodeId homeNodeOf(Addr pa) const { return homeNode(homeOf(pa)); }

    NodeId cpuCoreNode(std::uint32_t c = 0) const
    {
        return homeNode(0) + shards_ + c;
    }
    NodeId smNode(std::uint32_t g, std::uint32_t i) const
    {
        return cpuCoreNode(0) + cpuCores_ + g * smsPerGpu_ + i;
    }

private:
    std::uint32_t gpus_ = 1;
    std::uint32_t shards_ = 1;
    ShardPolicy policy_ = ShardPolicy::kPage;
    std::uint32_t slices_ = 1;
    std::uint32_t sliceBits_ = 0;
    std::uint32_t cpuCores_ = 1;
    std::uint32_t smsPerGpu_ = 1;
};

} // namespace dscoh
