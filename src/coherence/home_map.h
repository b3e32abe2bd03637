// Static DS-region sharding across GPUs.
//
// With N GPUs the shared (DS) address range is split into per-GPU homed
// sub-ranges: every physical line has exactly one home GPU whose L2 slice
// group installs direct-store pushes for it and whose directory shard
// orders coherence transactions on it. The map is a pure function of the
// address and the (gpu count, policy) pair, so every component — CPU cores,
// cache agents, slices, the fuzzer and the oracle — can evaluate it
// independently and must agree. A single-GPU map (shards == 1) returns
// home 0 for every address, reducing the system to the original 1-CPU/1-GPU
// shape bit for bit.
#pragma once

#include <cstdint>
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

    HomeMap() = default;
    HomeMap(std::uint32_t shards, ShardPolicy policy)
        : shards_(shards == 0 ? 1 : shards), policy_(policy)
    {
    }

    std::uint32_t shards() const { return shards_; }
    ShardPolicy policy() const { return policy_; }

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

private:
    std::uint32_t shards_ = 1;
    ShardPolicy policy_ = ShardPolicy::kPage;
};

} // namespace dscoh
