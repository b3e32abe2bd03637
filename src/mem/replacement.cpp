#include "mem/replacement.h"

#include <cassert>
#include <stdexcept>

namespace dscoh {

ReplacementKind replacementKindFromString(const std::string& s)
{
    if (s == "lru")
        return ReplacementKind::kLru;
    if (s == "tree-plru")
        return ReplacementKind::kTreePlru;
    if (s == "random")
        return ReplacementKind::kRandom;
    throw std::invalid_argument("unknown replacement policy: " + s);
}

std::string to_string(ReplacementKind k)
{
    switch (k) {
    case ReplacementKind::kLru:
        return "lru";
    case ReplacementKind::kTreePlru:
        return "tree-plru";
    case ReplacementKind::kRandom:
        return "random";
    }
    return "?";
}

std::unique_ptr<ReplacementPolicy> ReplacementPolicy::create(ReplacementKind kind,
                                                             std::uint32_t sets,
                                                             std::uint32_t ways,
                                                             std::uint64_t seed)
{
    switch (kind) {
    case ReplacementKind::kLru:
        return std::make_unique<LruPolicy>(sets, ways);
    case ReplacementKind::kTreePlru:
        return std::make_unique<TreePlruPolicy>(sets, ways);
    case ReplacementKind::kRandom:
        return std::make_unique<RandomPolicy>(sets, ways, seed);
    }
    throw std::invalid_argument("unknown replacement kind");
}

std::uint32_t LruPolicy::victim(std::uint32_t set, std::uint64_t candidates)
{
    assert(candidates != 0 && "victim() requires at least one candidate");
    // Forward scan, strict "<": the lowest-index oldest way. Any fixed rule
    // works, we just need determinism.
    std::uint32_t best = ways_;
    std::uint64_t bestStamp = 0;
    for (; candidates != 0; candidates &= candidates - 1) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(candidates));
        if (best == ways_ || stamp_[index(set, w)] < bestStamp) {
            best = w;
            bestStamp = stamp_[index(set, w)];
        }
    }
    return best;
}

TreePlruPolicy::TreePlruPolicy(std::uint32_t sets, std::uint32_t ways)
    : ReplacementPolicy(sets, ways), nodesPerSet_(ways - 1)
{
    if (!takesWays(ways))
        throw std::invalid_argument(kWaysRule);
    bits_.resize(static_cast<std::size_t>(sets) * nodesPerSet_, false);
}

void TreePlruPolicy::touch(std::uint32_t set, std::uint32_t way)
{
    // Walk from root to leaf; at each node, point the bit *away* from the
    // touched way.
    const std::size_t base = static_cast<std::size_t>(set) * nodesPerSet_;
    std::uint32_t node = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = ways_;
    while (hi - lo > 1) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        const bool right = way >= mid;
        bits_[base + node] = !right; // bit points at the LRU half
        node = 2 * node + (right ? 2 : 1);
        (right ? lo : hi) = mid;
    }
}

std::uint32_t TreePlruPolicy::victim(std::uint32_t set,
                                     std::uint64_t candidates)
{
    assert(candidates != 0 && "victim() requires at least one candidate");
    const std::size_t base = static_cast<std::size_t>(set) * nodesPerSet_;
    std::uint32_t node = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = ways_;
    while (hi - lo > 1) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        const bool right = bits_[base + node];
        node = 2 * node + (right ? 2 : 1);
        (right ? lo : hi) = mid;
    }
    if ((candidates >> lo) & 1)
        return lo;
    // PLRU choice is pinned: fall back to the first candidate way.
    return static_cast<std::uint32_t>(std::countr_zero(candidates));
}

std::uint32_t RandomPolicy::victim(std::uint32_t set, std::uint64_t candidates)
{
    static_cast<void>(set);
    assert(candidates != 0 && "victim() requires at least one candidate");
    // The pick-th candidate in way order.
    for (std::uint64_t pick = rng_.below(
             static_cast<std::uint64_t>(std::popcount(candidates)));
         pick != 0; --pick)
        candidates &= candidates - 1;
    return static_cast<std::uint32_t>(std::countr_zero(candidates));
}

} // namespace dscoh
