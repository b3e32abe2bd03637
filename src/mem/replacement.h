// Cache replacement policies.
//
// A policy owns its own per-set/per-way state; the CacheArray informs it of
// touches and fills and asks it for a victim among the candidate ways (a
// way mask, bit w for way w, excludes ways pinned by in-flight
// transactions).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/types.h"
#include "snap/snapshot.h"

namespace dscoh {

enum class ReplacementKind { kLru, kTreePlru, kRandom };

/// Parses "lru" / "tree-plru" / "random"; throws std::invalid_argument.
ReplacementKind replacementKindFromString(const std::string& s);
std::string to_string(ReplacementKind k);

class ReplacementPolicy {
public:
    ReplacementPolicy(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways)
    {
    }
    virtual ~ReplacementPolicy() = default;

    ReplacementPolicy(const ReplacementPolicy&) = delete;
    ReplacementPolicy& operator=(const ReplacementPolicy&) = delete;

    virtual void touch(std::uint32_t set, std::uint32_t way) = 0;
    virtual void fill(std::uint32_t set, std::uint32_t way) { touch(set, way); }

    /// At most this many ways: a candidate mask is one word.
    static constexpr std::uint32_t kMaxWays = 64;

    /// Chooses a victim way among those whose bit is set in @p candidates.
    /// Precondition: at least one candidate.
    virtual std::uint32_t victim(std::uint32_t set,
                                 std::uint64_t candidates) = 0;

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }

    /// Victim choice is part of deterministic machine state (LRU stamps,
    /// PLRU bits, the random policy's RNG), so it checkpoints with the
    /// cache array that owns the policy. Each policy forwards both to its
    /// snapState.
    virtual void snapSave(snap::SnapWriter& w) const = 0;
    virtual void snapRestore(snap::SnapReader& r) = 0;

    static std::unique_ptr<ReplacementPolicy> create(ReplacementKind kind,
                                                     std::uint32_t sets,
                                                     std::uint32_t ways,
                                                     std::uint64_t seed = 1);

protected:
    std::uint32_t sets_;
    std::uint32_t ways_;
};

/// True LRU via a monotone timestamp per way.
class LruPolicy final : public ReplacementPolicy {
public:
    LruPolicy(std::uint32_t sets, std::uint32_t ways)
        : ReplacementPolicy(sets, ways), stamp_(static_cast<std::size_t>(sets) * ways, 0)
    {
    }

    void touch(std::uint32_t set, std::uint32_t way) override
    {
        stamp_[index(set, way)] = ++clock_;
    }

    std::uint32_t victim(std::uint32_t set,
                         std::uint64_t candidates) override;

    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }

private:
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        ar.u64(self.clock_);
        for (auto& s : self.stamp_)
            ar.u64(s);
    }

    std::size_t index(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways_ + way;
    }
    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_ = 0;
};

/// Tree pseudo-LRU. Ways must be a power of two; falls back to scanning when
/// the PLRU-chosen way is not a candidate.
class TreePlruPolicy final : public ReplacementPolicy {
public:
    TreePlruPolicy(std::uint32_t sets, std::uint32_t ways);

    /// The tree needs a power-of-two number of ways, at least two.
    static bool takesWays(std::uint32_t ways)
    {
        return ways >= 2 && std::has_single_bit(ways);
    }
    static constexpr const char* kWaysRule =
        "tree-plru requires power-of-two ways >= 2";

    void touch(std::uint32_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint32_t set,
                         std::uint64_t candidates) override;

    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }

private:
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        // Eight tree bits per byte.
        auto& bits = self.bits_;
        for (std::size_t i = 0; i < bits.size(); i += 8) {
            const std::size_t n = std::min<std::size_t>(8, bits.size() - i);
            std::uint8_t packed = 0;
            for (std::size_t b = 0; b < n; ++b)
                packed |= static_cast<std::uint8_t>((bits[i + b] ? 1u : 0u)
                                                    << b);
            ar.u8(packed);
            if constexpr (Ar::kLoading)
                for (std::size_t b = 0; b < n; ++b)
                    bits[i + b] = ((packed >> b) & 1) != 0;
        }
    }

    // One bit per internal tree node, (ways - 1) nodes per set.
    std::vector<bool> bits_;
    std::uint32_t nodesPerSet_;
};

/// Uniform random victim among candidates (deterministic given the seed).
class RandomPolicy final : public ReplacementPolicy {
public:
    RandomPolicy(std::uint32_t sets, std::uint32_t ways, std::uint64_t seed)
        : ReplacementPolicy(sets, ways), rng_(seed)
    {
    }

    void touch(std::uint32_t, std::uint32_t) override {}
    std::uint32_t victim(std::uint32_t set,
                         std::uint64_t candidates) override;

    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }

private:
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        ar.nested(self.rng_);
    }

    Rng rng_;
};

} // namespace dscoh
