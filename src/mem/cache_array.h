// Generic set-associative cache array with pluggable replacement and real
// data storage. Controllers own the protocol; the array owns geometry,
// lookup, and victim selection.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/data_block.h"
#include "mem/replacement.h"
#include "sim/types.h"
#include "snap/snapshot.h"

namespace dscoh {

struct CacheGeometry {
    std::uint64_t sizeBytes = 0;
    std::uint32_t ways = 1;
    /// Line-number bits consumed *below* the set index. GPU L2 slices are
    /// interleaved on the low line-number bits, so a slice's set index starts
    /// above those bits.
    std::uint32_t setShift = 0;
    ReplacementKind replacement = ReplacementKind::kLru;
    std::uint64_t replacementSeed = 1;

    /// Why no array can be built with this geometry ("" when one can):
    /// at most 64 ways (victim selection passes a one-word way mask), the
    /// size must divide into `ways` ways of kLineSize-byte lines, the set
    /// count must be a power of two and the replacement policy must take
    /// the ways. CacheArray and validateConfig both ask here.
    std::string problem() const
    {
        if (ways > ReplacementPolicy::kMaxWays)
            return "ways must be at most 64";
        const std::uint64_t lines = sizeBytes / kLineSize;
        if (ways == 0 || lines == 0 || lines % ways != 0)
            return "cache size not divisible into ways";
        if (!std::has_single_bit(lines / ways))
            return "set count must be a power of two";
        if (replacement == ReplacementKind::kTreePlru &&
            !TreePlruPolicy::takesWays(ways))
            return TreePlruPolicy::kWaysRule;
        return {};
    }

    /// Throws std::invalid_argument with problem(), if any.
    std::uint32_t sets() const
    {
        if (const std::string why = problem(); !why.empty())
            throw std::invalid_argument(why);
        return static_cast<std::uint32_t>(sizeBytes / kLineSize / ways);
    }
};

template <typename MetaT>
class CacheArray {
public:
    struct Line {
        Addr base = 0; ///< line-aligned physical address
        bool valid = false;
        MetaT meta{};
        DataBlock data;
    };

    explicit CacheArray(const CacheGeometry& geom)
        : geom_(geom),
          sets_(geom.sets()),
          lines_(static_cast<std::size_t>(sets_) * geom.ways),
          policy_(ReplacementPolicy::create(geom.replacement, sets_, geom.ways,
                                            geom.replacementSeed))
    {
    }

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return geom_.ways; }
    std::uint64_t sizeBytes() const { return geom_.sizeBytes; }

    std::uint32_t setIndex(Addr a) const
    {
        return static_cast<std::uint32_t>((lineNumber(a) >> geom_.setShift) &
                                          (sets_ - 1));
    }

    /// Finds the valid line holding @p a, or nullptr. Does not touch LRU.
    Line* find(Addr a)
    {
        const Addr base = lineAlign(a);
        const std::uint32_t set = setIndex(a);
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
            Line& line = at(set, w);
            if (line.valid && line.base == base)
                return &line;
        }
        return nullptr;
    }

    const Line* find(Addr a) const
    {
        return const_cast<CacheArray*>(this)->find(a);
    }

    /// Marks a hit on the line holding @p a for the replacement policy.
    void touch(Addr a)
    {
        const Addr base = lineAlign(a);
        const std::uint32_t set = setIndex(a);
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
            if (at(set, w).valid && at(set, w).base == base) {
                policy_->touch(set, w);
                return;
            }
        }
    }

    /// Returns an invalid way in @p a's set, or nullptr if the set is full.
    Line* findFreeWay(Addr a)
    {
        const std::uint32_t set = setIndex(a);
        for (std::uint32_t w = 0; w < geom_.ways; ++w)
            if (!at(set, w).valid)
                return &at(set, w);
        return nullptr;
    }

    /// Selects a victim among valid lines in @p a's set for which
    /// @p evictable returns true. Returns nullptr when nothing is evictable
    /// (every way pinned by an in-flight transaction).
    template <typename Pred>
    Line* selectVictim(Addr a, Pred&& evictable)
    {
        const std::uint32_t set = setIndex(a);
        std::uint64_t candidates = 0;
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
            Line& line = at(set, w);
            if (line.valid && evictable(line))
                candidates |= std::uint64_t{1} << w;
        }
        if (candidates == 0)
            return nullptr;
        return &at(set, policy_->victim(set, candidates));
    }

    /// Installs @p a into the given (invalid) way and returns the line.
    Line& install(Line& way, Addr a)
    {
        assert(!way.valid);
        way.base = lineAlign(a);
        way.valid = true;
        way.meta = MetaT{};
        const std::uint32_t set = setIndex(a);
        policy_->fill(set, wayOf(set, way));
        return way;
    }

    void invalidate(Line& line)
    {
        line.valid = false;
        line.meta = MetaT{};
    }

    /// Iterates over every valid line (for invariant checks and flushes).
    template <typename Fn>
    void forEachValid(Fn&& fn)
    {
        for (auto& line : lines_)
            if (line.valid)
                fn(line);
    }
    template <typename Fn>
    void forEachValid(Fn&& fn) const
    {
        for (const auto& line : lines_)
            if (line.valid)
                fn(line);
    }

    /// Counts valid lines in @p a's set matching @p pred.
    template <typename Pred>
    std::uint32_t countInSet(Addr a, Pred&& pred) const
    {
        const std::uint32_t set =
            const_cast<CacheArray*>(this)->setIndex(a);
        std::uint32_t n = 0;
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
            const Line& line =
                lines_[static_cast<std::size_t>(set) * geom_.ways + w];
            if (line.valid && pred(line))
                ++n;
        }
        return n;
    }

    /// Number of valid lines (for occupancy stats).
    std::size_t validLines() const
    {
        std::size_t n = 0;
        for (const auto& line : lines_)
            n += line.valid ? 1 : 0;
        return n;
    }

    /// Every way in index order (valid flag, then tag, the meta @p meta
    /// archives and data) plus the replacement-policy state. Geometry is
    /// config-derived; restore runs on an identically configured array.
    template <class Self, class Ar, class Meta>
    static void snapState(Self& self, Ar& ar, Meta&& meta)
    {
        for (auto& line : self.lines_) {
            if constexpr (Ar::kLoading) {
                line.base = 0;
                line.meta = MetaT{};
            }
            ar.flag(line.valid);
            if (!line.valid)
                continue;
            ar.u64(line.base);
            meta(ar, line.meta);
            ar.bytes(line.data.data(), kLineSize);
        }
        if constexpr (Ar::kLoading)
            self.policy_->snapRestore(ar);
        else
            self.policy_->snapSave(ar);
    }

private:
    Line& at(std::uint32_t set, std::uint32_t way)
    {
        return lines_[static_cast<std::size_t>(set) * geom_.ways + way];
    }

    std::uint32_t wayOf(std::uint32_t set, const Line& line) const
    {
        const auto idx = static_cast<std::size_t>(&line - lines_.data());
        return static_cast<std::uint32_t>(idx - static_cast<std::size_t>(set) * geom_.ways);
    }

    CacheGeometry geom_;
    std::uint32_t sets_;
    std::vector<Line> lines_;
    std::unique_ptr<ReplacementPolicy> policy_;
};

} // namespace dscoh
