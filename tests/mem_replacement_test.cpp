#include <gtest/gtest.h>

#include "mem/replacement.h"

namespace dscoh {
namespace {

/// The candidate mask with every one of @p ways ways set.
std::uint64_t all(std::uint32_t ways) { return (std::uint64_t{1} << ways) - 1; }

TEST(Replacement, KindParsing)
{
    EXPECT_EQ(replacementKindFromString("lru"), ReplacementKind::kLru);
    EXPECT_EQ(replacementKindFromString("tree-plru"), ReplacementKind::kTreePlru);
    EXPECT_EQ(replacementKindFromString("random"), ReplacementKind::kRandom);
    EXPECT_THROW(replacementKindFromString("mru"), std::invalid_argument);
    EXPECT_EQ(to_string(ReplacementKind::kLru), "lru");
}

TEST(Lru, EvictsOldest)
{
    LruPolicy lru(1, 4);
    lru.touch(0, 0);
    lru.touch(0, 1);
    lru.touch(0, 2);
    lru.touch(0, 3);
    EXPECT_EQ(lru.victim(0, all(4)), 0u);
    lru.touch(0, 0);
    EXPECT_EQ(lru.victim(0, all(4)), 1u);
}

TEST(Lru, RespectsCandidateMask)
{
    LruPolicy lru(1, 4);
    for (std::uint32_t w = 0; w < 4; ++w)
        lru.touch(0, w);
    EXPECT_EQ(lru.victim(0, 0b1100), 2u);
}

TEST(Lru, SetsAreIndependent)
{
    LruPolicy lru(2, 2);
    lru.touch(0, 0);
    lru.touch(0, 1);
    lru.touch(1, 1);
    lru.touch(1, 0);
    EXPECT_EQ(lru.victim(0, all(2)), 0u);
    EXPECT_EQ(lru.victim(1, all(2)), 1u);
}

TEST(TreePlru, RequiresPowerOfTwoWays)
{
    EXPECT_THROW(TreePlruPolicy p(1, 3), std::invalid_argument);
    EXPECT_THROW(TreePlruPolicy p(1, 1), std::invalid_argument);
    EXPECT_NO_THROW(TreePlruPolicy p(1, 8));
}

TEST(TreePlru, VictimAvoidsRecentlyTouched)
{
    TreePlruPolicy plru(1, 4);
    // Touch everything, then re-touch way 2; the victim must not be 2.
    for (std::uint32_t w = 0; w < 4; ++w)
        plru.touch(0, w);
    plru.touch(0, 2);
    EXPECT_NE(plru.victim(0, all(4)), 2u);
}

TEST(TreePlru, FallsBackWhenChoicePinned)
{
    TreePlruPolicy plru(1, 4);
    for (std::uint32_t w = 0; w < 4; ++w)
        plru.touch(0, w);
    // Only way 3 is a candidate; whatever the tree says, we must get 3.
    EXPECT_EQ(plru.victim(0, 0b1000), 3u);
}

TEST(TreePlru, NeverPicksNonCandidate)
{
    TreePlruPolicy plru(4, 8);
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const auto set = static_cast<std::uint32_t>(rng.below(4));
        plru.touch(set, static_cast<std::uint32_t>(rng.below(8)));
        const auto cand = static_cast<std::uint32_t>(rng.below(8));
        EXPECT_EQ(plru.victim(set, std::uint64_t{1} << cand), cand);
    }
}

TEST(Random, DeterministicForSeedAndUniformish)
{
    RandomPolicy a(1, 4, 99);
    RandomPolicy b(1, 4, 99);
    std::vector<std::uint32_t> counts(4, 0);
    for (int i = 0; i < 400; ++i) {
        const auto va = a.victim(0, all(4));
        EXPECT_EQ(va, b.victim(0, all(4)));
        ++counts[va];
    }
    for (const auto c : counts)
        EXPECT_GT(c, 50u); // roughly uniform
}

TEST(Random, HonorsCandidates)
{
    RandomPolicy p(1, 4, 5);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(p.victim(0, 0b0010), 1u);
}

TEST(Factory, CreatesRequestedKind)
{
    auto lru = ReplacementPolicy::create(ReplacementKind::kLru, 2, 4);
    auto plru = ReplacementPolicy::create(ReplacementKind::kTreePlru, 2, 4);
    auto rnd = ReplacementPolicy::create(ReplacementKind::kRandom, 2, 4, 7);
    EXPECT_NE(dynamic_cast<LruPolicy*>(lru.get()), nullptr);
    EXPECT_NE(dynamic_cast<TreePlruPolicy*>(plru.get()), nullptr);
    EXPECT_NE(dynamic_cast<RandomPolicy*>(rnd.get()), nullptr);
}

} // namespace
} // namespace dscoh
