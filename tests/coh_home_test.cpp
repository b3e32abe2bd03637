// Directed tests of the home controller: per-line serialization, the owner
// registry (stale-writeback filtering), exclusive grants, and quiescence
// bookkeeping. Uses the same two-agent harness as coh_protocol_test but
// observes the home side.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "coherence/cache_agent.h"
#include "coherence/home_controller.h"
#include "coherence/home_map.h"
#include "mem/dram.h"
#include "net/network.h"
#include "sim/sim_context.h"

namespace dscoh {
namespace {

constexpr NodeId kAgentA = 0;
constexpr NodeId kAgentB = 1;
constexpr NodeId kHome = 2;

/// Agent A is the map's CPU agent and agent B its one GPU slice, so a
/// broadcast snoops both and node 2 is the home.
const HomeMap kMap(1, ShardPolicy::kPage);

struct HomeFixture : ::testing::Test {
    SimContext ctx;
    EventQueue& queue = ctx.queue;
    BackingStore store{1 << 20};
    Dram dram{"dram", ctx, store};
    Network req{"req", ctx, NetworkParams{10, 32}};
    Network fwd{"fwd", ctx, NetworkParams{10, 32}};
    Network resp{"resp", ctx, NetworkParams{10, 32}};
    StatRegistry stats;

    std::unique_ptr<HomeController> home;
    std::unique_ptr<CacheAgent> a;
    std::unique_ptr<CacheAgent> b;

    void SetUp() override
    {
        HomeController::Params hp;
        hp.self = kHome;
        hp.requestNet = &req;
        hp.forwardNet = &fwd;
        hp.responseNet = &resp;
        hp.dram = &dram;
        hp.store = &store;
        hp.homeMap = kMap;
        home = std::make_unique<HomeController>("home", ctx, std::move(hp));

        CacheAgent::Params p;
        p.geometry.sizeBytes = 1024; // 4 sets x 2 ways: evictions are easy
        p.geometry.ways = 2;
        p.mshrs = 8;
        p.writebackEntries = 4;
        p.homeMap = kMap;
        p.requestNet = &req;
        p.forwardNet = &fwd;
        p.responseNet = &resp;
        p.self = kAgentA;
        a = std::make_unique<CacheAgent>("agentA", ctx, p);
        p.self = kAgentB;
        b = std::make_unique<CacheAgent>("agentB", ctx, p);

        req.connect(kHome, [this](const Message& m) { home->handleRequest(m); });
        resp.connect(kHome, [this](const Message& m) { home->handleResponse(m); });
        fwd.connect(kAgentA, [this](const Message& m) { a->handleForward(m); });
        resp.connect(kAgentA, [this](const Message& m) { a->handleResponse(m); });
        fwd.connect(kAgentB, [this](const Message& m) { b->handleForward(m); });
        resp.connect(kAgentB, [this](const Message& m) { b->handleResponse(m); });
        home->regStats(stats);
    }

    void store8(CacheAgent& agent, Addr addr, std::uint64_t value)
    {
        agent.access(addr, true, [addr, value](CacheAgent::Line& line) {
            line.data.write(lineOffset(addr), value, 8);
        });
    }
};

TEST_F(HomeFixture, OwnerRegistryTracksGetX)
{
    EXPECT_EQ(home->registeredOwner(0x100), kInvalidNode);
    store8(*a, 0x100, 1);
    queue.run();
    EXPECT_EQ(home->registeredOwner(0x100), kAgentA);
    store8(*b, 0x100, 2);
    queue.run();
    EXPECT_EQ(home->registeredOwner(0x100), kAgentB);
}

TEST_F(HomeFixture, OwnerClearsOnAcceptedWriteback)
{
    store8(*a, 0x0, 7);
    queue.run();
    // Conflict-fill the set to evict line 0 (4 sets -> stride 4 lines).
    const Addr stride = 4 * kLineSize;
    store8(*a, stride, 8);
    store8(*a, 2 * stride, 9);
    queue.run();
    EXPECT_EQ(stats.counter("home.puts_accepted"), 1u);
    // One of {0x0, stride} was evicted; its owner entry must be cleared.
    const bool cleared = home->registeredOwner(0x0) == kInvalidNode ||
                         home->registeredOwner(stride) == kInvalidNode;
    EXPECT_TRUE(cleared);
    EXPECT_TRUE(home->quiescent());
}

TEST_F(HomeFixture, StaleWritebackIsDroppedNotWritten)
{
    // a owns the line dirty, then evicts while b concurrently takes
    // ownership: whichever Put loses the race at home must be dropped and
    // memory must end consistent with b's newer data.
    const Addr stride = 4 * kLineSize;
    store8(*a, 0x0, 0xaaaa);
    queue.run();
    // Trigger a's eviction of 0x0 and b's GetX at the same time.
    store8(*a, stride, 1);
    store8(*a, 2 * stride, 2);
    store8(*b, 0x0, 0xbbbb);
    queue.run();
    EXPECT_TRUE(home->quiescent());
    EXPECT_EQ(b->stateOf(0x0), CohState::kMM);
    // Drain b's dirty copy through a forced eviction and check memory.
    store8(*b, stride, 3);
    store8(*b, 2 * stride, 4);
    store8(*b, 3 * stride, 5);
    queue.run();
    // Wherever the line ended up, a fresh read must see 0xbbbb.
    std::uint64_t seen = 0;
    a->access(0x0, false, [&seen](CacheAgent::Line& line) {
        seen = line.data.read(0, 8);
    });
    queue.run();
    EXPECT_EQ(seen, 0xbbbbu);
}

TEST_F(HomeFixture, PerLineSerializationQueuesConcurrentRequests)
{
    for (int i = 0; i < 6; ++i) {
        auto& agent = i % 2 == 0 ? *a : *b;
        store8(agent, 0x200, static_cast<std::uint64_t>(i));
    }
    queue.run();
    EXPECT_GT(stats.counter("home.queued_requests"), 0u)
        << "same-line requests must serialize through the busy queue";
    EXPECT_TRUE(home->quiescent());
}

TEST_F(HomeFixture, MemoryDataOnlyWhenNoCacheSupplies)
{
    // Cold read: memory supplies. Second agent's read: owner supplies and
    // home must NOT send a second (stale) data message.
    std::uint64_t v1 = 0;
    a->access(0x300, false, [&v1](CacheAgent::Line& l) { v1 = l.data.read(0, 8); });
    queue.run();
    EXPECT_EQ(stats.counter("home.mem_data_sent"), 1u);
    std::uint64_t v2 = 0;
    b->access(0x300, false, [&v2](CacheAgent::Line& l) { v2 = l.data.read(0, 8); });
    queue.run();
    EXPECT_EQ(stats.counter("home.mem_data_sent"), 1u)
        << "the M-state owner supplied; memory data must be suppressed";
}

TEST_F(HomeFixture, ExclusiveGrantOnlyWhenNoSharer)
{
    a->access(0x400, false, [](CacheAgent::Line&) {});
    queue.run();
    EXPECT_EQ(a->stateOf(0x400), CohState::kM) << "cold read earns M";
    b->access(0x400, false, [](CacheAgent::Line&) {});
    queue.run();
    EXPECT_EQ(b->stateOf(0x400), CohState::kS)
        << "second reader must not be granted exclusivity";
}

TEST_F(HomeFixture, SnoopCountsMatchBroadcastSet)
{
    a->access(0x500, false, [](CacheAgent::Line&) {});
    queue.run();
    // One other agent in the broadcast set -> exactly one snoop.
    EXPECT_EQ(stats.counter("home.snoops_sent"), 1u);
    EXPECT_EQ(stats.counter("home.transactions"), 1u);
}

TEST(HomeMapPolicies, SingleShardHomesEverythingAtZero)
{
    for (const ShardPolicy p :
         {ShardPolicy::kPage, ShardPolicy::kLine, ShardPolicy::kRange}) {
        const HomeMap map(1, p);
        EXPECT_EQ(map.homeOf(0), 0u);
        EXPECT_EQ(map.homeOf(0xdead'beef), 0u);
    }
    // shards == 0 degenerates to the single-GPU map instead of dividing
    // by zero.
    EXPECT_EQ(HomeMap(0, ShardPolicy::kPage).shards(), 1u);
}

TEST(HomeMapPolicies, PageInterleavesByPageNumber)
{
    const HomeMap map(4, ShardPolicy::kPage);
    for (std::uint64_t page = 0; page < 16; ++page) {
        const Addr base = page * kPageSize;
        const std::uint32_t home = map.homeOf(base);
        EXPECT_EQ(home, page % 4);
        // Every line of a page shares its home.
        EXPECT_EQ(map.homeOf(base + kLineSize), home);
        EXPECT_EQ(map.homeOf(base + kPageSize - 1), home);
    }
}

TEST(HomeMapPolicies, LineInterleavesByLineNumber)
{
    const HomeMap map(2, ShardPolicy::kLine);
    EXPECT_EQ(map.homeOf(0), 0u);
    EXPECT_EQ(map.homeOf(kLineSize), 1u);
    EXPECT_EQ(map.homeOf(2 * kLineSize), 0u);
    // Sub-line offsets never change the home.
    EXPECT_EQ(map.homeOf(kLineSize + kLineSize - 1), 1u);
}

TEST(HomeMapPolicies, RangeKeepsContiguousPageRunsTogether)
{
    const HomeMap map(2, ShardPolicy::kRange);
    const Addr rangeBytes = HomeMap::kRangePages * kPageSize;
    EXPECT_EQ(map.homeOf(0), 0u);
    EXPECT_EQ(map.homeOf(rangeBytes - 1), 0u);
    EXPECT_EQ(map.homeOf(rangeBytes), 1u);
    EXPECT_EQ(map.homeOf(2 * rangeBytes - 1), 1u);
    EXPECT_EQ(map.homeOf(2 * rangeBytes), 0u);
}

TEST(HomeMapPolicies, ParseShardPolicyRoundTrips)
{
    ShardPolicy p = ShardPolicy::kPage;
    for (const ShardPolicy want :
         {ShardPolicy::kLine, ShardPolicy::kRange, ShardPolicy::kPage}) {
        EXPECT_TRUE(parseShardPolicy(to_string(want), p));
        EXPECT_EQ(p, want);
    }
    EXPECT_FALSE(parseShardPolicy("diagonal", p));
    EXPECT_EQ(p, ShardPolicy::kPage) << "failed parse must not write";
}

TEST(HomeMapRouting, MatchesTheReferenceFormulas)
{
    // The routing value against the reference formulas, written out: for
    // 1, 2 and 4 GPUs under every shard policy, over a run of addresses
    // (line offsets included), the slice nodes, the home node and the
    // snoop peers agree, and so does the node-id layout.
    constexpr std::uint32_t kSlices = 4;
    constexpr std::uint32_t kCores = 2;
    constexpr std::uint32_t kSms = 3;
    for (const std::uint32_t gpus : {1u, 2u, 4u}) {
        for (const ShardPolicy policy :
             {ShardPolicy::kPage, ShardPolicy::kLine, ShardPolicy::kRange}) {
            SCOPED_TRACE(std::to_string(gpus) + " GPUs, " + to_string(policy));
            const HomeMap map(gpus, policy, kSlices, kCores, kSms);
            const auto homeGpu = [&](Addr pa) -> std::uint32_t {
                if (gpus == 1)
                    return 0;
                if (policy == ShardPolicy::kLine)
                    return static_cast<std::uint32_t>(pa / kLineSize % gpus);
                if (policy == ShardPolicy::kRange)
                    return static_cast<std::uint32_t>(
                        pa / (16 * kPageSize) % gpus);
                return static_cast<std::uint32_t>(pa / kPageSize % gpus);
            };
            // GPU g's slice for pa: the slice interleave masks line bits.
            const auto sliceOnGpu = [&](Addr pa, std::uint32_t g) {
                return 1 + g * kSlices +
                       static_cast<NodeId>((pa / kLineSize) & (kSlices - 1));
            };
            for (Addr pa = 0; pa < 128 * kPageSize; pa += kLineSize + 24) {
                const std::uint32_t home = homeGpu(pa);
                ASSERT_EQ(map.homeOf(pa), home) << std::hex << pa;
                // The home GPU's slice, in its mask and its modulo form.
                ASSERT_EQ(map.homeSlice(pa), sliceOnGpu(pa, home));
                ASSERT_EQ(map.homeSlice(pa),
                          1 + home * kSlices + (pa / kLineSize) % kSlices);
                // The home shard: shard 0's node plus the home GPU.
                ASSERT_EQ(map.homeNodeOf(pa), 1 + gpus * kSlices + home);
                // The home's broadcast: the CPU agent, then GPU 0..G-1.
                std::vector<NodeId> want{0};
                for (std::uint32_t g = 0; g < gpus; ++g) {
                    want.push_back(sliceOnGpu(pa, g));
                    ASSERT_EQ(map.sliceOn(g, pa), sliceOnGpu(pa, g));
                }
                std::vector<NodeId> peers;
                map.forEachHolder(pa, [&](NodeId n) { peers.push_back(n); });
                ASSERT_EQ(peers, want) << std::hex << pa;
            }
            for (std::uint32_t c = 0; c < kCores; ++c)
                EXPECT_EQ(map.cpuCoreNode(c), 1 + gpus * kSlices + gpus + c);
            for (std::uint32_t g = 0; g < gpus; ++g)
                for (std::uint32_t i = 0; i < kSms; ++i)
                    EXPECT_EQ(map.smNode(g, i), 1 + gpus * kSlices + gpus +
                                                    kCores + g * kSms + i);
        }
    }
}

TEST_F(HomeFixture, QuiescentReflectsInFlightTransactions)
{
    EXPECT_TRUE(home->quiescent());
    a->access(0x600, false, [](CacheAgent::Line&) {});
    // Before the event loop runs the transaction cannot have completed.
    queue.runUntil(queue.curTick() + 15);
    EXPECT_FALSE(home->quiescent());
    queue.run();
    EXPECT_TRUE(home->quiescent());
}

} // namespace
} // namespace dscoh
