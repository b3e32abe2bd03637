// Directed tests of the Hammer-style MOESI protocol using two plain cache
// agents and a home controller, covering the stable-state transitions of
// the paper's Fig. 3 and the transient races the implementation must
// survive.
#include <gtest/gtest.h>

#include <memory>

#include "coherence/cache_agent.h"
#include "coherence/home_controller.h"
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

struct ProtoFixture : ::testing::Test {
    SimContext ctx;
    EventQueue& queue = ctx.queue;
    BackingStore store{1 << 20};
    Dram dram{"dram", ctx, store};
    Network req{"req", ctx, NetworkParams{10, 32}};
    Network fwd{"fwd", ctx, NetworkParams{10, 32}};
    Network resp{"resp", ctx, NetworkParams{10, 32}};

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

        a = std::make_unique<CacheAgent>("agentA", ctx, agentParams(kAgentA));
        b = std::make_unique<CacheAgent>("agentB", ctx, agentParams(kAgentB));

        req.connect(kHome, [this](const Message& m) { home->handleRequest(m); });
        resp.connect(kHome, [this](const Message& m) { home->handleResponse(m); });
        fwd.connect(kAgentA, [this](const Message& m) { a->handleForward(m); });
        resp.connect(kAgentA, [this](const Message& m) { a->handleResponse(m); });
        fwd.connect(kAgentB, [this](const Message& m) { b->handleForward(m); });
        resp.connect(kAgentB, [this](const Message& m) { b->handleResponse(m); });
    }

    CacheAgent::Params agentParams(NodeId self)
    {
        CacheAgent::Params p;
        p.geometry.sizeBytes = 2 * 1024; // 16 lines: 8 sets x 2 ways
        p.geometry.ways = 2;
        p.mshrs = 8;
        p.writebackEntries = 4;
        p.self = self;
        p.homeMap = kMap;
        p.requestNet = &req;
        p.forwardNet = &fwd;
        p.responseNet = &resp;
        return p;
    }

    /// Issues a blocking-style load; returns the loaded 8-byte value via out.
    void load(CacheAgent& agent, Addr addr, std::uint64_t* out = nullptr)
    {
        agent.access(addr, false, [addr, out](CacheAgent::Line& line) {
            if (out != nullptr)
                *out = line.data.read(lineOffset(addr), 8);
        });
    }

    void storeWord(CacheAgent& agent, Addr addr, std::uint64_t value)
    {
        agent.access(addr, true, [addr, value](CacheAgent::Line& line) {
            line.data.write(lineOffset(addr), value, 8);
        });
    }
};

TEST_F(ProtoFixture, ColdLoadGetsExclusiveCleanM)
{
    store.line(0x1000).write(0, 42, 8);
    std::uint64_t v = 0;
    load(*a, 0x1000, &v);
    queue.run();
    EXPECT_EQ(v, 42u);
    EXPECT_EQ(a->stateOf(0x1000), CohState::kM);
    EXPECT_EQ(b->stateOf(0x1000), CohState::kI);
    EXPECT_TRUE(home->quiescent());
}

TEST_F(ProtoFixture, SecondReaderDowngradesOwnerToO)
{
    store.line(0x1000).write(0, 7, 8);
    load(*a, 0x1000);
    queue.run();
    std::uint64_t v = 0;
    load(*b, 0x1000, &v);
    queue.run();
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(a->stateOf(0x1000), CohState::kO);
    EXPECT_EQ(b->stateOf(0x1000), CohState::kS);
}

TEST_F(ProtoFixture, ColdStoreBecomesMM)
{
    storeWord(*a, 0x2000, 0xbeef);
    queue.run();
    EXPECT_EQ(a->stateOf(0x2000), CohState::kMM);
    std::uint64_t v = 0;
    load(*a, 0x2000, &v);
    queue.run();
    EXPECT_EQ(v, 0xbeefu);
}

TEST_F(ProtoFixture, StoreToSharedUpgradesAndInvalidatesSharer)
{
    load(*a, 0x3000);
    queue.run();
    load(*b, 0x3000);
    queue.run();
    ASSERT_EQ(b->stateOf(0x3000), CohState::kS);

    storeWord(*b, 0x3000, 0x11);
    queue.run();
    EXPECT_EQ(b->stateOf(0x3000), CohState::kMM);
    EXPECT_EQ(a->stateOf(0x3000), CohState::kI);
}

TEST_F(ProtoFixture, StoresNotAllowedInMUpgradeViaGetX)
{
    // The paper: "Stores are not allowed in state M" — a store to an
    // M (exclusive clean) line must re-request exclusivity.
    load(*a, 0x4000);
    queue.run();
    ASSERT_EQ(a->stateOf(0x4000), CohState::kM);
    StatRegistry reg;
    a->regStats(reg);
    const auto beforeGetX = reg.counter("agentA.getx_issued");
    storeWord(*a, 0x4000, 5);
    queue.run();
    EXPECT_EQ(a->stateOf(0x4000), CohState::kMM);
    EXPECT_EQ(reg.counter("agentA.getx_issued"), beforeGetX + 1);
}

TEST_F(ProtoFixture, DirtyDataForwardedToNewOwner)
{
    storeWord(*a, 0x5000, 0xabcdef);
    queue.run();
    std::uint64_t v = 0;
    load(*b, 0x5000, &v);
    queue.run();
    EXPECT_EQ(v, 0xabcdefu) << "owner must supply its dirty data";
    EXPECT_EQ(a->stateOf(0x5000), CohState::kO);
    EXPECT_EQ(b->stateOf(0x5000), CohState::kS);
}

TEST_F(ProtoFixture, GetXTransfersDirtyOwnership)
{
    storeWord(*a, 0x6000, 0x111);
    queue.run();
    std::uint64_t v = 0;
    b->access(0x6000, true, [&v](CacheAgent::Line& line) {
        v = line.data.read(0, 8);
        line.data.write(0, 0x222, 8);
    });
    queue.run();
    EXPECT_EQ(v, 0x111u) << "new owner sees previous dirty data before writing";
    EXPECT_EQ(b->stateOf(0x6000), CohState::kMM);
    EXPECT_EQ(a->stateOf(0x6000), CohState::kI);
}

TEST_F(ProtoFixture, EvictionWritesBackDirtyData)
{
    // 8 sets x 2 ways; lines 0x0 + k*setsize collide in set 0.
    const Addr stride = 8 * kLineSize;
    storeWord(*a, 0 * stride, 100);
    storeWord(*a, 1 * stride, 101);
    queue.run();
    storeWord(*a, 2 * stride, 102); // evicts one of the first two
    queue.run();
    EXPECT_TRUE(home->quiescent());
    // Exactly one of the first two lines was written back to memory.
    const std::uint64_t m0 = store.readLine(0).read(0, 8);
    const std::uint64_t m1 = store.readLine(stride).read(0, 8);
    EXPECT_TRUE((m0 == 100) != (m1 == 101))
        << "exactly one victim written back, got " << m0 << "/" << m1;
    EXPECT_EQ(a->writebacks(), 1u);
}

TEST_F(ProtoFixture, ReloadAfterWritebackReadsMemoryValue)
{
    const Addr stride = 8 * kLineSize;
    for (int i = 0; i < 3; ++i)
        storeWord(*a, static_cast<Addr>(i) * stride, 200 + static_cast<std::uint64_t>(i));
    queue.run();
    // All three were stored; at least one was evicted. Loading each back
    // must return the stored value regardless of where it now lives.
    for (int i = 0; i < 3; ++i) {
        std::uint64_t v = 0;
        load(*a, static_cast<Addr>(i) * stride, &v);
        queue.run();
        EXPECT_EQ(v, 200u + static_cast<std::uint64_t>(i));
    }
}

TEST_F(ProtoFixture, CrossAgentReadAfterEviction)
{
    const Addr stride = 8 * kLineSize;
    for (int i = 0; i < 4; ++i)
        storeWord(*a, static_cast<Addr>(i) * stride, 300 + static_cast<std::uint64_t>(i));
    queue.run();
    for (int i = 0; i < 4; ++i) {
        std::uint64_t v = 0;
        load(*b, static_cast<Addr>(i) * stride, &v);
        queue.run();
        EXPECT_EQ(v, 300u + static_cast<std::uint64_t>(i));
    }
}

TEST_F(ProtoFixture, ConcurrentStoresSerializeToOneOwner)
{
    storeWord(*a, 0x7000, 0xaaaa);
    storeWord(*b, 0x7000, 0xbbbb);
    queue.run();
    const CohState sa = a->stateOf(0x7000);
    const CohState sb = b->stateOf(0x7000);
    EXPECT_TRUE((sa == CohState::kMM && sb == CohState::kI) ||
                (sa == CohState::kI && sb == CohState::kMM))
        << "exactly one winner, got " << to_string(sa) << "/" << to_string(sb);
    // The final value is whichever store serialized last.
    std::uint64_t v = 0;
    load(*a, 0x7000, &v);
    queue.run();
    EXPECT_TRUE(v == 0xaaaa || v == 0xbbbb);
}

TEST_F(ProtoFixture, ConcurrentLoadAndStoreBothComplete)
{
    store.line(0x8000).write(0, 0x42, 8);
    std::uint64_t loaded = 0;
    load(*a, 0x8000, &loaded);
    storeWord(*b, 0x8000, 0x99);
    queue.run();
    EXPECT_TRUE(loaded == 0x42 || loaded == 0x99);
    EXPECT_EQ(b->stateOf(0x8000), CohState::kMM);
    EXPECT_TRUE(home->quiescent());
}

TEST_F(ProtoFixture, MshrMergesSecondaryLoads)
{
    store.line(0x9000).write(0, 5, 8);
    std::uint64_t v1 = 0;
    std::uint64_t v2 = 0;
    load(*a, 0x9000, &v1);
    load(*a, 0x9000 + 8, &v2); // same line, while miss outstanding
    queue.run();
    EXPECT_EQ(v1, 5u);
    EXPECT_EQ(v2, 0u);
    StatRegistry reg;
    a->regStats(reg);
    EXPECT_EQ(reg.counter("agentA.gets_issued"), 1u)
        << "second load must merge, not issue a new GetS";
}

TEST_F(ProtoFixture, StoreMergedIntoLoadMissUpgradesAfterFill)
{
    std::uint64_t loaded = 0;
    load(*a, 0xa000, &loaded);
    storeWord(*a, 0xa000, 0x77); // queued behind the GetS
    queue.run();
    EXPECT_EQ(a->stateOf(0xa000), CohState::kMM);
    std::uint64_t v = 0;
    load(*a, 0xa000, &v);
    queue.run();
    EXPECT_EQ(v, 0x77u);
}

TEST_F(ProtoFixture, OwnerEvictionRaceWithRemoteGetX)
{
    // a holds MM, then evicts (Put in flight) while b requests exclusive.
    // Whatever the interleaving, b must end with the data and memory must
    // not be corrupted afterwards.
    const Addr stride = 8 * kLineSize;
    storeWord(*a, 0, 0x1234);
    queue.run();
    // Force eviction of line 0 by filling set 0.
    storeWord(*a, stride, 1);
    storeWord(*a, 2 * stride, 2); // one of these evicts line 0
    std::uint64_t v = 0;
    b->access(0, true, [&v](CacheAgent::Line& line) {
        v = line.data.read(0, 8);
        line.data.write(0, 0x5678, 8);
    });
    queue.run();
    EXPECT_EQ(v, 0x1234u);
    EXPECT_EQ(b->stateOf(0), CohState::kMM);
    EXPECT_TRUE(home->quiescent());
    // b's MM copy is the truth; a later writeback from b must win.
    std::uint64_t v2 = 0;
    load(*a, 0, &v2);
    queue.run();
    EXPECT_EQ(v2, 0x5678u);
}

TEST_F(ProtoFixture, SnoopDuringWritebackSuppliesData)
{
    const Addr stride = 8 * kLineSize;
    storeWord(*a, 0, 0x42);
    storeWord(*a, stride, 0x43);
    queue.run();
    storeWord(*a, 2 * stride, 0x44); // evict one MM line -> Put in flight
    std::uint64_t v = 0;
    load(*b, 0, &v); // may snoop the writeback buffer
    queue.run();
    EXPECT_EQ(v, 0x42u);
    EXPECT_TRUE(home->quiescent());
}

TEST_F(ProtoFixture, QuiescentAfterMixedTraffic)
{
    for (int i = 0; i < 20; ++i) {
        const Addr addr = static_cast<Addr>(i % 5) * kLineSize;
        if (i % 2 == 0)
            storeWord(*a, addr, static_cast<std::uint64_t>(i));
        else
            load(*b, addr);
    }
    queue.run();
    EXPECT_TRUE(home->quiescent());
    // Every line must be in a stable state at both agents.
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(isStable(a->stateOf(static_cast<Addr>(i) * kLineSize)));
        EXPECT_TRUE(isStable(b->stateOf(static_cast<Addr>(i) * kLineSize)));
    }
}

} // namespace
} // namespace dscoh
