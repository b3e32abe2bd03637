// Directed tests of request parking in CacheAgent: the two writeback-buffer
// races (a demand access and a direct-store push to a line still draining
// to memory), the order in which parked requests proceed, and the
// `deferrals` counter, which counts requests parked.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coherence/cache_agent.h"
#include "coherence/home_controller.h"
#include "cpu/cpu_cache_agent.h"
#include "gpu/gpu_l2_slice.h"
#include "mem/dram.h"
#include "net/network.h"
#include "sim/sim_context.h"
#include "sim/stats.h"

namespace dscoh {
namespace {

constexpr NodeId kAgent = 0;
constexpr NodeId kHome = 1;
constexpr NodeId kCpu = 2; ///< direct-store sender (acks land here)

/// A machine with no GPU: the agent is the map's CPU agent, the one cache
/// a broadcast can snoop, and node 1 is the home.
const HomeMap kMap(0, ShardPolicy::kPage);

/// Lines this far apart share a set of the 8-set test geometry.
constexpr Addr kSetStride = 8 * kLineSize;

struct ParkFixture : ::testing::Test {
    SimContext ctx;
    EventQueue& queue = ctx.queue;
    BackingStore store{1 << 20};
    Dram dram{"dram", ctx, store};
    Network req{"req", ctx, NetworkParams{10, 32}};
    Network fwd{"fwd", ctx, NetworkParams{10, 32}};
    Network resp{"resp", ctx, NetworkParams{10, 32}};
    Network gpuNet{"gpu", ctx, NetworkParams{10, 32}};
    Network dsNet{"ds", ctx, NetworkParams{10, 32}};

    std::unique_ptr<HomeController> home;
    std::unique_ptr<CacheAgent> agent;
    StatRegistry stats;
    std::vector<Addr> done; ///< completed requests, in completion order
    int acks = 0;           ///< DsAcks received by the pushing CPU

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
        req.connect(kHome,
                    [this](const Message& m) { home->handleRequest(m); });
        resp.connect(kHome,
                     [this](const Message& m) { home->handleResponse(m); });
        fwd.connect(kAgent,
                    [this](const Message& m) { agent->handleForward(m); });
        resp.connect(kAgent,
                     [this](const Message& m) { agent->handleResponse(m); });
    }

    /// 2 KB, 2-way: 8 sets of 2 lines.
    CacheAgent::Params params(std::size_t mshrs, std::size_t wbEntries = 4)
    {
        CacheAgent::Params p;
        p.geometry.sizeBytes = 2 * 1024;
        p.geometry.ways = 2;
        p.mshrs = mshrs;
        p.writebackEntries = wbEntries;
        p.self = kAgent;
        p.homeMap = kMap;
        p.requestNet = &req;
        p.forwardNet = &fwd;
        p.responseNet = &resp;
        return p;
    }

    template <typename AgentT, typename... Extra>
    AgentT& make(const CacheAgent::Params& p, Extra&&... extra)
    {
        auto owned = std::make_unique<AgentT>("agent", ctx, p,
                                              std::forward<Extra>(extra)...);
        AgentT& ref = *owned;
        agent = std::move(owned);
        agent->regStats(stats);
        return ref;
    }

    void load(Addr addr)
    {
        agent->access(addr, false, [this, addr](CacheAgent::Line&) {
            done.push_back(addr);
        });
    }

    void storeWord(Addr addr, std::uint64_t value)
    {
        agent->access(addr, true, [addr, value](CacheAgent::Line& line) {
            line.data.write(lineOffset(addr), value, 8);
        });
    }

    /// A GPU L2 slice whose direct-store acks are counted in `acks`.
    GpuL2Slice& makeSlice(std::size_t mshrs)
    {
        GpuL2Slice::SliceParams sp;
        sp.tagLatency = 1;
        sp.gpuNet = &gpuNet;
        sp.dsNet = &dsNet;
        sp.dram = &dram;
        dsNet.connect(kCpu, [this](const Message& m) {
            EXPECT_EQ(m.type, MsgType::kDsAck);
            ++acks;
        });
        return make<GpuL2Slice>(params(mshrs), sp);
    }

    /// Delivers a DsPutX of @p value to the first @p bytes of @p base's
    /// line; it reaches the slice one tag latency later.
    void push(GpuL2Slice& slice, Addr base, std::uint64_t value,
              std::uint32_t bytes)
    {
        Message m;
        m.type = MsgType::kDsPutX;
        m.addr = base;
        m.src = kCpu;
        m.dst = kAgent;
        m.requester = kCpu;
        for (std::uint32_t off = 0; off < bytes; off += 8)
            m.data.write(off, value, 8);
        m.mask.set(0, bytes);
        m.dirty = true;
        slice.handleDsMessage(m);
    }

    static CpuCacheAgent::L1Params l1()
    {
        CpuCacheAgent::L1Params p;
        p.geometry.sizeBytes = 1024;
        p.geometry.ways = 2;
        return p;
    }

    std::uint64_t deferrals() { return stats.counter("agent.deferrals"); }
};

// ---------------------------------------------------- writeback races --

TEST_F(ParkFixture, AccessToDrainingLineWaitsForWbAck)
{
    make<CacheAgent>(params(8));
    const Addr x = 0;
    storeWord(x + 8, 0x42);
    queue.run();
    load(x + kSetStride);
    queue.run();
    // Filling the set's second other line evicts x (LRU): its Put is in
    // flight and the line drains through the writeback buffer.
    load(x + 2 * kSetStride);
    ASSERT_EQ(agent->stateOf(x), CohState::kMI_A);

    std::uint64_t seen = 0;
    agent->access(x, false, [&seen](CacheAgent::Line& line) {
        seen = line.data.read(8, 8);
    });
    EXPECT_EQ(agent->blockedRequests(), 1u) << "must wait for the WbAck";
    queue.run();

    // Re-fetched from memory after the writeback landed.
    EXPECT_EQ(seen, 0x42u);
    EXPECT_EQ(agent->stateOf(x), CohState::kM);
    EXPECT_EQ(agent->blockedRequests(), 0u);
    EXPECT_EQ(deferrals(), 1u);
    EXPECT_EQ(stats.counter("agent.gets_issued"), 3u);
    EXPECT_TRUE(home->quiescent());
}

TEST_F(ParkFixture, DsPutXToDrainingLineWaitsForWbAck)
{
    auto& slice = makeSlice(8);
    const Addr x = 0;
    storeWord(x + 8, 0x1111);
    queue.run();
    load(x + kSetStride);
    queue.run();
    load(x + 2 * kSetStride); // evicts x: dirty, so its Put is in flight
    ASSERT_EQ(slice.stateOf(x), CohState::kMI_A);

    // A partial-line push for x lands one tag latency later, long before
    // the WbAck.
    push(slice, x, 0x2222, 8);
    queue.runUntil(queue.curTick() + 1);
    EXPECT_EQ(slice.blockedRequests(), 1u) << "the push must wait";
    queue.run();

    // The push merged over the written-back line: it landed after the
    // WbAck, and its bytes survive.
    EXPECT_EQ(acks, 1);
    EXPECT_EQ(slice.stateOf(x), CohState::kMM);
    const DataBlock* line = slice.peekLine(x);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->read(0, 8), 0x2222u);
    EXPECT_EQ(line->read(8, 8), 0x1111u);
    EXPECT_EQ(slice.blockedRequests(), 0u);
    EXPECT_EQ(stats.counter("agent.ds_stores"), 1u)
        << "a parked push is one direct store, however often it is retried";
    EXPECT_EQ(deferrals(), 1u);
    EXPECT_TRUE(home->quiescent());
}

// ------------------------------------------------------- replay order --

TEST_F(ParkFixture, ParkedRequestsProceedInParkOrderAsSlotsFree)
{
    make<CacheAgent>(params(1));
    for (Addr i = 0; i < 4; ++i)
        load(i * kLineSize); // the first takes the only MSHR
    EXPECT_EQ(agent->blockedRequests(), 3u);
    queue.run();
    EXPECT_EQ(done, (std::vector<Addr>{0, kLineSize, 2 * kLineSize,
                                       3 * kLineSize}));
    EXPECT_EQ(agent->blockedRequests(), 0u);
    EXPECT_EQ(deferrals(), 3u) << "three requests parked, once each";
}

TEST_F(ParkFixture, ParkedAccessKeepsASixtyFourByteCallback)
{
    // The largest capture an AccessDone holds inline rides along in the
    // parked retry: the access parks, wakes and completes with it intact.
    make<CacheAgent>(params(1));
    load(0); // takes the only MSHR
    struct Words {
        std::uint64_t w[7];
    };
    const Words words{{1, 2, 3, 4, 5, 6, 7}};
    std::uint64_t sum = 0;
    std::uint64_t* out = &sum;
    auto callback = [words, out](CacheAgent::Line&) {
        for (const std::uint64_t w : words.w)
            *out += w;
    };
    static_assert(sizeof(callback) == 64);
    static_assert(CacheAgent::AccessDone::fitsInline<decltype(callback)>());
    agent->access(kLineSize, false, std::move(callback));
    EXPECT_EQ(agent->blockedRequests(), 1u) << "the MSHR file is full";
    queue.run();
    EXPECT_EQ(sum, 28u);
    EXPECT_EQ(agent->blockedRequests(), 0u);
    EXPECT_EQ(deferrals(), 1u);
}

TEST_F(ParkFixture, ParkedRequestMergesWhenItsLineGainsAnEntry)
{
    make<CacheAgent>(params(1));
    const Addr x = 0;
    const Addr y = kLineSize;
    const Addr z = 2 * kLineSize;
    const Addr w = 3 * kLineSize;
    // x's completion claims the slot its fill frees for y, so y gains an
    // MSHR entry while the file stays full.
    std::size_t parkedAtFillOfY = 0;
    agent->access(x, false, [this, x, y, &parkedAtFillOfY](CacheAgent::Line&) {
        done.push_back(x);
        agent->access(y, false, [this, y, &parkedAtFillOfY](CacheAgent::Line&) {
            parkedAtFillOfY = agent->blockedRequests();
            done.push_back(y);
        });
    });
    load(z); // parked first
    load(y); // parked second: merges into y's entry at x's replay point
    load(w); // parked third
    EXPECT_EQ(agent->blockedRequests(), 3u);
    queue.run();

    // Parked y merged at x's replay point, so it completes with y's fill,
    // ahead of z (parked before it) and w (parked after it), which wait
    // for the slot in park order.
    EXPECT_EQ(parkedAtFillOfY, 2u);
    EXPECT_EQ(done, (std::vector<Addr>{x, y, y, z, w}));
    EXPECT_EQ(stats.counter("agent.gets_issued"), 4u) << "parked y merged";
    EXPECT_EQ(deferrals(), 3u);
}

TEST_F(ParkFixture, ParkedLoadHitsALineAPushInstalled)
{
    auto& slice = makeSlice(1);
    const Addr x = 0;
    const Addr y = kLineSize;
    const Addr z = 2 * kLineSize;
    // As above, x's completion keeps the file full through its replay.
    agent->access(x, false, [this, x, z](CacheAgent::Line&) {
        done.push_back(x);
        load(z);
    });
    load(y); // parked behind the full file
    push(slice, y, 0x33, kLineSize);
    queue.runUntil(queue.curTick() + 1);
    ASSERT_EQ(slice.stateOf(y), CohState::kM) << "installed, no fetch";
    queue.run();

    // The install let parked y hit at x's replay point, before z's fill.
    EXPECT_EQ(done, (std::vector<Addr>{x, y, z}));
    EXPECT_EQ(acks, 1);
    EXPECT_EQ(stats.counter("agent.gets_issued"), 2u) << "y never missed";
    EXPECT_EQ(deferrals(), 1u);
}

TEST_F(ParkFixture, RequestParkedByARetryLandsRightAfterIt)
{
    auto& cpu = make<CpuCacheAgent>(params(1), l1());
    const Addr line = 0;
    const Addr x = kLineSize;
    const Addr y = 2 * kLineSize;
    const Addr z = 3 * kLineSize;
    storeWord(line, 7);
    queue.run();

    // The remote store writes the dirty line back and parks until the
    // WbAck; its retry then completes and parks a load of z.
    std::size_t inFlightAtReady = 0;
    cpu.prepareRemoteStore(line, [this, z, &inFlightAtReady] {
        inFlightAtReady = agent->mshrInFlight();
        load(z);
    });
    // x's miss starts while the Put is at home, so x still holds the only
    // MSHR when the WbAck arrives.
    queue.runUntil(queue.curTick() + 15);
    load(x);
    load(y); // parked after the remote store
    EXPECT_EQ(agent->blockedRequests(), 2u);
    queue.run();

    // z parked behind the full file during the WbAck's replay, at the
    // remote store's place: ahead of y.
    EXPECT_EQ(inFlightAtReady, 1u) << "x must hold the MSHR at the WbAck";
    EXPECT_EQ(done, (std::vector<Addr>{x, z, y}));
    EXPECT_EQ(deferrals(), 3u);
}

// ------------------------------------------------------------ counter --

TEST_F(ParkFixture, DeferralsCountRequestsParkedForEveryReason)
{
    // 3 MSHRs, one writeback-buffer entry.
    auto& cpu = make<CpuCacheAgent>(params(3, 1), l1());
    const Addr a = 0;
    const Addr b = kLineSize;
    const Addr s = 2 * kLineSize; // a set the test pins
    const Addr t = 3 * kLineSize;
    storeWord(a, 1);
    storeWord(b, 2);
    queue.run();

    int ready = 0;
    cpu.prepareRemoteStore(a, [&ready] { ++ready; }); // 1: own writeback
    cpu.prepareRemoteStore(b, [&ready] { ++ready; }); // 2: buffer full
    load(a);                                          // 3: line draining
    load(s);
    load(s + kSetStride);     // both ways of s's set now in flight
    load(s + 2 * kSetStride); // 4: every way pinned
    load(t);                  // takes the last MSHR
    load(t + kLineSize);      // 5: MSHR file full
    EXPECT_EQ(agent->blockedRequests(), 5u);
    queue.run();

    EXPECT_EQ(ready, 2);
    EXPECT_EQ(done.size(), 6u);
    EXPECT_EQ(agent->blockedRequests(), 0u);
    EXPECT_EQ(deferrals(), 5u);
    EXPECT_TRUE(home->quiescent());
}

} // namespace
} // namespace dscoh
