#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/sim_context.h"
#include "snap/serializer.h"

namespace dscoh {
namespace {

struct NetFixture : ::testing::Test {
    SimContext ctx;
    EventQueue& queue = ctx.queue;
    NetworkParams params{20, 32};
    Network net{"net", ctx, params};

    std::vector<Message> receivedAt1;
    std::vector<Tick> arrivalTicks;

    void SetUp() override
    {
        net.connect(0, [](const Message&) {});
        net.connect(1, [this](const Message& m) {
            receivedAt1.push_back(m);
            arrivalTicks.push_back(queue.curTick());
        });
    }

    Message mkMsg(MsgType t, NodeId src, NodeId dst, Addr addr = 0x80)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        m.addr = addr;
        return m;
    }
};

TEST_F(NetFixture, DeliversAfterHopPlusSerialization)
{
    net.send(mkMsg(MsgType::kGetS, 0, 1));
    queue.run();
    ASSERT_EQ(receivedAt1.size(), 1u);
    // Control message: 8 bytes -> ceil(8/32) = 1 tick serialization.
    EXPECT_EQ(arrivalTicks[0], params.hopLatency + 1);
}

TEST_F(NetFixture, DataMessagesTakeLongerOnTheWire)
{
    net.send(mkMsg(MsgType::kData, 0, 1));
    queue.run();
    // 8 + 128 = 136 bytes -> ceil(136/32) = 5 ticks.
    EXPECT_EQ(arrivalTicks[0], params.hopLatency + 5);
}

TEST_F(NetFixture, PortSerializesBackToBackMessages)
{
    net.send(mkMsg(MsgType::kData, 0, 1));
    net.send(mkMsg(MsgType::kData, 0, 1));
    queue.run();
    ASSERT_EQ(arrivalTicks.size(), 2u);
    EXPECT_EQ(arrivalTicks[1] - arrivalTicks[0], 5u);
}

TEST_F(NetFixture, SameSrcDstPairNeverReorders)
{
    for (int i = 0; i < 10; ++i) {
        Message m = mkMsg(MsgType::kAck, 0, 1);
        m.txn = static_cast<std::uint64_t>(i);
        net.send(m);
    }
    queue.run();
    ASSERT_EQ(receivedAt1.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(receivedAt1[static_cast<std::size_t>(i)].txn,
                  static_cast<std::uint64_t>(i));
}

TEST_F(NetFixture, PayloadSurvivesTransit)
{
    Message m = mkMsg(MsgType::kData, 0, 1, 0x1240);
    m.data.write(16, 0xfeedface, 4);
    m.mask.set(16, 4);
    net.send(m);
    queue.run();
    ASSERT_EQ(receivedAt1.size(), 1u);
    EXPECT_EQ(receivedAt1[0].data.read(16, 4), 0xfeedfaceu);
    EXPECT_TRUE(receivedAt1[0].mask.test(16));
    EXPECT_EQ(receivedAt1[0].addr, 0x1240u);
}

TEST_F(NetFixture, DoubleConnectThrows)
{
    EXPECT_THROW(net.connect(1, [](const Message&) {}), std::logic_error);
}

TEST_F(NetFixture, StatsCountMessagesAndBytes)
{
    StatRegistry reg;
    net.regStats(reg);
    net.send(mkMsg(MsgType::kGetS, 0, 1));
    net.send(mkMsg(MsgType::kData, 0, 1));
    queue.run();
    EXPECT_EQ(reg.counter("net.messages"), 2u);
    EXPECT_EQ(reg.counter("net.bytes"), 8u + 136u);
    EXPECT_EQ(reg.counter("net.data_messages"), 1u);
}

TEST(NetworkLatency, HopLatencyIsConfigurable)
{
    SimContext ctx;
    EventQueue& queue = ctx.queue;
    Network fast("fast", ctx, NetworkParams{5, 64});
    Tick arrival = 0;
    fast.connect(0, [](const Message&) {});
    fast.connect(1, [&](const Message&) { arrival = queue.curTick(); });
    Message m;
    m.type = MsgType::kAck;
    m.src = 0;
    m.dst = 1;
    fast.send(m);
    queue.run();
    EXPECT_EQ(arrival, 5u + 1u);
}

TEST_F(NetFixture, MultiSourceContentionKeepsPerPairFifo)
{
    // Three sources hammer node 1's port with interleaved data messages.
    // The port serializes them, but each (src,dst) stream must stay in
    // order and arrivals at the contended port must be strictly spaced.
    net.connect(2, [](const Message&) {});
    net.connect(3, [](const Message&) {});
    const NodeId srcs[] = {0, 2, 3};
    std::uint64_t nextTxn[4] = {0, 0, 0, 0};
    for (int round = 0; round < 6; ++round) {
        for (const NodeId src : srcs) {
            Message m = mkMsg(MsgType::kData, src, 1);
            m.txn = nextTxn[src]++;
            net.send(m);
        }
    }
    queue.run();

    ASSERT_EQ(receivedAt1.size(), 18u);
    std::uint64_t seen[4] = {0, 0, 0, 0};
    for (const Message& m : receivedAt1)
        EXPECT_EQ(m.txn, seen[m.src]++) << "per-(src,dst) FIFO broken";
    for (std::size_t i = 1; i < arrivalTicks.size(); ++i)
        EXPECT_GE(arrivalTicks[i] - arrivalTicks[i - 1], 5u)
            << "port serialization must space back-to-back data messages";
}

TEST_F(NetFixture, PortReservationSurvivesSnapshotMidBurst)
{
    // Burst enough data at node 1 that its port reservation extends well
    // past the queue drain, snapshot, and check a post-restore send waits
    // for the restored reservation instead of arriving at hop + serialize.
    for (int i = 0; i < 10; ++i)
        net.send(mkMsg(MsgType::kData, 0, 1));
    queue.run();
    ASSERT_EQ(receivedAt1.size(), 10u);
    const Tick lastArrival = arrivalTicks.back();

    const std::string path = testing::TempDir() + "net_port.snap";
    {
        snap::SnapWriter w(queue.curTick(), /*configHash=*/0);
        w.beginSection("net");
        net.snapSave(w);
        w.endSection();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << w.finish();
    }

    // A fresh network at tick 0 with the reservations restored: the port
    // is still booked until the old burst's last slot.
    SimContext ctx2;
    Network net2("net", ctx2, params);
    Tick restoredArrival = 0;
    net2.connect(0, [](const Message&) {});
    net2.connect(1, [&](const Message&) {
        restoredArrival = ctx2.queue.curTick();
    });
    {
        snap::SnapReader r(path);
        r.openSection("net");
        net2.snapRestore(r);
        r.closeSection();
    }
    Message m;
    m.type = MsgType::kData;
    m.src = 0;
    m.dst = 1;
    net2.send(m);
    ctx2.queue.run();
    EXPECT_EQ(restoredArrival, lastArrival + 5)
        << "restored reservation must defer the send";
    EXPECT_GT(restoredArrival, params.hopLatency + 5);
    std::remove(path.c_str());
}

TEST(MsgTypeNames, AllNamed)
{
    EXPECT_STREQ(to_string(MsgType::kGetS), "GetS");
    EXPECT_STREQ(to_string(MsgType::kDsPutX), "DsPutX");
    EXPECT_STREQ(to_string(MsgType::kL1StoreAck), "L1StoreAck");
}

TEST(RingTopology, LatencyGrowsWithRingDistance)
{
    SimContext ctx;
    NetworkParams params{20, 32};
    Network net("ring", ctx, params);
    std::vector<Tick> arrival(4, 0);
    for (NodeId n = 0; n < 4; ++n)
        net.connect(n, [&arrival, n, &ctx](const Message&) {
            arrival[n] = ctx.queue.curTick();
        });
    net.setRing({0, 1, 2, 3});

    const auto sendFrom0 = [&net](NodeId dst) {
        Message m;
        m.type = MsgType::kGetS; // 8 bytes -> 1 serialization tick
        m.src = 0;
        m.dst = dst;
        net.send(m);
    };
    sendFrom0(1); // adjacent: same cost as the crossbar
    sendFrom0(2); // opposite side: one extra hop
    sendFrom0(3); // adjacent the short way round (wrap)
    ctx.queue.run();

    EXPECT_EQ(arrival[1], params.hopLatency + 1);
    EXPECT_EQ(arrival[2], 2 * params.hopLatency + 1);
    EXPECT_EQ(arrival[3], params.hopLatency + 1)
        << "ring distance is the shorter way around";
}

TEST(RingTopology, OffRingNodesKeepCrossbarLatency)
{
    SimContext ctx;
    NetworkParams params{20, 32};
    Network net("ring", ctx, params);
    Tick arrival = 0;
    net.connect(0, [](const Message&) {});
    net.connect(5, [&](const Message&) { arrival = ctx.queue.curTick(); });
    net.connect(6, [](const Message&) {});
    net.setRing({0, 6}); // 5 is not part of the ring
    Message m;
    m.type = MsgType::kGetS;
    m.src = 0;
    m.dst = 5;
    net.send(m);
    ctx.queue.run();
    EXPECT_EQ(arrival, params.hopLatency + 1);
}

TEST(RingTopology, ParseDsTopologyRoundTrips)
{
    DsTopology t = DsTopology::kCrossbar;
    EXPECT_TRUE(parseDsTopology("ring", t));
    EXPECT_EQ(t, DsTopology::kRing);
    EXPECT_TRUE(parseDsTopology(to_string(DsTopology::kCrossbar), t));
    EXPECT_EQ(t, DsTopology::kCrossbar);
    EXPECT_FALSE(parseDsTopology("mesh", t));
    EXPECT_EQ(t, DsTopology::kCrossbar) << "failed parse must not write";
}

} // namespace
} // namespace dscoh
