// Fault-injection layer: the seeded FaultInjector's decision stream, its
// integration into Network::send (drop / duplicate / corrupt / delay /
// link-down), determinism and snapshot round-trips of the fault schedule,
// config-hash coverage of the fault fields, and the zero-cost-when-disabled
// contract (no injector => no fault counters anywhere in the registry).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "core/system.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "sim/sim_context.h"
#include "snap/serializer.h"

namespace dscoh {
namespace {

struct FaultNetFixture : ::testing::Test {
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

TEST_F(FaultNetFixture, CertainDropNeverDelivers)
{
    FaultConfig fc;
    fc.dropPpm = 1'000'000;
    FaultInjector inj("net.fault", ctx, fc);
    net.attachFaultInjector(&inj);

    StatRegistry reg;
    net.regStats(reg);
    inj.regStats(reg);

    net.send(mkMsg(MsgType::kDsPutX, 0, 1));
    net.send(mkMsg(MsgType::kDsPutX, 0, 1));
    queue.run();

    EXPECT_TRUE(receivedAt1.empty());
    EXPECT_EQ(inj.drops(), 2u);
    // A dropped message never reaches the wire accounting.
    EXPECT_EQ(net.messagesSent(), 0u);
    EXPECT_EQ(reg.counter("net.fault.drops"), 2u);
}

TEST_F(FaultNetFixture, LinkDownWindowDropsDeterministically)
{
    FaultConfig fc;
    fc.linkDownFrom = 100;
    fc.linkDownUntil = 200;
    FaultInjector inj("net.fault", ctx, fc);
    net.attachFaultInjector(&inj);

    // Before, inside, and after the outage window.
    net.send(mkMsg(MsgType::kDsPutX, 0, 1, 0x100));
    queue.schedule(150, [this] {
        net.send(mkMsg(MsgType::kDsPutX, 0, 1, 0x200));
    });
    queue.schedule(250, [this] {
        net.send(mkMsg(MsgType::kDsPutX, 0, 1, 0x300));
    });
    queue.run();

    ASSERT_EQ(receivedAt1.size(), 2u);
    EXPECT_EQ(receivedAt1[0].addr, 0x100u);
    EXPECT_EQ(receivedAt1[1].addr, 0x300u);
    EXPECT_EQ(inj.linkDownDrops(), 1u);
    EXPECT_FALSE(inj.linkDownNow(50));
    EXPECT_TRUE(inj.linkDownNow(150));
    EXPECT_FALSE(inj.linkDownNow(200));
}

TEST_F(FaultNetFixture, DuplicateDeliversTwiceAndPreservesFifo)
{
    FaultConfig fc;
    fc.dupPpm = 1'000'000;
    FaultInjector inj("net.fault", ctx, fc);
    net.attachFaultInjector(&inj);

    for (std::uint64_t i = 0; i < 4; ++i) {
        Message m = mkMsg(MsgType::kDsPutX, 0, 1);
        m.txn = i + 1;
        net.send(m);
    }
    queue.run();

    ASSERT_EQ(receivedAt1.size(), 8u);
    EXPECT_EQ(inj.duplicates(), 4u);
    // Wire echo: each original is immediately followed by its copy, and the
    // per-(src,dst) order of distinct messages is untouched.
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(receivedAt1[i].txn, i / 2 + 1);
    for (std::size_t i = 1; i < 8; ++i)
        EXPECT_GT(arrivalTicks[i], arrivalTicks[i - 1]);
}

TEST_F(FaultNetFixture, CorruptionIsDetectableByChecksum)
{
    FaultConfig fc;
    fc.corruptPpm = 1'000'000;
    FaultInjector inj("net.fault", ctx, fc);
    net.attachFaultInjector(&inj);

    Message m = mkMsg(MsgType::kDsPutX, 0, 1, 0x1200);
    for (std::uint32_t i = 0; i < kLineSize; i += 8)
        m.data.write(i, 0xabcd0000ull + i, 8);
    m.mask.set(0, kLineSize);
    net.send(m);
    queue.run();

    ASSERT_EQ(receivedAt1.size(), 1u);
    EXPECT_EQ(inj.corruptions(), 1u);
    // send() stamped the checksum before the flip, so the receiver can tell.
    EXPECT_NE(receivedAt1[0].checksum, messageChecksum(receivedAt1[0]));
}

TEST_F(FaultNetFixture, DelayFaultDefersButNeverReorders)
{
    FaultConfig fc;
    fc.delayPpm = 1'000'000;
    fc.delayTicks = 500;
    FaultInjector inj("net.fault", ctx, fc);
    net.attachFaultInjector(&inj);

    for (std::uint64_t i = 0; i < 8; ++i) {
        Message m = mkMsg(MsgType::kDsPutX, 0, 1);
        m.txn = i;
        net.send(m);
    }
    queue.run();

    ASSERT_EQ(receivedAt1.size(), 8u);
    EXPECT_EQ(inj.delays(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(receivedAt1[i].txn, i);
    // The first arrival carries its extra delay on top of hop + 5 ticks of
    // serialization for a 136-byte data message.
    EXPECT_GT(arrivalTicks[0], params.hopLatency + 5);
}

TEST_F(FaultNetFixture, TickWindowGatesProbabilisticFaults)
{
    FaultConfig fc;
    fc.dropPpm = 1'000'000;
    fc.windowStart = 100;
    fc.windowEnd = 200;
    FaultInjector inj("net.fault", ctx, fc);
    net.attachFaultInjector(&inj);

    net.send(mkMsg(MsgType::kDsPutX, 0, 1, 0x100)); // tick 0: outside
    queue.schedule(150, [this] {
        net.send(mkMsg(MsgType::kDsPutX, 0, 1, 0x200)); // inside
    });
    queue.schedule(300, [this] {
        net.send(mkMsg(MsgType::kDsPutX, 0, 1, 0x300)); // outside again
    });
    queue.run();

    ASSERT_EQ(receivedAt1.size(), 2u);
    EXPECT_EQ(receivedAt1[0].addr, 0x100u);
    EXPECT_EQ(receivedAt1[1].addr, 0x300u);
}

TEST_F(FaultNetFixture, SrcDstTargetingSparesOtherPairs)
{
    net.connect(2, [](const Message&) {});
    FaultConfig fc;
    fc.dropPpm = 1'000'000;
    fc.srcFilter = 0;
    fc.dstFilter = 2;
    FaultInjector inj("net.fault", ctx, fc);
    net.attachFaultInjector(&inj);

    net.send(mkMsg(MsgType::kDsPutX, 0, 1)); // (0,1): spared
    net.send(mkMsg(MsgType::kDsPutX, 0, 2)); // (0,2): dropped
    queue.run();

    EXPECT_EQ(receivedAt1.size(), 1u);
    EXPECT_EQ(inj.drops(), 1u);
}

TEST(FaultInjector, SameSeedSameSchedule)
{
    SimContext ctx;
    FaultConfig fc;
    fc.dropPpm = 300'000;
    fc.dupPpm = 200'000;
    fc.seed = 42;

    FaultInjector a("a", ctx, fc);
    FaultInjector b("b", ctx, fc);
    for (int i = 0; i < 500; ++i) {
        const FaultDecision da = a.decide(0, 1, 1000);
        const FaultDecision db = b.decide(0, 1, 1000);
        EXPECT_EQ(da.drop, db.drop);
        EXPECT_EQ(da.duplicate, db.duplicate);
    }
    EXPECT_EQ(a.drops(), b.drops());
    EXPECT_GT(a.drops(), 0u);
    EXPECT_LT(a.drops(), 500u);

    // A per-network seed salt decorrelates the streams.
    FaultInjector salted("c", ctx, fc, /*seedSalt=*/3);
    std::uint64_t diverged = 0;
    FaultInjector fresh("d", ctx, fc);
    for (int i = 0; i < 500; ++i) {
        if (salted.decide(0, 1, 1000).drop != fresh.decide(0, 1, 1000).drop)
            ++diverged;
    }
    EXPECT_GT(diverged, 0u);
}

TEST(FaultInjector, RngStreamSurvivesSnapshot)
{
    SimContext ctx;
    FaultConfig fc;
    fc.dropPpm = 400'000;
    fc.corruptPpm = 100'000;

    FaultInjector a("f", ctx, fc);
    for (int i = 0; i < 100; ++i)
        a.decide(0, 1, 50);

    const std::string path = testing::TempDir() + "fault_rng.snap";
    {
        snap::SnapWriter w(/*tick=*/50, /*configHash=*/0);
        w.beginSection("f");
        a.snapSave(w);
        w.endSection();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << w.finish();
    }

    // Continue the original stream, then replay it from the snapshot.
    std::vector<FaultDecision> cont;
    for (int i = 0; i < 100; ++i)
        cont.push_back(a.decide(0, 1, 50));

    FaultInjector b("f", ctx, fc);
    snap::SnapReader r(path);
    r.openSection("f");
    b.snapRestore(r);
    r.closeSection();
    for (int i = 0; i < 100; ++i) {
        const FaultDecision d = b.decide(0, 1, 50);
        EXPECT_EQ(d.drop, cont[static_cast<std::size_t>(i)].drop);
        EXPECT_EQ(d.corrupt, cont[static_cast<std::size_t>(i)].corrupt);
    }
    std::remove(path.c_str());
}

TEST(FaultConfigHash, EveryFaultFieldIsHashed)
{
    const SystemConfig base;
    const std::uint64_t h0 = configHashOf(base);

    const auto differs = [&](auto&& mutate) {
        SystemConfig c = base;
        mutate(c);
        return configHashOf(c) != h0;
    };
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faults.dropPpm = 1; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faults.dupPpm = 1; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faults.corruptPpm = 1; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faults.delayPpm = 1; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faults.delayTicks = 99; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faults.windowStart = 7; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faults.windowEnd = 7; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faults.srcFilter = 1; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faults.dstFilter = 1; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faults.linkDownFrom = 5; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faults.linkDownUntil = 5; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faults.seed = 123; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.faultNets = kFaultNetGpu; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.dsAckTimeout = 1000; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.dsMaxRetries = 9; }));
    EXPECT_TRUE(differs([](SystemConfig& c) { c.dsInFlightMax = 3; }));
}

TEST(FaultZeroCost, DisabledFaultsRegisterNoCounters)
{
    // The acceptance contract: with faults off and hardening off, the stat
    // registry's name set is exactly the pre-fault-layer one — no injector
    // counters, no hardening counters, no DsNack message counter.
    System sys(SystemConfig::paper(CoherenceMode::kDirectStore));
    for (const std::string& name : sys.stats().counterNames()) {
        EXPECT_EQ(name.find("fault"), std::string::npos) << name;
        EXPECT_EQ(name.find("ds_retries"), std::string::npos) << name;
        EXPECT_EQ(name.find("ds_timeouts"), std::string::npos) << name;
        EXPECT_EQ(name.find("ds_fallback"), std::string::npos) << name;
        EXPECT_EQ(name.find("ds_duplicates_squashed"), std::string::npos)
            << name;
        EXPECT_EQ(name.find("ds_nacks"), std::string::npos) << name;
        EXPECT_EQ(name.find("DsNack"), std::string::npos) << name;
    }
}

TEST(FaultZeroCost, EnabledFaultsRegisterTheCounters)
{
    SystemConfig cfg = SystemConfig::paper(CoherenceMode::kDirectStore);
    cfg.faults.dropPpm = 10'000;
    cfg.dsAckTimeout = 4000;
    System sys(cfg);
    ASSERT_NE(sys.dsFaultInjector(), nullptr);
    // Presence probes: counter() throws on unknown names.
    EXPECT_EQ(sys.stats().counter("net.ds.fault.drops"), 0u);
    EXPECT_EQ(sys.stats().counter("cpu.core.ds_retries"), 0u);
    EXPECT_EQ(sys.stats().counter("cpu.core.ds_fallback_stores"), 0u);
    EXPECT_EQ(sys.stats().counter("gpu.l2.slice0.ds_duplicates_squashed"),
              0u);
    EXPECT_EQ(sys.stats().counter("gpu.l2.slice0.ds_nacks"), 0u);
}

} // namespace
} // namespace dscoh
