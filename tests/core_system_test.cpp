#include <gtest/gtest.h>

#include <sstream>

#include "core/system.h"

namespace dscoh {
namespace {

TEST(SystemConfig, PaperDefaultsMatchTableI)
{
    const SystemConfig cfg = SystemConfig::paper(CoherenceMode::kCcsm);
    EXPECT_EQ(cfg.cpuCores, 1u);
    EXPECT_EQ(cfg.cpuL1dSize, 64u * 1024);
    EXPECT_EQ(cfg.cpuL1dWays, 2u);
    EXPECT_EQ(cfg.cpuL2Size, 2u * 1024 * 1024);
    EXPECT_EQ(cfg.cpuL2Ways, 8u);
    EXPECT_EQ(cfg.numSms, 16u);
    EXPECT_EQ(cfg.lanesPerSm, 32u);
    EXPECT_EQ(cfg.gpuL1Size, 16u * 1024);
    EXPECT_EQ(cfg.gpuL2Size, 2u * 1024 * 1024);
    EXPECT_EQ(cfg.gpuL2Ways, 16u);
    EXPECT_EQ(cfg.gpuL2Slices, 4u);
    EXPECT_EQ(cfg.memBytes, 2ull * 1024 * 1024 * 1024);
    EXPECT_EQ(cfg.dram.ranks, 2u);
    EXPECT_EQ(cfg.dram.banksPerRank, 8u);
}

TEST(SystemConfig, TablePrintContainsKeyRows)
{
    std::ostringstream os;
    SystemConfig::paper(CoherenceMode::kDirectStore).printTable(os);
    const std::string t = os.str();
    EXPECT_NE(t.find("DirectStore"), std::string::npos);
    EXPECT_NE(t.find("64KB, 2 ways"), std::string::npos);
    EXPECT_NE(t.find("16 - 32 lanes per SM @ 1.4GHz"), std::string::npos);
    EXPECT_NE(t.find("2 ranks, 8 banks @ 1GHz"), std::string::npos);
}

TEST(System, AllocationPolicyFollowsMode)
{
    SystemConfig ccsm = SystemConfig::paper(CoherenceMode::kCcsm);
    ccsm.numSms = 1;
    System sysCcsm(ccsm);
    EXPECT_FALSE(inDsRegion(sysCcsm.allocateArray(1024, true)));
    EXPECT_FALSE(inDsRegion(sysCcsm.allocateArray(1024, false)));

    SystemConfig ds = SystemConfig::paper(CoherenceMode::kDirectStore);
    ds.numSms = 1;
    System sysDs(ds);
    EXPECT_TRUE(inDsRegion(sysDs.allocateArray(1024, true)));
    EXPECT_FALSE(inDsRegion(sysDs.allocateArray(1024, false)));
}

TEST(System, SliceInterleavingCoversAllSlices)
{
    SystemConfig cfg = SystemConfig::paper(CoherenceMode::kCcsm);
    cfg.numSms = 1;
    System sys(cfg);
    std::vector<int> hits(cfg.gpuL2Slices, 0);
    for (Addr line = 0; line < 64; ++line) {
        const NodeId node = sys.homeMap().homeSlice(line * kLineSize);
        ASSERT_GE(node, HomeMap::kFirstSliceNode);
        ASSERT_LT(node, HomeMap::kFirstSliceNode + cfg.gpuL2Slices);
        ++hits[node - HomeMap::kFirstSliceNode];
    }
    for (const int h : hits)
        EXPECT_EQ(h, 16);
}

TEST(System, FreshSystemMetricsAreZero)
{
    SystemConfig cfg = SystemConfig::paper(CoherenceMode::kCcsm);
    cfg.numSms = 1;
    System sys(cfg);
    const RunMetrics m = sys.metrics();
    EXPECT_EQ(m.gpuL2Accesses, 0u);
    EXPECT_EQ(m.gpuL2Misses, 0u);
    EXPECT_EQ(m.checkFailures, 0u);
    EXPECT_EQ(m.ticks, 0u);
}

TEST(System, InvariantCheckerPassesOnFreshSystem)
{
    SystemConfig cfg = SystemConfig::paper(CoherenceMode::kCcsm);
    cfg.numSms = 1;
    System sys(cfg);
    EXPECT_TRUE(sys.checkCoherenceInvariants().empty());
}

TEST(System, StatsRegistryExposesComponentCounters)
{
    SystemConfig cfg = SystemConfig::paper(CoherenceMode::kCcsm);
    cfg.numSms = 2;
    System sys(cfg);
    EXPECT_TRUE(sys.stats().hasCounter("dram.ch0.reads"));
    EXPECT_TRUE(sys.stats().hasCounter("cpu.core.loads"));
    EXPECT_TRUE(sys.stats().hasCounter("gpu.l2.slice0.demand_misses"));
    EXPECT_TRUE(sys.stats().hasCounter("gpu.sm0.global_loads"));
    EXPECT_TRUE(sys.stats().hasCounter("net.ds.messages"));
    EXPECT_TRUE(sys.stats().hasCounter("home.transactions"));
}

} // namespace
} // namespace dscoh
