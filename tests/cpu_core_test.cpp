// CPU-core behaviour on the full System: program execution, store buffer,
// forwarding, remote-store (RSB) coalescing and uncached DS loads.
#include <gtest/gtest.h>

#include "core/system.h"

namespace dscoh {
namespace {

SystemConfig smallConfig(CoherenceMode mode)
{
    SystemConfig cfg = SystemConfig::paper(mode);
    cfg.numSms = 2; // CPU-focused tests do not need the full GPU
    return cfg;
}

Tick runProgram(System& sys, const CpuProgram& prog)
{
    bool done = false;
    sys.runCpuProgram(prog, [&done] { done = true; });
    const Tick t = sys.simulate();
    EXPECT_TRUE(done);
    return t;
}

TEST(CpuCore, StoreThenLoadSameAddress)
{
    System sys(smallConfig(CoherenceMode::kCcsm));
    const Addr a = sys.allocateArray(4096, false);
    CpuProgram prog;
    prog.push_back(cpuStore(a + 16, 0xdead, 8));
    prog.push_back(cpuFence());
    prog.push_back(cpuLoadCheck(a + 16, 0xdead, 8));
    runProgram(sys, prog);
    EXPECT_EQ(sys.cpu().checkFailures(), 0u);
}

TEST(CpuCore, StoreForwardingBeforeDrain)
{
    System sys(smallConfig(CoherenceMode::kCcsm));
    const Addr a = sys.allocateArray(4096, false);
    CpuProgram prog;
    prog.push_back(cpuStore(a, 0x42, 8));
    prog.push_back(cpuLoadCheck(a, 0x42, 8)); // immediately after, no fence
    runProgram(sys, prog);
    EXPECT_EQ(sys.cpu().checkFailures(), 0u);
    EXPECT_GE(sys.stats().counter("cpu.core.store_forwards"), 0u);
}

TEST(CpuCore, ManyStoresAllLand)
{
    System sys(smallConfig(CoherenceMode::kCcsm));
    const Addr a = sys.allocateArray(64 * 1024, false);
    CpuProgram prog;
    constexpr int kN = 512;
    for (int i = 0; i < kN; ++i)
        prog.push_back(cpuStore(a + static_cast<Addr>(i) * 8,
                                0x1000 + static_cast<std::uint64_t>(i), 8));
    prog.push_back(cpuFence());
    for (int i = 0; i < kN; ++i)
        prog.push_back(cpuLoadCheck(a + static_cast<Addr>(i) * 8,
                                    0x1000 + static_cast<std::uint64_t>(i), 8));
    runProgram(sys, prog);
    EXPECT_EQ(sys.cpu().checkFailures(), 0u);
    EXPECT_EQ(sys.stats().counter("cpu.core.stores"), static_cast<std::uint64_t>(kN));
}

TEST(CpuCore, ComputeDelaysAdvanceTime)
{
    System sys(smallConfig(CoherenceMode::kCcsm));
    CpuProgram prog;
    prog.push_back(cpuCompute(10000));
    const Tick t = runProgram(sys, prog);
    EXPECT_GE(t, 10000u);
}

TEST(CpuCore, RemoteStoresGoToGpuL2NotCpuCache)
{
    System sys(smallConfig(CoherenceMode::kDirectStore));
    const Addr a = sys.allocateArray(4096, /*gpuShared=*/true);
    ASSERT_TRUE(inDsRegion(a));
    CpuProgram prog;
    // A full line of stores: the RSB coalesces them into one DsPutX.
    for (std::uint32_t i = 0; i < kLineSize / 8; ++i)
        prog.push_back(cpuStore(a + i * 8, i + 1, 8));
    prog.push_back(cpuFence());
    runProgram(sys, prog);

    EXPECT_EQ(sys.cpu().remoteStores(), kLineSize / 8);
    EXPECT_EQ(sys.stats().counter("cpu.core.ds_putx_sent"), 1u)
        << "write-combining must merge a full line into one push";
    // The line must be in some GPU L2 slice in MM, not in the CPU cache.
    const Addr pa = sys.addressSpace().translate(a).paddr;
    EXPECT_EQ(sys.cpuCache().stateOf(pa), CohState::kI);
    std::uint64_t dsFills = 0;
    for (std::size_t s = 0; s < sys.sliceCount(); ++s)
        dsFills += sys.slice(s).dsFills();
    EXPECT_EQ(dsFills, 1u);
    // Pushed lines install exclusive-clean (M): the push writes through to
    // DRAM, so memory stays current and evictions are silent.
    const NodeId owner = sys.homeMap().homeSlice(pa) - HomeMap::kFirstSliceNode;
    EXPECT_EQ(sys.slice(owner).stateOf(pa), CohState::kM);
}

TEST(CpuCore, UncachedLoadReadsBackRemoteStore)
{
    System sys(smallConfig(CoherenceMode::kDirectStore));
    const Addr a = sys.allocateArray(4096, true);
    CpuProgram prog;
    for (std::uint32_t i = 0; i < kLineSize / 8; ++i)
        prog.push_back(cpuStore(a + i * 8, 0xaa00 + i, 8));
    prog.push_back(cpuFence());
    prog.push_back(cpuLoadCheck(a + 24, 0xaa03, 8));
    runProgram(sys, prog);
    EXPECT_EQ(sys.cpu().checkFailures(), 0u);
    EXPECT_GE(sys.stats().counter("cpu.core.uc_reads"), 1u);
}

TEST(CpuCore, RsbForwardsToLoadWithoutFlush)
{
    System sys(smallConfig(CoherenceMode::kDirectStore));
    const Addr a = sys.allocateArray(4096, true);
    CpuProgram prog;
    prog.push_back(cpuStore(a, 0x77, 8));
    prog.push_back(cpuLoadCheck(a, 0x77, 8)); // value still in the RSB
    runProgram(sys, prog);
    EXPECT_EQ(sys.cpu().checkFailures(), 0u);
}

TEST(CpuCore, PartialLineRemoteStoreMergesWithMemory)
{
    System sys(smallConfig(CoherenceMode::kDirectStore));
    const Addr a = sys.allocateArray(4096, true);
    CpuProgram prog;
    prog.push_back(cpuStore(a + 8, 0x1111, 8)); // partial line only
    prog.push_back(cpuFence());
    prog.push_back(cpuLoadCheck(a + 8, 0x1111, 8));
    prog.push_back(cpuLoadCheck(a + 16, 0, 8)); // untouched bytes stay zero
    runProgram(sys, prog);
    EXPECT_EQ(sys.cpu().checkFailures(), 0u);
}

TEST(CpuCore, RsbEvictionFlushesOldestEntry)
{
    SystemConfig cfg = smallConfig(CoherenceMode::kDirectStore);
    cfg.rsbEntries = 2;
    System sys(cfg);
    const Addr a = sys.allocateArray(16 * kLineSize, true);
    CpuProgram prog;
    // Touch three different lines: the third forces the first out.
    prog.push_back(cpuStore(a + 0 * kLineSize, 1, 8));
    prog.push_back(cpuStore(a + 1 * kLineSize, 2, 8));
    prog.push_back(cpuStore(a + 2 * kLineSize, 3, 8));
    prog.push_back(cpuFence());
    prog.push_back(cpuLoadCheck(a + 0 * kLineSize, 1, 8));
    prog.push_back(cpuLoadCheck(a + 1 * kLineSize, 2, 8));
    prog.push_back(cpuLoadCheck(a + 2 * kLineSize, 3, 8));
    runProgram(sys, prog);
    EXPECT_EQ(sys.cpu().checkFailures(), 0u);
    EXPECT_EQ(sys.stats().counter("cpu.core.ds_putx_sent"), 3u);
}

TEST(CpuCore, CcsmModeNeverUsesDsNetwork)
{
    System sys(smallConfig(CoherenceMode::kCcsm));
    const Addr a = sys.allocateArray(4096, /*gpuShared=*/true); // heap under CCSM
    ASSERT_FALSE(inDsRegion(a));
    CpuProgram prog;
    prog.push_back(cpuStore(a, 5, 8));
    prog.push_back(cpuFence());
    prog.push_back(cpuLoadCheck(a, 5, 8));
    runProgram(sys, prog);
    EXPECT_EQ(sys.cpu().remoteStores(), 0u);
    EXPECT_EQ(sys.metrics().dsNetworkMessages, 0u);
}

TEST(CpuCore, InvariantsHoldAfterMixedProgram)
{
    System sys(smallConfig(CoherenceMode::kDirectStore));
    const Addr heap = sys.allocateArray(8 * 1024, false);
    const Addr ds = sys.allocateArray(8 * 1024, true);
    CpuProgram prog;
    for (int i = 0; i < 100; ++i) {
        prog.push_back(cpuStore(heap + static_cast<Addr>(i % 40) * 8,
                                static_cast<std::uint64_t>(i), 8));
        prog.push_back(cpuStore(ds + static_cast<Addr>(i % 64) * 8,
                                static_cast<std::uint64_t>(1000 + i), 8));
    }
    prog.push_back(cpuFence());
    runProgram(sys, prog);
    const auto violations = sys.checkCoherenceInvariants();
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations.front());
}

} // namespace
} // namespace dscoh
