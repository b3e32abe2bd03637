// Fig. 3 transition coverage: prove the implementation actually exercises
// every stable-state edge of the paper's diagram, including the bold
// remote-store transitions and the blue slice-install transition.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "coherence/transition_coverage.h"
#include "core/system.h"
#include "workloads/runner.h"

namespace dscoh {
namespace {

class Fig3Coverage : public ::testing::Test {
protected:
    /// The edges of every System this test attaches it to.
    TransitionCoverage cov_;

    bool covered(CohState from, CohEvent e, CohState to) const
    {
        return cov_.covered(from, e, to);
    }
};

TEST_F(Fig3Coverage, BaselineProtocolEdges)
{
    // Directed CPU sequences cover the conventional MOESI edges.
    System sys(SystemConfig::paper(CoherenceMode::kCcsm));
    sys.attachCoverage(&cov_);
    const Addr a = sys.allocateArray(8 * kLineSize, false);

    CpuProgram prog;
    // Cold store: I -> IM_D -> MM; then a later store and load hit MM.
    prog.push_back(cpuStore(a, 1, 4));
    prog.push_back(cpuFence());
    prog.push_back(cpuStore(a + 4, 2, 4));
    prog.push_back(cpuFence());
    prog.push_back(cpuLoadCheck(a, 1, 4));
    // Cold load of an untouched line: I -> IS_D -> M (exclusive grant),
    // then a store to it must upgrade (stores are not allowed in M).
    prog.push_back(cpuLoad(a + kLineSize, 4));
    prog.push_back(cpuStore(a + kLineSize, 3, 4));
    prog.push_back(cpuFence());
    sys.runCpuProgram(prog, [] {});
    sys.simulate();

    // Misses out of I.
    EXPECT_TRUE(covered(CohState::kI, CohEvent::kLoad, CohState::kIS_D));
    EXPECT_TRUE(covered(CohState::kI, CohEvent::kStore, CohState::kIM_D));
    // Fills.
    EXPECT_TRUE(covered(CohState::kIS_D, CohEvent::kFill, CohState::kM));
    EXPECT_TRUE(covered(CohState::kIM_D, CohEvent::kFill, CohState::kMM));
    // Hits (the Fig. 3 self-loops).
    EXPECT_TRUE(covered(CohState::kMM, CohEvent::kLoad, CohState::kMM));
    EXPECT_TRUE(covered(CohState::kMM, CohEvent::kStore, CohState::kMM));
    // The paper's "stores are not allowed in M": M upgrades through GetX.
    EXPECT_TRUE(covered(CohState::kM, CohEvent::kStore, CohState::kSM_D));
    EXPECT_TRUE(covered(CohState::kSM_D, CohEvent::kFill, CohState::kMM));
}

TEST_F(Fig3Coverage, SnoopAndWritebackEdges)
{
    // Two agents fighting over lines: covers owner downgrades,
    // invalidations and the writeback path.
    System sys(SystemConfig::paper(CoherenceMode::kCcsm));
    sys.attachCoverage(&cov_);
    const Addr arr = sys.allocateArray(64 * kLineSize, true);

    // CPU produces (MM at CPU), GPU reads (MM --SnpGetS--> O at CPU), GPU
    // writes (O --SnpGetX--> I at CPU), CPU reads back (S at CPU after the
    // slice supplies), CPU writes again (S --Store--> SM_D upgrade).
    CpuProgram produce;
    for (std::uint32_t i = 0; i < 64; ++i)
        produce.push_back(
            cpuStore(arr + static_cast<Addr>(i) * kLineSize, i, 4));
    produce.push_back(cpuFence());

    KernelDesc k;
    k.name = "touch";
    k.blocks = 2;
    k.threadsPerBlock = 32;
    k.body = [arr](ThreadBuilder& t, std::uint32_t b, std::uint32_t tid) {
        const std::uint32_t i = b * 32 + tid;
        t.ld(arr + static_cast<Addr>(i) * kLineSize, 4);
        t.st(arr + static_cast<Addr>(i) * kLineSize, i + 1, 4);
    };

    CpuProgram readBack;
    for (std::uint32_t i = 0; i < 64; ++i)
        readBack.push_back(cpuLoad(arr + static_cast<Addr>(i) * kLineSize, 4));
    CpuProgram writeAgain;
    for (std::uint32_t i = 0; i < 64; ++i)
        writeAgain.push_back(
            cpuStore(arr + static_cast<Addr>(i) * kLineSize, i + 2, 4));
    writeAgain.push_back(cpuFence());

    sys.runCpuProgram(produce, [&] {
        sys.launchKernel(k, [&] {
            sys.runCpuProgram(readBack, [&] {
                sys.runCpuProgram(writeAgain, [] {});
            });
        });
    });
    sys.simulate();

    EXPECT_TRUE(covered(CohState::kMM, CohEvent::kSnpGetS, CohState::kO));
    EXPECT_TRUE(covered(CohState::kMM, CohEvent::kSnpGetX, CohState::kI) ||
                covered(CohState::kO, CohEvent::kSnpGetX, CohState::kI));
    EXPECT_TRUE(covered(CohState::kS, CohEvent::kStore, CohState::kSM_D) ||
                covered(CohState::kO, CohEvent::kStore, CohState::kSM_D));
}

TEST_F(Fig3Coverage, EvictionAndWritebackAckEdges)
{
    // Conflict misses on a tiny system flush dirty lines through MI_A.
    System sys(SystemConfig::paper(CoherenceMode::kCcsm));
    sys.attachCoverage(&cov_);
    // Stride by the CPU L2 set count so one set overflows: 2 MB / 8 ways /
    // 128 B = 2048 sets; 32 strides span 8 MB.
    const Addr arr = sys.allocateArray(33ull * 2048 * kLineSize, false);
    CpuProgram prog;
    for (std::uint32_t i = 0; i < 32; ++i)
        prog.push_back(
            cpuStore(arr + static_cast<Addr>(i) * 2048 * kLineSize, i, 4));
    prog.push_back(cpuFence());
    sys.runCpuProgram(prog, [] {});
    sys.simulate();

    EXPECT_TRUE(covered(CohState::kMM, CohEvent::kEvict, CohState::kMI_A));
    EXPECT_TRUE(covered(CohState::kMI_A, CohEvent::kWbAck, CohState::kI));
}

TEST_F(Fig3Coverage, RemoteStoreEdges)
{
    // The paper's bold edges: remote stores leave the CPU in I from every
    // starting state; the blue edge installs at the slice.
    System sys(SystemConfig::paper(CoherenceMode::kDirectStore));
    sys.attachCoverage(&cov_);
    const Addr ds = sys.allocateArray(16 * kLineSize, true);

    CpuProgram produce;
    for (std::uint32_t i = 0; i < 16 * kLineSize / 4; ++i)
        produce.push_back(cpuStore(ds + i * 4ull, i, 4));
    produce.push_back(cpuFence());
    // A partial line afterwards exercises the fetch-merge path.
    produce.push_back(cpuStore(ds + 4, 0x99, 4));
    produce.push_back(cpuFence());
    sys.runCpuProgram(produce, [] {});
    sys.simulate();

    // CPU side: I --RemoteStore--> I (DS region is never CPU-cached).
    EXPECT_TRUE(covered(CohState::kI, CohEvent::kRemoteStore, CohState::kI));
    // Slice side: the install (blue edge; M in our write-through variant)
    // and the merge ending MM.
    EXPECT_TRUE(covered(CohState::kI, CohEvent::kRemoteStore, CohState::kM));
    EXPECT_TRUE(covered(CohState::kMM, CohEvent::kRemoteStore, CohState::kMM));

    // The defensive CPU-side transitions (S/M/MM -> I): drive the agent
    // directly, since translated programs never cache the DS region.
    const Addr heap = sys.allocateArray(4 * kLineSize, false);
    CpuProgram cpuOps;
    cpuOps.push_back(cpuStore(heap, 1, 4)); // -> MM at the CPU agent
    cpuOps.push_back(cpuFence());
    cpuOps.push_back(cpuLoad(heap + kLineSize, 4)); // -> M at the CPU agent
    sys.runCpuProgram(cpuOps, [] {});
    sys.simulate();

    const Addr paMm = sys.addressSpace().translate(heap).paddr;
    const Addr paM = sys.addressSpace().translate(heap + kLineSize).paddr;
    ASSERT_EQ(sys.cpuCache().stateOf(paMm), CohState::kMM);
    ASSERT_EQ(sys.cpuCache().stateOf(paM), CohState::kM);
    int ready = 0;
    sys.cpuCache().prepareRemoteStore(paMm, [&ready] { ++ready; });
    sys.cpuCache().prepareRemoteStore(paM, [&ready] { ++ready; });
    sys.simulate();
    EXPECT_EQ(ready, 2);
    EXPECT_TRUE(covered(CohState::kMM, CohEvent::kRemoteStore, CohState::kI));
    EXPECT_TRUE(covered(CohState::kM, CohEvent::kRemoteStore, CohState::kI));
    EXPECT_EQ(sys.cpuCache().stateOf(paMm), CohState::kI);
    EXPECT_EQ(sys.cpuCache().stateOf(paM), CohState::kI);
}

/// Runs @p code small under @p mode with @p cov attached and returns the
/// table's dump.
std::string coveredRun(const char* code, CoherenceMode mode,
                       TransitionCoverage& cov)
{
    WorkloadRun run(WorkloadRegistry::instance().get(code), InputSize::kSmall,
                    mode);
    run.system().attachCoverage(&cov);
    run.run();
    std::ostringstream os;
    cov.dump(os);
    return os.str();
}

TEST_F(Fig3Coverage, DumpListsTransitions)
{
    const std::string text =
        coveredRun("VA", CoherenceMode::kDirectStore, cov_);
    EXPECT_NE(text.find("I --RemoteStore--> M"), std::string::npos);
    EXPECT_GT(cov_.distinctTransitions(), 5u);
}

TEST(TransitionCoverage, ConcurrentSystemsEachRecordOnlyTheirOwnRun)
{
    // Reference tables, one run each, on this thread.
    TransitionCoverage ccsmRef;
    TransitionCoverage dsRef;
    const std::string ccsmText =
        coveredRun("VA", CoherenceMode::kCcsm, ccsmRef);
    const std::string dsText =
        coveredRun("VA", CoherenceMode::kDirectStore, dsRef);
    // Only a direct-store run installs pushed lines at the slice.
    EXPECT_TRUE(dsRef.covered(CohState::kI, CohEvent::kRemoteStore,
                              CohState::kM));
    EXPECT_FALSE(ccsmRef.covered(CohState::kI, CohEvent::kRemoteStore,
                                 CohState::kM));

    // The same two runs at once, on two threads, each with its own table:
    // each table holds exactly its own run's counts.
    TransitionCoverage ccsmCov;
    TransitionCoverage dsCov;
    std::string ccsmSeen;
    std::string dsSeen;
    std::thread ccsm([&] {
        ccsmSeen = coveredRun("VA", CoherenceMode::kCcsm, ccsmCov);
    });
    std::thread ds([&] {
        dsSeen = coveredRun("VA", CoherenceMode::kDirectStore, dsCov);
    });
    ccsm.join();
    ds.join();
    EXPECT_EQ(ccsmSeen, ccsmText);
    EXPECT_EQ(dsSeen, dsText);
}

} // namespace
} // namespace dscoh
