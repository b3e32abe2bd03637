// Fig. 3 gap report: sweep workloads plus directed scenarios, then compare
// the recorded transition coverage against the canonical edge table in
// coherence/fig3_edges.h. Failure output lists exactly the edges nothing
// exercised, so a protocol change that makes an edge unreachable (or adds
// an untested one) is reported by name instead of passing silently.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "coherence/fig3_edges.h"
#include "coherence/transition_coverage.h"
#include "core/system.h"
#include "workloads/runner.h"

namespace dscoh {
namespace {

// CPU L2 in the paper config: 2 MB / 8 ways / 128 B lines = 2048 sets.
constexpr std::uint32_t kCpuWays = 8;
constexpr Addr kCpuSetStride = 2048ull * kLineSize;

class Fig3GapReport : public ::testing::Test {
protected:
    void SetUp() override
    {
        TransitionCoverage::instance().reset();
        TransitionCoverage::instance().enable();
    }
    void TearDown() override
    {
        TransitionCoverage::instance().disable();
        TransitionCoverage::instance().reset();
    }
};

/// Cold misses, fills, hits and upgrades on a single agent.
void runBaselineScenario()
{
    System sys(SystemConfig::paper(CoherenceMode::kCcsm));
    const Addr a = sys.allocateArray(4 * kLineSize, false);
    CpuProgram prog;
    prog.push_back(cpuStore(a, 1, 4));            // I -> IM_D -> MM
    prog.push_back(cpuFence());
    prog.push_back(cpuStore(a + 4, 2, 4));        // MM write hit
    prog.push_back(cpuFence());
    prog.push_back(cpuLoadCheck(a, 1, 4));        // MM read hit
    prog.push_back(cpuLoad(a + kLineSize, 4));    // I -> IS_D -> M
    prog.push_back(cpuLoad(a + kLineSize, 4));    // M read hit
    prog.push_back(cpuStore(a + kLineSize, 3, 4)); // M -> SM_D -> MM
    prog.push_back(cpuFence());
    sys.runCpuProgram(prog, [] {});
    sys.simulate();
}

/// CPU and GPU contending: sharer fills, snoop downgrades/invalidations,
/// upgrades out of S and O.
void runContentionScenario()
{
    System sys(SystemConfig::paper(CoherenceMode::kCcsm));
    // Lines 0..31 are CPU-produced, 32..63 GPU-produced, 64.. untouched
    // (so cold CPU loads of them land M, not S).
    const Addr arr = sys.allocateArray(80 * kLineSize, true);
    const auto lineVa = [arr](std::uint32_t i) {
        return arr + static_cast<Addr>(i) * kLineSize;
    };

    CpuProgram produce; // MM at the CPU for lines 0..31
    for (std::uint32_t i = 0; i < 32; ++i)
        produce.push_back(cpuStore(lineVa(i), i, 4));
    produce.push_back(cpuFence());

    KernelDesc consume; // lines 0..15 read (CPU MM -> O), 16..31 written
    consume.name = "consume";
    consume.blocks = 1;
    consume.threadsPerBlock = 32;
    consume.body = [lineVa](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        if (tid < 16)
            t.ld(lineVa(tid), 4); // SnpGetS against MM
        else
            t.st(lineVa(tid), tid, 4); // SnpGetX against MM
    };

    KernelDesc produceGpu; // lines 32..63 become slice-owned
    produceGpu.name = "produceGpu";
    produceGpu.blocks = 1;
    produceGpu.threadsPerBlock = 32;
    produceGpu.body = [lineVa](ThreadBuilder& t, std::uint32_t,
                               std::uint32_t tid) {
        t.st(lineVa(32 + tid), tid, 4);
    };

    CpuProgram mixCpu;
    // Owner hits and an owner upgrade (lines the GPU only read).
    mixCpu.push_back(cpuLoad(lineVa(0), 4));   // O read hit
    mixCpu.push_back(cpuStore(lineVa(1), 7, 4)); // O -> SM_D -> MM
    mixCpu.push_back(cpuFence());
    // Shared fills from the slice-owned lines, then S hits and an upgrade.
    for (std::uint32_t i = 32; i < 40; ++i)
        mixCpu.push_back(cpuLoad(lineVa(i), 4)); // IS_D -> S
    mixCpu.push_back(cpuLoad(lineVa(32), 4));    // S read hit
    mixCpu.push_back(cpuStore(lineVa(33), 9, 4)); // S -> SM_D -> MM
    mixCpu.push_back(cpuFence());
    // Cold loads of untouched lines land clean-exclusive M; the GPU then
    // reads one (M -> SnpGetS -> O) and writes the other (M -> SnpGetX -> I).
    mixCpu.push_back(cpuLoad(lineVa(64), 4));
    mixCpu.push_back(cpuLoad(lineVa(65), 4));

    KernelDesc invalidate; // snoops against S (34), O (2) and M (64/65)
    invalidate.name = "invalidate";
    invalidate.blocks = 1;
    invalidate.threadsPerBlock = 32;
    invalidate.body = [lineVa](ThreadBuilder& t, std::uint32_t,
                               std::uint32_t tid) {
        if (tid == 0)
            t.st(lineVa(34), 1, 4);
        else if (tid == 1)
            t.st(lineVa(2), 1, 4);
        else if (tid == 2)
            t.ld(lineVa(64), 4);
        else if (tid == 3)
            t.st(lineVa(65), 1, 4);
    };

    sys.runCpuProgram(produce, [&] {
        sys.launchKernel(consume, [&] {
            sys.launchKernel(produceGpu, [&] {
                sys.runCpuProgram(mixCpu, [&] {
                    sys.launchKernel(invalidate, [] {});
                });
            });
        });
    });
    sys.simulate();
}

/// Replacement out of every stable state: silent drops of S and M, dirty
/// writebacks out of MM and O, and their acks — plus the owner self-loop
/// O --SnpGetS--> O when a re-reader finds the evicted-then-refetched line.
void runEvictionScenario()
{
    System sys(SystemConfig::paper(CoherenceMode::kCcsm));
    // One CPU set, kCpuWays + 1 conflicting lines per wave.
    const std::uint32_t lines = kCpuWays + 1;
    const Addr arr =
        sys.allocateArray(static_cast<Addr>(4 * lines) * kCpuSetStride, true);
    const auto wave = [arr](std::uint32_t w, std::uint32_t i) {
        return arr + static_cast<Addr>(w * lines + i) * kCpuSetStride;
    };

    // Wave 0: CPU dirties the set past capacity -> MM Evict MI_A, WbAck.
    CpuProgram dirty;
    for (std::uint32_t i = 0; i < lines; ++i)
        dirty.push_back(cpuStore(wave(0, i), i, 4));
    dirty.push_back(cpuFence());

    // Wave 1: CPU dirties, the GPU reads (CPU MM -> O), then CPU cold-loads
    // the rest of the set -> O Evict OI_A, WbAck; the loads themselves land
    // M and overflow -> M Evict I.
    CpuProgram own;
    for (std::uint32_t i = 0; i < 2; ++i)
        own.push_back(cpuStore(wave(1, i), i, 4));
    own.push_back(cpuFence());
    KernelDesc reader;
    reader.name = "reader";
    reader.blocks = 1;
    reader.threadsPerBlock = 32;
    reader.body = [&wave](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        if (tid < 2)
            t.ld(wave(1, tid), 4);
    };
    CpuProgram coldFill;
    for (std::uint32_t i = 2; i < lines; ++i)
        coldFill.push_back(cpuLoad(wave(1, i), 4));
    for (std::uint32_t i = 0; i < lines; ++i)
        coldFill.push_back(cpuLoad(wave(2, i), 4));

    // Wave 3: the GPU owns a line (slice MM -> O once the CPU reads it);
    // evicting the CPU's S copy and re-reading makes the slice supply again
    // from O (O --SnpGetS--> O at the slice), and the S copies overflowing
    // the set cover S Evict I.
    KernelDesc gpuProduce;
    gpuProduce.name = "gpuProduce";
    gpuProduce.blocks = 1;
    gpuProduce.threadsPerBlock = 32;
    gpuProduce.body = [&wave](ThreadBuilder& t, std::uint32_t,
                              std::uint32_t tid) {
        if (tid < kCpuWays + 1)
            t.st(wave(3, tid), tid, 4);
    };
    CpuProgram shareIn; // fills land S (slice stays owner)
    for (std::uint32_t i = 0; i < lines; ++i)
        shareIn.push_back(cpuLoad(wave(3, i), 4));
    CpuProgram reRead; // the evicted victim refetches from the slice's O copy
    reRead.push_back(cpuLoad(wave(3, 0), 4));

    sys.runCpuProgram(dirty, [&] {
        sys.runCpuProgram(own, [&] {
            sys.launchKernel(reader, [&] {
                sys.runCpuProgram(coldFill, [&] {
                    sys.launchKernel(gpuProduce, [&] {
                        sys.runCpuProgram(shareIn, [&] {
                            sys.runCpuProgram(reRead, [] {});
                        });
                    });
                });
            });
        });
    });
    sys.simulate();
}

/// The direct-store extension: CPU-side remote-store edges out of every
/// stable state and the slice-side install/merge edges.
void runDirectStoreScenario()
{
    System sys(SystemConfig::paper(CoherenceMode::kDirectStore));
    const Addr ds = sys.allocateArray(8 * kLineSize, true);

    CpuProgram produce; // full lines install at the slice; CPU stays I
    for (std::uint32_t i = 0; i < 8 * kLineSize / 4; ++i)
        produce.push_back(cpuStore(ds + i * 4ull, i, 4));
    produce.push_back(cpuFence());
    produce.push_back(cpuStore(ds + 4, 0x99, 4)); // partial -> slice merge
    produce.push_back(cpuFence());
    sys.runCpuProgram(produce, [] {});
    sys.simulate();

    // The defensive CPU-side edges (S/M/MM/O -> I) need the CPU to hold a
    // copy, and in direct-store mode a shared allocation is DS-mapped (the
    // CPU never caches it). prepareRemoteStore is an agent-level method, so
    // set the states up in a CCSM system and drive it directly there.
    System ccsm(SystemConfig::paper(CoherenceMode::kCcsm));
    const Addr heap = ccsm.allocateArray(8 * kLineSize, true);
    CpuProgram setup;
    setup.push_back(cpuStore(heap, 1, 4)); // line 0 -> MM
    setup.push_back(cpuStore(heap + kLineSize, 1, 4)); // line 1 -> MM -> O
    setup.push_back(cpuFence());
    setup.push_back(cpuLoad(heap + 2 * kLineSize, 4)); // line 2 -> M
    KernelDesc touch; // line 1: CPU -> O; line 3: slice-owned for the S fill
    touch.name = "touch";
    touch.blocks = 1;
    touch.threadsPerBlock = 32;
    touch.body = [heap](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        if (tid == 0)
            t.ld(heap + kLineSize, 4);
        else if (tid == 1)
            t.st(heap + 3 * kLineSize, 5, 4);
    };
    CpuProgram shareIn; // line 3 -> S at the CPU
    shareIn.push_back(cpuLoad(heap + 3 * kLineSize, 4));
    ccsm.runCpuProgram(setup, [&] {
        ccsm.launchKernel(touch, [&] {
            ccsm.runCpuProgram(shareIn, [] {});
        });
    });
    ccsm.simulate();

    const auto pa = [&ccsm, heap](std::uint32_t line) {
        return ccsm.addressSpace()
            .translate(heap + static_cast<Addr>(line) * kLineSize)
            .paddr;
    };
    ASSERT_EQ(ccsm.cpuCache().stateOf(pa(0)), CohState::kMM);
    ASSERT_EQ(ccsm.cpuCache().stateOf(pa(1)), CohState::kO);
    ASSERT_EQ(ccsm.cpuCache().stateOf(pa(2)), CohState::kM);
    ASSERT_EQ(ccsm.cpuCache().stateOf(pa(3)), CohState::kS);
    int ready = 0;
    for (std::uint32_t line = 0; line < 4; ++line)
        ccsm.cpuCache().prepareRemoteStore(pa(line), [&ready] { ++ready; });
    ccsm.simulate();
    ASSERT_EQ(ready, 4);
}

/// The delivery-hardening edges (PROTOCOL.md "Delivery hardening"): a
/// whole-run DS outage degrades every push to the pull path
/// (I --FallbackStore--> MM), a corrupted push is nacked in place
/// (I --CorruptPush--> I), and a retransmit crossing a lost ack is squashed
/// at the slice as an already-served duplicate (MM --DupPush--> MM).
void runHardenedDeliveryScenario()
{
    const auto pushLines = [](SystemConfig cfg) {
        System sys(std::move(cfg));
        const Addr ds = sys.allocateArray(2 * kLineSize, true);
        CpuProgram p;
        for (std::uint32_t i = 0; i < 2 * kLineSize / 4; ++i)
            p.push_back(cpuStore(ds + i * 4ull, i, 4));
        p.push_back(cpuFence());
        sys.runCpuProgram(p, [] {});
        sys.simulate();
    };

    // DS network down for the whole run: pushes never go on the wire and
    // degrade straight to the coherent fallback store.
    SystemConfig outage = SystemConfig::paper(CoherenceMode::kDirectStore);
    outage.faults.linkDownFrom = 0;
    outage.faults.linkDownUntil = 2'000'000'000;
    outage.dsAckTimeout = 2000;
    outage.dsMaxRetries = 1;
    pushLines(outage);

    // Half the DS messages are corrupted in flight: the slice's checksum
    // check rejects them until a clean retransmit lands.
    SystemConfig corrupt = SystemConfig::paper(CoherenceMode::kDirectStore);
    corrupt.faults.corruptPpm = 500'000;
    corrupt.dsAckTimeout = 4000;
    pushLines(corrupt);

    // Every CPU-bound message (i.e. every DsAck) is dropped early on: the
    // slice serves the push, the ack vanishes, and the CPU's retransmit
    // arrives as a duplicate of an already-served transaction — squashed,
    // with the ack replayed once the outage window has passed.
    SystemConfig lostAcks = SystemConfig::paper(CoherenceMode::kDirectStore);
    lostAcks.faults.dropPpm = 1'000'000;
    lostAcks.faults.dstFilter =
        HomeMap(1, ShardPolicy::kPage, lostAcks.gpuL2Slices).cpuCoreNode();
    lostAcks.faults.windowStart = 0;
    lostAcks.faults.windowEnd = 6000;
    lostAcks.dsAckTimeout = 20'000;
    pushLines(lostAcks);
}

/// The multi-GPU edges: cross-shard request routing (RemoteGetS/RemoteGetX)
/// and the timestamp fast path (TsGrant out of M and MM, TsFill, TsExpire,
/// TsFallback, and the write hold against an active lease).
void runMultiGpuScenario()
{
    SystemConfig cfg = SystemConfig::paper(CoherenceMode::kDirectStore);
    cfg.numGpus = 2;
    cfg.shardPolicy = ShardPolicy::kPage;
    cfg.tsLeaseTicks = 100'000;
    System sys(cfg);

    // One page homed at GPU 0; GPU 1 is the remote reader throughout.
    const Addr arr = sys.allocateArrayHomed(kPageSize, 0);
    const auto lineVa = [arr](std::uint32_t i) {
        return arr + static_cast<Addr>(i) * kLineSize;
    };

    CpuProgram produce; // full-line pushes: lines 0..1 -> MM at GPU0's slice
    for (std::uint32_t i = 0; i < 2 * kLineSize / 4; ++i)
        produce.push_back(cpuStore(arr + i * 4ull, i, 4));
    produce.push_back(cpuFence());

    KernelDesc warm; // GPU0 cold-loads line 2 -> clean-exclusive M locally
    warm.name = "warm";
    warm.blocks = 1;
    warm.threadsPerBlock = 32;
    warm.gpu = 0;
    warm.body = [lineVa](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        if (tid == 0)
            t.ld(lineVa(2), 4);
        else
            t.nop();
    };

    KernelDesc lease; // GPU1: leases out of MM and M, a NACKed line, and a
    lease.name = "lease"; // remote store miss
    lease.blocks = 1;
    lease.threadsPerBlock = 32;
    lease.gpu = 1;
    lease.body = [lineVa](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        if (tid == 0)
            t.ld(lineVa(0), 4); // MM --TsGrant--> MM, I --TsFill--> I
        else if (tid == 1)
            t.ld(lineVa(2), 4); // M --TsGrant--> M
        else if (tid == 2)
            t.ld(lineVa(3), 4); // home slice I: TsFallback + RemoteGetS
        else if (tid == 3)
            t.st(lineVa(4), 9, 4); // I --RemoteGetX--> IM_D
        else
            t.nop();
    };

    KernelDesc hold; // GPU0 writes line 0 while GPU1's lease is live:
    hold.name = "hold"; // MM --LeaseHold--> MM, applied at lease expiry
    hold.blocks = 1;
    hold.threadsPerBlock = 32;
    hold.gpu = 0;
    hold.body = [lineVa](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        if (tid == 0)
            t.st(lineVa(0), 7, 4);
        else
            t.nop();
    };

    KernelDesc expire; // GPU1 re-reads after the hold drained past expiry:
    expire.name = "expire"; // I --TsExpire--> I, then a fresh pull
    expire.blocks = 1;
    expire.threadsPerBlock = 32;
    expire.gpu = 1;
    expire.body = [lineVa](ThreadBuilder& t, std::uint32_t,
                           std::uint32_t tid) {
        if (tid == 0)
            t.ldCheck(lineVa(0), 7, 4);
        else
            t.nop();
    };

    sys.runCpuProgram(produce, [&] {
        sys.launchKernel(warm, [&] {
            sys.launchKernel(lease, [&] {
                sys.launchKernel(hold, [&] {
                    sys.launchKernel(expire, [] {});
                });
            });
        });
    });
    sys.simulate();
    EXPECT_EQ(sys.metrics().checkFailures, 0u);
    EXPECT_TRUE(sys.checkCoherenceInvariants().empty());
}

TEST_F(Fig3GapReport, AllStableEdgesCovered)
{
    // Real workloads first (broad, incidental coverage)...
    runWorkload(WorkloadRegistry::instance().get("VA"), InputSize::kSmall,
                CoherenceMode::kCcsm);
    runWorkload(WorkloadRegistry::instance().get("VA"), InputSize::kSmall,
                CoherenceMode::kDirectStore);
    // ...then directed scenarios for the edges workloads rarely take.
    runBaselineScenario();
    runContentionScenario();
    runEvictionScenario();
    runDirectStoreScenario();
    runHardenedDeliveryScenario();
    runMultiGpuScenario();

    const TransitionCoverage& cov = TransitionCoverage::instance();
    std::vector<const Fig3Edge*> gaps;
    for (const Fig3Edge& e : kFig3StableEdges)
        if (!cov.covered(e.from, e.event, e.to))
            gaps.push_back(&e);

    std::ostringstream report;
    report << "uncovered Fig. 3 edges (" << gaps.size() << "/"
           << kFig3StableEdgeCount << "):\n";
    for (const Fig3Edge* e : gaps)
        report << "  " << to_string(e->from) << " --" << to_string(e->event)
               << "--> " << to_string(e->to) << "  (" << e->note << ")\n";
    EXPECT_TRUE(gaps.empty()) << report.str();
}

TEST_F(Fig3GapReport, TableIsWellFormed)
{
    // Every table entry must be unique; the race list must not duplicate
    // the stable list.
    std::vector<std::tuple<CohState, CohEvent, CohState>> seen;
    const auto add = [&seen](const Fig3Edge& e) {
        const auto key = std::make_tuple(e.from, e.event, e.to);
        for (const auto& k : seen)
            if (k == key)
                return false;
        seen.push_back(key);
        return true;
    };
    for (const Fig3Edge& e : kFig3StableEdges)
        EXPECT_TRUE(add(e)) << "duplicate stable edge: " << to_string(e.from)
                            << " --" << to_string(e.event) << "--> "
                            << to_string(e.to);
    for (const Fig3Edge& e : kRaceEdges)
        EXPECT_TRUE(add(e)) << "race edge duplicates a stable edge: "
                            << to_string(e.from) << " --"
                            << to_string(e.event) << "--> " << to_string(e.to);
}

} // namespace
} // namespace dscoh
