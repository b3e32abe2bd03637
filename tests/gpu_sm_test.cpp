// SM and GPU-device behaviour, driven through a full System so the memory
// backend is real: coalescing, warp padding, shared-memory ops, kernel
// completion including store draining, and multi-kernel sequencing.
#include <gtest/gtest.h>

#include "core/system.h"

namespace dscoh {
namespace {

SystemConfig tinyGpuConfig()
{
    SystemConfig cfg = SystemConfig::paper(CoherenceMode::kCcsm);
    cfg.numSms = 2;
    return cfg;
}

TEST(GpuSm, CoalescedWarpLoadIsOneTransactionPerLine)
{
    System sys(tinyGpuConfig());
    const Addr arr = sys.allocateArray(32 * 4, true); // one warp, 4B each

    KernelDesc k;
    k.name = "coalesced";
    k.blocks = 1;
    k.threadsPerBlock = 32;
    k.body = [arr](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        t.ld(arr + tid * 4ull, 4); // 32 lanes x 4B = exactly one 128B line
    };
    sys.launchKernel(k, [] {});
    sys.simulate();

    // 32 lane-loads, one coalesced transaction.
    EXPECT_EQ(sys.stats().counter("gpu.sm0.global_loads"), 32u);
    EXPECT_EQ(sys.stats().counter("gpu.sm0.coalesced_transactions"), 1u);
}

TEST(GpuSm, UncoalescedWarpLoadFansOut)
{
    System sys(tinyGpuConfig());
    const Addr arr = sys.allocateArray(32 * kLineSize, true);

    KernelDesc k;
    k.name = "strided";
    k.blocks = 1;
    k.threadsPerBlock = 32;
    k.body = [arr](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        t.ld(arr + static_cast<Addr>(tid) * kLineSize, 4); // one line per lane
    };
    sys.launchKernel(k, [] {});
    sys.simulate();
    EXPECT_EQ(sys.stats().counter("gpu.sm0.coalesced_transactions"), 32u);
}

TEST(GpuSm, DivergentLaneStreamsArePadded)
{
    System sys(tinyGpuConfig());
    const Addr arr = sys.allocateArray(64 * 4, true);
    bool done = false;
    KernelDesc k;
    k.name = "divergent";
    k.blocks = 1;
    k.threadsPerBlock = 32;
    k.body = [arr](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        // Lanes emit different op counts; the SM pads with nops.
        for (std::uint32_t i = 0; i <= tid % 4; ++i)
            t.st(arr + (tid * 4ull), tid, 4);
    };
    sys.launchKernel(k, [&done] { done = true; });
    sys.simulate();
    EXPECT_TRUE(done);
    EXPECT_EQ(sys.sm(0).checkFailures() + sys.sm(1).checkFailures(), 0u);
}

TEST(GpuSm, SharedMemoryOpsGenerateNoL2Traffic)
{
    System sys(tinyGpuConfig());
    KernelDesc k;
    k.name = "smem_only";
    k.blocks = 2;
    k.threadsPerBlock = 64;
    k.usesSharedMemory = true;
    k.body = [](ThreadBuilder& t, std::uint32_t, std::uint32_t) {
        for (int i = 0; i < 8; ++i) {
            t.smemSt();
            t.smemLd();
            t.compute(2);
        }
    };
    sys.launchKernel(k, [] {});
    sys.simulate();
    RunMetrics m = sys.metrics();
    EXPECT_EQ(m.gpuL2Accesses, 0u);
    EXPECT_GT(sys.stats().sumCounters("gpu.sm"), 0u);
}

TEST(GpuSm, KernelCompletionWaitsForStoreAcks)
{
    System sys(tinyGpuConfig());
    const Addr arr = sys.allocateArray(4096 * 4, true);
    bool done = false;
    KernelDesc k;
    k.name = "store_heavy";
    k.blocks = 16; // 16 x 256 threads cover all 4096 slots
    k.threadsPerBlock = 256;
    k.body = [arr](ThreadBuilder& t, std::uint32_t b, std::uint32_t tid) {
        const std::uint32_t i = b * 256 + tid;
        if (i < 4096)
            t.st(arr + i * 4ull, i, 4);
    };
    sys.launchKernel(k, [&done] { done = true; });
    sys.simulate();
    ASSERT_TRUE(done);
    // Every store must be globally performed: read the values back.
    CpuProgram verify;
    for (std::uint32_t i = 0; i < 4096; i += 37)
        verify.push_back(cpuLoadCheck(arr + i * 4ull, i, 4));
    sys.runCpuProgram(verify, [] {});
    sys.simulate();
    EXPECT_EQ(sys.metrics().checkFailures, 0u);
}

TEST(GpuSm, BlocksDistributeAcrossSms)
{
    System sys(tinyGpuConfig());
    const Addr arr = sys.allocateArray(64 * 1024, true);
    KernelDesc k;
    k.name = "spread";
    k.blocks = 16;
    k.threadsPerBlock = 64;
    k.body = [arr](ThreadBuilder& t, std::uint32_t b, std::uint32_t tid) {
        t.ld(arr + (static_cast<Addr>(b) * 64 + tid) * 4, 4);
    };
    sys.launchKernel(k, [] {});
    sys.simulate();
    EXPECT_GT(sys.stats().counter("gpu.sm0.blocks"), 0u);
    EXPECT_GT(sys.stats().counter("gpu.sm1.blocks"), 0u);
    EXPECT_EQ(sys.stats().counter("gpu.sm0.blocks") +
                  sys.stats().counter("gpu.sm1.blocks"),
              16u);
    EXPECT_EQ(sys.stats().counter("gpu.device.blocks_dispatched"), 16u);
}

TEST(GpuSm, SequentialKernelsFlashInvalidateL1)
{
    System sys(tinyGpuConfig());
    const Addr arr = sys.allocateArray(1024, true);
    KernelDesc k;
    k.name = "reader";
    k.blocks = 1;
    k.threadsPerBlock = 32;
    k.body = [arr](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        t.ld(arr + tid * 4ull, 4);
    };
    int kernelsDone = 0;
    sys.launchKernel(k, [&] {
        ++kernelsDone;
        sys.launchKernel(k, [&] { ++kernelsDone; });
    });
    sys.simulate();
    EXPECT_EQ(kernelsDone, 2);
    // Two launches on the SM that got the block -> two flash invalidates on
    // every SM (all participate in beginKernel).
    EXPECT_EQ(sys.stats().counter("gpu.sm0.l1.flash_invalidates"), 2u);
}

TEST(GpuSm, WarpLatencyHidingOverlapsMisses)
{
    // With many warps, total time must be far below the serial sum of miss
    // latencies (the latency-hiding property the paper leans on).
    System sys(tinyGpuConfig());
    const Addr arr = sys.allocateArray(512 * kLineSize, true);
    KernelDesc k;
    k.name = "parallel_misses";
    k.blocks = 8;
    k.threadsPerBlock = 64;
    k.body = [arr](ThreadBuilder& t, std::uint32_t b, std::uint32_t tid) {
        t.ld(arr + (static_cast<Addr>(b) * 64 + tid) * kLineSize, 4);
    };
    sys.launchKernel(k, [] {});
    const Tick total = sys.simulate();
    // 512 misses x ~300 ticks serial would be ~150k; overlap must crush it.
    EXPECT_LT(total, 40000u);
}

/// Sum of one per-SM counter over the tiny config's two SMs.
std::uint64_t smSum(System& sys, const std::string& counter)
{
    return sys.stats().counter("gpu.sm0." + counter) +
           sys.stats().counter("gpu.sm1." + counter);
}

TEST(GpuSm, LoadChecksCountEveryMismatchedLane)
{
    // One block of two warps. Lane L reads word 2L of two produced lines
    // (two lines per step). Warp 0 misses in step 0 and hits the filled L1
    // in step 1; warp 1 issues a cycle after warp 0 and merges into its
    // outstanding lines. Each path expects a wrong value on its own lanes;
    // lanes with L % 7 == 3 load unchecked.
    System sys(tinyGpuConfig());
    const Addr arr = sys.allocateArray(2 * kLineSize, true);
    const auto word = [arr](std::uint32_t i) { return arr + i * 4ull; };
    const auto value = [](std::uint32_t i) { return 0x5000u + i; };
    CpuProgram produce;
    for (std::uint32_t i = 0; i < 2 * kLineSize / 4; ++i)
        produce.push_back(cpuStore(word(i), value(i), 4));
    produce.push_back(cpuFence());
    sys.runCpuProgram(produce, [] {});
    sys.simulate();
    ASSERT_EQ(sys.metrics().checkFailures, 0u);

    const auto wrong = [](std::uint32_t path, std::uint32_t lane) {
        return path == 0 ? lane % 4 == 0
                         : (path == 1 ? lane % 8 == 1 : lane % 16 == 2);
    };
    const auto checked = [](std::uint32_t lane) { return lane % 7 != 3; };
    std::uint64_t expected = 0;
    for (std::uint32_t path = 0; path < 3; ++path)
        for (std::uint32_t lane = 0; lane < 32; ++lane)
            expected += checked(lane) && wrong(path, lane) ? 1u : 0u;
    ASSERT_GT(expected, 0u);

    KernelDesc k;
    k.name = "checked_loads";
    k.blocks = 1;
    k.threadsPerBlock = 64;
    k.body = [=](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        const std::uint32_t lane = tid % 32;
        // Warp 0 runs paths 0 (miss) and 1 (hit); warp 1 path 2 (merge).
        const std::vector<std::uint32_t> paths =
            tid < 32 ? std::vector<std::uint32_t>{0, 1}
                     : std::vector<std::uint32_t>{2};
        for (const std::uint32_t path : paths) {
            const std::uint32_t i = 2 * lane;
            if (checked(lane))
                t.ldCheck(word(i), value(i) + (wrong(path, lane) ? 1 : 0), 4);
            else
                t.ld(word(i), 4);
        }
    };
    const std::uint64_t l2Before = sys.metrics().gpuL2Accesses;
    bool done = false;
    sys.launchKernel(k, [&done] { done = true; });
    sys.simulate();
    ASSERT_TRUE(done);

    EXPECT_EQ(smSum(sys, "check_failures"), expected);
    // The three paths really ran: 2 lines missed and sent, 2 merged, 2 hit.
    EXPECT_EQ(smSum(sys, "coalesced_transactions"), 6u);
    EXPECT_EQ(smSum(sys, "l1.misses"), 4u);
    EXPECT_EQ(smSum(sys, "l1.hits"), 2u);
    EXPECT_EQ(sys.metrics().gpuL2Accesses - l2Before, 2u);
}

TEST(GpuSm, OverlappingLaneStoresKeepTheLastLanesBytes)
{
    System sys(tinyGpuConfig());
    const Addr arr = sys.allocateArray(kLineSize, true);
    KernelDesc k;
    k.name = "overlap";
    k.blocks = 1;
    k.threadsPerBlock = 32;
    k.body = [arr](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        t.st(arr + 8, tid, 4); // every lane stores its id to one word
    };
    bool done = false;
    sys.launchKernel(k, [&done] { done = true; });
    sys.simulate();
    ASSERT_TRUE(done);
    EXPECT_EQ(smSum(sys, "global_stores"), 32u);
    EXPECT_EQ(smSum(sys, "coalesced_transactions"), 1u);

    // Lanes apply in order, so the last lane's bytes win; the rest of the
    // line stays zero.
    CpuProgram verify{cpuLoadCheck(arr + 8, 31, 4), cpuLoadCheck(arr + 4, 0, 4),
                      cpuLoadCheck(arr + 12, 0, 4)};
    sys.runCpuProgram(verify, [] {});
    sys.simulate();
    EXPECT_EQ(sys.metrics().checkFailures, 0u);
}

TEST(GpuSm, WideWarpsCoalesceEveryLine)
{
    // 128 lanes, each on its own line: more distinct lines per step than
    // the coalescer's stack arena holds, for a load step and a store step.
    SystemConfig cfg = tinyGpuConfig();
    cfg.lanesPerSm = 128;
    System sys(cfg);
    const Addr in = sys.allocateArray(128 * kLineSize, true);
    const Addr out = sys.allocateArray(128 * kLineSize, true);
    CpuProgram produce;
    for (std::uint32_t lane = 0; lane < 128; ++lane)
        produce.push_back(cpuStore(in + lane * kLineSize + 4, lane + 7, 4));
    produce.push_back(cpuFence());
    sys.runCpuProgram(produce, [] {});
    sys.simulate();

    KernelDesc k;
    k.name = "wide";
    k.blocks = 1;
    k.threadsPerBlock = 128;
    k.body = [in, out](ThreadBuilder& t, std::uint32_t, std::uint32_t tid) {
        const Addr off = static_cast<Addr>(tid) * kLineSize + 4;
        t.ldCheck(in + off, tid + 7, 4);
        t.st(out + off, tid + 9, 4);
    };
    bool done = false;
    sys.launchKernel(k, [&done] { done = true; });
    sys.simulate();
    ASSERT_TRUE(done);
    EXPECT_EQ(smSum(sys, "global_loads"), 128u);
    EXPECT_EQ(smSum(sys, "global_stores"), 128u);
    EXPECT_EQ(smSum(sys, "coalesced_transactions"), 256u);
    EXPECT_EQ(smSum(sys, "check_failures"), 0u);

    CpuProgram verify;
    for (std::uint32_t lane = 0; lane < 128; lane += 5)
        verify.push_back(cpuLoadCheck(out + lane * kLineSize + 4, lane + 9, 4));
    sys.runCpuProgram(verify, [] {});
    sys.simulate();
    EXPECT_EQ(sys.metrics().checkFailures, 0u);
}

TEST(GpuSm, UnmappedLaneAddressThrows)
{
    // Lanes 0-4 share a mapped page (the step's page memo holds it); lane 5
    // reads page 0, which is never mapped.
    for (const bool store : {false, true}) {
        System sys(tinyGpuConfig());
        const Addr arr = sys.allocateArray(kLineSize, true);
        KernelDesc k;
        k.name = "segv";
        k.blocks = 1;
        k.threadsPerBlock = 32;
        k.body = [arr, store](ThreadBuilder& t, std::uint32_t,
                              std::uint32_t tid) {
            const Addr va = tid == 5 ? 0x40 : arr + (tid % 5) * 4ull;
            if (store)
                t.st(va, tid, 4);
            else
                t.ld(va, 4);
        };
        sys.launchKernel(k, [] {});
        EXPECT_THROW(sys.simulate(), std::out_of_range) << store;
    }
}

} // namespace
} // namespace dscoh
