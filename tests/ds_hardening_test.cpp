// Direct-store delivery hardening, end to end: under injected DS-network
// faults the ACK/timeout/retransmit machinery (and, past the retry budget,
// the pull-based fallback path) must keep producer/consumer runs correct —
// zero check failures, no invariant violations, a clean oracle, every
// msgPool slot back — while the hardening counters prove the recovery
// actually exercised.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "check/coherence_checker.h"
#include "core/system.h"

namespace dscoh {
namespace {

struct HardenedResult {
    RunMetrics metrics;
    std::vector<std::string> violations;
    bool oracleClean = false;
    std::string oracleDump;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t fallbackStores = 0;
    std::uint64_t fallbackLoads = 0;
    std::uint64_t dupSquashed = 0;
    std::uint64_t nacks = 0;
    /// msgPool slots still held once the run drained (the fallback path
    /// parks the abandoned push in one).
    std::size_t slotsInUse = 0;
};

/// CPU produces @p words 8-byte values, a kernel checks them all, and with
/// @p readBack the CPU then uncached-loads every word back. The caller's
/// @p tweak arms the faults and the hardening.
HardenedResult runHardened(const std::function<void(SystemConfig&)>& tweak,
                           std::uint32_t words, bool readBack)
{
    SystemConfig cfg = SystemConfig::paper(CoherenceMode::kDirectStore);
    cfg.numSms = 4;
    tweak(cfg);
    System sys(cfg);
    CoherenceChecker& checker = sys.enableChecker();

    const Addr array = sys.allocateArray(words * 8ull, /*gpuShared=*/true);
    CpuProgram produce;
    for (std::uint32_t i = 0; i < words; ++i)
        produce.push_back(cpuStore(array + i * 8ull, 0xd00d0000ull + i, 8));
    produce.push_back(cpuFence());

    KernelDesc kernel;
    kernel.name = "consume";
    kernel.blocks = 4;
    kernel.threadsPerBlock = 64;
    constexpr std::uint32_t kTotalThreads = 4 * 64;
    kernel.body = [array, words](ThreadBuilder& t, std::uint32_t block,
                                 std::uint32_t thread) {
        for (std::uint32_t i = block * 64 + thread; i < words;
             i += kTotalThreads) {
            t.ldCheck(array + i * 8ull, 0xd00d0000ull + i, 8);
            t.compute(4);
        }
    };

    CpuProgram readback;
    for (std::uint32_t i = 0; i < words; ++i)
        readback.push_back(cpuLoadCheck(array + i * 8ull, 0xd00d0000ull + i, 8));

    sys.runCpuProgram(produce, [&] {
        sys.launchKernel(kernel, [&] {
            if (readBack)
                sys.runCpuProgram(readback, [] {});
        });
    });
    sys.simulate();
    checker.finalize(sys.context().queue.curTick());

    HardenedResult r;
    r.metrics = sys.metrics();
    r.violations = sys.checkCoherenceInvariants();
    r.slotsInUse = sys.context().msgPool.inUse();
    r.oracleClean = checker.clean();
    if (!r.oracleClean) {
        std::ostringstream os;
        checker.dump(os);
        r.oracleDump = os.str();
    }
    const StatRegistry& stats = sys.stats();
    r.retries = stats.counter("cpu.core.ds_retries");
    r.timeouts = stats.counter("cpu.core.ds_timeouts");
    r.fallbackStores = stats.counter("cpu.core.ds_fallback_stores");
    r.fallbackLoads = stats.counter("cpu.core.ds_fallback_loads");
    for (std::uint32_t s = 0; s < cfg.gpuL2Slices; ++s) {
        const std::string p = "gpu.l2.slice" + std::to_string(s);
        r.dupSquashed += stats.counter(p + ".ds_duplicates_squashed");
        r.nacks += stats.counter(p + ".ds_nacks");
    }
    return r;
}

void expectClean(const HardenedResult& r)
{
    EXPECT_EQ(r.metrics.checkFailures, 0u);
    EXPECT_TRUE(r.violations.empty())
        << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_TRUE(r.oracleClean) << r.oracleDump;
    EXPECT_EQ(r.slotsInUse, 0u);
}

TEST(DsHardening, RetransmitRecoversFromDrops)
{
    const HardenedResult r = runHardened(
        [](SystemConfig& cfg) {
            cfg.faults.dropPpm = 200'000; // every 5th DS message vanishes
            cfg.dsAckTimeout = 4000;
            // Pushes and acks drop alike (~36% loss per attempt), so give
            // the budget headroom: recovery must stay on the push path.
            cfg.dsMaxRetries = 10;
        },
        1024, /*readBack=*/false);
    expectClean(r);
    EXPECT_GT(r.timeouts, 0u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_EQ(r.fallbackStores, 0u)
        << "20% drops must be absorbed within the retry budget";
}

TEST(DsHardening, LinkDownDegradesToFallback)
{
    const HardenedResult r = runHardened(
        [](SystemConfig& cfg) {
            // The DS network is down for the whole run: every push and every
            // uncached read must degrade to the pull-based coherence path.
            cfg.faults.linkDownFrom = 0;
            cfg.faults.linkDownUntil = 2'000'000'000;
            cfg.dsAckTimeout = 2000;
            cfg.dsMaxRetries = 2;
        },
        256, /*readBack=*/true);
    expectClean(r);
    EXPECT_GT(r.fallbackStores, 0u);
    EXPECT_GT(r.fallbackLoads, 0u);
}

TEST(DsHardening, DuplicatesAreSquashedIdempotently)
{
    const HardenedResult r = runHardened(
        [](SystemConfig& cfg) {
            cfg.faults.dupPpm = 1'000'000; // every DS message sent twice
            cfg.dsAckTimeout = 4000;
        },
        1024, /*readBack=*/false);
    expectClean(r);
    EXPECT_GT(r.dupSquashed, 0u);
}

TEST(DsHardening, CorruptionIsNackedAndRetransmitted)
{
    const HardenedResult r = runHardened(
        [](SystemConfig& cfg) {
            cfg.faults.corruptPpm = 300'000;
            cfg.dsAckTimeout = 6000;
        },
        1024, /*readBack=*/false);
    expectClean(r);
    EXPECT_GT(r.nacks, 0u);
    EXPECT_GT(r.retries, 0u);
}

TEST(DsHardening, FaultFreeHardenedRunMatchesBaselineResults)
{
    // Arming the hardening without faults must not change correctness (it
    // does add acks, so traffic differs — only the outcome is compared).
    const HardenedResult r = runHardened(
        [](SystemConfig& cfg) { cfg.dsAckTimeout = 4000; }, 1024,
        /*readBack=*/true);
    expectClean(r);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.timeouts, 0u);
    EXPECT_EQ(r.fallbackStores, 0u);
    EXPECT_EQ(r.fallbackLoads, 0u);
    EXPECT_EQ(r.nacks, 0u);
}

} // namespace
} // namespace dscoh
