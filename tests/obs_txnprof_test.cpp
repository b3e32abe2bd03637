// Transaction-level latency attribution: the TxnProfiler must attribute
// hop intervals to the right critical-path buckets, keep a deterministic
// top-K, survive snapshot/restore byte-identically, stay inert for span id
// 0 and closed spans, and — end to end — show the direct-store push path
// skipping the directory/DRAM stages the CCSM pull path pays.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "obs/json_lite.h"
#include "obs/trace_session.h"
#include "obs/txn_profiler.h"
#include "snap/serializer.h"
#include "workloads/runner.h"

namespace dscoh {
namespace {

std::size_t bucket(StageBucket b)
{
    return static_cast<std::size_t>(b);
}

std::string profileJson(const TxnProfiler& p)
{
    std::ostringstream os;
    p.writeJson(os);
    return os.str();
}

TEST(TxnProfiler, AttributesIntervalsToTheLaterHopsBucket)
{
    TxnProfiler p;
    const std::uint64_t id = p.begin(TxnKind::kGetS, 0x1000, "req", 100);
    ASSERT_GE(id, 1u);
    p.hop(id, TxnStage::kHomeArrive, "home", 140); // 40 ticks of network
    p.hop(id, TxnStage::kDramDone, "home", 200);   // 60 ticks of dram
    p.end(id, 240);                                // 40 ticks to kDone

    const TxnProfiler::KindStats& ks = p.kindStats(TxnKind::kGetS);
    EXPECT_EQ(ks.count, 1u);
    EXPECT_EQ(ks.stageTicks[bucket(StageBucket::kNetwork)], 40u);
    EXPECT_EQ(ks.stageTicks[bucket(StageBucket::kDram)], 60u);
    EXPECT_EQ(ks.stageTicks[bucket(StageBucket::kInstall)], 40u);
    EXPECT_EQ(ks.stageTicks[bucket(StageBucket::kQueue)], 0u);
    EXPECT_EQ(p.begun(), 1u);
    EXPECT_EQ(p.completed(), 1u);
    EXPECT_EQ(p.openCount(), 0u);
}

TEST(TxnProfiler, IdZeroAndClosedSpansAreNoOps)
{
    TxnProfiler p;
    p.hop(0, TxnStage::kHomeArrive, "home", 10); // unprofiled message
    p.end(0, 20);
    EXPECT_EQ(p.begun(), 0u);
    EXPECT_EQ(p.completed(), 0u);

    const std::uint64_t id = p.begin(TxnKind::kDsPush, 0x40, "cpu", 0);
    p.end(id, 50);
    // A duplicate ack arriving after the span closed must change nothing.
    p.hop(id, TxnStage::kAckArrive, "cpu", 60);
    p.end(id, 70);
    EXPECT_EQ(p.completed(), 1u);
    EXPECT_EQ(p.kindStats(TxnKind::kDsPush).count, 1u);
}

TEST(TxnProfiler, TopKKeepsSlowestSortedByLatencyThenId)
{
    TxnProfiler::Params params;
    params.topK = 2;
    TxnProfiler p(params);
    const std::uint64_t a = p.begin(TxnKind::kGetS, 0x0, "t", 0);
    p.end(a, 10); // latency 10 — evicted
    const std::uint64_t b = p.begin(TxnKind::kGetS, 0x40, "t", 0);
    p.end(b, 30);
    const std::uint64_t c = p.begin(TxnKind::kGetS, 0x80, "t", 0);
    p.end(c, 30); // ties break toward the earlier id

    ASSERT_EQ(p.slowest().size(), 2u);
    EXPECT_EQ(p.slowest()[0].id, b);
    EXPECT_EQ(p.slowest()[1].id, c);
    EXPECT_EQ(p.slowest()[0].latency(), 30u);
}

TEST(TxnProfiler, RegionCountersTrackPushOutcomesAndGpuDemand)
{
    TxnProfiler p; // regionShift 12: one 4 KiB page per counter row
    const Addr page0 = 0x100;
    const std::uint64_t push = p.begin(TxnKind::kDsPush, page0, "cpu", 0);
    p.hop(push, TxnStage::kInstall, "slice", 30);
    p.end(push, 40);
    const std::uint64_t uc = p.begin(TxnKind::kUcRead, page0, "cpu", 50);
    p.end(uc, 90);
    const std::uint64_t pull = p.begin(TxnKind::kGetS, page0, "slice", 100);
    p.end(pull, 160);
    p.noteGpuDemand(page0, true);
    p.noteGpuDemand(page0 + 0x40, false);

    ASSERT_EQ(p.regions().size(), 1u);
    const TxnProfiler::RegionStats& r = p.regions().begin()->second;
    EXPECT_EQ(r.pushes, 1u);
    EXPECT_EQ(r.installs, 1u);
    EXPECT_EQ(r.bypasses, 0u);
    EXPECT_EQ(r.ucReads, 1u);
    EXPECT_EQ(r.pulls, 1u);
    EXPECT_EQ(r.gpuAccesses, 2u);
    EXPECT_EQ(r.gpuMisses, 1u);
    EXPECT_EQ(r.completed, 3u);
    EXPECT_EQ(r.latencyTicks, 40u + 40u + 60u);
}

TEST(TxnProfiler, WriteJsonIsWellFormedAndVersioned)
{
    TxnProfiler p;
    const std::uint64_t id = p.begin(TxnKind::kUpgrade, 0x2000, "cpu", 5);
    p.hop(id, TxnStage::kHomeArrive, "home", 25);
    p.end(id, 45);

    std::string error;
    const jsonlite::ValuePtr doc = jsonlite::parse(profileJson(p), error);
    ASSERT_NE(doc, nullptr) << error;
    const jsonlite::Value* schema = doc->get("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, "dscoh-txnprof-v1");
    const jsonlite::Value* kinds = doc->get("kinds");
    ASSERT_NE(kinds, nullptr);
    EXPECT_EQ(kinds->array.size(), kTxnKindCount);
    ASSERT_NE(doc->get("slowest"), nullptr);
    ASSERT_NE(doc->get("regions"), nullptr);
}

TEST(TxnProfiler, SnapshotRoundTripReproducesTheProfileByteForByte)
{
    TxnProfiler a;
    for (int i = 0; i < 5; ++i) {
        const std::uint64_t id = a.begin(
            TxnKind::kDsPush, static_cast<Addr>(i) * 0x40, "cpu", 10);
        a.hop(id, TxnStage::kSliceArrive, "slice", 20);
        a.hop(id, TxnStage::kInstall, "slice", 25);
        a.end(id, static_cast<Tick>(30 + i));
    }
    const std::string path = testing::TempDir() + "txnprof_roundtrip.snap";
    snap::SnapWriter w(0, 0);
    w.beginSection("obs.txnprof");
    a.snapSave(w);
    w.endSection();
    w.writeFile(path);

    TxnProfiler b;
    snap::SnapReader r(path);
    r.openSection("obs.txnprof");
    b.snapRestore(r);
    r.closeSection();
    std::remove(path.c_str());

    EXPECT_EQ(profileJson(b), profileJson(a));
    // The id counter travels too: the next span gets the same id either way.
    EXPECT_EQ(b.begin(TxnKind::kGetS, 0, "x", 0),
              a.begin(TxnKind::kGetS, 0, "x", 0));
}

TEST(TxnProfiler, SnapshotWithOpenSpansThrows)
{
    TxnProfiler p;
    (void)p.begin(TxnKind::kGetS, 0x0, "t", 0);
    snap::SnapWriter w(0, 0);
    w.beginSection("obs.txnprof");
    EXPECT_THROW(p.snapSave(w), snap::SnapError);
}

TEST(TxnProfiler, HugeHopCountIsASnapError)
{
    // A CRC-valid section in the profiler's layout whose one top-K record
    // claims 2^40 hops: the count is refused against the bytes left in the
    // section, before anything is sized from it.
    const TxnProfiler::Params params;
    const std::string path = testing::TempDir() + "txnprof_hops.snap";
    snap::SnapWriter w(0, 0);
    w.beginSection("obs.txnprof");
    w.u64(params.topK);
    w.u64(params.histBucketTicks);
    w.u64(params.histBuckets);
    w.u32(params.regionShift);
    w.u64(2u); // next span id
    w.u64(1u); // begun
    w.u64(1u); // completed
    w.u64(0u); // track names
    for (std::size_t k = 0; k < kTxnKindCount; ++k) {
        w.u64(0u); // closed spans of this kind
        w.u64(params.histBuckets + 1); // latency buckets, overflow included
        for (std::size_t b = 0; b < params.histBuckets + 1 + 4; ++b)
            w.u64(0u); // bucket counts, samples, sum, min, max
        for (std::size_t s = 0; s < kStageBucketCount; ++s)
            w.u64(0u);
    }
    w.u64(1u); // one top-K record: id, kind, addr, begin, end, track
    w.u64(1u);
    w.u8(static_cast<std::uint8_t>(TxnKind::kGetS));
    for (int field = 0; field < 3; ++field)
        w.u64(0u);
    w.u32(0u);
    w.u64(std::uint64_t{1} << 40); // its hop count
    w.endSection();
    w.writeFile(path);

    TxnProfiler p;
    snap::SnapReader r(path);
    r.openSection("obs.txnprof");
    try {
        p.snapRestore(r);
        ADD_FAILURE() << "a 2^40-hop record restored";
    } catch (const snap::SnapError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "section 'obs.txnprof': count 1099511627776 exceeds"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(TxnProfiler, EmitsFlowChainsOnlyWhenTheTxnCategoryRecords)
{
    const auto flowTrace = [](std::uint32_t mask) {
        TraceSession trace(mask);
        TxnProfiler p;
        p.attachTrace(&trace);
        const std::uint64_t id = p.begin(TxnKind::kGetX, 0x80, "req", 0);
        p.hop(id, TxnStage::kHomeArrive, "home", 10);
        p.end(id, 20);
        std::ostringstream os;
        trace.writeJson(os);
        return os.str();
    };

    const std::string with =
        flowTrace(1u << static_cast<std::uint32_t>(TraceCat::kTxn));
    EXPECT_NE(with.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(with.find("\"ph\": \"f\""), std::string::npos);
    EXPECT_NE(with.find("\"bp\": \"e\""), std::string::npos);
    EXPECT_NE(with.find("\"cat\": \"txn\""), std::string::npos);

    const std::string without =
        flowTrace(1u << static_cast<std::uint32_t>(TraceCat::kNet));
    EXPECT_EQ(without.find("\"cat\": \"txn\""), std::string::npos);
}

/// Runs @p code with the profiler attached and returns the owning run (the
/// profiler lives in the System).
std::unique_ptr<WorkloadRun> runProfiled(const char* code, CoherenceMode mode)
{
    const Workload& w = WorkloadRegistry::instance().get(code);
    auto run = std::make_unique<WorkloadRun>(w, InputSize::kSmall, mode);
    run->system().enableTxnProfiler();
    run->run();
    return run;
}

TEST(TxnProfilerIntegration, DsPushSkipsTheDirectoryAndDramStagesCcsmPays)
{
    auto ccsm = runProfiled("VA", CoherenceMode::kCcsm);
    auto ds = runProfiled("VA", CoherenceMode::kDirectStore);
    TxnProfiler* pc = ccsm->system().txnProfiler();
    TxnProfiler* pd = ds->system().txnProfiler();
    ASSERT_NE(pc, nullptr);
    ASSERT_NE(pd, nullptr);

    // Every transaction completes: open spans at the end of a run would
    // mean a leaked span id (or a protocol hang).
    EXPECT_EQ(pc->openCount(), 0u);
    EXPECT_EQ(pd->openCount(), 0u);
    EXPECT_GT(pc->completed(), 0u);
    EXPECT_EQ(pc->begun(), pc->completed());
    EXPECT_EQ(pd->begun(), pd->completed());

    // CCSM: the produce->consume path is coherence pulls that pay DRAM at
    // the ordering point. No direct-store pushes exist in this mode.
    const TxnProfiler::KindStats& gets = pc->kindStats(TxnKind::kGetS);
    EXPECT_GT(gets.count, 0u);
    EXPECT_GT(gets.stageTicks[bucket(StageBucket::kDram)] +
                  pc->kindStats(TxnKind::kGetX)
                      .stageTicks[bucket(StageBucket::kDram)],
              0u);
    EXPECT_EQ(pc->kindStats(TxnKind::kDsPush).count, 0u);

    // Direct store: pushes flow producer -> slice with zero directory and
    // zero DRAM involvement — the paper's Fig. 4 mechanism, per stage.
    const TxnProfiler::KindStats& push = pd->kindStats(TxnKind::kDsPush);
    ASSERT_GT(push.count, 0u);
    EXPECT_EQ(push.stageTicks[bucket(StageBucket::kDirectory)], 0u);
    EXPECT_EQ(push.stageTicks[bucket(StageBucket::kDram)], 0u);
    EXPECT_GT(push.stageTicks[bucket(StageBucket::kNetwork)], 0u);

    // And the GPU's loads stop missing to DRAM: the pushed lines are
    // already in the L2 slices.
    const TxnProfiler::KindStats& ccsmLoad = pc->kindStats(TxnKind::kGpuLoad);
    const TxnProfiler::KindStats& dsLoad = pd->kindStats(TxnKind::kGpuLoad);
    ASSERT_GT(ccsmLoad.count, 0u);
    ASSERT_GT(dsLoad.count, 0u);
    EXPECT_LT(dsLoad.latency.mean(), ccsmLoad.latency.mean());
}

TEST(TxnProfilerIntegration, ProfilingDoesNotPerturbTheSimulation)
{
    const Workload& w = WorkloadRegistry::instance().get("VA");
    WorkloadRun plain(w, InputSize::kSmall, CoherenceMode::kDirectStore);
    const WorkloadRunResult ref = plain.run();
    WorkloadRun profiled(w, InputSize::kSmall, CoherenceMode::kDirectStore);
    profiled.system().enableTxnProfiler();
    const WorkloadRunResult got = profiled.run();
    EXPECT_EQ(got.metrics.ticks, ref.metrics.ticks);
    EXPECT_EQ(got.statCounters, ref.statCounters);
}

TEST(TxnProfilerIntegration, RestoredRunReproducesTheProfileByteForByte)
{
    const Workload& w = WorkloadRegistry::instance().get("VA");
    const CoherenceMode mode = CoherenceMode::kDirectStore;

    auto ref = runProfiled("VA", mode);
    const std::string refJson = profileJson(*ref->system().txnProfiler());

    const std::string path = testing::TempDir() + "txnprof_restore.snap";
    WorkloadRunOptions saveOpts;
    saveOpts.checkpointOut = path;
    saveOpts.checkpointAtPhase = 0;
    WorkloadRun save(w, InputSize::kSmall, mode, SystemConfig{}, saveOpts);
    save.system().enableTxnProfiler();
    save.run();
    EXPECT_EQ(profileJson(*save.system().txnProfiler()), refJson)
        << "checkpointing must not perturb the profile";

    WorkloadRunOptions restoreOpts;
    restoreOpts.restoreFrom = path;
    WorkloadRun restored(w, InputSize::kSmall, mode, SystemConfig{},
                         restoreOpts);
    restored.system().enableTxnProfiler();
    restored.run();
    EXPECT_EQ(profileJson(*restored.system().txnProfiler()), refJson);
    std::remove(path.c_str());
}

} // namespace
} // namespace dscoh
