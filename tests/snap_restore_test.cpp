// Snapshot/restore keystone property: restoring a phase-boundary
// checkpoint and running to completion is byte-identical to the
// uninterrupted run — metrics, phase breakdown, the full stats-counter
// snapshot, the stats JSON dump, and the final memory image. One
// benchmark per suite (Rodinia, Parboil, Pannotia, NVIDIA SDK,
// standalone), both coherence modes, plus the failure paths: config-hash
// mismatch, missing snapshot, an impossible kernel count, and the produce
// cache's fallback from an unusable entry. A cache hit builds no CPU
// produce program.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "snap/serializer.h"
#include "workloads/runner.h"

namespace dscoh {
namespace {

std::string statsJson(System& sys)
{
    std::ostringstream os;
    sys.stats().dumpJson(os);
    return os.str();
}

std::string tempSnap(const std::string& tag)
{
    return testing::TempDir() + "restore_" + tag + ".snap";
}

void expectSameRun(const WorkloadRunResult& restored,
                   const WorkloadRunResult& reference,
                   const std::string& what)
{
    EXPECT_EQ(restored.metrics.ticks, reference.metrics.ticks) << what;
    EXPECT_EQ(restored.metrics.gpuL2Accesses, reference.metrics.gpuL2Accesses)
        << what;
    EXPECT_EQ(restored.metrics.gpuL2Misses, reference.metrics.gpuL2Misses)
        << what;
    EXPECT_EQ(restored.metrics.dramReads, reference.metrics.dramReads)
        << what;
    EXPECT_EQ(restored.metrics.dramWrites, reference.metrics.dramWrites)
        << what;
    EXPECT_EQ(restored.produceDoneAt, reference.produceDoneAt) << what;
    EXPECT_EQ(restored.kernelDoneAt, reference.kernelDoneAt) << what;
    EXPECT_EQ(restored.footprintBytes, reference.footprintBytes) << what;
    EXPECT_EQ(restored.violations, reference.violations) << what;
    // The full counter registry, not just the headline metrics.
    EXPECT_EQ(restored.statCounters, reference.statCounters) << what;
}

// One representative per benchmark suite (Table II groups).
const char* const kFamilyCodes[] = {"BP", "ST", "GC", "VA", "MM"};

TEST(SnapRestore, RoundTripMatchesUninterruptedRunPerFamily)
{
    for (const char* code : kFamilyCodes) {
        for (const CoherenceMode mode :
             {CoherenceMode::kCcsm, CoherenceMode::kDirectStore}) {
            const std::string what =
                std::string(code) + "_" + to_string(mode);
            const Workload& w = WorkloadRegistry::instance().get(code);

            WorkloadRun ref(w, InputSize::kSmall, mode);
            const WorkloadRunResult refResult = ref.run();
            EXPECT_EQ(refResult.restoredAt, 0u) << what;
            EXPECT_FALSE(refResult.fromCheckpoint) << what;

            // Checkpoint at the produce/kernel boundary; checkpointing must
            // not perturb the run it is taken from.
            const std::string path = tempSnap(what);
            WorkloadRunOptions saveOpts;
            saveOpts.checkpointOut = path;
            saveOpts.checkpointAtPhase = 0;
            WorkloadRun save(w, InputSize::kSmall, mode, SystemConfig{},
                             saveOpts);
            const WorkloadRunResult saveResult = save.run();
            expectSameRun(saveResult, refResult, what + " (checkpointing)");

            // Restore and finish: byte-identical to the uninterrupted run.
            WorkloadRunOptions restoreOpts;
            restoreOpts.restoreFrom = path;
            WorkloadRun restored(w, InputSize::kSmall, mode, SystemConfig{},
                                 restoreOpts);
            const WorkloadRunResult restoredResult = restored.run();
            EXPECT_TRUE(restoredResult.fromCheckpoint) << what;
            EXPECT_GT(restoredResult.restoredAt, 0u) << what;
            EXPECT_EQ(restoredResult.simulatedTicks,
                      restoredResult.metrics.ticks - restoredResult.restoredAt)
                << what;
            expectSameRun(restoredResult, refResult, what + " (restored)");
            EXPECT_EQ(statsJson(restored.system()), statsJson(ref.system()))
                << what;
            EXPECT_TRUE(restored.system().backingStore().sameImage(
                ref.system().backingStore()))
                << what;
            std::remove(path.c_str());
        }
    }
}

TEST(SnapRestore, MultiGpuRoundTripMatchesUninterruptedRun)
{
    // The sharded system has per-shard in-flight directory state, remote
    // slice groups and (with tsLeaseTicks) timestamp lease epochs; all of
    // it must survive a mid-flight checkpoint byte for bit. CCSM runs the
    // crossbar, direct store additionally the ring + timestamp fast path.
    for (const CoherenceMode mode :
         {CoherenceMode::kCcsm, CoherenceMode::kDirectStore}) {
        SystemConfig cfg;
        cfg.numGpus = 4;
        cfg.cpuCores = 2;
        cfg.shardPolicy = ShardPolicy::kPage;
        if (mode == CoherenceMode::kDirectStore) {
            cfg.dsTopology = DsTopology::kRing;
            cfg.tsLeaseTicks = 50'000;
        }
        const std::string what = std::string("VA_4gpu_") + to_string(mode);
        const Workload& w = WorkloadRegistry::instance().get("VA");

        WorkloadRun ref(w, InputSize::kSmall, mode, cfg);
        const WorkloadRunResult refResult = ref.run();
        EXPECT_FALSE(refResult.fromCheckpoint) << what;

        const std::string path = tempSnap(what);
        WorkloadRunOptions saveOpts;
        saveOpts.checkpointOut = path;
        saveOpts.checkpointAtPhase = 0;
        WorkloadRun save(w, InputSize::kSmall, mode, cfg, saveOpts);
        expectSameRun(save.run(), refResult, what + " (checkpointing)");

        WorkloadRunOptions restoreOpts;
        restoreOpts.restoreFrom = path;
        WorkloadRun restored(w, InputSize::kSmall, mode, cfg, restoreOpts);
        const WorkloadRunResult restoredResult = restored.run();
        EXPECT_TRUE(restoredResult.fromCheckpoint) << what;
        expectSameRun(restoredResult, refResult, what + " (restored)");
        EXPECT_EQ(statsJson(restored.system()), statsJson(ref.system()))
            << what;
        EXPECT_TRUE(restored.system().backingStore().sameImage(
            ref.system().backingStore()))
            << what;
        std::remove(path.c_str());
    }
}

TEST(SnapRestore, TickTriggerCheckpointsFirstSafePointAfterTick)
{
    const Workload& w = WorkloadRegistry::instance().get("VA");
    const WorkloadRunResult ref =
        runWorkload(w, InputSize::kSmall, CoherenceMode::kCcsm);

    const std::string path = tempSnap("tick_trigger");
    WorkloadRunOptions saveOpts;
    saveOpts.checkpointOut = path;
    saveOpts.checkpointAtTick = 1; // first phase boundary qualifies
    WorkloadRun save(w, InputSize::kSmall, CoherenceMode::kCcsm,
                     SystemConfig{}, saveOpts);
    save.run();

    const snap::SnapshotHeader h = snap::readSnapshotHeader(path);
    EXPECT_GT(h.tick, 0u);
    EXPECT_LT(h.tick, ref.metrics.ticks);

    WorkloadRunOptions restoreOpts;
    restoreOpts.restoreFrom = path;
    WorkloadRun restored(w, InputSize::kSmall, CoherenceMode::kCcsm,
                         SystemConfig{}, restoreOpts);
    expectSameRun(restored.run(), ref, "VA tick-trigger");
    std::remove(path.c_str());
}

TEST(SnapRestore, ConfigHashMismatchFailsLoudly)
{
    const Workload& w = WorkloadRegistry::instance().get("VA");
    const std::string path = tempSnap("hash_mismatch");
    WorkloadRunOptions saveOpts;
    saveOpts.checkpointOut = path;
    saveOpts.checkpointAtPhase = 0;
    WorkloadRun save(w, InputSize::kSmall, CoherenceMode::kCcsm,
                     SystemConfig{}, saveOpts);
    save.run();

    SystemConfig other;
    other.gpuL2Size *= 2; // any behavior-relevant field flips the hash
    WorkloadRunOptions restoreOpts;
    restoreOpts.restoreFrom = path;
    WorkloadRun restored(w, InputSize::kSmall, CoherenceMode::kCcsm, other,
                         restoreOpts);
    EXPECT_THROW(restored.run(), snap::SnapError);
    std::remove(path.c_str());
}

TEST(SnapRestore, MissingSnapshotThrows)
{
    const Workload& w = WorkloadRegistry::instance().get("VA");
    const std::string path = tempSnap("never_written");
    std::remove(path.c_str());

    WorkloadRunOptions required;
    required.restoreFrom = path;
    WorkloadRun mustRestore(w, InputSize::kSmall, CoherenceMode::kCcsm,
                            SystemConfig{}, required);
    EXPECT_THROW(mustRestore.run(), snap::SnapError);
}

TEST(SnapRestore, KernelCountBeyondTheRunIsASnapError)
{
    // The runner section ends with the count of finished kernels (0 at
    // produce-done). Re-sealed with a valid CRC, a count no run can have
    // must be refused before anything is sized from it.
    const Workload& w = WorkloadRegistry::instance().get("VA");
    const std::string path = tempSnap("kernel_count");
    WorkloadRunOptions saveOpts;
    saveOpts.checkpointOut = path;
    saveOpts.checkpointAtPhase = 0;
    WorkloadRun(w, InputSize::kSmall, CoherenceMode::kCcsm, SystemConfig{},
                saveOpts)
        .run();
    std::string image;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        image = os.str();
    }
    const auto putLe32 = [&image](std::size_t at, std::uint32_t v) {
        for (std::size_t i = 0; i < 4; ++i)
            image[at + i] = static_cast<char>((v >> (8 * i)) & 0xffu);
    };
    putLe32(image.size() - 8, 0xffffffffu);
    putLe32(image.size() - 4, snap::crc32(image.data(), image.size() - 4));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << image;

    WorkloadRunOptions opts;
    opts.restoreFrom = path;
    WorkloadRun restored(w, InputSize::kSmall, CoherenceMode::kCcsm,
                         SystemConfig{}, opts);
    try {
        restored.run();
        ADD_FAILURE() << "an impossible kernel count restored";
    } catch (const snap::SnapError& e) {
        EXPECT_NE(std::string(e.what()).find("4294967295 finished kernels"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(SnapRestore, ProduceCacheSharesProducePhase)
{
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "produce_cache_dir";
    std::filesystem::create_directories(dir);
    const Workload& w = WorkloadRegistry::instance().get("BP");
    const WorkloadRunResult ref =
        runWorkload(w, InputSize::kSmall, CoherenceMode::kCcsm);

    WorkloadRunOptions opts;
    opts.produceCacheDir = dir;
    WorkloadRun cold(w, InputSize::kSmall, CoherenceMode::kCcsm,
                     SystemConfig{}, opts);
    const WorkloadRunResult coldResult = cold.run();
    EXPECT_EQ(cold.produceTicksSaved(), 0u);
    expectSameRun(coldResult, ref, "BP cold produce-cache");

    WorkloadRun warm(w, InputSize::kSmall, CoherenceMode::kCcsm,
                     SystemConfig{}, opts);
    const WorkloadRunResult warmResult = warm.run();
    EXPECT_GT(warm.produceTicksSaved(), 0u);
    EXPECT_TRUE(warmResult.fromCheckpoint);
    expectSameRun(warmResult, ref, "BP warm produce-cache");

    // An unusable entry (a truncated write, a flipped byte) is a miss: the
    // run starts fresh, matches the reference, and rewrites a valid entry
    // that the next run hits.
    std::vector<fs::path> entries;
    for (const fs::directory_entry& e : fs::directory_iterator(dir))
        entries.push_back(e.path());
    ASSERT_EQ(entries.size(), 1u);
    const fs::path entry = entries.front();
    const auto size = fs::file_size(entry);
    for (const std::string what : {"truncated", "corrupt"}) {
        if (what == "truncated") {
            fs::resize_file(entry, size / 2);
        } else {
            const auto mid = static_cast<std::streamoff>(size / 2);
            std::fstream f(entry,
                           std::ios::in | std::ios::out | std::ios::binary);
            f.seekg(mid);
            const char flipped = static_cast<char>(f.get() ^ 0x5a);
            f.seekp(mid);
            f.put(flipped);
        }
        WorkloadRun fresh(w, InputSize::kSmall, CoherenceMode::kCcsm,
                          SystemConfig{}, opts);
        const WorkloadRunResult freshResult = fresh.run();
        EXPECT_EQ(fresh.produceTicksSaved(), 0u) << what;
        EXPECT_FALSE(freshResult.fromCheckpoint) << what;
        expectSameRun(freshResult, ref, "BP " + what + " produce-cache");
        EXPECT_EQ(fs::file_size(entry), size) << what;

        WorkloadRun rewarmed(w, InputSize::kSmall, CoherenceMode::kCcsm,
                             SystemConfig{}, opts);
        const WorkloadRunResult rewarmedResult = rewarmed.run();
        EXPECT_EQ(rewarmed.produceTicksSaved(), warm.produceTicksSaved())
            << what;
        EXPECT_TRUE(rewarmedResult.fromCheckpoint) << what;
        expectSameRun(rewarmedResult, ref, "BP re-warmed after " + what);
    }
    fs::remove_all(dir);
}

/// Wraps a workload and counts the CPU produce programs it builds.
class CountingWorkload : public Workload {
public:
    explicit CountingWorkload(const Workload& inner) : inner_(inner) {}

    WorkloadInfo info() const override { return inner_.info(); }
    std::vector<ArraySpec> arrays(InputSize size) const override
    {
        return inner_.arrays(size);
    }
    CpuProgram cpuProduce(InputSize size, const ArrayMap& mem) const override
    {
        ++produceCalls;
        return inner_.cpuProduce(size, mem);
    }
    std::vector<KernelDesc> kernels(InputSize size,
                                    const ArrayMap& mem) const override
    {
        return inner_.kernels(size, mem);
    }

    mutable int produceCalls = 0;

private:
    const Workload& inner_;
};

TEST(SnapRestore, ProduceCacheHitBuildsNoCpuProgram)
{
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "produce_cache_count_dir";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const CountingWorkload w(WorkloadRegistry::instance().get("BP"));
    WorkloadRunOptions opts;
    opts.produceCacheDir = dir;
    const auto produceCallsOfRun = [&] {
        w.produceCalls = 0;
        WorkloadRun run(w, InputSize::kSmall, CoherenceMode::kCcsm,
                        SystemConfig{}, opts);
        run.run();
        return w.produceCalls;
    };

    EXPECT_EQ(produceCallsOfRun(), 1) << "cold run";
    EXPECT_EQ(produceCallsOfRun(), 0) << "warm run";
    const fs::path entry = fs::directory_iterator(dir)->path();
    fs::resize_file(entry, fs::file_size(entry) / 2);
    EXPECT_EQ(produceCallsOfRun(), 1) << "truncated entry";
    fs::remove_all(dir);
}

TEST(SnapRestore, IdleWatchdogIsHarmlessOnHealthyRuns)
{
    const Workload& w = WorkloadRegistry::instance().get("VA");
    const WorkloadRunResult ref =
        runWorkload(w, InputSize::kSmall, CoherenceMode::kCcsm);
    WorkloadRunOptions opts;
    opts.maxIdleTicks = 10'000'000;
    WorkloadRun guarded(w, InputSize::kSmall, CoherenceMode::kCcsm,
                        SystemConfig{}, opts);
    expectSameRun(guarded.run(), ref, "VA watchdog");
}

} // namespace
} // namespace dscoh
