// Engine journal/resume: a replayed job must be bit-identical to a
// simulated one all the way into results.json; torn journal lines (a
// killed writer) are skipped; the atomic results writer publishes exactly
// the stream writer's bytes.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "exp/experiment_engine.h"

namespace dscoh {
namespace {

namespace fs = std::filesystem;

std::string resultsJson(const std::vector<ExperimentResult>& results)
{
    std::ostringstream os;
    writeResultsJson(os, results);
    return os.str();
}

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::vector<ExperimentJob> smallBatch()
{
    return makeSweepJobs({"VA", "BP"}, {InputSize::kSmall},
                         {CoherenceMode::kCcsm,
                          CoherenceMode::kDirectStore});
}

TEST(EngineResume, JournalLineRoundTripsIntoIdenticalResults)
{
    const std::vector<ExperimentJob> jobs = smallBatch();
    const std::vector<ExperimentResult> ran = ExperimentEngine(2).run(jobs);
    ASSERT_EQ(ran.size(), jobs.size());

    const std::string path = testing::TempDir() + "roundtrip.journal";
    {
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 0; i < ran.size(); ++i) {
            ASSERT_TRUE(ran[i].ok) << ran[i].error;
            out << journalLine(ran[i], configHashOf(jobs[i].config));
        }
    }

    const std::vector<JournalEntry> replayed = readJournal(path);
    ASSERT_EQ(replayed.size(), ran.size());
    std::vector<ExperimentResult> rebuilt;
    for (std::size_t i = 0; i < replayed.size(); ++i) {
        EXPECT_EQ(replayed[i].configHash, configHashOf(jobs[i].config));
        EXPECT_EQ(replayed[i].result.job.code, jobs[i].code);
        EXPECT_EQ(replayed[i].result.job.mode, jobs[i].mode);
        EXPECT_EQ(replayed[i].result.run.produceDoneAt,
                  ran[i].run.produceDoneAt);
        EXPECT_EQ(replayed[i].result.run.kernelDoneAt,
                  ran[i].run.kernelDoneAt);
        EXPECT_EQ(replayed[i].result.run.statCounters,
                  ran[i].run.statCounters);
        rebuilt.push_back(replayed[i].result);
    }
    // The strong property: results.json built from the journal is byte-
    // identical to results.json built from the live runs.
    EXPECT_EQ(resultsJson(rebuilt), resultsJson(ran));
    std::remove(path.c_str());
}

TEST(EngineResume, TornFinalJournalLineIsSkipped)
{
    const std::vector<ExperimentJob> jobs = smallBatch();
    const std::vector<ExperimentResult> ran = ExperimentEngine(2).run(jobs);

    const std::string path = testing::TempDir() + "torn.journal";
    {
        std::ofstream out(path, std::ios::trunc);
        out << journalLine(ran[0], configHashOf(jobs[0].config));
        out << journalLine(ran[1], configHashOf(jobs[1].config));
        const std::string full =
            journalLine(ran[2], configHashOf(jobs[2].config));
        // Whole lines with a value no run can have are skipped too: a
        // negative, huge or fractional counter and an unknown size.
        const auto with = [&full](const std::string& key,
                                  const std::string& value) {
            const std::string tag = "\"" + key + "\": ";
            const std::size_t at = full.find(tag) + tag.size();
            return full.substr(0, at) + value +
                   full.substr(full.find_first_of(",}", at));
        };
        out << with("ticks", "-1") << with("gpuL2Accesses", "1e300")
            << with("gpuL2Misses", "2.5") << with("size", "\"huge\"");
        out << full.substr(0, full.size() / 2); // killed mid-write
    }
    const std::vector<JournalEntry> entries = readJournal(path);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].result.job.code, ran[0].job.code);
    EXPECT_EQ(entries[1].result.job.code, ran[1].job.code);
    std::remove(path.c_str());
}

TEST(EngineResume, MissingJournalYieldsEmpty)
{
    EXPECT_TRUE(readJournal(testing::TempDir() + "nope.journal").empty());
}

TEST(EngineResume, ResumedSweepReproducesResultsExactly)
{
    const std::vector<ExperimentJob> jobs = smallBatch();
    const std::vector<ExperimentResult> reference =
        ExperimentEngine(2).run(jobs);

    EngineRunOptions opts;
    opts.journalPath = testing::TempDir() + "resume.journal";
    std::remove(opts.journalPath.c_str());

    // "Interrupted" sweep: journal all four jobs, then keep only the first
    // two lines, as if the process died after job 2.
    ExperimentEngine(2).run(jobs, opts);
    {
        std::ifstream in(opts.journalPath);
        std::string l1, l2;
        ASSERT_TRUE(std::getline(in, l1));
        ASSERT_TRUE(std::getline(in, l2));
        in.close();
        std::ofstream out(opts.journalPath, std::ios::trunc);
        out << l1 << "\n" << l2 << "\n";
    }

    opts.resume = true;
    const std::vector<ExperimentResult> resumed =
        ExperimentEngine(2).run(jobs, opts);
    ASSERT_EQ(resumed.size(), jobs.size());
    std::size_t replayed = 0;
    for (const ExperimentResult& r : resumed) {
        ASSERT_TRUE(r.ok) << r.error;
        replayed += r.fromJournal ? 1 : 0;
    }
    EXPECT_EQ(replayed, 2u);
    EXPECT_EQ(resultsJson(resumed), resultsJson(reference));

    std::remove(opts.journalPath.c_str());
}

TEST(EngineResume, AtomicResultsWriterMatchesStreamWriter)
{
    const std::vector<ExperimentJob> jobs =
        makeSweepJobs({"VA"}, {InputSize::kSmall}, {CoherenceMode::kCcsm});
    const std::vector<ExperimentResult> results =
        ExperimentEngine(1).run(jobs);
    const std::string path = testing::TempDir() + "atomic_results.json";
    writeResultsJsonAtomic(path, results);
    EXPECT_EQ(slurp(path), resultsJson(results));
    std::remove(path.c_str());
}

TEST(EngineResume, ReplayJournalReportsExactlyTheOwedJobs)
{
    const std::vector<ExperimentJob> jobs = smallBatch();
    const std::vector<ExperimentResult> ran = ExperimentEngine(2).run(jobs);
    std::vector<std::uint64_t> hashes;
    for (const ExperimentJob& j : jobs)
        hashes.push_back(configHashOf(j.config));

    // Journal jobs 0 and 2 only; replay must fill exactly those slots and
    // return {1, 3} as still owed.
    const std::string path = testing::TempDir() + "replay_partial.journal";
    {
        std::ofstream out(path, std::ios::trunc);
        out << journalLine(ran[0], hashes[0]);
        out << journalLine(ran[2], hashes[2]);
    }
    std::vector<ExperimentResult> results(jobs.size());
    const std::vector<std::size_t> pending =
        replayJournal(jobs, hashes, path, &results);
    EXPECT_EQ(pending, (std::vector<std::size_t>{1, 3}));
    EXPECT_TRUE(results[0].fromJournal);
    EXPECT_FALSE(results[1].fromJournal);
    EXPECT_TRUE(results[2].fromJournal);
    EXPECT_EQ(results[2].job.code, jobs[2].code);
    std::remove(path.c_str());

    // No journal at all: everything is owed.
    std::vector<ExperimentResult> fresh(jobs.size());
    EXPECT_EQ(replayJournal(jobs, hashes,
                            testing::TempDir() + "replay_none.journal",
                            &fresh)
                  .size(),
              jobs.size());
}

TEST(EngineResume, FinalizeJournalKeepsFailedSweepsReplayable)
{
    const std::string path = testing::TempDir() + "finalize.journal";

    // Failure: the journal survives, renamed .failed (regression: it used
    // to be deleted unconditionally, losing the failure set with it).
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"code\": \"VA\"}\n";
    }
    finalizeJournal(path, /*hadFailures=*/true);
    EXPECT_FALSE(fs::exists(path));
    ASSERT_TRUE(fs::exists(path + ".failed"));
    EXPECT_EQ(slurp(path + ".failed"), "{\"code\": \"VA\"}\n");

    // A later failed sweep replaces the kept journal atomically.
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"code\": \"NN\"}\n";
    }
    finalizeJournal(path, true);
    EXPECT_EQ(slurp(path + ".failed"), "{\"code\": \"NN\"}\n");

    // Success: the journal is simply deleted.
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"code\": \"BP\"}\n";
    }
    finalizeJournal(path, /*hadFailures=*/false);
    EXPECT_FALSE(fs::exists(path));

    // Missing file and empty path are no-ops, not errors.
    finalizeJournal(path, false);
    finalizeJournal(path, true);
    finalizeJournal("", false);
    std::remove((path + ".failed").c_str());
}

TEST(EngineResume, ResidentEngineDrainsASourceAndRetires)
{
    // The service's execution substrate: a pool pulling from a blocking
    // source must run every admitted job exactly once, report through the
    // per-job callback, and retire cleanly when the source dries up.
    const std::vector<ExperimentJob> jobs = smallBatch();
    std::mutex mu;
    std::size_t nextJob = 0;
    std::vector<ExperimentResult> results(jobs.size());
    std::size_t doneCount = 0;
    std::condition_variable cv;
    {
        ResidentEngine engine(
            2, [&]() -> std::optional<ResidentEngine::Admitted> {
                const std::lock_guard<std::mutex> lock(mu);
                if (nextJob >= jobs.size())
                    return std::nullopt; // retire the worker
                const std::size_t i = nextJob++;
                ResidentEngine::Admitted a;
                a.job = jobs[i];
                a.done = [&, i](ExperimentResult&& r) {
                    const std::lock_guard<std::mutex> lock2(mu);
                    results[i] = std::move(r);
                    ++doneCount;
                    cv.notify_all();
                };
                return a;
            });
        EXPECT_EQ(engine.threads(), 2u);
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return doneCount == jobs.size(); });
    } // ~ResidentEngine joins against the dried-up source

    const std::vector<ExperimentResult> reference =
        ExperimentEngine(2).run(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(results[i].run.metrics.ticks,
                  reference[i].run.metrics.ticks);
    }
}

TEST(EngineResume, ForkProduceSecondSweepSkipsProduceTicks)
{
    const std::vector<ExperimentJob> jobs =
        makeSweepJobs({"BP"}, {InputSize::kSmall},
                      {CoherenceMode::kCcsm, CoherenceMode::kDirectStore});
    const std::vector<ExperimentResult> reference =
        ExperimentEngine(2).run(jobs);

    const std::string dir = testing::TempDir() + "fork_snapdir";
    fs::create_directories(dir);
    EngineRunOptions opts;
    opts.produceCacheDir = dir;

    const std::vector<ExperimentResult> cold =
        ExperimentEngine(2).run(jobs, opts);
    const std::vector<ExperimentResult> warm =
        ExperimentEngine(2).run(jobs, opts);
    ASSERT_EQ(warm.size(), jobs.size());
    Tick saved = 0;
    for (const ExperimentResult& r : warm) {
        ASSERT_TRUE(r.ok) << r.error;
        saved += r.produceTicksSaved;
    }
    EXPECT_GT(saved, 0u);
    // Shared produce phase, bit-identical results.
    EXPECT_EQ(resultsJson(cold), resultsJson(reference));
    EXPECT_EQ(resultsJson(warm), resultsJson(reference));
    fs::remove_all(dir);
}

} // namespace
} // namespace dscoh
