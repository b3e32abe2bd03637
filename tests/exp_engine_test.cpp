// ExperimentEngine: parallel runs must be bit-identical to serial ones, and
// a failing job must not poison the pool. These tests are the determinism
// guarantee behind every engine-backed bench and tool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "coherence/transition_coverage.h"
#include "exp/experiment_engine.h"
#include "sim/errors.h"

namespace dscoh {
namespace {

const std::vector<std::string> kCodes{"VA", "NN", "BP"};

void expectSameMetrics(const RunMetrics& a, const RunMetrics& b,
                       const std::string& what)
{
    EXPECT_EQ(a.ticks, b.ticks) << what;
    EXPECT_EQ(a.gpuL2Accesses, b.gpuL2Accesses) << what;
    EXPECT_EQ(a.gpuL2Misses, b.gpuL2Misses) << what;
    EXPECT_EQ(a.gpuL2Compulsory, b.gpuL2Compulsory) << what;
    EXPECT_EQ(a.dsFills, b.dsFills) << what;
    EXPECT_EQ(a.dsBypasses, b.dsBypasses) << what;
    EXPECT_EQ(a.coherenceMessages, b.coherenceMessages) << what;
    EXPECT_EQ(a.coherenceBytes, b.coherenceBytes) << what;
    EXPECT_EQ(a.dsNetworkMessages, b.dsNetworkMessages) << what;
    EXPECT_EQ(a.dramReads, b.dramReads) << what;
    EXPECT_EQ(a.dramWrites, b.dramWrites) << what;
    EXPECT_EQ(a.checkFailures, b.checkFailures) << what;
}

std::vector<ExperimentJob> smallBatch()
{
    return makeSweepJobs(kCodes, {InputSize::kSmall},
                         {CoherenceMode::kCcsm,
                          CoherenceMode::kDirectStore});
}

TEST(ExperimentEngine, ParallelMatchesDirectSerialRuns)
{
    const std::vector<ExperimentJob> jobs = smallBatch();
    ExperimentEngine engine(4);
    const std::vector<ExperimentResult> results = engine.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        const WorkloadRunResult serial = runWorkload(
            WorkloadRegistry::instance().get(jobs[i].code), jobs[i].size,
            jobs[i].mode, jobs[i].config);
        const std::string what = jobs[i].code + std::string("/") +
                                 to_string(jobs[i].mode);
        expectSameMetrics(results[i].run.metrics, serial.metrics, what);
        EXPECT_EQ(results[i].run.produceDoneAt, serial.produceDoneAt) << what;
        EXPECT_EQ(results[i].run.kernelDoneAt, serial.kernelDoneAt) << what;
        EXPECT_EQ(results[i].run.footprintBytes, serial.footprintBytes)
            << what;
    }
}

TEST(ExperimentEngine, OneThreadMatchesManyThreads)
{
    const std::vector<ExperimentJob> jobs = smallBatch();
    const std::vector<ExperimentResult> one =
        ExperimentEngine(1).run(jobs);
    const std::vector<ExperimentResult> many =
        ExperimentEngine(8).run(jobs);
    ASSERT_EQ(one.size(), many.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        ASSERT_TRUE(one[i].ok) << one[i].error;
        ASSERT_TRUE(many[i].ok) << many[i].error;
        expectSameMetrics(one[i].run.metrics, many[i].run.metrics,
                          one[i].job.code);
    }
}

/// A workload whose setup throws: the engine must fail this job alone.
class ExplodingWorkload final : public Workload {
public:
    WorkloadInfo info() const override
    {
        WorkloadInfo i;
        i.code = "XX";
        i.fullName = "Exploding test workload";
        return i;
    }
    std::vector<ArraySpec> arrays(InputSize) const override
    {
        throw std::runtime_error("intentional test explosion");
    }
    CpuProgram cpuProduce(InputSize, const ArrayMap&) const override
    {
        return CpuProgram{};
    }
    std::vector<KernelDesc> kernels(InputSize, const ArrayMap&) const override
    {
        return {};
    }
};

TEST(ExperimentEngine, ThrowingJobFailsWithoutPoisoningThePool)
{
    const ExplodingWorkload bad;
    std::vector<ExperimentJob> jobs;
    ExperimentJob good;
    good.code = "VA";
    jobs.push_back(good);
    ExperimentJob boom;
    boom.code = "XX";
    boom.workload = &bad;
    jobs.push_back(boom);
    good.code = "NN";
    good.mode = CoherenceMode::kDirectStore;
    jobs.push_back(good);

    const std::vector<ExperimentResult> results =
        ExperimentEngine(3).run(jobs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("intentional test explosion"),
              std::string::npos);
    EXPECT_TRUE(results[2].ok) << results[2].error;
    EXPECT_GT(results[0].run.metrics.ticks, 0u);
    EXPECT_GT(results[2].run.metrics.ticks, 0u);
}

TEST(ExperimentEngine, UnknownCodeFailsItsJobOnly)
{
    std::vector<ExperimentJob> jobs;
    ExperimentJob bogus;
    bogus.code = "NOPE";
    jobs.push_back(bogus);
    ExperimentJob good;
    good.code = "VA";
    jobs.push_back(good);
    const std::vector<ExperimentResult> results =
        ExperimentEngine(2).run(jobs);
    EXPECT_FALSE(results[0].ok);
    EXPECT_FALSE(results[0].error.empty());
    EXPECT_TRUE(results[1].ok) << results[1].error;
}

TEST(ExperimentEngine, MakeSweepJobsOrderIsCodeMajor)
{
    const auto jobs =
        makeSweepJobs({"A", "B"}, {InputSize::kSmall, InputSize::kBig},
                      {CoherenceMode::kCcsm, CoherenceMode::kDirectStore});
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].code, "A");
    EXPECT_EQ(jobs[0].size, InputSize::kSmall);
    EXPECT_EQ(jobs[0].mode, CoherenceMode::kCcsm);
    EXPECT_EQ(jobs[1].mode, CoherenceMode::kDirectStore);
    EXPECT_EQ(jobs[2].size, InputSize::kBig);
    EXPECT_EQ(jobs[4].code, "B");
}

TEST(ExperimentEngine, ProgressReportsEveryJobOnce)
{
    std::vector<ExperimentJob> jobs = smallBatch();
    ExperimentEngine engine(4);
    std::size_t calls = 0;
    std::size_t lastTotal = 0;
    engine.onProgress([&](const ExperimentResult&, std::size_t done,
                          std::size_t total) {
        ++calls;
        EXPECT_EQ(done, calls); // done counts are serialized and monotonic
        lastTotal = total;
    });
    engine.run(jobs);
    EXPECT_EQ(calls, jobs.size());
    EXPECT_EQ(lastTotal, jobs.size());
}

TEST(ExperimentEngine, JsonContainsEveryRunAndParses)
{
    std::vector<ExperimentJob> jobs;
    ExperimentJob good;
    good.code = "VA";
    jobs.push_back(good);
    ExperimentJob bogus;
    bogus.code = "NOPE";
    jobs.push_back(bogus);
    const auto results = ExperimentEngine(2).run(jobs);
    std::ostringstream os;
    writeResultsJson(os, results);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\": \"dscoh-results-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"schemaVersion\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"code\": \"VA\""), std::string::npos);
    EXPECT_NE(json.find("\"ticks\": "), std::string::npos);
    EXPECT_NE(json.find("\"code\": \"NOPE\""), std::string::npos);
    EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(json.find("\"error\": "), std::string::npos);
    // v2: the per-job stat snapshot rides along with the metrics.
    EXPECT_NE(json.find("\"stats\": {"), std::string::npos);
    EXPECT_NE(json.find("\"dram.ch0.reads\": "), std::string::npos);

    // The reports' reader inverts the writer: an ok run and a failed one
    // (with its error text) read back and write out byte-identical.
    const std::string path = testing::TempDir() + "engine_results.json";
    writeResultsJsonAtomic(path, results);
    std::ostringstream again;
    writeResultsJson(again, readResultsJson(path));
    EXPECT_EQ(again.str(), json);
    std::remove(path.c_str());
}

TEST(ExperimentEngine, ThreadLocalCoverageIsInvisibleToWorkers)
{
    // Documented pitfall: enable() only arms the calling thread's recorder,
    // so a --jobs > 1 sweep records nothing into it. This test pins that
    // behaviour down so the docs stay honest.
    TransitionCoverage::instance().reset();
    TransitionCoverage::instance().enable();
    ExperimentEngine engine(3);
    engine.run(smallBatch());
    EXPECT_EQ(TransitionCoverage::instance().distinctTransitions(), 0u);
    TransitionCoverage::instance().disable();
    TransitionCoverage::instance().reset();
}

TEST(ExperimentEngine, ProcessWideCoverageMergesAcrossWorkers)
{
    // enableProcessWide() is the supported way to collect coverage from a
    // parallel sweep: workers record into their own thread_local instances
    // and flush into the process aggregate when run() joins them.
    TransitionCoverage::resetAggregate();
    TransitionCoverage::instance().reset();
    TransitionCoverage::enableProcessWide();
    ExperimentEngine engine(3);
    const auto results = engine.run(smallBatch());
    TransitionCoverage::disableProcessWide();
    for (const ExperimentResult& r : results)
        ASSERT_TRUE(r.ok) << r.error;

    const TransitionCoverage::Counts merged =
        TransitionCoverage::aggregateSnapshot();
    EXPECT_GT(merged.size(), 5u);
    const auto storeMiss = merged.find(std::make_tuple(
        CohState::kI, CohEvent::kStore, CohState::kIM_D));
    ASSERT_NE(storeMiss, merged.end());
    EXPECT_GT(storeMiss->second, 0u);

    // Serial (run-on-caller) sweeps land in the same snapshot: the caller's
    // live counts merge in without waiting for a thread exit.
    TransitionCoverage::resetAggregate();
    TransitionCoverage::instance().reset();
    TransitionCoverage::enableProcessWide();
    ExperimentEngine(1).run(smallBatch());
    TransitionCoverage::disableProcessWide();
    EXPECT_EQ(TransitionCoverage::aggregateSnapshot(), merged);
    TransitionCoverage::instance().reset();
    TransitionCoverage::resetAggregate();
}

TEST(ExperimentEngine, PreCancelledJobFailsAsCancelledNotCrashed)
{
    // The service's deadline path: a cancel flag that is already set when
    // the job starts. The job must come back as an ordinary failed result
    // (never an exception out of the pool) whose error names the
    // cancellation, classed as an unclassified failure — not IO, not a
    // model bug.
    ExperimentJob job;
    job.code = "VA";
    std::atomic<bool> cancel{true};
    JobRunOptions options;
    options.cancel = &cancel;
    const ExperimentResult r = runExperimentJob(job, options);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("cancelled"), std::string::npos) << r.error;
    EXPECT_EQ(r.errorClass, kExitFailure);
}

TEST(ExperimentEngine, ResultCarriesStatSnapshot)
{
    ExperimentJob job;
    job.code = "VA";
    const auto results = ExperimentEngine(1).run({job});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    const auto& stats = results[0].run.statCounters;
    EXPECT_FALSE(stats.empty());
    const auto reads = stats.find("dram.ch0.reads");
    ASSERT_NE(reads, stats.end());
    EXPECT_EQ(reads->second, results[0].run.metrics.dramReads);
}

} // namespace
} // namespace dscoh
