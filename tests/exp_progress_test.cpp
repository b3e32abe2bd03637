// Live sweep progress: renderProgressJson is a pure function pinned here
// field by field, and ProgressPublisher must atomically publish exactly
// that document (and fail loudly on an unwritable path, so the sweep can
// reject a bad --progress-json at startup instead of silently dropping
// every update).
//
// The dscoh-progress-v3 schema is shared between batch sweeps and the
// sweep service, so this file also pins the unification contract: the
// jobsTotal/jobsDone/jobsFailed names, the derived/explicit state field,
// and the optional id/tenant fields the service adds.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/progress.h"
#include "obs/json_lite.h"
#include "snap/serializer.h"

namespace dscoh {
namespace {

ProgressSnapshot counters(std::size_t total, std::size_t done,
                          std::size_t failed, double elapsedSeconds)
{
    ProgressSnapshot s;
    s.total = total;
    s.done = done;
    s.failed = failed;
    s.elapsedSeconds = elapsedSeconds;
    return s;
}

const jsonlite::ValuePtr parseOrDie(const std::string& text)
{
    std::string error;
    jsonlite::ValuePtr v = jsonlite::parse(text, error);
    EXPECT_NE(v, nullptr) << error;
    return v;
}

TEST(ProgressJson, RendersRateAndEtaFromTheCounters)
{
    const std::string json = renderProgressJson(counters(44, 11, 2, 22.0));
    const jsonlite::ValuePtr doc = parseOrDie(json);
    EXPECT_EQ(doc->get("schema")->string, "dscoh-progress-v3");
    EXPECT_EQ(doc->get("jobsTotal")->asUint(), 44u);
    EXPECT_EQ(doc->get("jobsDone")->asUint(), 11u);
    EXPECT_EQ(doc->get("jobsFailed")->asUint(), 2u);
    EXPECT_DOUBLE_EQ(doc->get("jobsPerSecond")->number, 0.5);
    EXPECT_DOUBLE_EQ(doc->get("etaSeconds")->number, 66.0);
}

TEST(ProgressJson, ZeroDoneAndFinishedBatchesHaveNoRateOrEta)
{
    const jsonlite::ValuePtr fresh =
        parseOrDie(renderProgressJson(counters(10, 0, 0, 5.0)));
    EXPECT_DOUBLE_EQ(fresh->get("jobsPerSecond")->number, 0.0);
    EXPECT_DOUBLE_EQ(fresh->get("etaSeconds")->number, 0.0);

    const jsonlite::ValuePtr finished =
        parseOrDie(renderProgressJson(counters(10, 10, 1, 5.0)));
    EXPECT_DOUBLE_EQ(finished->get("etaSeconds")->number, 0.0);
}

TEST(ProgressJson, ZeroElapsedAndZeroTotalAreWellFormed)
{
    // done > 0 with elapsed == 0 (clock granularity) must not divide by
    // zero; an empty batch must render as immediately done.
    const jsonlite::ValuePtr instant =
        parseOrDie(renderProgressJson(counters(4, 2, 0, 0.0)));
    EXPECT_DOUBLE_EQ(instant->get("jobsPerSecond")->number, 0.0);
    EXPECT_DOUBLE_EQ(instant->get("etaSeconds")->number, 0.0);

    const jsonlite::ValuePtr empty =
        parseOrDie(renderProgressJson(counters(0, 0, 0, 0.0)));
    EXPECT_EQ(empty->get("jobsTotal")->asUint(), 0u);
    EXPECT_EQ(empty->get("state")->string, "done");
}

TEST(ProgressJson, DerivesStateFromTheCounters)
{
    EXPECT_EQ(parseOrDie(renderProgressJson(counters(10, 3, 0, 1.0)))
                  ->get("state")
                  ->string,
              "running");
    EXPECT_EQ(parseOrDie(renderProgressJson(counters(10, 10, 0, 1.0)))
                  ->get("state")
                  ->string,
              "done");
    // An all-failed sweep is terminal and "failed", not "done".
    EXPECT_EQ(parseOrDie(renderProgressJson(counters(10, 10, 10, 1.0)))
                  ->get("state")
                  ->string,
              "failed");
}

TEST(ProgressJson, ServiceFieldsAppearOnlyWhenSet)
{
    const jsonlite::ValuePtr batch =
        parseOrDie(renderProgressJson(counters(2, 1, 0, 1.0)));
    EXPECT_EQ(batch->get("id"), nullptr);
    EXPECT_EQ(batch->get("tenant"), nullptr);

    ProgressSnapshot s = counters(2, 1, 0, 1.0);
    s.state = "queued";
    s.id = "r000007";
    s.tenant = "alice";
    const jsonlite::ValuePtr daemon = parseOrDie(renderProgressJson(s));
    EXPECT_EQ(daemon->get("state")->string, "queued");
    EXPECT_EQ(daemon->get("id")->string, "r000007");
    EXPECT_EQ(daemon->get("tenant")->string, "alice");
}

TEST(ProgressJson, IsDeterministicForIdenticalCounters)
{
    // ETA/rate derive from the counters alone — no hidden wall clock — so
    // --jobs 1 and --jobs N sweeps that reach the same (done, elapsed)
    // point publish byte-identical documents.
    const std::string a = renderProgressJson(counters(44, 17, 1, 9.5));
    const std::string b = renderProgressJson(counters(44, 17, 1, 9.5));
    EXPECT_EQ(a, b);
}

TEST(ProgressPublisher, PublishesTheRenderedDocumentAtomically)
{
    const std::string path = testing::TempDir() + "progress_test.json";
    const ProgressPublisher publisher(path);
    const ProgressSnapshot snap = counters(4, 1, 0, 2.0);
    publisher.publish(snap);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), renderProgressJson(snap));
    // Atomic publication leaves no temp file behind for pollers to trip
    // over (the temp + rename is the torn-read defence).
    EXPECT_FALSE(std::ifstream(path + ".tmp").is_open());
    std::remove(path.c_str());
}

TEST(ProgressPublisher, RepublishingNeverExposesAPartialDocument)
{
    // Torn-read resilience: every publish() replaces the file whole, so a
    // reader between publishes always parses a complete document with
    // internally consistent counters.
    const std::string path = testing::TempDir() + "progress_torn_test.json";
    const ProgressPublisher publisher(path);
    for (std::size_t done = 0; done <= 20; ++done) {
        publisher.publish(
            counters(20, done, 0, 0.5 * static_cast<double>(done)));
        std::ifstream in(path);
        std::ostringstream buf;
        buf << in.rdbuf();
        const jsonlite::ValuePtr doc = parseOrDie(buf.str());
        EXPECT_EQ(doc->get("jobsDone")->asUint(), done);
        EXPECT_EQ(doc->get("jobsTotal")->asUint(), 20u);
    }
    std::remove(path.c_str());
}

TEST(ProgressPublisher, UnwritablePathThrows)
{
    const ProgressPublisher publisher("/nonexistent-dir/progress.json");
    EXPECT_THROW(publisher.publish(counters(1, 0, 0, 0.0)),
                 snap::SnapError);
}

} // namespace
} // namespace dscoh
