// SweepService end-to-end: the PR's acceptance criteria, in-process.
//
//  - two tenants with overlapping sweep configs: the shared produce-phase
//    cache serves the overlap (visible in the cache-hit counter) and both
//    tenants' requests complete with byte-identical results;
//  - weighted fair sharing keeps a late small request from starving behind
//    an earlier large one (WAL terminal-event order proves it);
//  - stop/restart mid-queue: a new service on the same state dir resumes
//    every unfinished request and publishes results.json byte-identical to
//    an uninterrupted run (the SIGKILL variant of this lives in
//    scripts/svc_kill_resume_check.sh / CI, which kills a real daemon).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "fault/io_fault.h"
#include "obs/json_lite.h"
#include "svc/protocol.h"
#include "svc/service.h"

namespace dscoh::svc {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
public:
    explicit ScratchDir(const std::string& name)
        : path_(testing::TempDir() + name)
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string stateOf(const SweepService& svc, const std::string& id)
{
    std::string status, error;
    if (!svc.statusJson(id, &status, &error))
        return "unknown";
    std::string parseError;
    const jsonlite::ValuePtr v = jsonlite::parse(status, parseError);
    const jsonlite::Value* state =
        v != nullptr ? v->get("state") : nullptr;
    return state != nullptr ? state->string : "unparsed";
}

void waitTerminal(const SweepService& svc, const std::string& id)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(3);
    for (;;) {
        const std::string s = stateOf(svc, id);
        if (s == "done" || s == "failed" || s == "cancelled")
            return;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << id << " stuck in state " << s;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

std::uint64_t cacheHitsOf(const SweepService& svc)
{
    std::string parseError;
    const jsonlite::ValuePtr v =
        jsonlite::parse(svc.statsJson(), parseError);
    return v->get("produceCache")->get("hits")->asUint();
}

TEST(SweepService, OverlappingTenantsShareTheProduceCache)
{
    ScratchDir dir("svc_e2e_cache");
    ServiceOptions opts;
    opts.stateDir = dir.path();
    opts.workers = 1; // serialize so the second tenant must hit the cache
    SweepService svc(opts);

    SweepRequest alice;
    alice.tenant = "alice";
    alice.codes = {"VA"};
    SweepRequest bob = alice;
    bob.tenant = "bob"; // identical work, different tenant

    std::string aliceId, bobId, error;
    ASSERT_TRUE(svc.submit(alice, &aliceId, &error)) << error;
    waitTerminal(svc, aliceId);
    const std::uint64_t hitsAfterAlice = cacheHitsOf(svc);

    ASSERT_TRUE(svc.submit(bob, &bobId, &error)) << error;
    waitTerminal(svc, bobId);

    EXPECT_EQ(stateOf(svc, aliceId), "done");
    EXPECT_EQ(stateOf(svc, bobId), "done");
    // Bob's produce phases were served from alice's snapshots: the
    // cross-tenant dedup counter moved.
    EXPECT_GT(cacheHitsOf(svc), hitsAfterAlice);
    // Identical requests publish byte-identical results regardless of who
    // submitted them or what the cache served.
    const std::string aliceResults =
        slurp(svc.requestDir(aliceId) + "/results.json");
    const std::string bobResults =
        slurp(svc.requestDir(bobId) + "/results.json");
    ASSERT_FALSE(aliceResults.empty());
    EXPECT_EQ(aliceResults, bobResults);
}

TEST(SweepService, FairShareKeepsASmallTenantFromStarving)
{
    ScratchDir dir("svc_e2e_fair");
    ServiceOptions opts;
    opts.stateDir = dir.path();
    opts.workers = 1; // one worker makes the dispatch order the whole story
    SweepService svc(opts);

    SweepRequest big;
    big.tenant = "alice";
    big.codes = {"VA", "NN", "BP"}; // 6 jobs
    SweepRequest small;
    small.tenant = "bob";
    small.codes = {"VA"}; // 2 jobs

    std::string bigId, smallId, error;
    ASSERT_TRUE(svc.submit(big, &bigId, &error)) << error;
    ASSERT_TRUE(svc.submit(small, &smallId, &error)) << error;
    waitTerminal(svc, bigId);
    waitTerminal(svc, smallId);

    // Fair sharing interleaves the tenants, so bob's 2-job request goes
    // terminal before alice's 6-job request — WAL terminal-event order is
    // the persistent proof. FIFO would have finished alice first.
    const std::string wal = slurp(dir.path() + "/svc.journal");
    const std::size_t bobDone =
        wal.find("{\"event\": \"done\", \"id\": \"" + smallId + "\"}");
    const std::size_t aliceDone =
        wal.find("{\"event\": \"done\", \"id\": \"" + bigId + "\"}");
    ASSERT_NE(bobDone, std::string::npos);
    ASSERT_NE(aliceDone, std::string::npos);
    EXPECT_LT(bobDone, aliceDone);
}

TEST(SweepService, RestartMidQueueRepublishesByteIdenticalResults)
{
    ScratchDir dir("svc_e2e_restart");
    ScratchDir freshDir("svc_e2e_restart_fresh");

    SweepRequest req;
    req.tenant = "alice";
    req.codes = {"VA", "NN", "BP"};

    // Reference: the same request on a fresh, uninterrupted service.
    std::string freshResults;
    {
        ServiceOptions opts;
        opts.stateDir = freshDir.path();
        opts.workers = 2;
        SweepService svc(opts);
        std::string id, error;
        ASSERT_TRUE(svc.submit(req, &id, &error)) << error;
        waitTerminal(svc, id);
        freshResults = slurp(svc.requestDir(id) + "/results.json");
        ASSERT_FALSE(freshResults.empty());
    }

    // Interrupted: stop the service after the first job completes. The
    // destructor finishes in-flight jobs but queued ones stay owed — the
    // WAL has no terminal event for the request.
    std::string id;
    {
        ServiceOptions opts;
        opts.stateDir = dir.path();
        opts.workers = 1;
        SweepService svc(opts);
        std::string error;
        ASSERT_TRUE(svc.submit(req, &id, &error)) << error;
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::minutes(3);
        while (!std::ifstream(svc.requestDir(id) + "/journal").good()) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline);
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        svc.beginShutdown();
    }
    ASSERT_FALSE(fs::exists(dir.path() + "/jobs/" + id + "/results.json"));

    // Restart on the same state dir: recovery replays the journal, runs
    // what is still owed, and publishes.
    {
        ServiceOptions opts;
        opts.stateDir = dir.path();
        opts.workers = 2;
        SweepService svc(opts);
        waitTerminal(svc, id);
        EXPECT_EQ(stateOf(svc, id), "done");
    }
    EXPECT_EQ(slurp(dir.path() + "/jobs/" + id + "/results.json"),
              freshResults);
}

TEST(SweepService, RecoversACrashBetweenLastJobAndPublication)
{
    // The narrowest crash window: every job journaled, results.json never
    // written, no WAL terminal line. Recovery must publish from the
    // journal alone, without re-running anything.
    ScratchDir dir("svc_e2e_window");
    ScratchDir refDir("svc_e2e_window_ref");

    SweepRequest req;
    req.tenant = "alice";
    req.codes = {"VA"};
    req.id = "r000001";

    // Build the reference results and the journal with the plain engine —
    // the service's journal format IS the engine's.
    std::vector<ExperimentJob> jobs;
    std::string error;
    ASSERT_TRUE(expandJobs(req, &jobs, &error)) << error;
    const std::string jobDir = dir.path() + "/jobs/r000001";
    fs::create_directories(jobDir);
    EngineRunOptions engineOpts;
    engineOpts.journalPath = jobDir + "/journal";
    const ExperimentEngine engine(2);
    const std::vector<ExperimentResult> results =
        engine.run(jobs, engineOpts);
    writeResultsJsonAtomic(refDir.path() + "/expected.json", results);

    // Hand-write the WAL as the killed daemon would have left it.
    {
        std::ofstream wal(dir.path() + "/svc.journal");
        wal << "{\"event\": \"accepted\", \"id\": \"r000001\", "
               "\"request\": \""
            << jsonEscape(renderRequestJson(req)) << "\"}\n";
    }

    ServiceOptions opts;
    opts.stateDir = dir.path();
    opts.workers = 1;
    SweepService svc(opts); // recovery publishes during construction
    EXPECT_EQ(stateOf(svc, "r000001"), "done");
    EXPECT_EQ(slurp(jobDir + "/results.json"),
              slurp(refDir.path() + "/expected.json"));
    // The journal is finalized (deleted on success) and the WAL now has
    // the terminal line, so a second restart changes nothing.
    EXPECT_FALSE(fs::exists(jobDir + "/journal"));
    EXPECT_NE(slurp(dir.path() + "/svc.journal")
                  .find("{\"event\": \"done\", \"id\": \"r000001\"}"),
              std::string::npos);
}

TEST(SweepService, CancelDropsQueuedWorkAndPublishesNoResults)
{
    ScratchDir dir("svc_e2e_cancel");
    ServiceOptions opts;
    opts.stateDir = dir.path();
    opts.workers = 1;
    SweepService svc(opts);

    SweepRequest req;
    req.tenant = "alice";
    req.codes = {"VA", "NN", "BP"};
    std::string id, error;
    ASSERT_TRUE(svc.submit(req, &id, &error)) << error;
    ASSERT_TRUE(svc.cancel(id, &error)) << error;
    EXPECT_EQ(stateOf(svc, id), "cancelled");
    // A second cancel is an error, as is cancelling the unknown.
    EXPECT_FALSE(svc.cancel(id, &error));
    EXPECT_FALSE(svc.cancel("r999999", &error));

    svc.drain(); // lets any in-flight job finish
    EXPECT_EQ(stateOf(svc, id), "cancelled");
    EXPECT_FALSE(fs::exists(svc.requestDir(id) + "/results.json"));
    EXPECT_NE(slurp(dir.path() + "/svc.journal")
                  .find("{\"event\": \"cancelled\", \"id\": \"" + id +
                        "\"}"),
              std::string::npos);
}

TEST(SweepService, SubmitAfterShutdownLeavesNoTrace)
{
    ScratchDir dir("svc_e2e_shutdown_submit");
    ServiceOptions opts;
    opts.stateDir = dir.path();
    opts.workers = 1;
    SweepService svc(opts);
    svc.beginShutdown();

    SweepRequest req;
    req.codes = {"VA"};
    std::string id, error;
    SubmitInfo info;
    EXPECT_FALSE(svc.submit(req, &id, &error, &info));
    EXPECT_EQ(error, "service is shutting down");
    EXPECT_FALSE(info.degraded); // a plain rejection, not a sick disk
    // Nothing was admitted: no WAL line, no request dir.
    EXPECT_EQ(slurp(dir.path() + "/svc.journal").find("accepted"),
              std::string::npos);
    EXPECT_TRUE(fs::is_empty(dir.path() + "/jobs"));
}

TEST(SweepService, DegradedStorageRejectsThenRecovers)
{
    ScratchDir dir("svc_e2e_degraded");
    ServiceOptions opts;
    opts.stateDir = dir.path();
    opts.workers = 1;
    SweepService svc(opts);

    // Break the disk under the live service: every durable write inside
    // the state dir fails with ENOSPC from here on.
    fault::IoFaultConfig io;
    io.enospcPpm = 1'000'000;
    io.pathFilter = dir.path();
    fault::installIoFaults(io);

    SweepRequest req;
    req.codes = {"VA"};
    req.modes = {CoherenceMode::kCcsm};
    std::string id, error;
    SubmitInfo info;
    EXPECT_FALSE(svc.submit(req, &id, &error, &info));
    EXPECT_TRUE(info.degraded);
    EXPECT_NE(error.find("storage failure"), std::string::npos);
    EXPECT_TRUE(svc.degraded());

    // While degraded, rejection is immediate — no further disk traffic
    // needed to refuse, and the flag is visible in stats for monitoring.
    info = SubmitInfo{};
    EXPECT_FALSE(svc.submit(req, &id, &error, &info));
    EXPECT_TRUE(info.degraded);
    EXPECT_NE(svc.statsJson().find("\"degraded\": true"),
              std::string::npos);

    // The probe keeps failing while the disk is sick...
    svc.tick();
    EXPECT_TRUE(svc.degraded());

    // ...and clears the moment it heals; service resumes accepting.
    fault::clearIoFaults();
    svc.tick();
    EXPECT_FALSE(svc.degraded());
    ASSERT_TRUE(svc.submit(req, &id, &error, &info)) << error;
    waitTerminal(svc, id);
    EXPECT_EQ(stateOf(svc, id), "done");
}

} // namespace
} // namespace dscoh::svc
