// The dscoh-svc-v1 request schema and protocol handler, exercised without
// sockets: handleRequestLine() is a pure function of (service, line), so
// the whole wire surface pins down to string-in/string-out assertions.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json_lite.h"
#include "svc/protocol.h"
#include "svc/request.h"
#include "svc/service.h"

namespace dscoh::svc {
namespace {

jsonlite::ValuePtr parseOrDie(const std::string& text)
{
    std::string error;
    jsonlite::ValuePtr v = jsonlite::parse(text, error);
    EXPECT_NE(v, nullptr) << error << " in: " << text;
    return v;
}

bool okOf(const jsonlite::ValuePtr& v)
{
    const jsonlite::Value* ok = v->get("ok");
    return ok != nullptr && ok->kind == jsonlite::Kind::kBool && ok->boolean;
}

class ScratchDir {
public:
    explicit ScratchDir(const std::string& name)
        : path_(testing::TempDir() + name)
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

TEST(SweepRequestJson, RoundTripsEveryField)
{
    SweepRequest r;
    r.id = "r000042";
    r.tenant = "alice";
    r.priority = -3;
    r.weight = 4;
    r.size = InputSize::kBig;
    r.codes = {"VA", "NN"};
    r.modes = {CoherenceMode::kDirectStore, CoherenceMode::kCcsm};
    r.configText = "numGpus = 2\n# comment\n";

    SweepRequest back;
    std::string error;
    ASSERT_TRUE(parseRequestJson(renderRequestJson(r), &back, &error))
        << error;
    EXPECT_EQ(back.id, r.id);
    EXPECT_EQ(back.tenant, r.tenant);
    EXPECT_EQ(back.priority, r.priority);
    EXPECT_EQ(back.weight, r.weight);
    EXPECT_EQ(back.size, r.size);
    EXPECT_EQ(back.codes, r.codes);
    EXPECT_EQ(back.modes, r.modes);
    EXPECT_EQ(back.configText, r.configText);
    // Render of the reparse is byte-identical (the WAL depends on this).
    EXPECT_EQ(renderRequestJson(back), renderRequestJson(r));
}

TEST(SweepRequestJson, DefaultsAndAliasesApply)
{
    SweepRequest r;
    std::string error;
    ASSERT_TRUE(parseRequestJson("{}", &r, &error)) << error;
    EXPECT_EQ(r.tenant, "default");
    EXPECT_EQ(r.weight, 1u);
    EXPECT_EQ(r.size, InputSize::kSmall);
    EXPECT_TRUE(r.codes.empty());

    ASSERT_TRUE(parseRequestJson("{\"modes\": [\"ccsm\", \"ds\"]}", &r,
                                 &error))
        << error;
    ASSERT_EQ(r.modes.size(), 2u);
    EXPECT_EQ(r.modes[0], CoherenceMode::kCcsm);
    EXPECT_EQ(r.modes[1], CoherenceMode::kDirectStore);

    // Older WALs embed requests with a "deadlineMs" member; it is ignored
    // like any unknown field, so those requests still replay.
    ASSERT_TRUE(parseRequestJson("{\"tenant\": \"alice\", \"deadlineMs\": 5}",
                                 &r, &error))
        << error;
    EXPECT_EQ(r.tenant, "alice");
    EXPECT_EQ(renderRequestJson(r).find("deadlineMs"), std::string::npos);
}

TEST(SweepRequestJson, RejectsMalformedFields)
{
    SweepRequest r;
    std::string error;
    EXPECT_FALSE(parseRequestJson("not json", &r, &error));
    EXPECT_FALSE(parseRequestJson("{\"size\": \"medium\"}", &r, &error));
    EXPECT_FALSE(parseRequestJson("{\"weight\": 0}", &r, &error));
    EXPECT_FALSE(parseRequestJson("{\"modes\": [\"warp\"]}", &r, &error));
    EXPECT_FALSE(parseRequestJson("{\"tenant\": \"\"}", &r, &error));

    // Numbers must fit the field's integer type exactly: no fractions, no
    // values the cast would overflow.
    EXPECT_FALSE(parseRequestJson("{\"priority\": 1e300}", &r, &error));
    EXPECT_EQ(error, "request field 'priority' must be an integer in "
                     "[-2147483648, 2147483647]");
    EXPECT_FALSE(parseRequestJson("{\"priority\": -1e300}", &r, &error));
    EXPECT_FALSE(parseRequestJson("{\"priority\": 2.5}", &r, &error));
    EXPECT_FALSE(parseRequestJson("{\"priority\": 2147483648}", &r, &error));
    EXPECT_FALSE(parseRequestJson("{\"weight\": 1e10}", &r, &error));
    EXPECT_EQ(error,
              "request field 'weight' must be an integer in [1, 4294967295]");
    EXPECT_FALSE(parseRequestJson("{\"weight\": 2.5}", &r, &error));
    EXPECT_FALSE(parseRequestJson("{\"weight\": 4294967296}", &r, &error));

    // The extremes themselves are fine.
    ASSERT_TRUE(parseRequestJson(
        "{\"priority\": -2147483648, \"weight\": 4294967295}", &r, &error))
        << error;
    EXPECT_EQ(r.priority, -2147483647 - 1);
    EXPECT_EQ(r.weight, 4294967295u);
}

TEST(SweepRequestJson, ExpandJobsMatchesMakeSweepJobs)
{
    SweepRequest r;
    r.codes = {"VA", "NN"};
    r.size = InputSize::kSmall;
    std::vector<ExperimentJob> jobs;
    std::string error;
    ASSERT_TRUE(expandJobs(r, &jobs, &error)) << error;
    const std::vector<ExperimentJob> expect = makeSweepJobs(
        {"VA", "NN"}, {InputSize::kSmall},
        {CoherenceMode::kCcsm, CoherenceMode::kDirectStore}, SystemConfig{});
    ASSERT_EQ(jobs.size(), expect.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].code, expect[i].code);
        EXPECT_EQ(jobs[i].mode, expect[i].mode);
    }

    r.codes = {"NOPE"};
    EXPECT_FALSE(expandJobs(r, &jobs, &error));
    EXPECT_NE(error.find("NOPE"), std::string::npos);

    r.codes = {"VA"};
    r.configText = "notAKey = 7\n";
    EXPECT_FALSE(expandJobs(r, &jobs, &error));
}

TEST(Protocol, PingReportsSchemaAndWorkers)
{
    ScratchDir dir("svc_proto_ping");
    ServiceOptions opts;
    opts.stateDir = dir.path();
    opts.workers = 1;
    SweepService svc(opts);
    const jsonlite::ValuePtr v =
        parseOrDie(handleRequestLine(svc, "{\"op\": \"ping\"}", nullptr));
    EXPECT_TRUE(okOf(v));
    EXPECT_EQ(v->get("schema")->string, kProtocolSchema);
    EXPECT_EQ(v->get("workers")->asUint(), 1u);
}

TEST(Protocol, MalformedLinesFailWithoutThrowing)
{
    ScratchDir dir("svc_proto_bad");
    ServiceOptions opts;
    opts.stateDir = dir.path();
    opts.workers = 1;
    SweepService svc(opts);
    EXPECT_FALSE(okOf(parseOrDie(handleRequestLine(svc, "garbage", nullptr))));
    EXPECT_FALSE(okOf(parseOrDie(handleRequestLine(svc, "{}", nullptr))));
    EXPECT_FALSE(okOf(parseOrDie(
        handleRequestLine(svc, "{\"op\": \"frobnicate\"}", nullptr))));
    EXPECT_FALSE(okOf(parseOrDie(
        handleRequestLine(svc, "{\"op\": \"status\"}", nullptr))));
    EXPECT_FALSE(okOf(parseOrDie(handleRequestLine(
        svc, "{\"op\": \"status\", \"id\": \"r999999\"}", nullptr))));
}

TEST(Protocol, SubmitStatusListLifecycle)
{
    ScratchDir dir("svc_proto_lifecycle");
    ServiceOptions opts;
    opts.stateDir = dir.path();
    opts.workers = 2;
    SweepService svc(opts);

    SweepRequest req;
    req.tenant = "alice";
    req.codes = {"VA"};
    const jsonlite::ValuePtr submitted = parseOrDie(handleRequestLine(
        svc,
        "{\"op\": \"submit\", \"request\": \"" +
            jsonEscape(renderRequestJson(req)) + "\"}",
        nullptr));
    ASSERT_TRUE(okOf(submitted));
    const std::string id = submitted->get("id")->string;
    EXPECT_EQ(id, "r000001");
    EXPECT_EQ(submitted->get("dir")->string, svc.requestDir(id));

    const jsonlite::ValuePtr status = parseOrDie(handleRequestLine(
        svc, "{\"op\": \"status\", \"id\": \"" + id + "\"}", nullptr));
    ASSERT_TRUE(okOf(status));
    const jsonlite::Value* st = status->get("status");
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->get("id")->string, id);
    EXPECT_EQ(st->get("tenant")->string, "alice");
    EXPECT_EQ(st->get("jobsTotal")->asUint(), 2u);

    const jsonlite::ValuePtr list = parseOrDie(
        handleRequestLine(svc, "{\"op\": \"list\"}", nullptr));
    ASSERT_TRUE(okOf(list));
    EXPECT_EQ(list->get("list")->get("requests")->array.size(), 1u);

    // Drain instead of sleeping: returns once the request is terminal.
    EXPECT_TRUE(okOf(
        parseOrDie(handleRequestLine(svc, "{\"op\": \"drain\"}", nullptr))));
    const jsonlite::ValuePtr after = parseOrDie(handleRequestLine(
        svc, "{\"op\": \"status\", \"id\": \"" + id + "\"}", nullptr));
    EXPECT_EQ(after->get("status")->get("state")->string, "done");
    EXPECT_TRUE(std::ifstream(svc.requestDir(id) + "/results.json").good());

    // Terminal requests cannot be cancelled.
    EXPECT_FALSE(okOf(parseOrDie(handleRequestLine(
        svc, "{\"op\": \"cancel\", \"id\": \"" + id + "\"}", nullptr))));

    const jsonlite::ValuePtr reply = parseOrDie(
        handleRequestLine(svc, "{\"op\": \"stats\"}", nullptr));
    ASSERT_TRUE(okOf(reply));
    const jsonlite::Value* stats = reply->get("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->get("schema")->string, "dscoh-svc-stats-v2");
    EXPECT_EQ(stats->get("requests")->get("done")->asUint(), 1u);
    // perfbench's probe reads the produce-cache counters.
    const jsonlite::Value* cache = stats->get("produceCache");
    ASSERT_NE(cache, nullptr);
    ASSERT_NE(cache->get("hits"), nullptr);
    ASSERT_NE(cache->get("misses"), nullptr);
    EXPECT_EQ(cache->get("hits")->asUint() + cache->get("misses")->asUint(),
              2u);
    // The v2 member set, exactly.
    const auto keysOf = [](const jsonlite::Value& v) {
        std::vector<std::string> keys;
        for (const auto& [key, member] : v.object)
            keys.push_back(key);
        return keys;
    };
    EXPECT_EQ(keysOf(*stats),
              (std::vector<std::string>{
                  "degraded", "jobLatencyMs", "overload", "produceCache",
                  "queuedJobs", "requestLatencyMs", "requests", "runningJobs",
                  "schema", "tenants", "workers"}));
    EXPECT_EQ(keysOf(*stats->get("overload")),
              (std::vector<std::string>{"degradedRejects"}));
    const jsonlite::Value* tenants = stats->get("tenants");
    ASSERT_EQ(tenants->array.size(), 1u);
    EXPECT_EQ(keysOf(*tenants->array[0]),
              (std::vector<std::string>{"dispatched", "queued", "tenant",
                                        "weight"}));

    bool shutdown = false;
    EXPECT_TRUE(okOf(parseOrDie(
        handleRequestLine(svc, "{\"op\": \"shutdown\"}", &shutdown))));
    EXPECT_TRUE(shutdown);
}

TEST(Protocol, OversizedLineIsRejectedWithAnError)
{
    ScratchDir dir("svc_proto_oversize");
    ServiceOptions opts;
    opts.stateDir = dir.path();
    opts.workers = 1;
    SweepService svc(opts);

    bool shutdown = false;
    const std::string reply = handleRequestLine(
        svc, std::string(kMaxProtocolLineBytes + 1, 'a'), &shutdown);
    const jsonlite::ValuePtr v = parseOrDie(reply);
    EXPECT_FALSE(okOf(v));
    EXPECT_NE(v->get("error")->string.find("exceeds"), std::string::npos);
    EXPECT_FALSE(shutdown);
}

TEST(Protocol, ControlBytesAreRejectedWithAnError)
{
    ScratchDir dir("svc_proto_ctrl");
    ServiceOptions opts;
    opts.stateDir = dir.path();
    opts.workers = 1;
    SweepService svc(opts);

    bool shutdown = false;
    const std::string reply =
        handleRequestLine(svc, std::string("{\"op\": \"p\x01ing\"}"),
                          &shutdown);
    const jsonlite::ValuePtr v = parseOrDie(reply);
    EXPECT_FALSE(okOf(v));
    EXPECT_NE(v->get("error")->string.find("control byte"),
              std::string::npos);
}

TEST(LineFramer, FramesLinesAndStripsCrlf)
{
    LineFramer f;
    std::string line;
    for (const char c : std::string("{\"op\":\t\"ping\"}\r"))
        EXPECT_EQ(f.push(c, &line), LineFramer::Result::kNeedMore);
    EXPECT_EQ(f.push('\n', &line), LineFramer::Result::kLine);
    EXPECT_EQ(line, "{\"op\":\t\"ping\"}"); // tab kept, CR stripped
    EXPECT_EQ(f.pending(), 0u);
}

TEST(LineFramer, RejectsControlBytesAndResets)
{
    LineFramer f;
    std::string line;
    EXPECT_EQ(f.push('a', &line), LineFramer::Result::kNeedMore);
    EXPECT_EQ(f.push('\0', &line), LineFramer::Result::kBadByte);
    EXPECT_EQ(f.pending(), 0u); // poisoned buffer discarded
    EXPECT_EQ(f.push('\x02', &line), LineFramer::Result::kBadByte);
    // The framer is reusable after a violation.
    EXPECT_EQ(f.push('b', &line), LineFramer::Result::kNeedMore);
    EXPECT_EQ(f.push('\n', &line), LineFramer::Result::kLine);
    EXPECT_EQ(line, "b");
}

TEST(LineFramer, EnforcesTheLengthCap)
{
    LineFramer f(8);
    std::string line;
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(f.push('x', &line), LineFramer::Result::kNeedMore);
    EXPECT_EQ(f.push('x', &line), LineFramer::Result::kTooLong);
    EXPECT_EQ(f.pending(), 0u);
}

} // namespace
} // namespace dscoh::svc
