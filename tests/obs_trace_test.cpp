// Observability pipeline: TraceSession must emit well-formed Chrome
// trace-event JSON with the advertised categories, honor category filters,
// and be deterministic run-to-run; the EpochSampler must produce a monotone
// time series without changing when the simulation ends.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "core/system.h"
#include "obs/epoch_sampler.h"
#include "obs/json_lite.h"
#include "workloads/workload.h"

namespace dscoh {
namespace {

/// Runs the VA workload on a System we keep, with tracing enabled for
/// @p mask, and returns the serialized trace JSON. When @p sampler is
/// given, it is started before the run.
std::string runTraced(CoherenceMode mode, std::uint32_t mask,
                      std::function<void(System&)> beforeRun = {},
                      std::function<void(System&)> afterRun = {})
{
    const Workload& w = WorkloadRegistry::instance().get("VA");
    SystemConfig cfg;
    cfg.mode = mode;
    System sys(cfg);
    sys.enableTracing(mask);
    if (beforeRun)
        beforeRun(sys);

    Workload::ArrayMap mem;
    for (const auto& spec : w.arrays(InputSize::kSmall))
        mem[spec.name] = sys.allocateArray(spec.bytes, spec.gpuShared);
    const CpuProgram produce = w.cpuProduce(InputSize::kSmall, mem);
    const auto kernels = w.kernels(InputSize::kSmall, mem);
    std::size_t next = 0;
    std::function<void()> launchNext = [&] {
        if (next < kernels.size())
            sys.launchKernel(kernels[next++], [&] { launchNext(); });
    };
    sys.runCpuProgram(produce, [&] { launchNext(); });
    sys.simulate();
    if (afterRun)
        afterRun(sys);

    std::ostringstream os;
    sys.trace()->writeJson(os);
    return os.str();
}

jsonlite::ValuePtr parseOrDie(const std::string& text)
{
    std::string error;
    jsonlite::ValuePtr v = jsonlite::parse(text, error);
    EXPECT_NE(v, nullptr) << error;
    return v;
}

TEST(TraceFilter, ParsesSingleAndMultipleCategories)
{
    std::uint32_t mask = 0;
    std::string error;
    ASSERT_TRUE(parseTraceFilter("net", mask, error)) << error;
    EXPECT_EQ(mask, traceCatBit(TraceCat::kNet));
    ASSERT_TRUE(parseTraceFilter("coherence,dram,kernel", mask, error));
    EXPECT_EQ(mask, traceCatBit(TraceCat::kCoherence) |
                        traceCatBit(TraceCat::kDram) |
                        traceCatBit(TraceCat::kKernel));
    ASSERT_TRUE(parseTraceFilter("mshr", mask, error));
    EXPECT_EQ(mask, traceCatBit(TraceCat::kMshr));
}

TEST(TraceFilter, RejectsGarbageDeterministically)
{
    std::uint32_t mask = 0;
    std::string error;
    EXPECT_FALSE(parseTraceFilter("", mask, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseTraceFilter("net,", mask, error));
    EXPECT_FALSE(parseTraceFilter(",net", mask, error));
    EXPECT_FALSE(parseTraceFilter("bogus", mask, error));
    EXPECT_NE(error.find("bogus"), std::string::npos);
    EXPECT_FALSE(parseTraceFilter("NET", mask, error)); // names are exact
}

TEST(TraceSession, DisabledByDefaultAndZeroStorage)
{
    SystemConfig cfg;
    System sys(cfg);
    EXPECT_EQ(sys.trace(), nullptr);
}

TEST(TraceSession, EmitsWellFormedJsonWithExpectedCategories)
{
    const std::string json =
        runTraced(CoherenceMode::kDirectStore, kAllTraceCats);
    const jsonlite::ValuePtr root = parseOrDie(json);
    ASSERT_NE(root, nullptr);
    const jsonlite::Value* events = root->get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->array.empty());

    std::uint32_t seen = 0;
    std::size_t metadata = 0;
    for (const auto& ev : events->array) {
        const jsonlite::Value* ph = ev->get("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string == "M") {
            ++metadata;
            continue;
        }
        const jsonlite::Value* cat = ev->get("cat");
        ASSERT_NE(cat, nullptr);
        ASSERT_TRUE(cat->isString());
        if (cat->string == "coherence")
            seen |= traceCatBit(TraceCat::kCoherence);
        else if (cat->string == "net")
            seen |= traceCatBit(TraceCat::kNet);
        else if (cat->string == "dram")
            seen |= traceCatBit(TraceCat::kDram);
        else if (cat->string == "mshr")
            seen |= traceCatBit(TraceCat::kMshr);
        else if (cat->string == "kernel")
            seen |= traceCatBit(TraceCat::kKernel);
        ASSERT_NE(ev->get("ts"), nullptr);
        ASSERT_NE(ev->get("name"), nullptr);
    }
    EXPECT_GT(metadata, 0u) << "thread_name metadata must name the tracks";
    // The acceptance bar: protocol transitions, network messages and DRAM
    // accesses must all be present in a full-category DS-mode trace.
    EXPECT_TRUE(seen & traceCatBit(TraceCat::kCoherence));
    EXPECT_TRUE(seen & traceCatBit(TraceCat::kNet));
    EXPECT_TRUE(seen & traceCatBit(TraceCat::kDram));
    EXPECT_TRUE(seen & traceCatBit(TraceCat::kKernel));
}

TEST(TraceSession, TransitionEventsCarryFromToArgs)
{
    const std::string json = runTraced(
        CoherenceMode::kCcsm, traceCatBit(TraceCat::kCoherence));
    const jsonlite::ValuePtr root = parseOrDie(json);
    const jsonlite::Value* events = root->get("traceEvents");
    ASSERT_NE(events, nullptr);
    bool sawTransition = false;
    for (const auto& ev : events->array) {
        const jsonlite::Value* ph = ev->get("ph");
        if (ph == nullptr || ph->string == "M")
            continue;
        const jsonlite::Value* args = ev->get("args");
        if (args != nullptr && args->get("from") != nullptr) {
            EXPECT_NE(args->get("to"), nullptr);
            EXPECT_NE(args->get("addr"), nullptr);
            sawTransition = true;
        }
    }
    EXPECT_TRUE(sawTransition);
}

TEST(TraceSession, CategoryFilterExcludesEverythingElse)
{
    const std::string json =
        runTraced(CoherenceMode::kDirectStore, traceCatBit(TraceCat::kNet));
    const jsonlite::ValuePtr root = parseOrDie(json);
    const jsonlite::Value* events = root->get("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t netEvents = 0;
    for (const auto& ev : events->array) {
        const jsonlite::Value* ph = ev->get("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string == "M")
            continue;
        const jsonlite::Value* cat = ev->get("cat");
        ASSERT_NE(cat, nullptr);
        EXPECT_EQ(cat->string, "net");
        ++netEvents;
    }
    EXPECT_GT(netEvents, 0u);
}

TEST(TraceSession, IdenticalRunsProduceIdenticalTraces)
{
    const std::string a = runTraced(CoherenceMode::kDirectStore, kAllTraceCats);
    const std::string b = runTraced(CoherenceMode::kDirectStore, kAllTraceCats);
    EXPECT_EQ(a, b);
}

TEST(EpochSampler, ProducesMonotoneTimeSeriesAndJson)
{
    std::unique_ptr<EpochSampler> sampler;
    runTraced(
        CoherenceMode::kDirectStore, traceCatBit(TraceCat::kKernel),
        [&](System& sys) {
            EpochSampler::Params p;
            p.epochTicks = 500;
            sampler = std::make_unique<EpochSampler>(sys.queue(), sys.stats(),
                                                     p);
            sampler->start();
        },
        [&](System&) {
            ASSERT_GE(sampler->samples().size(), 2u);
            ASSERT_FALSE(sampler->names().empty());
            const auto& samples = sampler->samples();
            EXPECT_EQ(samples.front().tick, 0u);
            for (std::size_t i = 1; i < samples.size(); ++i) {
                EXPECT_EQ(samples[i].tick, samples[i - 1].tick + 500);
                ASSERT_EQ(samples[i].values.size(),
                          sampler->names().size());
                for (std::size_t j = 0; j < samples[i].values.size(); ++j)
                    EXPECT_GE(samples[i].values[j], samples[i - 1].values[j])
                        << sampler->names()[j] << " went backwards";
            }
            std::ostringstream os;
            sampler->writeJson(os);
            parseOrDie("{\"epochs\": " + os.str() + "}");
        });
}

TEST(EpochSampler, SelectorsRestrictTheCounterSet)
{
    const Workload& w = WorkloadRegistry::instance().get("VA");
    SystemConfig cfg;
    System sys(cfg);
    EpochSampler::Params p;
    p.epochTicks = 1000;
    p.selectors = {"dram."};
    EpochSampler sampler(sys.queue(), sys.stats(), p);

    Workload::ArrayMap mem;
    for (const auto& spec : w.arrays(InputSize::kSmall))
        mem[spec.name] = sys.allocateArray(spec.bytes, spec.gpuShared);
    const CpuProgram produce = w.cpuProduce(InputSize::kSmall, mem);
    const auto kernels = w.kernels(InputSize::kSmall, mem);
    std::size_t next = 0;
    std::function<void()> launchNext = [&] {
        if (next < kernels.size())
            sys.launchKernel(kernels[next++], [&] { launchNext(); });
    };
    sys.runCpuProgram(produce, [&] { launchNext(); });
    sampler.start();
    sys.simulate();

    ASSERT_FALSE(sampler.names().empty());
    for (const std::string& name : sampler.names())
        EXPECT_EQ(name.rfind("dram.", 0), 0u) << name;
}

TEST(EpochSampler, DisabledSamplerTakesNoSamples)
{
    SystemConfig cfg;
    System sys(cfg);
    EpochSampler sampler(sys.queue(), sys.stats(), {});
    sampler.start();
    sys.simulate();
    EXPECT_TRUE(sampler.samples().empty());
}

TEST(JsonLite, RejectsMalformedDocuments)
{
    std::string error;
    EXPECT_EQ(jsonlite::parse("{", error), nullptr);
    EXPECT_NE(error.find("offset"), std::string::npos);
    EXPECT_EQ(jsonlite::parse("{} trailing", error), nullptr);
    EXPECT_EQ(jsonlite::parse("[1,]", error), nullptr);
    EXPECT_EQ(jsonlite::parse("{\"a\":}", error), nullptr);
    EXPECT_NE(jsonlite::parse("{\"a\": [1, 2, {\"b\": \"c\\n\"}]}", error),
              nullptr);
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NE(jsonlite::parse(nested(jsonlite::kMaxDepth), error), nullptr);
    EXPECT_EQ(jsonlite::parse(nested(jsonlite::kMaxDepth + 1), error), nullptr);
    EXPECT_NE(error.find("nesting deeper than 64 at offset 64"),
              std::string::npos)
        << error;
}

TEST(JsonLite, UintIsAnExactNonNegativeInteger)
{
    std::string error;
    const jsonlite::ValuePtr doc = jsonlite::parse(
        "[0, 7, 9007199254740992, -1, 2.5, 1e300, \"7\"]", error);
    ASSERT_NE(doc, nullptr) << error;
    const std::vector<jsonlite::ValuePtr>& v = doc->array;
    EXPECT_TRUE(v[0]->isUint());
    EXPECT_EQ(v[1]->asUint(), 7u);
    EXPECT_EQ(v[2]->asUint(), 9007199254740992u);
    for (std::size_t i = 3; i < v.size(); ++i) {
        EXPECT_FALSE(v[i]->isUint()) << i;
        EXPECT_EQ(v[i]->asUint(), 0u) << i;
    }
}

} // namespace
} // namespace dscoh
