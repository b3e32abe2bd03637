// google-benchmark microbenchmarks of the hot substrate paths: event queue,
// cache-array lookup/victim selection, network delivery, DRAM scheduling,
// the protocol round trip, and the translator. These guard the simulator's
// own performance (a slow simulator caps how much of the paper we can
// regenerate per run).
#include <benchmark/benchmark.h>

#include <memory>

#include "coherence/cache_agent.h"
#include "coherence/home_controller.h"
#include "mem/cache_array.h"
#include "mem/dram.h"
#include "net/network.h"
#include "sim/sim_context.h"
#include "sim/rng.h"
#include "translate/translator.h"

namespace {

using namespace dscoh;

void BM_EventQueueScheduleRun(benchmark::State& state)
{
    const int events = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < events; ++i)
            q.schedule(static_cast<Tick>(i % 97), [&sink] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void BM_CacheArrayLookup(benchmark::State& state)
{
    CacheGeometry geom;
    geom.sizeBytes = 512 * 1024;
    geom.ways = 16;
    CacheArray<CohMeta> array(geom);
    Rng rng(7);
    // Pre-fill half the lines.
    for (int i = 0; i < 2000; ++i) {
        const Addr a = rng.below(4096) * kLineSize;
        if (array.find(a) == nullptr) {
            if (auto* way = array.findFreeWay(a))
                array.install(*way, a);
        }
    }
    for (auto _ : state) {
        const Addr a = rng.below(4096) * kLineSize;
        benchmark::DoNotOptimize(array.find(a));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayLookup);

void BM_CacheArrayVictimSelection(benchmark::State& state)
{
    CacheGeometry geom;
    geom.sizeBytes = 512 * 1024;
    geom.ways = 16;
    CacheArray<CohMeta> array(geom);
    for (Addr line = 0; line < 4096; ++line) {
        const Addr a = line * kLineSize;
        if (auto* way = array.findFreeWay(a))
            array.install(*way, a);
    }
    Rng rng(13);
    for (auto _ : state) {
        const Addr a = rng.below(1 << 20) * kLineSize;
        benchmark::DoNotOptimize(array.selectVictim(
            a, [](const CacheArray<CohMeta>::Line&) { return true; }));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayVictimSelection);

void BM_NetworkSendDeliver(benchmark::State& state)
{
    for (auto _ : state) {
        state.PauseTiming();
        SimContext ctx;
        EventQueue& q = ctx.queue;
        Network net("n", ctx, NetworkParams{10, 32});
        std::uint64_t delivered = 0;
        net.connect(0, [](const Message&) {});
        net.connect(1, [&delivered](const Message&) { ++delivered; });
        state.ResumeTiming();
        for (int i = 0; i < 1000; ++i) {
            Message m;
            m.type = MsgType::kData;
            m.src = 0;
            m.dst = 1;
            m.addr = static_cast<Addr>(i) * kLineSize;
            net.send(m);
        }
        q.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_DramReadStream(benchmark::State& state)
{
    for (auto _ : state) {
        state.PauseTiming();
        SimContext ctx;
        EventQueue& q = ctx.queue;
        BackingStore store(64ull << 20);
        Dram dram("d", ctx, store);
        int done = 0;
        state.ResumeTiming();
        for (int i = 0; i < 1000; ++i)
            dram.read(static_cast<Addr>(i) * kLineSize, [&done] { ++done; });
        q.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DramReadStream);

void BM_ProtocolReadMissRoundTrip(benchmark::State& state)
{
    for (auto _ : state) {
        state.PauseTiming();
        SimContext ctx;
        EventQueue& q = ctx.queue;
        BackingStore store(16ull << 20);
        Dram dram("d", ctx, store);
        Network req("req", ctx, NetworkParams{10, 32});
        Network fwd("fwd", ctx, NetworkParams{10, 32});
        Network resp("resp", ctx, NetworkParams{10, 32});
        HomeController::Params hp;
        hp.self = 2;
        hp.requestNet = &req;
        hp.forwardNet = &fwd;
        hp.responseNet = &resp;
        hp.dram = &dram;
        hp.store = &store;
        // Agent a is the map's CPU agent (node 0), b its one slice (node 1).
        hp.homeMap = HomeMap(1, ShardPolicy::kPage);
        HomeController home("home", ctx, std::move(hp));
        CacheAgent::Params ap;
        ap.geometry.sizeBytes = 64 * 1024;
        ap.geometry.ways = 4;
        ap.self = 0;
        ap.homeMap = HomeMap(1, ShardPolicy::kPage);
        ap.requestNet = &req;
        ap.forwardNet = &fwd;
        ap.responseNet = &resp;
        CacheAgent a("a", ctx, ap);
        ap.self = 1;
        CacheAgent b("b", ctx, ap);
        req.connect(2, [&home](const Message& m) { home.handleRequest(m); });
        resp.connect(2, [&home](const Message& m) { home.handleResponse(m); });
        fwd.connect(0, [&a](const Message& m) { a.handleForward(m); });
        resp.connect(0, [&a](const Message& m) { a.handleResponse(m); });
        fwd.connect(1, [&b](const Message& m) { b.handleForward(m); });
        resp.connect(1, [&b](const Message& m) { b.handleResponse(m); });
        int done = 0;
        state.ResumeTiming();
        for (int i = 0; i < 200; ++i)
            a.access(static_cast<Addr>(i) * kLineSize, false,
                     [&done](CacheAgent::Line&) { ++done; });
        q.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_ProtocolReadMissRoundTrip);

void BM_TranslatorVectorAdd(benchmark::State& state)
{
    const std::string source = R"cuda(
#define N 50000
__global__ void vadd(float* a, float* b, float* c, int n);
int main() {
    float *a, *b, *c;
    a = (float*)malloc(N * sizeof(float));
    b = (float*)malloc(N * sizeof(float));
    c = (float*)malloc(N * sizeof(float));
    vadd<<<196, 256>>>(a, b, c, N);
    return 0;
}
)cuda";
    xlate::SourceTranslator translator;
    for (auto _ : state) {
        benchmark::DoNotOptimize(translator.translateSource(source));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranslatorVectorAdd);

} // namespace

BENCHMARK_MAIN();
