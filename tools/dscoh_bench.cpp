// dscoh_bench — the tracked performance baseline of the simulator itself.
//
//   dscoh_bench [--quick] [--reps N] [--out FILE] [--compare FILE]
//               [--max-regress-pct P] [--only BP,VA,...]
//
// Runs the Fig. 4 sweep workloads (CCSM and direct store, small inputs)
// single-threaded and reports, per run and in aggregate, the engine's
// throughput: executed events per wall second, simulated ticks per wall
// second, and wall-clock time. The aggregate goes to --out as JSON in the
// stable "dscoh-bench-v1" schema; the committed BENCH_1.json at the repo
// root is exactly such a file and serves as the reference point.
//
// --compare FILE loads a previous output and gates on it: the aggregate
// events/sec over the (code, mode) runs present in BOTH files must not fall
// more than --max-regress-pct percent (default 15) below the baseline, or
// the tool exits 1. CI runs `dscoh_bench --quick --compare BENCH_1.json`
// on every push; comparing over the intersection is what lets the quick
// subset gate against the committed full sweep.
//
// Runs are timed one at a time on purpose: parallel workers would share
// memory bandwidth and turn the wall-clock numbers into noise. --reps N
// repeats each run and keeps the fastest repetition (the standard way to
// strip scheduler noise from a throughput number); simulation outputs are
// deterministic, so repetitions differ only in wall time.
//
// --service-overhead N additionally measures the sweep-service tax: N
// back-to-back small VA sweeps submitted to an in-process daemon over its
// Unix socket vs. the same N sweeps run directly on the engine. The
// amortized daemon wall time must stay within --max-service-overhead-pct
// (default 5) of embedded or the tool exits 1; the measurement lands in
// the report's "service" member.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/options.h"
#include "exp/experiment_engine.h"
#include "obs/json_lite.h"
#include "sim/errors.h"
#include "svc/client.h"
#include "svc/request.h"
#include "svc/server.h"
#include "svc/service.h"
#include "workloads/runner.h"

using namespace dscoh;

namespace {

struct BenchRun {
    std::string code;
    CoherenceMode mode = CoherenceMode::kCcsm;
    std::uint64_t events = 0;
    std::uint64_t ticks = 0;
    double wallSeconds = 0.0;

    double eventsPerSecond() const
    {
        return wallSeconds > 0.0 ? static_cast<double>(events) / wallSeconds
                                 : 0.0;
    }
    double ticksPerSecond() const
    {
        return wallSeconds > 0.0 ? static_cast<double>(ticks) / wallSeconds
                                 : 0.0;
    }
};

std::vector<std::string> splitCodes(const std::string& csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

const char* modeName(CoherenceMode m)
{
    return m == CoherenceMode::kCcsm ? "ccsm" : "ds";
}

/// One timed workload run with the queue's own counters enabled, repeated
/// @p reps times keeping the fastest wall time.
BenchRun timeRun(const std::string& code, CoherenceMode mode,
                 std::uint64_t reps)
{
    const Workload& w = WorkloadRegistry::instance().get(code);
    SystemConfig cfg;
    cfg.logLevel = LogLevel::kError; // logging off the hot path
    BenchRun best;
    best.code = code;
    best.mode = mode;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
        WorkloadRun run(w, InputSize::kSmall, mode, cfg);
        run.options().beforeFirstPhase = [](System& sys) {
            sys.enableQueueStats();
        };
        const auto start = std::chrono::steady_clock::now();
        const WorkloadRunResult res = run.run();
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        const auto it = res.statCounters.find("queue.executed_events");
        const std::uint64_t events =
            it == res.statCounters.end() ? 0 : it->second;
        if (rep == 0 || wall.count() < best.wallSeconds) {
            best.events = events;
            best.ticks = res.metrics.ticks;
            best.wallSeconds = wall.count();
        }
    }
    return best;
}

/// Daemon-vs-embedded measurement of --service-overhead.
struct ServiceBench {
    std::uint64_t sweeps = 0;
    std::uint64_t jobsPerSweep = 0;
    double embeddedSeconds = 0.0;
    double serviceSeconds = 0.0;

    double overheadPct() const
    {
        return embeddedSeconds > 0.0
                   ? (serviceSeconds / embeddedSeconds - 1.0) * 100.0
                   : 0.0;
    }
};

/// Runs @p sweeps identical small VA sweeps two ways — directly on the
/// engine, and submitted through an in-process daemon over its socket —
/// and fills @p out with the amortized wall times. The two paths
/// ALTERNATE, one embedded batch then one daemon batch per rep, fastest
/// of each kept: run back to back instead, the later phase measures the
/// thermal state the earlier one left behind (observed as a phantom
/// 10-20%% "overhead" that reverses with the phase order), not the
/// daemon. Returns an exit code; nonzero when the daemon path cannot be
/// driven at all.
int benchServiceOverhead(std::uint64_t sweeps, std::uint64_t reps,
                         ServiceBench* out)
{
    const std::vector<ExperimentJob> jobs = makeSweepJobs(
        {"VA"}, {InputSize::kSmall},
        {CoherenceMode::kCcsm, CoherenceMode::kDirectStore});
    out->sweeps = sweeps;
    out->jobsPerSweep = jobs.size();

    // Warm allocators and page cache once, untimed, so neither path pays
    // first-run costs the other does not.
    ExperimentEngine(1).run(jobs);

    // The daemon path: a real SweepService behind a real socket loop, one
    // worker so the engine-side work matches the single-threaded embedded
    // runs. The produce cache is off — on, the daemon would win outright
    // on repeated sweeps and hide the per-request machinery this measures.
    namespace fs = std::filesystem;
    const std::string stateDir =
        (fs::temp_directory_path() / "dscoh_bench_svc").string();
    fs::remove_all(stateDir);
    svc::ServiceOptions svcOpts;
    svcOpts.stateDir = stateDir;
    svcOpts.workers = 1;
    svcOpts.forkProduce = false;
    svc::SweepService service(svcOpts);
    svc::ServerOptions serverOpts;
    serverOpts.socketPath = stateDir + "/svc.sock";
    serverOpts.pollMs = 20;
    std::atomic<bool> stop{false};
    int serveExit = kExitOk;
    std::thread server([&] {
        serveExit = svc::serveSocket(service, serverOpts, stop);
    });

    const svc::SvcClient client(serverOpts.socketPath);
    std::string reply;
    std::string error;
    bool up = false;
    for (int i = 0; i < 200 && !up; ++i) {
        up = client.call("{\"op\": \"ping\"}", &reply, &error);
        if (!up)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!up) {
        std::cerr << "dscoh_bench: daemon never answered: " << error << "\n";
        stop = true;
        server.join();
        fs::remove_all(stateDir);
        return kExitIo;
    }

    svc::SweepRequest req;
    req.tenant = "bench";
    req.codes = {"VA"};
    const std::string submitLine =
        "{\"op\": \"submit\", \"request\": \"" +
        svc::jsonEscape(svc::renderRequestJson(req)) + "\"}";
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
        auto start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < sweeps; ++i)
            ExperimentEngine(1).run(jobs);
        const double embeddedWall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (rep == 0 || embeddedWall < out->embeddedSeconds)
            out->embeddedSeconds = embeddedWall;

        start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < sweeps; ++i) {
            if (!client.call(submitLine, &reply, &error) ||
                reply.find("\"ok\": true") == std::string::npos) {
                std::cerr << "dscoh_bench: submit failed: " << error
                          << reply << "\n";
                stop = true;
                server.join();
                fs::remove_all(stateDir);
                return kExitIo;
            }
        }
        if (!client.call("{\"op\": \"drain\"}", &reply, &error)) {
            std::cerr << "dscoh_bench: drain failed: " << error << "\n";
            stop = true;
            server.join();
            fs::remove_all(stateDir);
            return kExitIo;
        }
        const double serviceWall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (rep == 0 || serviceWall < out->serviceSeconds)
            out->serviceSeconds = serviceWall;
    }

    client.call("{\"op\": \"shutdown\"}", &reply, &error);
    stop = true;
    server.join();
    fs::remove_all(stateDir);
    return serveExit;
}

void writeJson(std::ostream& os, const std::vector<BenchRun>& runs,
               bool quick, std::uint64_t reps, const ServiceBench* service)
{
    std::uint64_t events = 0;
    std::uint64_t ticks = 0;
    double wall = 0.0;
    for (const BenchRun& r : runs) {
        events += r.events;
        ticks += r.ticks;
        wall += r.wallSeconds;
    }
    char buf[64];
    os << "{\n";
    os << "  \"schema\": \"dscoh-bench-v1\",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"size\": \"small\",\n";
    os << "  \"reps\": " << reps << ",\n";
    os << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const BenchRun& r = runs[i];
        os << "    {\"code\": \"" << r.code << "\", \"mode\": \""
           << modeName(r.mode) << "\", \"ticks\": " << r.ticks
           << ", \"events\": " << r.events;
        std::snprintf(buf, sizeof buf, "%.6f", r.wallSeconds);
        os << ", \"wall_seconds\": " << buf;
        std::snprintf(buf, sizeof buf, "%.1f", r.eventsPerSecond());
        os << ", \"events_per_second\": " << buf;
        std::snprintf(buf, sizeof buf, "%.1f", r.ticksPerSecond());
        os << ", \"sim_ticks_per_second\": " << buf << "}"
           << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"totals\": {\"ticks\": " << ticks << ", \"events\": " << events;
    std::snprintf(buf, sizeof buf, "%.6f", wall);
    os << ", \"wall_seconds\": " << buf;
    std::snprintf(buf, sizeof buf, "%.1f",
                  wall > 0.0 ? static_cast<double>(events) / wall : 0.0);
    os << ", \"events_per_second\": " << buf;
    std::snprintf(buf, sizeof buf, "%.1f",
                  wall > 0.0 ? static_cast<double>(ticks) / wall : 0.0);
    os << ", \"sim_ticks_per_second\": " << buf << "}";
    if (service != nullptr) {
        os << ",\n  \"service\": {\"sweeps\": " << service->sweeps
           << ", \"jobs_per_sweep\": " << service->jobsPerSweep;
        std::snprintf(buf, sizeof buf, "%.6f", service->embeddedSeconds);
        os << ", \"embedded_wall_seconds\": " << buf;
        std::snprintf(buf, sizeof buf, "%.6f", service->serviceSeconds);
        os << ", \"service_wall_seconds\": " << buf;
        std::snprintf(buf, sizeof buf, "%.2f", service->overheadPct());
        os << ", \"overhead_pct\": " << buf << "}";
    }
    os << "\n}\n";
}

/// Compares this invocation's runs against a baseline file over their
/// (code, mode) intersection. Returns the exit code.
int compareAgainst(const std::string& path, const std::vector<BenchRun>& runs,
                   double maxRegressPct)
{
    std::string error;
    const jsonlite::ValuePtr doc = jsonlite::parseFile(path, error);
    if (doc == nullptr) {
        std::cerr << "dscoh_bench: baseline: " << error << "\n";
        return kExitIo;
    }
    const jsonlite::Value* baseRuns = doc->get("runs");
    if (baseRuns == nullptr || !baseRuns->isArray()) {
        std::cerr << "dscoh_bench: baseline " << path << " has no runs\n";
        return kExitIo;
    }

    // Sum the baseline over the runs this invocation also executed.
    std::uint64_t baseEvents = 0;
    double baseWall = 0.0;
    std::uint64_t curEvents = 0;
    double curWall = 0.0;
    std::size_t matched = 0;
    for (const auto& entry : baseRuns->array) {
        const jsonlite::Value* code = entry->get("code");
        const jsonlite::Value* mode = entry->get("mode");
        const jsonlite::Value* events = entry->get("events");
        const jsonlite::Value* wall = entry->get("wall_seconds");
        if (code == nullptr || mode == nullptr || events == nullptr ||
            wall == nullptr)
            continue;
        for (const BenchRun& r : runs) {
            if (r.code == code->string && modeName(r.mode) == mode->string) {
                baseEvents += events->asUint();
                baseWall += wall->number;
                curEvents += r.events;
                curWall += r.wallSeconds;
                ++matched;
                break;
            }
        }
    }
    if (matched == 0 || baseWall <= 0.0 || curWall <= 0.0) {
        std::cerr << "dscoh_bench: no comparable runs in " << path << "\n";
        return kExitIo;
    }
    const double baseRate = static_cast<double>(baseEvents) / baseWall;
    const double curRate = static_cast<double>(curEvents) / curWall;
    const double deltaPct = (curRate / baseRate - 1.0) * 100.0;
    std::fprintf(stderr,
                 "compare: %zu shared runs, baseline %.0f events/s, "
                 "now %.0f events/s (%+.1f%%)\n",
                 matched, baseRate, curRate, deltaPct);
    if (deltaPct < -maxRegressPct) {
        std::fprintf(stderr,
                     "dscoh_bench: events/sec regressed %.1f%% "
                     "(limit %.0f%%) vs %s\n",
                     -deltaPct, maxRegressPct, path.c_str());
        return kExitFailure;
    }
    return kExitOk;
}

} // namespace

int main(int argc, char** argv)
{
    bool quick = false;
    std::uint64_t reps = 1;
    std::string outPath;
    std::string comparePath;
    std::uint64_t maxRegressPct = 15;
    std::string only;
    std::uint64_t serviceSweeps = 0;
    std::uint64_t maxServiceOverheadPct = 5;
    cli::OptionParser parser("dscoh_bench",
                             "engine throughput baseline over the Fig. 4 "
                             "sweep (events/sec, ticks/sec, wall-clock)");
    parser.addFlag("quick", "small representative subset (the CI gate)",
                   &quick);
    parser.addUint("reps", "repetitions per run, fastest kept (default 1)",
                   &reps);
    parser.addString("out", "write the JSON report here", &outPath);
    parser.addString("compare", "baseline JSON (e.g. BENCH_1.json); exit 1 "
                     "on a >--max-regress-pct events/sec drop over the "
                     "shared runs", &comparePath);
    parser.addUint("max-regress-pct", "allowed events/sec regression in "
                   "percent (default 15)", &maxRegressPct);
    parser.addString("only", "comma-separated benchmark codes (default: "
                     "all, or the quick subset)", &only);
    parser.addUint("service-overhead", "also time N sweeps through the "
                   "daemon vs embedded; exit 1 when the daemon is more "
                   "than --max-service-overhead-pct slower", &serviceSweeps);
    parser.addUint("max-service-overhead-pct", "allowed daemon overhead in "
                   "percent (default 5)", &maxServiceOverheadPct);
    if (!parser.parse(argc, argv, std::cerr))
        return kExitUsage;
    if (reps == 0)
        reps = 1;

    std::vector<std::string> codes;
    if (!only.empty())
        codes = splitCodes(only);
    else if (quick)
        codes = {"VA", "MM", "BP"};
    else
        codes = WorkloadRegistry::instance().codes();
    for (const std::string& code : codes) {
        if (!WorkloadRegistry::instance().has(code)) {
            std::cerr << "dscoh_bench: unknown benchmark '" << code << "'\n";
            return kExitUsage;
        }
    }

    std::vector<BenchRun> runs;
    runs.reserve(codes.size() * 2);
    std::printf("%-4s %-4s %12s %12s %9s %12s %12s\n", "code", "mode",
                "events", "ticks", "wall_s", "events/s", "ticks/s");
    for (const std::string& code : codes) {
        for (const CoherenceMode mode :
             {CoherenceMode::kCcsm, CoherenceMode::kDirectStore}) {
            BenchRun r;
            try {
                r = timeRun(code, mode, reps);
            } catch (const std::exception& e) {
                std::cerr << "dscoh_bench: " << code << " ("
                          << modeName(mode) << "): " << e.what() << "\n";
                return kExitFailure;
            }
            std::printf("%-4s %-4s %12llu %12llu %9.3f %12.0f %12.0f\n",
                        r.code.c_str(), modeName(r.mode),
                        static_cast<unsigned long long>(r.events),
                        static_cast<unsigned long long>(r.ticks),
                        r.wallSeconds, r.eventsPerSecond(),
                        r.ticksPerSecond());
            runs.push_back(r);
        }
    }

    std::uint64_t events = 0;
    std::uint64_t ticks = 0;
    double wall = 0.0;
    for (const BenchRun& r : runs) {
        events += r.events;
        ticks += r.ticks;
        wall += r.wallSeconds;
    }
    std::printf("%-4s %-4s %12llu %12llu %9.3f %12.0f %12.0f\n", "all", "-",
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(ticks), wall,
                wall > 0.0 ? static_cast<double>(events) / wall : 0.0,
                wall > 0.0 ? static_cast<double>(ticks) / wall : 0.0);

    ServiceBench service;
    if (serviceSweeps > 0) {
        const int rc = benchServiceOverhead(serviceSweeps, reps, &service);
        if (rc != kExitOk)
            return rc;
        std::printf("service: %llu sweeps x %llu jobs, embedded %.3fs, "
                    "daemon %.3fs (%+.1f%%)\n",
                    static_cast<unsigned long long>(service.sweeps),
                    static_cast<unsigned long long>(service.jobsPerSweep),
                    service.embeddedSeconds, service.serviceSeconds,
                    service.overheadPct());
    }

    if (!outPath.empty()) {
        std::ofstream out(outPath);
        if (!out) {
            std::cerr << "dscoh_bench: cannot write " << outPath << "\n";
            return kExitIo;
        }
        writeJson(out, runs, quick, reps,
                  serviceSweeps > 0 ? &service : nullptr);
        std::fprintf(stderr, "wrote %s\n", outPath.c_str());
    }

    if (!comparePath.empty()) {
        const int rc = compareAgainst(comparePath, runs,
                                      static_cast<double>(maxRegressPct));
        if (rc != kExitOk)
            return rc;
    }
    if (serviceSweeps > 0 &&
        service.overheadPct() >
            static_cast<double>(maxServiceOverheadPct)) {
        std::fprintf(stderr,
                     "dscoh_bench: daemon overhead %.1f%% exceeds the "
                     "%llu%% budget\n",
                     service.overheadPct(),
                     static_cast<unsigned long long>(maxServiceOverheadPct));
        return kExitFailure;
    }
    return kExitOk;
}
