// dscoh_bench — the sweep service's overhead gate.
//
//   dscoh_bench --service-overhead N [--reps R]
//
// Times N back-to-back small VA sweeps submitted to an in-process daemon
// over its Unix socket against the same N sweeps run directly on the
// engine, and exits 1 when the amortized daemon wall time is more than 5%
// above embedded. Both sides run on the same host in one process, so the
// gate compares code, not machines. --reps R repeats the measurement and
// keeps the fastest repetition of each side (the standard way to strip
// scheduler noise from a wall time); simulation outputs are deterministic,
// so repetitions differ only in wall time.
//
// The daemon keeps its state in a fresh mkdtemp directory under the temp
// directory ($TMPDIR), removed on exit, so concurrent gates never share one.
//
// The benchmark of record is perfbench (perfbench/README.md); the exact
// work per small sweep is pinned by the Small/WorkCounts.* ctests.
#include <stdlib.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "cli/options.h"
#include "exp/experiment_engine.h"
#include "sim/errors.h"
#include "svc/client.h"
#include "svc/request.h"
#include "svc/server.h"
#include "svc/service.h"

using namespace dscoh;

namespace {

/// The daemon may be at most this many percent slower than embedded.
constexpr double kMaxServiceOverheadPct = 5.0;

/// A private directory made by mkdtemp under the temp directory and removed,
/// without throwing, when the guard goes out of scope.
class TempDir {
public:
    TempDir()
    {
        std::string pattern = (std::filesystem::temp_directory_path() /
                               "dscoh_bench_XXXXXX")
                                  .string();
        if (::mkdtemp(pattern.data()) == nullptr)
            throw std::system_error(errno, std::generic_category(),
                                    "mkdtemp " + pattern);
        path_ = pattern;
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    const std::string& path() const { return path_; }

private:
    std::string path_;
};

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
    const TempDir stateDir;
    svc::ServiceOptions svcOpts;
    svcOpts.stateDir = stateDir.path();
    svcOpts.workers = 1;
    svcOpts.forkProduce = false;
    svc::SweepService service(svcOpts);
    svc::ServerOptions serverOpts;
    serverOpts.socketPath = stateDir.path() + "/svc.sock";
    serverOpts.pollMs = 20;
    std::atomic<bool> stop{false};
    int serveExit = kExitOk;
    std::thread server([&] {
        serveExit = svc::serveSocket(service, serverOpts, stop);
    });

    const auto stopServer = [&] {
        stop = true;
        server.join();
    };
    const auto fail = [&](const std::string& what) {
        std::cerr << "dscoh_bench: " << what << "\n";
        stopServer();
        return kExitIo;
    };

    const svc::SvcClient client(serverOpts.socketPath);
    std::string reply;
    std::string error;
    bool up = false;
    for (int i = 0; i < 200 && !up; ++i) {
        up = client.call(svc::requestLine("ping"), &reply, &error);
        if (!up)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!up)
        return fail("daemon never answered: " + error);

    svc::SweepRequest req;
    req.tenant = "bench";
    req.codes = {"VA"};
    const std::string submitLine =
        svc::requestLine("submit", "request", svc::renderRequestJson(req));
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
        for (std::uint64_t i = 0; i < sweeps; ++i)
            if (!client.call(submitLine, &reply, &error) ||
                reply.find("\"ok\": true") == std::string::npos)
                return fail("submit failed: " + error + reply);
        if (!client.call(svc::requestLine("drain"), &reply, &error))
            return fail("drain failed: " + error);
        const double serviceWall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (rep == 0 || serviceWall < out->serviceSeconds)
            out->serviceSeconds = serviceWall;
    }

    client.call(svc::requestLine("shutdown"), &reply, &error);
    stopServer();
    return serveExit;
}

} // namespace

int main(int argc, char** argv)
{
    std::uint64_t reps = 1;
    std::uint64_t serviceSweeps = 0;
    cli::OptionParser parser("dscoh_bench",
                             "sweep-service overhead gate: N sweeps through "
                             "the daemon vs embedded, at most 5% slower");
    parser.addUint("reps", "repetitions, fastest of each side kept "
                   "(default 1)", &reps);
    parser.addUint("service-overhead", "time N sweeps through the daemon vs "
                   "embedded; exit 1 when the daemon is more than 5% slower",
                   &serviceSweeps);
    if (!parser.parse(argc, argv, std::cerr))
        return kExitUsage;
    if (serviceSweeps == 0) {
        std::cerr << "dscoh_bench: --service-overhead N (N >= 1) is "
                     "required\n";
        return kExitUsage;
    }
    if (reps == 0)
        reps = 1;

    ServiceBench service;
    int rc = kExitOk;
    try {
        rc = benchServiceOverhead(serviceSweeps, reps, &service);
    } catch (const std::exception& e) {
        std::cerr << "dscoh_bench: " << e.what() << "\n";
        return kExitIo;
    }
    if (rc != kExitOk)
        return rc;
    std::printf("service: %llu sweeps x %llu jobs, embedded %.3fs, "
                "daemon %.3fs (%+.1f%%)\n",
                static_cast<unsigned long long>(service.sweeps),
                static_cast<unsigned long long>(service.jobsPerSweep),
                service.embeddedSeconds, service.serviceSeconds,
                service.overheadPct());
    if (service.overheadPct() > kMaxServiceOverheadPct) {
        std::fprintf(stderr,
                     "dscoh_bench: daemon overhead %.1f%% exceeds the "
                     "%.0f%% budget\n",
                     service.overheadPct(), kMaxServiceOverheadPct);
        return kExitFailure;
    }
    return kExitOk;
}
