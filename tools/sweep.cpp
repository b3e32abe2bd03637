// sweep — run all 22 Table II benchmarks under both schemes and print
// the speedup/miss-rate table (the development view of Fig. 4 + Fig. 5).
//
//   dscoh_sweep [small|big] [--jobs N] [--only BP,VA,...] [--json FILE]
//               [--resume] [--fork-produce] [--snap-dir DIR]
//               [--progress-json FILE] [--config FILE]
//
// --config FILE sets the simulated machine for every run: the key = value
// file dscoh_run --config reads and dscoh_client submit --config sends
// (e.g. examples/configs/ring4_lease.cfg, a sharded 4-GPU lease ring).
//
// Runs shard across a thread pool (default: all hardware threads; also
// settable via DSCOH_JOBS). Every simulation is fully self-contained, so
// the table is bit-identical for any --jobs value. Alongside the printed
// table the tool writes machine-readable results (default: results.json).
//
// A completed-job journal (<json>.journal) makes a killed sweep cheap to
// finish: --resume replays journaled jobs and re-runs the rest from the
// start (at most one job per worker was in flight), producing the exact
// results.json an uninterrupted sweep would have written. A fully
// successful sweep deletes the journal once the results file is published;
// a sweep with failed jobs keeps it as <json>.journal.failed so the
// failure set stays replayable. The journal is all a sweep persists for
// recovery: --fork-produce alone writes snapshots, sharing the CPU produce
// phase across sweeps through a cache in --snap-dir (default
// <json>.snapdir), which is created on demand and kept for the next sweep.
//
// --progress-json FILE publishes live progress for dashboards: after every
// completed job the file is atomically replaced with one small
// "dscoh-progress-v3" object (jobs done/failed, throughput, ETA; the same
// document the sweep service serves for its requests), so a poller never
// reads a torn document.
//
// To run the same sweep on a dscoh_svc daemon instead, submit it with
// `dscoh_client submit --watch`; the daemon publishes a byte-identical
// results.json in the request's directory.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/options.h"
#include "core/config_io.h"
#include "exp/experiment_engine.h"
#include "exp/progress.h"
#include "sim/errors.h"

using namespace dscoh;

namespace {

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

} // namespace

int main(int argc, char** argv)
{
    std::string jobsText;
    std::string only;
    std::string jsonPath = "results.json";
    std::string configPath;
    cli::OptionParser parser(
        "dscoh_sweep",
        "run the Table II benchmarks under CCSM and direct store");
    parser.addString("jobs", "worker threads (default: hardware threads, or "
                             "DSCOH_JOBS)", &jobsText);
    parser.addString("only", "comma-separated benchmark codes (default: all)",
                     &only);
    parser.addString("json", "write machine-readable results here "
                             "(default: results.json)", &jsonPath);
    bool resume = false;
    bool forkProduce = false;
    std::string snapDir;
    parser.addFlag("resume", "replay completed jobs from <json>.journal and "
                   "re-run the rest from the start", &resume);
    parser.addFlag("fork-produce", "share the CPU produce phase across runs "
                   "via a snapshot cache in --snap-dir", &forkProduce);
    parser.addString("snap-dir", "produce-cache directory for --fork-produce, "
                     "created if absent and kept (default: <json>.snapdir)",
                     &snapDir);
    std::string progressPath;
    parser.addString("progress-json", "atomically publish live progress "
                     "here after every completed job (dscoh-progress-v3: "
                     "done/failed counts, jobs/second, ETA)", &progressPath);
    parser.addString("config", "key=value config file for every run (see "
                     "dscoh_run --dump-config)", &configPath);
    if (!parser.parse(argc, argv, std::cerr))
        return kExitUsage;

    InputSize size = InputSize::kSmall;
    for (const std::string& arg : parser.positional()) {
        if (arg == "big") {
            size = InputSize::kBig;
        } else if (arg != "small") {
            std::cerr << "dscoh_sweep: unknown input size '" << arg
                      << "' (expected small or big)\n";
            return kExitUsage;
        }
    }

    unsigned jobs = 0;
    std::string error;
    if (!cli::resolveJobs(jobsText, jobs, error)) {
        std::cerr << "dscoh_sweep: " << error << "\n";
        return kExitUsage;
    }

    SystemConfig base;
    if (!configPath.empty() && !loadConfigFile(configPath, &base, &error)) {
        std::cerr << "dscoh_sweep: " << error << "\n";
        return kExitUsage;
    }

    std::vector<std::string> codes = only.empty()
                                         ? WorkloadRegistry::instance().codes()
                                         : splitCodes(only);
    for (const std::string& code : codes) {
        if (!WorkloadRegistry::instance().has(code)) {
            std::cerr << "dscoh_sweep: unknown benchmark '" << code << "'\n";
            return kExitUsage;
        }
    }

    const std::vector<ExperimentJob> batch = makeSweepJobs(
        codes, {size}, {CoherenceMode::kCcsm, CoherenceMode::kDirectStore},
        base);

    EngineRunOptions engineOpts;
    if (!jsonPath.empty()) {
        engineOpts.journalPath = jsonPath + ".journal";
        engineOpts.resume = resume;
        if (!resume)
            std::remove(engineOpts.journalPath.c_str());
    } else if (resume || forkProduce) {
        std::cerr << "dscoh_sweep: --resume/--fork-produce need --json\n";
        return kExitUsage;
    }
    if (forkProduce) {
        engineOpts.produceCacheDir =
            snapDir.empty() ? jsonPath + ".snapdir" : snapDir;
        std::error_code ec;
        std::filesystem::create_directories(engineOpts.produceCacheDir, ec);
        if (ec) {
            std::cerr << "dscoh_sweep: cannot create snapshot dir "
                      << engineOpts.produceCacheDir << ": " << ec.message()
                      << "\n";
            return kExitIo;
        }
    }

    // Live progress file: published before the first job (so pollers find
    // it immediately), after every completed job, and once more after the
    // batch. An unwritable path is a startup error; a later publish
    // failure only warns — losing one update must not kill the sweep.
    const auto sweepStart = std::chrono::steady_clock::now();
    const auto elapsed = [sweepStart] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - sweepStart)
            .count();
    };
    ProgressPublisher progress(progressPath);
    std::size_t failedJobs = 0;
    if (!progressPath.empty()) {
        try {
            ProgressSnapshot first;
            first.total = batch.size();
            progress.publish(first);
        } catch (const std::exception& e) {
            std::cerr << "dscoh_sweep: cannot write progress file "
                      << progressPath << ": " << e.what() << "\n";
            return kExitIo;
        }
    }

    ExperimentEngine engine(jobs);
    // onProgress calls are serialized by the engine, so the counters need
    // no further locking.
    engine.onProgress([&](const ExperimentResult& r, std::size_t done,
                          std::size_t total) {
        std::fprintf(stderr, "  [%zu/%zu] %s %s %s %s(%.1fs)\n", done, total,
                     r.job.code.c_str(), to_string(r.job.size),
                     to_string(r.job.mode), r.ok ? "" : "FAILED ",
                     r.wallSeconds);
        if (!r.ok)
            ++failedJobs;
        if (progressPath.empty())
            return;
        try {
            ProgressSnapshot s;
            s.total = total;
            s.done = done;
            s.failed = failedJobs;
            s.elapsedSeconds = elapsed();
            progress.publish(s);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "dscoh_sweep: progress publish failed: %s\n",
                         e.what());
        }
    });
    std::fprintf(stderr, "sweep: %zu runs on %u threads\n", batch.size(),
                 engine.threads());
    const std::vector<ExperimentResult> results =
        engine.run(batch, engineOpts);

    if (!progressPath.empty()) {
        std::size_t failed = 0;
        for (const ExperimentResult& r : results)
            failed += r.ok ? 0 : 1;
        try {
            ProgressSnapshot fin;
            fin.total = results.size();
            fin.done = results.size();
            fin.failed = failed;
            fin.elapsedSeconds = elapsed();
            progress.publish(fin);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "dscoh_sweep: progress publish failed: %s\n",
                         e.what());
        }
    }

    std::size_t replayed = 0;
    unsigned long long produceSaved = 0;
    for (const ExperimentResult& r : results) {
        replayed += r.fromJournal ? 1 : 0;
        produceSaved += r.produceTicksSaved;
    }
    if (replayed != 0)
        std::fprintf(stderr, "sweep: %zu of %zu jobs replayed from %s\n",
                     replayed, results.size(),
                     engineOpts.journalPath.c_str());
    if (forkProduce)
        std::fprintf(stderr, "sweep: fork-produce saved %llu simulated "
                             "produce ticks\n", produceSaved);

    // Pair up (ccsm, ds) per code — makeSweepJobs keeps them adjacent.
    // The table (and results.json) contain only simulation outputs, so both
    // are bit-identical for any --jobs value; wall time goes to stderr.
    int failures = 0;
    int exitClass = kExitOk;
    std::printf("%-4s %10s %10s %8s %8s %8s\n", "code", "ccsm", "ds",
                "speedup%", "mrCCSM", "mrDS");
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        const ExperimentResult& ccsm = results[i];
        const ExperimentResult& ds = results[i + 1];
        if (!ccsm.ok || !ds.ok) {
            ++failures;
            const ExperimentResult& failed = !ccsm.ok ? ccsm : ds;
            // The process exit code reports the first failure's class
            // (kExitDeadlock / kExitIo / kExitOracle / kExitFailure).
            if (exitClass == kExitOk)
                exitClass = failed.errorClass != 0 ? failed.errorClass
                                                   : kExitFailure;
            std::printf("%-4s FAILED: %s\n", ccsm.job.code.c_str(),
                        failed.error.c_str());
            continue;
        }
        const double speedup =
            ds.run.metrics.ticks == 0
                ? 0.0
                : static_cast<double>(ccsm.run.metrics.ticks) /
                          static_cast<double>(ds.run.metrics.ticks) -
                      1.0;
        std::printf("%-4s %10llu %10llu %8.1f %8.3f %8.3f\n",
                    ccsm.job.code.c_str(),
                    static_cast<unsigned long long>(ccsm.run.metrics.ticks),
                    static_cast<unsigned long long>(ds.run.metrics.ticks),
                    speedup * 100.0, ccsm.run.metrics.gpuL2MissRate,
                    ds.run.metrics.gpuL2MissRate);
    }

    if (!jsonPath.empty()) {
        try {
            writeResultsJsonAtomic(jsonPath, results);
        } catch (const std::exception& e) {
            std::cerr << "dscoh_sweep: cannot write " << jsonPath << ": "
                      << e.what() << "\n";
            return kExitIo;
        }
        // The results file is published. A clean sweep's crash-recovery
        // journal is obsolete and deleted; one with failed jobs is kept as
        // <journal>.failed so the failure set stays replayable.
        finalizeJournal(engineOpts.journalPath, failures != 0);
    }
    return failures == 0 ? kExitOk : exitClass;
}
