// dscoh_run — the command-line front door to the simulator.
//
//   dscoh_run --workload VA --size small --mode both
//   dscoh_run --trace examples/traces/vector_add.trace --mode ds --stats s.txt
//   dscoh_run --workload MM --mode both --csv        # one CSV row
//   dscoh_run --workload NN --config examples/configs/ring4_lease.cfg
//
// The simulated machine is set only through --config (key = value lines;
// --dump-config prints every key with its Table I default).
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "cli/options.h"
#include "core/config_io.h"
#include "fault/io_fault.h"
#include "obs/epoch_sampler.h"
#include "obs/trace_session.h"
#include "sim/errors.h"
#include "snap/serializer.h"
#include "trace/trace_format.h"
#include "workloads/runner.h"

using namespace dscoh;

namespace {

void printRun(const char* label, const WorkloadRunResult& r)
{
    std::printf("%-12s ticks=%llu l2acc=%llu l2miss=%llu missrate=%.2f%% "
                "compulsory=%llu dsFills=%llu cohMsgs=%llu\n",
                label, static_cast<unsigned long long>(r.metrics.ticks),
                static_cast<unsigned long long>(r.metrics.gpuL2Accesses),
                static_cast<unsigned long long>(r.metrics.gpuL2Misses),
                r.metrics.gpuL2MissRate * 100,
                static_cast<unsigned long long>(r.metrics.gpuL2Compulsory),
                static_cast<unsigned long long>(r.metrics.dsFills),
                static_cast<unsigned long long>(r.metrics.coherenceMessages));
}

/// Observability outputs requested on the command line. Paths are empty
/// when the corresponding output is off.
struct ObsOptions {
    std::string statsPath;    ///< text stats dump (--stats)
    std::string statsJson;    ///< JSON stats dump (--stats-json)
    std::string traceOut;     ///< Chrome trace-event file (--trace-out)
    std::string txnProfile;   ///< dscoh-txnprof-v1 JSON file (--txn-profile)
    std::uint32_t traceMask = kAllTraceCats; ///< --trace-filter
    Tick epochTicks = 0;      ///< --epoch-ticks (0 = no sampling)
    bool queueStats = false;  ///< --queue-stats

    bool any() const
    {
        return !statsPath.empty() || !statsJson.empty() ||
               !traceOut.empty() || !txnProfile.empty() || epochTicks != 0 ||
               queueStats;
    }

    /// "s.json" -> "s.json.ccsm" for --mode both, matching the historical
    /// --stats behavior.
    ObsOptions withSuffix(const std::string& suffix) const
    {
        ObsOptions o = *this;
        if (!o.statsPath.empty())
            o.statsPath += suffix;
        if (!o.statsJson.empty())
            o.statsJson += suffix;
        if (!o.traceOut.empty())
            o.traceOut += suffix;
        if (!o.txnProfile.empty())
            o.txnProfile += suffix;
        return o;
    }
};

/// Runs one workload through WorkloadRun (checkpoint/restore/watchdog
/// aware) and writes whatever observability outputs were requested. Stats
/// dumps are published atomically (temp + rename), so a killed process
/// never leaves a torn stats file next to a valid snapshot.
WorkloadRunResult runOnce(const Workload& w, InputSize size, CoherenceMode mode,
                          const SystemConfig& cfg, const ObsOptions& obs,
                          WorkloadRunOptions runOpts)
{
    WorkloadRun run(w, size, mode, cfg, std::move(runOpts));
    System& sys = run.system();

    if (!obs.traceOut.empty())
        sys.enableTracing(obs.traceMask);
    if (obs.queueStats)
        sys.enableQueueStats();
    if (!obs.txnProfile.empty())
        sys.enableTxnProfiler();
    if (obs.epochTicks != 0) {
        EpochSampler::Params epochParams;
        epochParams.epochTicks = obs.epochTicks;
        sys.enableEpochSampler(std::move(epochParams));
        // start() schedules the first sampling event; that must happen
        // after a restore (which requires an empty queue, and freezes a
        // restored sampler), so defer it to the first phase boundary.
        run.options().beforeFirstPhase = [](System& s) {
            s.epochSampler()->start();
        };
    }

    const WorkloadRunResult r = run.run();

    if (!obs.statsPath.empty()) {
        std::ostringstream out;
        sys.stats().dump(out);
        snap::atomicWriteFile(obs.statsPath, out.str());
    }
    if (!obs.statsJson.empty()) {
        std::ostringstream out;
        std::string extra;
        if (sys.epochSampler() != nullptr) {
            std::ostringstream epochs;
            sys.epochSampler()->writeJson(epochs);
            extra = "\"epochs\": " + epochs.str();
        }
        sys.stats().dumpJson(out, extra);
        snap::atomicWriteFile(obs.statsJson, out.str());
    }
    if (!obs.traceOut.empty()) {
        std::ostringstream out;
        sys.trace()->writeJson(out);
        snap::atomicWriteFile(obs.traceOut, out.str());
    }
    if (!obs.txnProfile.empty()) {
        std::ostringstream out;
        sys.txnProfiler()->writeJson(out);
        snap::atomicWriteFile(obs.txnProfile, out.str());
    }
    return r;
}

/// "--checkpoint-at" syntax: a bare tick number, "phase:produce-done", or
/// "phase:kernel<N>-done" (N is 1-based). Fills the matching trigger.
bool parseCheckpointAt(const std::string& text, WorkloadRunOptions* opts,
                       std::string* error)
{
    if (text.rfind("phase:", 0) == 0) {
        const std::string phase = text.substr(6);
        if (phase == "produce-done") {
            opts->checkpointAtPhase = 0;
            return true;
        }
        if (phase.rfind("kernel", 0) == 0 && phase.size() > 11 &&
            phase.substr(phase.size() - 5) == "-done") {
            const std::string num = phase.substr(6, phase.size() - 11);
            try {
                const int n = std::stoi(num);
                if (n >= 1) {
                    opts->checkpointAtPhase = n; // kernel N completes phase N
                    return true;
                }
            } catch (const std::exception&) {
            }
        }
        *error = "bad --checkpoint-at phase '" + phase +
                 "' (produce-done or kernel<N>-done, N >= 1)";
        return false;
    }
    try {
        opts->checkpointAtTick = std::stoull(text);
    } catch (const std::exception&) {
        *error = "bad --checkpoint-at '" + text +
                 "' (tick number or phase:...)";
        return false;
    }
    if (opts->checkpointAtTick == 0) {
        *error = "--checkpoint-at tick must be > 0";
        return false;
    }
    return true;
}

} // namespace

int main(int argc, char** argv)
{
    std::string workload;
    std::string tracePath;
    std::string sizeName = "small";
    std::string modeName = "both";
    std::string statsPath;
    std::string statsJsonPath;
    std::string traceOutPath;
    std::string txnProfilePath;
    std::string traceFilter;
    std::string configPath;
    bool csv = false;
    bool dumpCfg = false;
    std::uint64_t epochTicks = 0;
    std::string checkpointAt;
    std::string checkpointOut;
    std::string restorePath;
    std::uint64_t maxIdleTicks = 0;

    cli::OptionParser parser("dscoh_run",
                             "simulate a workload under the paper's schemes");
    parser.addString("workload", "Table II code (BP..CH)", &workload);
    parser.addString("trace", "run a .trace file instead", &tracePath);
    parser.addString("size", "small|big", &sizeName);
    parser.addString("mode", "ccsm|ds|dsonly|both", &modeName);
    parser.addString("stats", "dump the full stats registry to this file",
                     &statsPath);
    parser.addString("stats-json", "dump the stats registry as JSON to this "
                     "file", &statsJsonPath);
    parser.addString("trace-out", "write a Chrome trace-event JSON file "
                     "(open in Perfetto)", &traceOutPath);
    parser.addString("trace-filter", "comma-separated trace categories "
                     "(coherence,net,dram,mshr,kernel,txn)", &traceFilter);
    parser.addString("txn-profile", "write per-transaction latency "
                     "attribution (dscoh-txnprof-v1 JSON; feed to "
                     "txn_report)", &txnProfilePath);
    parser.addUint("epoch-ticks", "sample counters every N ticks into the "
                   "stats JSON", &epochTicks);
    bool queueStats = false;
    parser.addFlag("queue-stats", "add the event engine's own counters "
                   "(queue.*) to the stat registry; use consistently across "
                   "a checkpoint/restore pair", &queueStats);
    parser.addString("config", "key=value config file (see --dump-config)",
                     &configPath);
    parser.addFlag("dump-config", "print the default configuration and exit",
                   &dumpCfg);
    parser.addFlag("csv", "print one machine-readable CSV row", &csv);
    bool check = false;
    parser.addFlag("check", "attach the live CoherenceChecker oracle; any "
                   "violation fails the run (exit 5)", &check);
    parser.addString("checkpoint-at", "safe point to checkpoint at: a tick "
                     "(first phase boundary at/after it), phase:produce-done "
                     "or phase:kernel<N>-done", &checkpointAt);
    parser.addString("checkpoint-out", "snapshot file written at the "
                     "--checkpoint-at safe point", &checkpointOut);
    parser.addString("restore", "resume from a snapshot written by "
                     "--checkpoint-out (same workload/size/mode/config)",
                     &restorePath);
    parser.addUint("max-idle-ticks", "abort when this many ticks pass with "
                   "no event executing (deadlock watchdog, 0 = off)",
                   &maxIdleTicks);
    std::string ioFaultSpec;
    parser.addString("iofault",
                     "storage-fault injection spec for this process's "
                     "snapshot/journal writes (key=value[,...]; see "
                     "src/fault/io_fault.h) — testing only",
                     &ioFaultSpec);
    if (!parser.parse(argc, argv, std::cerr))
        return kExitUsage;
    if (dumpCfg) {
        std::printf("%s", dumpConfig(SystemConfig{}).c_str());
        return kExitOk;
    }

    try {
        std::unique_ptr<Workload> traced;
        const Workload* w = nullptr;
        if (!tracePath.empty()) {
            traced = trace::loadTraceFile(tracePath);
            w = traced.get();
        } else if (!workload.empty()) {
            if (!WorkloadRegistry::instance().has(workload)) {
                std::cerr << "unknown workload '" << workload << "'\n";
                return kExitUsage;
            }
            w = &WorkloadRegistry::instance().get(workload);
        } else {
            std::cerr << "need --workload <code> or --trace <file> "
                         "(--help for usage)\n";
            return kExitUsage;
        }

        if (sizeName != "small" && sizeName != "big") {
            std::cerr << "--size must be small or big\n";
            return kExitUsage;
        }
        if (modeName != "ccsm" && modeName != "ds" && modeName != "dsonly" &&
            modeName != "both") {
            std::cerr << "bad --mode (ccsm|ds|dsonly|both)\n";
            return kExitUsage;
        }
        const InputSize size =
            sizeName == "big" ? InputSize::kBig : InputSize::kSmall;

        SystemConfig cfg;
        if (!configPath.empty()) {
            std::string error;
            if (!loadConfigFile(configPath, &cfg, &error)) {
                std::cerr << "dscoh_run: " << error << "\n";
                return kExitUsage;
            }
        }
        // Storage faults belong to this process's own durable writes
        // (checkpoints, journals), not to the simulated machine.
        if (!ioFaultSpec.empty()) {
            fault::IoFaultConfig ioCfg;
            std::string error;
            if (!fault::parseIoFaultSpec(ioFaultSpec, &ioCfg, &error)) {
                std::cerr << "dscoh_run: " << error << "\n";
                return kExitUsage;
            }
            fault::installIoFaults(ioCfg);
        }
        ObsOptions obs;
        obs.statsPath = statsPath;
        obs.statsJson = statsJsonPath;
        obs.traceOut = traceOutPath;
        obs.txnProfile = txnProfilePath;
        obs.epochTicks = epochTicks;
        obs.queueStats = queueStats;
        if (!traceFilter.empty()) {
            std::string error;
            if (!parseTraceFilter(traceFilter, obs.traceMask, error)) {
                std::cerr << "dscoh_run: --trace-filter: " << error << "\n";
                return kExitUsage;
            }
        }

        WorkloadRunOptions runOpts;
        runOpts.restoreFrom = restorePath;
        runOpts.checkpointOut = checkpointOut;
        runOpts.maxIdleTicks = maxIdleTicks;
        runOpts.oracle = check;
        if (!checkpointAt.empty()) {
            if (checkpointOut.empty()) {
                std::cerr << "dscoh_run: --checkpoint-at needs "
                             "--checkpoint-out <file>\n";
                return kExitUsage;
            }
            std::string error;
            if (!parseCheckpointAt(checkpointAt, &runOpts, &error)) {
                std::cerr << "dscoh_run: " << error << "\n";
                return kExitUsage;
            }
        } else if (!checkpointOut.empty()) {
            std::cerr << "dscoh_run: --checkpoint-out needs "
                         "--checkpoint-at <trigger>\n";
            return kExitUsage;
        }
        if (modeName == "both" &&
            (!restorePath.empty() || !checkpointOut.empty())) {
            std::cerr << "dscoh_run: checkpoint/restore needs a single "
                         "--mode (a snapshot belongs to one mode)\n";
            return kExitUsage;
        }

        const auto modeOf = [](const std::string& m) {
            return m == "ccsm" ? CoherenceMode::kCcsm
                 : m == "ds"   ? CoherenceMode::kDirectStore
                               : CoherenceMode::kDirectStoreOnly;
        };

        if (modeName == "both") {
            const auto ccsm = runOnce(*w, size, CoherenceMode::kCcsm, cfg,
                                      obs.withSuffix(".ccsm"), runOpts);
            const auto ds = runOnce(*w, size, CoherenceMode::kDirectStore, cfg,
                                    obs.withSuffix(".ds"), runOpts);
            const double speedup =
                (static_cast<double>(ccsm.metrics.ticks) /
                     static_cast<double>(ds.metrics.ticks) -
                 1.0) *
                100.0;
            if (csv) {
                std::printf("%s,%s,%llu,%llu,%.4f,%.4f,%.4f\n",
                            w->info().code.c_str(), sizeName.c_str(),
                            static_cast<unsigned long long>(ccsm.metrics.ticks),
                            static_cast<unsigned long long>(ds.metrics.ticks),
                            speedup, ccsm.metrics.gpuL2MissRate,
                            ds.metrics.gpuL2MissRate);
            } else {
                std::printf("%s (%s)\n", w->info().code.c_str(),
                            sizeName.c_str());
                printRun("ccsm", ccsm);
                printRun("directstore", ds);
                std::printf("speedup: %.1f%%\n", speedup);
            }
        } else {
            const auto r = runOnce(*w, size, modeOf(modeName), cfg, obs,
                                   runOpts);
            if (csv) {
                std::printf("%s,%s,%s,%llu,%.4f\n", w->info().code.c_str(),
                            sizeName.c_str(), modeName.c_str(),
                            static_cast<unsigned long long>(r.metrics.ticks),
                            r.metrics.gpuL2MissRate);
            } else {
                printRun(modeName.c_str(), r);
            }
        }
        return kExitOk;
    } catch (const DeadlockError& e) {
        std::cerr << "deadlock: " << e.what() << "\n";
        return kExitDeadlock;
    } catch (const OracleError& e) {
        std::cerr << "oracle: " << e.what() << "\n";
        return kExitOracle;
    } catch (const snap::SnapError& e) {
        std::cerr << "io: " << e.what() << "\n";
        return kExitIo;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return kExitFailure;
    }
}
