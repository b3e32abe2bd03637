// dscoh_svc: the persistent sweep daemon.
//
// Runs the ExperimentEngine resident, accepting sweep requests from any
// number of tenants over a Unix-domain socket (dscoh-svc-v1, see
// src/svc/protocol.h; dscoh_client is the command-line client). Work is
// shared fairly across tenants, the CPU produce phase is deduplicated
// through a shared snapshot cache, and a write-ahead journal makes the
// queue survive SIGKILL: restart the daemon on the same --state dir and
// every unfinished request resumes, publishing results byte-identical to
// an uninterrupted run.
//
// Exit codes: 0 clean shutdown (op or SIGTERM/SIGINT), 2 usage,
// 4 socket/state-dir I/O failure.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>

#include "cli/options.h"
#include "fault/io_fault.h"
#include "sim/errors.h"
#include "svc/server.h"

namespace {

std::atomic<bool> g_stop{false};

void onSignal(int)
{
    g_stop.store(true);
}

} // namespace

int main(int argc, char** argv)
{
    using namespace dscoh;

    std::string stateDir;
    std::string socketPath;
    std::string jobsText;
    std::string ioFaultSpec;

    cli::OptionParser parser(
        "dscoh_svc",
        "Persistent multi-tenant sweep daemon (dscoh-svc-v1 socket). "
        "State, results, and the recovery journal live under --state; kill "
        "it any way you like and restart on the same dir.");
    parser.addString("state", "state directory (required; created if absent)",
                     &stateDir);
    parser.addString("socket",
                     "socket path (default: <state>/svc.sock)", &socketPath);
    parser.addString("jobs", "worker threads (default: DSCOH_JOBS or all cores)",
                     &jobsText);
    parser.addString("iofault",
                     "storage-fault injection spec (key=value[,...]: "
                     "torn-write-ppm, enospc-ppm, eio-ppm, fsync-fail-ppm, "
                     "crash-before/after-rename-ppm, short-write-ppm, "
                     "torn-offset-pct, op-start, op-end, max-faults, path, "
                     "seed) — chaos testing only",
                     &ioFaultSpec);
    if (!parser.parse(argc, argv, std::cerr))
        return kExitUsage;
    if (stateDir.empty()) {
        std::cerr << "dscoh_svc: --state is required\n";
        return kExitUsage;
    }
    if (!ioFaultSpec.empty()) {
        fault::IoFaultConfig ioCfg;
        std::string specError;
        if (!fault::parseIoFaultSpec(ioFaultSpec, &ioCfg, &specError)) {
            std::cerr << "dscoh_svc: " << specError << "\n";
            return kExitUsage;
        }
        fault::installIoFaults(ioCfg);
    }

    unsigned workers = 0;
    std::string error;
    if (!cli::resolveJobs(jobsText, workers, error)) {
        std::cerr << "dscoh_svc: " << error << "\n";
        return kExitUsage;
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    svc::ServiceOptions opts;
    opts.stateDir = stateDir;
    opts.workers = workers;

    try {
        svc::SweepService service(opts);
        svc::ServerOptions serverOpts;
        serverOpts.socketPath =
            socketPath.empty() ? stateDir + "/svc.sock" : socketPath;
        std::fprintf(stderr, "dscoh_svc: %u workers, state %s, socket %s\n",
                     service.workers(), stateDir.c_str(),
                     serverOpts.socketPath.c_str());
        const int rc = serveSocket(service, serverOpts, g_stop);
        if (rc != kExitOk) {
            std::cerr << "dscoh_svc: cannot listen on "
                      << serverOpts.socketPath << "\n";
            return rc;
        }
        // ~SweepService finishes in-flight jobs; queued work stays in the
        // journal for the next start.
    } catch (const std::exception& e) {
        std::cerr << "dscoh_svc: " << e.what() << "\n";
        return kExitIo;
    }
    return kExitOk;
}
