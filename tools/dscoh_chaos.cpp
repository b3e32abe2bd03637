// dscoh_chaos: deterministic storage-fault / crash chaos harness for the
// sweep daemon.
//
//   dscoh_chaos --state DIR [--seed N] [--ops N] [--svc PATH] [--keep]
//
// Drives a real dscoh_svc daemon (fork/exec, its own process) through a
// seeded schedule of interleaved operations — submits over the socket,
// status polls, cancels, SIGKILLs with restart — while the daemon runs with
// storage-fault injection armed (--iofault): torn writes, ENOSPC, EIO,
// fsync failures, and crash-before/after-rename, each incarnation on its
// own derived seed with a fault cap so restarts always make progress. A
// final incarnation runs fault-free, drains the queue, and shuts down
// cleanly.
//
// Then the harness audits the wreckage:
//
//   1. No acknowledged submit lost: every id the daemon replied ok to
//      appears in the WAL exactly once as "accepted".
//   2. No duplication: no id has more than one accepted record; accepted
//      ids the driver never got (reply lost to a crash) are bounded by the
//      number of transport-failed submit attempts.
//   3. Every accepted request terminates: exactly one terminal WAL record
//      ("done" / "failed" / "cancelled") per accepted id.
//   4. Fault-free equivalence: every "done" request's results.json is
//      byte-identical to an in-process fault-free reference run of the
//      same request. "failed" terminals are chaos failures (every request
//      the driver submits is valid).
//   5. Finished requests stay known: the fault-free incarnation answers
//      status for every id with a terminal record.
//
// Exit 0 when every invariant holds, 1 otherwise. The whole run is
// deterministic in --seed: the op schedule, request shapes, and each
// incarnation's fault schedule all derive from it.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cli/options.h"
#include "exp/experiment_engine.h"
#include "obs/json_lite.h"
#include "sim/errors.h"
#include "sim/rng.h"
#include "svc/client.h"
#include "svc/request.h"
#include "svc/wal.h"

namespace {

using namespace dscoh;

std::string readWholeFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

bool fileExists(const std::string& path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

void sleepMs(unsigned ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// The daemon under test plus the lifecycle the chaos schedule needs:
/// spawn with a per-incarnation fault spec, detect death, SIGKILL, respawn.
class Daemon {
public:
    Daemon(std::string svcPath, std::string stateDir, std::uint64_t seed)
        : svcPath_(std::move(svcPath)), stateDir_(std::move(stateDir)),
          seed_(seed)
    {
    }

    const std::string& socketPath() const { return socket_; }
    unsigned incarnations() const { return incarnation_; }

    /// Spawns a fresh incarnation (faulty or clean) and waits until it
    /// answers ping. Returns false when it cannot be brought up at all.
    bool start(bool withFaults)
    {
        ++incarnation_;
        socket_ = stateDir_ + "/svc.sock";
        std::vector<std::string> argvStore = {
            svcPath_,  "--state", stateDir_, "--socket",
            socket_,   "--jobs",  "2",
        };
        if (withFaults) {
            // Moderate rates with a hard cap: each incarnation injects at
            // most 6 faults and then behaves, so recovery always converges
            // even when a crash fault fires during recovery itself.
            std::ostringstream spec;
            spec << "torn-write-ppm=20000,enospc-ppm=10000,eio-ppm=10000,"
                    "fsync-fail-ppm=10000,crash-before-rename-ppm=5000,"
                    "crash-after-rename-ppm=5000,max-faults=6,seed="
                 << (seed_ * 1000 + incarnation_);
            argvStore.push_back("--iofault");
            argvStore.push_back(spec.str());
        }
        const pid_t pid = ::fork();
        if (pid < 0)
            return false;
        if (pid == 0) {
            const int logFd =
                ::open((stateDir_ + "/daemon.log").c_str(),
                       O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
            if (logFd >= 0) {
                ::dup2(logFd, 1);
                ::dup2(logFd, 2);
            }
            std::vector<char*> argv;
            argv.reserve(argvStore.size() + 1);
            for (std::string& s : argvStore)
                argv.push_back(s.data());
            argv.push_back(nullptr);
            ::execv(svcPath_.c_str(), argv.data());
            ::_exit(127);
        }
        pid_ = pid;
        // Wait for the socket to answer; the daemon may crash during
        // recovery (injected faults) — the caller restarts on false.
        const svc::SvcClient client(socket_);
        for (int i = 0; i < 200; ++i) {
            std::string reply, error;
            if (client.call(svc::requestLine("ping"), &reply, &error))
                return true;
            if (!aliveNow())
                return false;
            sleepMs(25);
        }
        kill();
        return false;
    }

    /// Reaps the daemon if it has exited; true while it is still running.
    bool aliveNow()
    {
        if (pid_ <= 0)
            return false;
        int status = 0;
        const pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_) {
            pid_ = -1;
            lastStatus_ = status;
            return false;
        }
        return r == 0;
    }

    void kill()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        lastStatus_ = status;
        pid_ = -1;
    }

    /// Waits for a voluntary exit (after the shutdown op) and returns the
    /// exit code, or -1 on signal death / timeout.
    int waitExit()
    {
        if (pid_ <= 0)
            return WIFEXITED(lastStatus_) ? WEXITSTATUS(lastStatus_) : -1;
        for (int i = 0; i < 600; ++i) {
            if (!aliveNow())
                return WIFEXITED(lastStatus_) ? WEXITSTATUS(lastStatus_)
                                              : -1;
            sleepMs(100);
        }
        kill();
        return -1;
    }

private:
    std::string svcPath_;
    std::string stateDir_;
    std::string socket_;
    std::uint64_t seed_ = 1;
    pid_t pid_ = -1;
    int lastStatus_ = 0;
    unsigned incarnation_ = 0;
};

/// What the driver remembers about its own traffic, for the audit.
struct ChaosLedger {
    std::set<std::string> okIds;       ///< submit replies with ok: true
    std::size_t lostSubmitReplies = 0; ///< submits whose reply never came
    std::size_t restarts = 0;  ///< SIGKILLs + crash-fault deaths
    std::size_t degraded = 0;  ///< submits rejected with degraded: true
};

struct ChaosOptions {
    std::string stateDir;
    std::string svcPath;
    std::uint64_t seed = 1;
    std::uint64_t ops = 200;
};

/// One request from the seeded shape pool: small, one code, one mode, so
/// individual jobs stay cheap and the schedule stays dense.
svc::SweepRequest makeRequest(Rng& rng)
{
    static const char* kCodes[] = {"VA", "BL", "MT", "NN"};
    static const char* kTenants[] = {"alice", "bob", "carol"};
    svc::SweepRequest r;
    r.tenant = kTenants[rng.below(3)];
    r.priority = static_cast<int>(rng.below(3));
    r.weight = 1 + static_cast<unsigned>(rng.below(3));
    r.size = InputSize::kSmall;
    r.codes = {kCodes[rng.below(4)]};
    r.modes = {rng.below(2) == 0 ? CoherenceMode::kCcsm
                                 : CoherenceMode::kDirectStore};
    return r;
}

/// One socket round trip with crash handling: restarts the daemon when the
/// call failed because it died. Returns nullptr when no reply was obtained
/// (the daemon was restarted; the caller decides whether to re-issue).
jsonlite::ValuePtr call(Daemon& daemon, const std::string& line,
                        ChaosLedger& ledger)
{
    for (int attempt = 0; attempt < 50; ++attempt) {
        const svc::SvcClient client(daemon.socketPath());
        std::string reply, error;
        if (client.call(line, &reply, &error)) {
            std::string parseError;
            jsonlite::ValuePtr v = jsonlite::parse(reply, parseError);
            if (v != nullptr && v->isObject())
                return v;
            return nullptr; // malformed reply: treat as lost
        }
        if (daemon.aliveNow()) {
            sleepMs(50); // transient (listen backlog, mid-accept); retry
            continue;
        }
        // The daemon died (crash fault or a SIGKILL landing between ops):
        // bring up the next incarnation and report the reply as lost.
        ++ledger.restarts;
        while (!daemon.start(true)) {
            if (daemon.incarnations() > 500) {
                std::cerr << "dscoh_chaos: daemon cannot be revived\n";
                std::exit(kExitFailure);
            }
        }
        return nullptr;
    }
    return nullptr;
}

void runSchedule(Daemon& daemon, const ChaosOptions& opts,
                 ChaosLedger& ledger)
{
    Rng rng(opts.seed);
    std::vector<std::string> knownIds;

    for (std::uint64_t op = 0; op < opts.ops; ++op) {
        const std::uint64_t dice = rng.below(100);
        if (dice < 50) {
            // Socket submit.
            const svc::SweepRequest r = makeRequest(rng);
            const std::string line = svc::requestLine(
                "submit", "request", svc::renderRequestJson(r));
            const jsonlite::ValuePtr v = call(daemon, line, ledger);
            if (v == nullptr) {
                ++ledger.lostSubmitReplies;
                continue;
            }
            const jsonlite::Value* ok = v->get("ok");
            if (ok != nullptr && ok->kind == jsonlite::Kind::kBool &&
                ok->boolean) {
                if (const jsonlite::Value* id = v->get("id");
                    id != nullptr && id->isString()) {
                    ledger.okIds.insert(id->string);
                    knownIds.push_back(id->string);
                }
            } else if (const jsonlite::Value* deg = v->get("degraded");
                       deg != nullptr && deg->boolean) {
                ++ledger.degraded;
            }
        } else if (dice < 62 && !knownIds.empty()) {
            // Status poll of a random past request.
            const std::string& id = knownIds[rng.below(knownIds.size())];
            call(daemon, svc::requestLine("status", "id", id), ledger);
        } else if (dice < 70 && !knownIds.empty()) {
            const std::string& id = knownIds[rng.below(knownIds.size())];
            call(daemon, svc::requestLine("cancel", "id", id), ledger);
        } else if (dice < 78) {
            call(daemon, svc::requestLine("stats"), ledger);
        } else if (dice < 84) {
            // SIGKILL + restart: the crash the WAL exists for.
            daemon.kill();
            ++ledger.restarts;
            while (!daemon.start(true)) {
                if (daemon.incarnations() > 500) {
                    std::cerr << "dscoh_chaos: daemon cannot be revived\n";
                    std::exit(kExitFailure);
                }
            }
        } else {
            sleepMs(5 + static_cast<unsigned>(rng.below(35)));
        }
    }
}

/// Fault-free reference results for one accepted request, cached across
/// identical requests. Returns false when the reference itself fails
/// (cannot happen for requests this driver generates).
bool referenceResults(const svc::SweepRequest& req, std::string* bytes,
                      std::map<std::string, std::string>& cache)
{
    svc::SweepRequest key = req;
    key.id.clear();
    const std::string keyStr = svc::renderRequestJson(key);
    if (const auto it = cache.find(keyStr); it != cache.end()) {
        *bytes = it->second;
        return true;
    }
    std::vector<ExperimentJob> jobs;
    std::string error;
    if (!svc::expandJobs(req, &jobs, &error))
        return false;
    const ExperimentEngine engine(2);
    const std::vector<ExperimentResult> results = engine.run(jobs);
    for (const ExperimentResult& r : results)
        if (!r.ok)
            return false;
    std::ostringstream os;
    writeResultsJson(os, results);
    cache.emplace(keyStr, os.str());
    *bytes = cache[keyStr];
    return true;
}

int audit(const ChaosOptions& opts, const ChaosLedger& ledger,
          const svc::SvcClient& client)
{
    std::size_t failures = 0;
    const auto fail = [&failures](const std::string& what) {
        std::cerr << "dscoh_chaos: INVARIANT VIOLATED: " << what << "\n";
        ++failures;
    };

    // The WAL is the daemon's statement of record; replay it the way
    // recovery does.
    const svc::WalReadResult wal =
        svc::readWal(opts.stateDir + "/svc.journal");
    if (wal.truncated)
        fail("final WAL still has a torn tail (" + wal.reason + ")");

    std::map<std::string, std::size_t> acceptedCount;
    std::map<std::string, svc::SweepRequest> acceptedReq;
    std::map<std::string, std::vector<std::string>> terminals;
    for (const std::string& payload : wal.payloads) {
        std::string err;
        const jsonlite::ValuePtr v = jsonlite::parse(payload, err);
        if (v == nullptr || !v->isObject())
            continue;
        const jsonlite::Value* ev = v->get("event");
        const jsonlite::Value* id = v->get("id");
        if (ev == nullptr || !ev->isString() || id == nullptr ||
            !id->isString())
            continue;
        if (ev->string == "accepted") {
            ++acceptedCount[id->string];
            if (const jsonlite::Value* reqVal = v->get("request");
                reqVal != nullptr && reqVal->isString()) {
                svc::SweepRequest r;
                std::string reqErr;
                if (svc::parseRequestJson(reqVal->string, &r, &reqErr))
                    acceptedReq[id->string] = std::move(r);
            }
        } else {
            terminals[id->string].push_back(ev->string);
        }
    }

    // 1. No acknowledged submit lost, none duplicated.
    for (const std::string& id : ledger.okIds) {
        const auto it = acceptedCount.find(id);
        if (it == acceptedCount.end())
            fail("acknowledged submit " + id + " has no accepted record");
        else if (it->second != 1)
            fail("request " + id + " accepted " +
                 std::to_string(it->second) + " times");
    }
    for (const auto& [id, count] : acceptedCount)
        if (count != 1)
            fail("request " + id + " accepted " + std::to_string(count) +
                 " times");

    // 2. Ghost accepts (reply lost to a crash) are bounded by the submits
    //    whose replies never arrived.
    std::size_t ghosts = 0;
    for (const auto& [id, req] : acceptedReq)
        if (ledger.okIds.count(id) == 0)
            ++ghosts;
    if (ghosts > ledger.lostSubmitReplies)
        fail(std::to_string(ghosts) + " unacknowledged accepts but only " +
             std::to_string(ledger.lostSubmitReplies) +
             " submits lost their reply");

    // 3. Exactly one terminal record per accepted request.
    for (const auto& [id, count] : acceptedCount) {
        const auto t = terminals.find(id);
        if (t == terminals.end())
            fail("request " + id + " never reached a terminal state");
        else if (t->second.size() != 1)
            fail("request " + id + " has " +
                 std::to_string(t->second.size()) + " terminal records");
    }
    for (const auto& [id, evs] : terminals)
        if (acceptedCount.count(id) == 0)
            fail("terminal record for never-accepted request " + id);

    // 4. Fault-free equivalence for every completed request.
    std::map<std::string, std::string> referenceCache;
    std::size_t compared = 0;
    for (const auto& [id, evs] : terminals) {
        if (evs.empty())
            continue;
        const std::string& state = evs.front();
        if (state == "cancelled")
            continue; // no publication owed
        if (state == "failed") {
            fail("request " + id + " terminally failed (all chaos "
                 "requests are valid)");
            continue;
        }
        const std::string published = readWholeFile(
            opts.stateDir + "/jobs/" + id + "/results.json");
        if (published.empty()) {
            fail("done request " + id + " has no results.json");
            continue;
        }
        const auto req = acceptedReq.find(id);
        if (req == acceptedReq.end()) {
            fail("done request " + id + " has no parseable request");
            continue;
        }
        std::string expect;
        if (!referenceResults(req->second, &expect, referenceCache)) {
            fail("reference run for " + id + " failed");
            continue;
        }
        if (published != expect)
            fail("request " + id +
                 " results.json differs from the fault-free reference");
        else
            ++compared;
    }

    // 5. Finished requests stay known across the last restart.
    for (const auto& [id, evs] : terminals) {
        std::string reply, error;
        const jsonlite::ValuePtr v =
            client.call(svc::requestLine("status", "id", id), &reply, &error)
                ? jsonlite::parse(reply, error)
                : nullptr;
        const jsonlite::Value* ok = v != nullptr ? v->get("ok") : nullptr;
        if (ok == nullptr || !ok->boolean)
            fail("request " + id + " has a terminal record but the "
                 "restarted daemon does not know it");
    }

    std::cout << "dscoh_chaos: seed " << opts.seed << ", " << opts.ops
              << " ops, " << ledger.restarts << " daemon restarts, "
              << acceptedCount.size() << " accepted ("
              << ledger.okIds.size() << " acked, " << ledger.degraded
              << " degraded-rejected), "
              << compared << " results byte-verified, " << failures
              << " invariant violations\n";
    return failures == 0 ? kExitOk : kExitFailure;
}

} // namespace

int main(int argc, char** argv)
{
    ChaosOptions opts;
    std::string seedText = "1", opsText = "200";
    bool keep = false;

    cli::OptionParser parser(
        "dscoh_chaos",
        "Deterministic chaos harness: drives a live dscoh_svc daemon "
        "through seeded submits/cancels/kills with storage faults armed, "
        "then audits the WAL and published artifacts for lost, duplicated, "
        "or corrupted requests.");
    parser.addString("state", "scratch state directory (required; reused "
                              "as the daemon's --state)",
                     &opts.stateDir);
    parser.addString("svc", "path to the dscoh_svc binary (default: next "
                            "to this binary)",
                     &opts.svcPath);
    parser.addString("seed", "schedule seed (default 1)", &seedText);
    parser.addString("ops", "operations to drive (default 200)", &opsText);
    parser.addFlag("keep", "keep the state directory afterwards", &keep);
    if (!parser.parse(argc, argv, std::cerr))
        return kExitUsage;
    if (opts.stateDir.empty()) {
        std::cerr << "dscoh_chaos: --state is required\n";
        return kExitUsage;
    }
    opts.seed = std::strtoull(seedText.c_str(), nullptr, 10);
    opts.ops = std::strtoull(opsText.c_str(), nullptr, 10);
    if (opts.svcPath.empty()) {
        std::string self = argv[0];
        const std::size_t slash = self.rfind('/');
        opts.svcPath =
            (slash == std::string::npos ? std::string(".")
                                        : self.substr(0, slash)) +
            "/dscoh_svc";
    }

    if (fileExists(opts.stateDir + "/svc.journal")) {
        // A used state dir would make the audit count every prior run's
        // accepts as ghosts; the harness owns a fresh scratch dir only.
        std::cerr << "dscoh_chaos: " << opts.stateDir
                  << " holds a previous run's state; pass a fresh "
                     "directory\n";
        return kExitUsage;
    }
    ::mkdir(opts.stateDir.c_str(), 0755);

    Daemon daemon(opts.svcPath, opts.stateDir, opts.seed);
    if (!daemon.start(true)) {
        // Fault schedules can kill the very first incarnation; retry.
        bool up = false;
        for (int i = 0; i < 50 && !up; ++i)
            up = daemon.start(true);
        if (!up) {
            std::cerr << "dscoh_chaos: cannot start " << opts.svcPath
                      << "\n";
            return kExitIo;
        }
    }

    ChaosLedger ledger;
    runSchedule(daemon, opts, ledger);

    // Final incarnation: fault-free. Kill whatever is running the hard
    // way, recover, finish every queued job, and shut down voluntarily.
    daemon.kill();
    ++ledger.restarts;
    if (!daemon.start(false)) {
        std::cerr << "dscoh_chaos: fault-free restart failed\n";
        return kExitFailure;
    }
    const svc::SvcClient client(daemon.socketPath());
    std::string reply, error;
    if (!client.call(svc::requestLine("drain"), &reply, &error)) {
        std::cerr << "dscoh_chaos: drain failed: " << error << "\n";
        return kExitFailure;
    }
    // The audit asks the drained daemon too (invariant 5).
    const int verdict = audit(opts, ledger, client);
    client.call(svc::requestLine("shutdown"), &reply, &error);
    const int rc = daemon.waitExit();
    if (rc != 0) {
        std::cerr << "dscoh_chaos: clean shutdown exited " << rc << "\n";
        return kExitFailure;
    }
    if (verdict == kExitOk && !keep) {
        // Leave nothing behind on success unless asked to.
        std::error_code ignored;
        std::filesystem::remove_all(opts.stateDir, ignored);
    }
    return verdict;
}
