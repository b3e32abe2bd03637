// The sweep service: a resident, multi-tenant front end to the
// ExperimentEngine.
//
// SweepService owns everything between "a tenant submitted a request" and
// "that request's results.json is published": admission (expansion into
// jobs), scheduling (FairScheduler, per-job granularity), execution
// (ResidentEngine worker pool with cooperative cancellation), the shared
// produce-phase snapshot cache, per-request crash journals, and a
// CRC-framed service write-ahead journal so a SIGKILLed daemon restarts
// into exactly the queue it was killed with.
//
// Durability contract (the PR 9 keystone, now storage-fault hardened):
// every admitted request eventually publishes a results.json byte-identical
// to what a fresh, uninterrupted run of the same request would publish — no
// matter how many times the daemon is killed and restarted in between, and
// no matter what the disk does short of losing fsync'ed data. The pieces:
//
//   1. Admission appends an "accepted" WAL record embedding the full
//      request BEFORE the request is queued; terminal states append "done"
//      / "failed" / "cancelled" AFTER results are published. Every record
//      is CRC-framed (svc/wal.h) and fsync'ed (snap::durableAppendLine);
//      recovery validates the log, truncates a torn tail, and re-admits
//      every request with no terminal record.
//   2. Each request has its own completed-job journal (jobs/<id>/journal,
//      the PR 4 format, durably appended); recovery replays it so finished
//      jobs are never re-simulated; only the jobs a crash interrupted
//      run again.
//   3. Engine determinism (results in submission order, bit-identical
//      across thread counts, restore-determinism for cached produce
//      snapshots) makes the replayed+re-run result stream identical to the
//      uninterrupted one.
//
// Failure behaviour: a persistent storage failure (ENOSPC, repeated EIO)
// flips the service DEGRADED instead of crashing it — submits are rejected
// with a "degraded" reply, status/list/stats keep answering from memory,
// and a periodic storage probe (tick()) restores full service (including
// any publication the failure interrupted) once the disk recovers.
//
// State directory layout:
//   <stateDir>/svc.journal        service WAL (CRC-framed JSON lines)
//   <stateDir>/jobs/<id>/         per-request: request.json, journal,
//                                 status.json, results.json
//   <stateDir>/cache/             shared produce-phase snapshot cache
//
// Thread safety: every public method is safe to call from any thread
// (protocol handler, tests); internal state is guarded by one mutex, and
// job execution happens outside it on the worker pool.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exp/experiment_engine.h"
#include "exp/progress.h"
#include "sim/stats.h"
#include "svc/request.h"
#include "svc/scheduler.h"

namespace dscoh::svc {

struct ServiceOptions {
    std::string stateDir;
    /// Worker threads (0 = hardware concurrency).
    unsigned workers = 0;
    /// Share the CPU produce phase across tenants through the cache dir.
    bool forkProduce = true;
    /// Byte budget for that cache (0 = unbounded), LRU-evicted.
    std::uint64_t cacheMaxBytes = 0;
};

/// Why a submit was rejected, for protocol replies and clients.
struct SubmitInfo {
    /// Storage-degraded: writes are failing, service is read-only.
    bool degraded = false;
};

class SweepService {
public:
    /// Creates the state directory tree, replays the WAL (truncating a
    /// torn tail, re-admitting every non-terminal request), and starts the
    /// worker pool. Throws std::runtime_error when the state dir cannot be
    /// created.
    explicit SweepService(const ServiceOptions& options);
    /// Finishes in-flight jobs (queued ones stay journaled for the next
    /// start), then joins the pool. Prefer drain() first for a clean stop.
    ~SweepService();

    SweepService(const SweepService&) = delete;
    SweepService& operator=(const SweepService&) = delete;

    /// Admits a request: validates (expandJobs), assigns the next id,
    /// journals it, queues its jobs. On success returns true and fills
    /// @p r.id (also echoed via @p idOut). Rejections (bad request,
    /// degraded, draining, shutting down) leave the service untouched;
    /// when @p info is non-null it says whether the disk was to blame.
    bool submit(SweepRequest r, std::string* idOut, std::string* error,
                SubmitInfo* info = nullptr);

    /// One-line dscoh-progress-v2 document for the request, or false +
    /// @p error for an unknown id.
    bool statusJson(const std::string& id, std::string* out,
                    std::string* error) const;

    /// Every known request as a JSON array document (dscoh-svc-list-v1),
    /// ordered by id.
    std::string listJson() const;

    /// Drops the request's still-queued jobs and raises its cancel flag so
    /// running jobs stop at their next check; the request finishes
    /// "cancelled" and publishes no results. False for unknown or
    /// already-terminal ids.
    bool cancel(const std::string& id, std::string* error);

    /// Service counters: queue depth, per-tenant shares, produce-cache
    /// hits, job/request latency histograms, degraded state
    /// (dscoh-svc-stats-v2).
    std::string statsJson() const;

    /// Periodic maintenance, called from the server's poll loop (and
    /// tests): probes the disk while degraded and, on recovery, finishes
    /// publications the failure interrupted.
    void tick();

    /// True while storage writes are failing (submits rejected).
    bool degraded() const;

    /// Stops admission and blocks until every queued and running job has
    /// finished. Safe to call repeatedly; submit() fails while draining.
    void drain();

    /// Stops handing out work (running jobs still complete; queued jobs
    /// remain journaled for the next start). Returns immediately; the
    /// destructor joins the pool.
    void beginShutdown();

    /// The request directory for @p id (where results.json lands).
    std::string requestDir(const std::string& id) const;

    unsigned workers() const;

private:
    struct RequestState {
        SweepRequest req;
        std::vector<ExperimentJob> jobs;
        std::vector<std::uint64_t> hashes;
        std::vector<ExperimentResult> results;
        std::size_t done = 0;   ///< completed jobs (replayed ones included)
        std::size_t failed = 0;
        /// Queued + running jobs still owed; terminal when it reaches 0.
        std::size_t remaining = 0;
        /// queued | running | done | failed | cancelled
        std::string state = "queued";
        std::chrono::steady_clock::time_point admittedAt;
        /// Raised on cancel; running jobs poll it between slices.
        /// shared_ptr: workers outlive the map entry on late completion.
        std::shared_ptr<std::atomic<bool>> cancelFlag;
        /// Terminal work (publish + WAL + journal disposal) is owed but
        /// failed on a degraded disk; retried by tick() on recovery.
        bool finishPending = false;
    };

    /// Re-admits every non-terminal WAL request (locked ctor context).
    void recover();
    /// Core admission; assumes @p mu_ is held. @p fromWal skips the WAL
    /// append (the record is already there) and preserves r.id.
    bool admitLocked(SweepRequest r, bool fromWal, std::string* idOut,
                     std::string* error, SubmitInfo* info);
    /// Marks terminal state, publishes results, appends the WAL terminal
    /// record, finalizes the journal. On storage failure the request is
    /// parked finishPending and the service degrades. Assumes @p mu_ held.
    void finishLocked(const std::string& id, RequestState& rs);
    void publishStatusLocked(const std::string& id,
                             const RequestState& rs) const;
    ProgressSnapshot snapshotLocked(const std::string& id,
                                    const RequestState& rs) const;
    void walAppendLocked(const std::string& payload);
    /// Flips the service degraded (idempotent). Assumes @p mu_ is held.
    void degradeLocked(const std::string& reason);
    std::optional<ResidentEngine::Admitted> pullNext();
    void onJobDone(const std::string& id, std::size_t jobIndex,
                   ExperimentResult&& r);
    std::string journalPath(const std::string& id) const;

    ServiceOptions opts_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    bool draining_ = false;
    std::uint64_t nextId_ = 1;
    std::size_t inflight_ = 0;
    FairScheduler sched_;
    std::map<std::string, RequestState> requests_;
    bool degraded_ = false;
    std::string degradedReason_;
    std::uint64_t degradedRejects_ = 0;
    std::uint64_t cacheHits_ = 0;
    std::uint64_t cacheMisses_ = 0;
    Histogram jobLatencyMs_{100, 64};     ///< per-job wall ms
    Histogram requestLatencyMs_{500, 64}; ///< admit-to-publish wall ms
    /// Last member: workers start pulling the moment this constructs.
    std::unique_ptr<ResidentEngine> engine_;
};

} // namespace dscoh::svc
