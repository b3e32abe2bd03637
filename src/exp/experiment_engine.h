// Parallel experiment harness.
//
// The paper's evaluation is 22 benchmarks x 2 input sizes x 2 coherence
// modes; every figure/table is a batch of fully independent simulations.
// Each System owns its whole universe (SimContext: event queue + observers;
// per-object RNGs), so independent runs can execute concurrently with no
// synchronisation. The ExperimentEngine shards a job list across a thread
// pool and returns results in submission order — output is bit-identical
// whether it ran on 1 thread or N.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "workloads/runner.h"
#include "workloads/workload.h"

namespace dscoh {

/// One simulation to run: a (workload, size, mode, config) tuple. The
/// workload is normally named by its Table II code and resolved from the
/// WorkloadRegistry; tests may pass an explicit instance instead (it must
/// outlive the run).
struct ExperimentJob {
    std::string code;
    InputSize size = InputSize::kSmall;
    CoherenceMode mode = CoherenceMode::kCcsm;
    SystemConfig config{};
    const Workload* workload = nullptr; ///< optional override of @ref code
};

struct ExperimentResult {
    ExperimentJob job;
    bool ok = false;
    std::string error; ///< what() of the failure when !ok
    /// Failure class when !ok, as a sim/errors.h exit code (kExitDeadlock,
    /// kExitOracle, kExitIo, or kExitFailure for anything unclassified).
    /// The sweep tool exits with the first failing job's class.
    int errorClass = 0;
    WorkloadRunResult run; ///< valid only when ok
    /// Host time spent on this job. For progress display only — it is
    /// deliberately kept out of writeResultsJson() so that file stays
    /// bit-identical across runs and thread counts.
    double wallSeconds = 0.0;
    /// Replayed from a --resume journal (not re-simulated). Like
    /// wallSeconds, kept out of writeResultsJson().
    bool fromJournal = false;
    /// Produce-phase ticks skipped via the fork-after-produce snapshot
    /// cache (0 = cache off or miss). Kept out of writeResultsJson().
    Tick produceTicksSaved = 0;
};

/// Journal/resume options for a batch (all off by default). The journal
/// is the only recovery state: a resumed batch replays journaled jobs and
/// re-runs every other job from tick 0.
struct EngineRunOptions {
    /// Append-only JSON-lines journal of completed jobs. Written as each
    /// job finishes; with resume, jobs already journaled (matched on
    /// code/size/mode/config hash) are replayed instead of re-simulated.
    std::string journalPath;
    bool resume = false;
    /// Fork-after-produce: an existing directory of produce-phase
    /// snapshots shared across runs (see WorkloadRunOptions). Empty = off.
    std::string produceCacheDir;
};

/// Options for a SINGLE job, shared by the batch worker and the resident
/// mode the sweep service runs the engine in.
struct JobRunOptions {
    /// Produce-phase snapshot cache directory; empty = off. The service
    /// points it at one store shared across every tenant.
    std::string produceCacheDir;
    /// Cooperative cancel flag threaded into the run (see
    /// WorkloadRunOptions::cancelFlag). A cancelled job reports as a
    /// failed result whose error names the cancellation. Null = not
    /// cancellable.
    const std::atomic<bool>* cancel = nullptr;
};

/// Runs one job to completion (or classified failure) with the same
/// semantics as one slot of ExperimentEngine::run(): exceptions land in
/// ExperimentResult::error/errorClass and never escape. The job always
/// starts from tick 0 (or from its produce-cache entry) and leaves
/// nothing on disk but that entry.
ExperimentResult runExperimentJob(const ExperimentJob& job,
                                  const JobRunOptions& options);

class ExperimentEngine {
public:
    /// @p threads == 0 picks std::thread::hardware_concurrency().
    explicit ExperimentEngine(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /// Called after each job finishes (serialized; any thread). @p done is
    /// the number of completed jobs so far, @p total the batch size.
    using Progress = std::function<void(const ExperimentResult&,
                                        std::size_t done, std::size_t total)>;
    void onProgress(Progress cb) { progress_ = std::move(cb); }

    /// Runs the batch, sharding across the pool. Results land in submission
    /// order. A throwing job fails only its own slot (ok == false); the
    /// pool and all other jobs are unaffected.
    std::vector<ExperimentResult> run(const std::vector<ExperimentJob>& jobs) const;

    /// run() with journaling / resume / produce-cache options. Results are
    /// in submission order and bit-identical to a plain run() regardless
    /// of how many jobs were replayed from the journal or restored from the
    /// produce cache (restore-determinism is the snap subsystem's keystone
    /// property).
    std::vector<ExperimentResult> run(const std::vector<ExperimentJob>& jobs,
                                      const EngineRunOptions& options) const;

private:
    unsigned threads_ = 1;
    Progress progress_;
};

/// The engine's resident mode: a persistent worker pool that pulls jobs
/// from a caller-supplied blocking source instead of sharding one fixed
/// batch. This is the admission hook the sweep service schedules through —
/// ordering policy (tenants, priorities, fair sharing) lives entirely in
/// the source; the pool only executes. Cancellation of queued work is the
/// source's job too (a cancelled job is simply never handed out); a job
/// already running always completes and reports through its callback.
class ResidentEngine {
public:
    /// One admitted unit of work. @p done runs on the worker thread that
    /// executed the job; it must do its own locking.
    struct Admitted {
        ExperimentJob job;
        JobRunOptions options;
        std::function<void(ExperimentResult&&)> done;
    };

    /// Blocks until work is available and returns it, or returns nullopt
    /// to retire the calling worker (shutdown). Called concurrently from
    /// every worker; must be thread-safe.
    using Source = std::function<std::optional<Admitted>()>;

    /// Spawns @p threads workers (0 = hardware concurrency) that loop on
    /// @p source until it returns nullopt.
    ResidentEngine(unsigned threads, Source source);
    /// Joins the pool. The source must already be returning nullopt (or do
    /// so promptly) or this blocks forever — stop the source first.
    ~ResidentEngine();

    ResidentEngine(const ResidentEngine&) = delete;
    ResidentEngine& operator=(const ResidentEngine&) = delete;

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

private:
    std::vector<std::thread> workers_;
};

/// Disposes of a finished batch's crash-recovery journal. A fully
/// successful batch deletes it (the published results.json supersedes it);
/// a batch with failed jobs keeps it renamed "<path>.failed" so the
/// failure set stays replayable instead of vanishing with the publication.
void finalizeJournal(const std::string& journalPath, bool hadFailures);

/// One parsed line of a completed-job journal.
struct JournalEntry {
    std::uint64_t configHash = 0;
    ExperimentResult result; ///< job.code/size/mode set; config left default
};

/// Serializes one completed job as a single JSON line (the per-job object
/// of writeResultsJson() plus configHash / produceDoneAt / kernelDoneAt /
/// violations, so a resumed sweep reproduces the results file exactly).
std::string journalLine(const ExperimentResult& r, std::uint64_t configHash);

/// Parses a JSON-lines journal. Unparseable lines (a torn final line from
/// a killed process) and lines with a missing or out-of-range field (a
/// counter that is not an exact unsigned integer, a size other than small
/// or big) are skipped silently, so their jobs re-run; a missing file
/// yields an empty vector. gpuL2MissRate is recomputed from the integer
/// counters so a replayed job is bit-identical to a simulated one.
std::vector<JournalEntry> readJournal(const std::string& path);

/// Fills completed slots of @p results from the journal at @p path:
/// entries match jobs positionally per (code, size, mode, config-hash) key
/// — a batch with duplicate keys consumes one entry per duplicate. Matched
/// slots get fromJournal = true; the returned indices are the jobs the
/// journal does NOT cover (the work a resumed batch still owes). This is
/// the resume step of ExperimentEngine::run(), exported so the sweep
/// service can recover each request's journal after a restart.
std::vector<std::size_t>
replayJournal(const std::vector<ExperimentJob>& jobs,
              const std::vector<std::uint64_t>& hashes,
              const std::string& path,
              std::vector<ExperimentResult>* results);

/// Cross product in deterministic order: for each code, for each size, for
/// each mode — the order every bench prints its tables in.
std::vector<ExperimentJob>
makeSweepJobs(const std::vector<std::string>& codes,
              const std::vector<InputSize>& sizes,
              const std::vector<CoherenceMode>& modes,
              const SystemConfig& base = SystemConfig{});

/// Machine-readable results (schema "dscoh-results-v2", with an explicit
/// "schemaVersion" field so plots can detect format drift): one object per
/// job, in submission order, with the headline RunMetrics inlined plus the
/// full per-job counter snapshot under "stats".
void writeResultsJson(std::ostream& os,
                      const std::vector<ExperimentResult>& results);

/// writeResultsJson() published atomically (temp + rename), so readers and
/// crash recovery only ever see a complete results file.
void writeResultsJsonAtomic(const std::string& path,
                            const std::vector<ExperimentResult>& results);

/// Reads a file written by writeResultsJson() back, with the same field
/// checks as readJournal(): job code/size/mode are set, the config is left
/// default (the file does not carry it), and writeResultsJson() of the
/// result reproduces the file byte for byte. Throws std::runtime_error
/// naming @p path — and the job index and field, for a bad job — when the
/// file cannot be read, is not dscoh-results-v2, or holds a bad job.
std::vector<ExperimentResult> readResultsJson(const std::string& path);

} // namespace dscoh
