// Runs a workload on a System and extracts the paper's metrics.
//
// The phase structure mirrors the benchmarks after memory-copy elimination
// (§IV-B): the CPU produce phase runs first, then the kernels launch back to
// back, then (implicitly) the host would inspect a few results — all timed
// as one run, exactly like the paper's "total ticks".
//
// Every phase boundary is a *safe point*: the event queue is drained
// completely before the next phase is scheduled, so the entire machine state
// is plain data there and can be checkpointed (src/snap). Restoring a
// checkpoint and running the remaining phases is byte-identical to the
// uninterrupted run — the queue's event-identity state (clock, insertion
// sequence, tie-break RNG) travels with the snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "workloads/workload.h"

namespace dscoh {

struct WorkloadRunResult {
    std::string code;
    InputSize size = InputSize::kSmall;
    CoherenceMode mode = CoherenceMode::kCcsm;
    RunMetrics metrics;
    std::vector<std::string> violations; ///< coherence-invariant breaches
    std::uint64_t footprintBytes = 0;
    /// Full snapshot of the run's StatRegistry counters (name -> value),
    /// taken after the simulation quiesced. Ends up in results.json so
    /// downstream analysis gets every counter, not just RunMetrics.
    std::map<std::string, std::uint64_t> statCounters;
    /// Phase breakdown: tick at which the CPU produce phase finished, and
    /// the completion tick of each kernel (for the ablation narratives).
    Tick produceDoneAt = 0;
    std::vector<Tick> kernelDoneAt;

    // --- provenance (NOT serialized into results JSON: a restored run's
    // results stay bit-identical to an uninterrupted one) ---
    /// Tick the run resumed from (0 = ran from scratch).
    Tick restoredAt = 0;
    /// Ticks actually simulated by this process (metrics.ticks - restoredAt).
    Tick simulatedTicks = 0;
    /// The run started from a checkpoint or produce-cache snapshot.
    bool fromCheckpoint = false;
};

/// Options controlling checkpoint/restore and hang detection for one run.
/// Defaults reproduce the plain uninstrumented run.
struct WorkloadRunOptions {
    /// Restore this snapshot (written by a previous run of the same
    /// workload/size/mode/config) and simulate only the remaining phases.
    /// A missing, corrupt or mismatched snapshot throws snap::SnapError.
    std::string restoreFrom;

    /// Write a checkpoint to this path when the trigger below fires.
    std::string checkpointOut;
    /// Trigger: first safe point (phase boundary) at or after this tick.
    /// 0 = no tick trigger.
    Tick checkpointAtTick = 0;
    /// Trigger: completion of this phase (0 = produce, k = kernel k-1).
    /// -1 = no phase trigger.
    int checkpointAtPhase = -1;

    /// Fork-after-produce: an existing directory of produce-phase
    /// snapshots, one file per (config hash, workload, size); the config
    /// hash covers the coherence mode. A hit skips the produce phase; a
    /// miss, or an entry that fails to restore, runs it and (re)writes the
    /// entry atomically, so processes may share the directory. Empty = off.
    std::string produceCacheDir;

    /// No-progress watchdog: abort (std::runtime_error) when this many
    /// ticks pass without a single event executing while work is still
    /// queued, instead of spinning forever on a protocol hang. 0 = off.
    Tick maxIdleTicks = 0;

    /// Cooperative cancellation: checked between run slices (every
    /// maxIdleTicks, or a fixed stride when the watchdog is off); when the
    /// pointee becomes true the run throws CancelledError at the next
    /// check. Null = not cancellable (the historical fast path).
    const std::atomic<bool>* cancelFlag = nullptr;

    /// Attach the live CoherenceChecker oracle for the whole run. Any
    /// violation it records surfaces in WorkloadRunResult::violations and
    /// makes run() throw OracleError, exactly like an end-state invariant
    /// breach. Changes simulated behavior not at all, but costs shadow
    /// bookkeeping per access — off by default.
    bool oracle = false;

    /// Invoked once inside run(), after any restore but before the first
    /// phase is scheduled. Restore requires an empty event queue, so
    /// drivers that schedule events up front (epoch samplers) must do it
    /// here rather than before run().
    std::function<void(System&)> beforeFirstPhase;
};

/// One workload execution, phase by phase, with optional checkpoint /
/// restore / watchdog. runWorkload() below is the plain-run shorthand.
class WorkloadRun {
public:
    /// Builds the System, allocates the arrays and builds the kernels. The
    /// CPU produce program is built only when its phase runs.
    WorkloadRun(const Workload& workload, InputSize size, CoherenceMode mode,
                const SystemConfig& config = SystemConfig{},
                WorkloadRunOptions options = WorkloadRunOptions{});
    ~WorkloadRun();

    WorkloadRun(const WorkloadRun&) = delete;
    WorkloadRun& operator=(const WorkloadRun&) = delete;

    /// Produce + every kernel: the number of safe points in the run.
    std::size_t phaseCount() const { return 1 + kernels_.size(); }

    /// Runs every (remaining) phase to completion and returns the result.
    /// Throws std::runtime_error on functional failures (value mismatches)
    /// or a watchdog-detected hang, snap::SnapError on checkpoint misuse.
    WorkloadRunResult run();

    /// The underlying system (for tracing/stat access between phases).
    System& system() { return *sys_; }

    /// Mutable options (e.g. to install beforeFirstPhase after seeing the
    /// constructed System). Only meaningful before run().
    WorkloadRunOptions& options() { return opts_; }

    /// Produce ticks skipped via the produce-snapshot cache (0 on a cache
    /// miss or when the cache is off). Valid after run().
    Tick produceTicksSaved() const { return produceTicksSaved_; }

private:
    void build();
    void runPhase(std::size_t phase);
    void drain();
    void afterPhase(std::size_t phase);
    /// This run's entry in opts_.produceCacheDir.
    std::string produceCachePath() const;
    void writeCheckpoint(const std::string& path) const;
    /// Restores @p path; returns false when it is unusable (corrupt /
    /// wrong shape) and @p required is false.
    bool tryRestore(const std::string& path, bool required);

    const Workload& workload_;
    InputSize size_;
    CoherenceMode mode_;
    WorkloadRunOptions opts_;
    SystemConfig cfg_;

    /// The produce phase's program, alive only while that phase runs.
    /// Declared before sys_ so it also outlives the core that points at it.
    CpuProgram produce_;
    std::unique_ptr<System> sys_;
    Workload::ArrayMap mem_;
    std::uint64_t footprint_ = 0;
    std::vector<KernelDesc> kernels_;

    std::size_t phasesDone_ = 0; ///< next phase to run
    Tick produceDoneAt_ = 0;
    std::vector<Tick> kernelDoneAt_;
    Tick restoredAt_ = 0;
    bool fromCheckpoint_ = false;
    bool checkpointWritten_ = false;
    Tick produceTicksSaved_ = 0;
};

/// Runs @p workload at @p size under @p mode on a fresh System built from
/// @p config (mode field is overridden). Throws std::runtime_error on
/// functional failures (value mismatches) so benches cannot silently report
/// numbers from a broken run.
WorkloadRunResult runWorkload(const Workload& workload, InputSize size,
                              CoherenceMode mode,
                              const SystemConfig& config = SystemConfig{});

/// Convenience pair-runner for speedup computations.
struct ComparisonResult {
    WorkloadRunResult ccsm;
    WorkloadRunResult directStore;
    double speedup() const
    {
        return directStore.metrics.ticks == 0
                   ? 0.0
                   : static_cast<double>(ccsm.metrics.ticks) /
                         static_cast<double>(directStore.metrics.ticks);
    }
};

ComparisonResult compareModes(const Workload& workload, InputSize size,
                              const SystemConfig& config = SystemConfig{});

} // namespace dscoh
