// Top-level System: builds and wires the entire simulated machine
// (Fig. 2 right: CPU + TLB + caches, GPU SMs + sliced L2, home/DRAM, the
// coherence virtual networks, and — under kDirectStore — the dedicated
// CPU -> GPU-L2 network).
//
// This is the library's primary public entry point: construct a System,
// allocate arrays (allocateArray decides placement by mode, mirroring what
// the source translator does to a program), run CPU programs and launch GPU
// kernels, then read the metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "coherence/home_controller.h"
#include "cpu/cpu_core.h"
#include "fault/fault_injector.h"
#include "gpu/gpu_device.h"
#include "gpu/gpu_l2_slice.h"
#include "mem/dram_pool.h"
#include "obs/epoch_sampler.h"
#include "vm/address_space.h"

namespace dscoh {

/// Headline metrics of one simulation, as reported in the paper's
/// evaluation (Figs. 4 and 5 and the compulsory-miss discussion).
struct RunMetrics {
    Tick ticks = 0; ///< total execution time ("total ticks", §IV-C)
    std::uint64_t gpuL2Accesses = 0;
    std::uint64_t gpuL2Misses = 0;
    std::uint64_t gpuL2Compulsory = 0;
    double gpuL2MissRate = 0.0;
    std::uint64_t dsFills = 0;
    std::uint64_t dsBypasses = 0;
    std::uint64_t coherenceMessages = 0;
    std::uint64_t coherenceBytes = 0;
    std::uint64_t dsNetworkMessages = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t checkFailures = 0; ///< functional mismatches (must be 0)
};

class System {
public:
    explicit System(const SystemConfig& config);
    ~System();

    System(const System&) = delete;
    System& operator=(const System&) = delete;

    const SystemConfig& config() const { return config_; }
    SimContext& context() { return ctx_; }
    EventQueue& queue() { return ctx_.queue; }

    /// Attaches a TraceSession recording the categories in @p catMask to
    /// this system's context and returns it. Call before running; the
    /// session lives as long as the System. Without this call, tracing is
    /// off and the hooks cost one pointer test each.
    TraceSession& enableTracing(std::uint32_t catMask = kAllTraceCats);
    /// The attached session, or nullptr when tracing is off.
    TraceSession* trace() { return ctx_.trace.get(); }

    /// Attaches a live CoherenceChecker wired to every coherent agent, the
    /// home controller and the backing store, and returns it. Call before
    /// running. Without this call, checking is off and each hook costs one
    /// pointer test (the exact TraceSession discipline). Query violations
    /// via checker()->violations() after simulate(), and call
    /// checker()->finalize(queue().curTick()) once the queue has drained
    /// for the end-of-run sweep.
    CoherenceChecker& enableChecker();
    /// The attached checker, or nullptr when checking is off.
    CoherenceChecker* checker() { return ctx_.checker.get(); }

    /// Attaches a TxnProfiler stamping every coherence transaction with a
    /// span id and per-hop timestamps (latency histograms, critical-path
    /// stage breakdown, per-page counters — see obs/txn_profiler.h). Call
    /// before running; same zero-cost-off discipline as enableTracing.
    /// When a TraceSession recording TraceCat::kTxn is also attached (in
    /// either order), closed spans appear in the Chrome trace as flow
    /// events.
    TxnProfiler& enableTxnProfiler(const TxnProfiler::Params& params = {});
    /// The attached profiler, or nullptr when profiling is off.
    TxnProfiler* txnProfiler() { return ctx_.txnprof.get(); }

    /// Attaches @p coverage (owned by the caller, who keeps it alive while
    /// this System runs) to count every protocol transition; nullptr
    /// detaches it. Without this call each transition costs one pointer
    /// test for it.
    void attachCoverage(TransitionCoverage* coverage)
    {
        ctx_.coverage = coverage;
    }

    /// Attaches an EpochSampler recording the selected counters every
    /// params.epochTicks into a time series. System ownership makes the
    /// series snapshot-state: it travels in the checkpoint and a restored
    /// run's epoch output is byte-identical to the uninterrupted run's.
    /// Call sampler->start() once the run begins (after any restore) —
    /// WorkloadRunOptions::beforeFirstPhase is the right place.
    EpochSampler& enableEpochSampler(EpochSampler::Params params);
    /// The attached sampler, or nullptr when sampling is off.
    EpochSampler* epochSampler() { return sampler_.get(); }
    AddressSpace& addressSpace() { return *space_; }
    StatRegistry& stats() { return stats_; }

    /// Registers the event engine's own counters ("queue.*": schedule calls,
    /// executed events, peak pending) with the stat registry. Opt-in, same discipline as enableTracing/enableChecker: the
    /// default stat set — and every byte of stats JSON, results.json and
    /// snapshots derived from it — stays exactly what it always was.
    void enableQueueStats() { ctx_.queue.regStats(stats_); }

    /// Allocates a data array the way the (translated) program would:
    /// under kDirectStore, kernel-referenced arrays (@p gpuShared) go into
    /// the reserved DS region via mmap; everything else — and everything
    /// under kCcsm — comes from the ordinary heap.
    Addr allocateArray(std::uint64_t bytes, bool gpuShared);

    /// Allocates a GPU-shared array homed on @p gpu's directory shard: the
    /// DS region cursor is padded until the placement lands every page of
    /// the array on that shard (what the source translator's per-kernel
    /// array homing does). Falls back to plain allocateArray placement when
    /// the system has a single shard or the policy interleaves below array
    /// granularity (kLine).
    Addr allocateArrayHomed(std::uint64_t bytes, std::uint32_t gpu);

    /// Runs @p program on CPU core 0; @p onDone fires when it (and its
    /// trailing implicit fence) completes. Program storage must outlive the
    /// run.
    void runCpuProgram(const CpuProgram& program, InlineCallback onDone);

    /// Runs @p program on CPU core @p core (multi-core scale-out).
    void runCpuProgramOn(std::uint32_t core, const CpuProgram& program,
                         InlineCallback onDone);

    /// Launches @p kernel on the GPU its descriptor names (kernel.gpu);
    /// @p onDone fires at grid completion. Kernel storage must outlive the
    /// run.
    void launchKernel(const KernelDesc& kernel, InlineCallback onDone);

    /// Drains the event queue (runs the simulation to completion) and
    /// returns the final tick.
    Tick simulate();

    RunMetrics metrics() const;

    // Component access for tests, benches and advanced callers. The
    // unqualified singular accessors name instance 0, which is the whole
    // machine in the default 1-GPU / 1-core configuration.
    CpuCore& cpu() { return *cpuCores_[0]; }
    CpuCacheAgent& cpuCache() { return *cpuAgent_; }
    GpuDevice& gpu() { return *gpuDevices_[0]; }
    /// Slices are indexed flat: GPU g's slice s is slice(g * slicesPerGpu +
    /// s); sliceCount() spans every GPU.
    GpuL2Slice& slice(std::size_t i) { return *slices_[i]; }
    std::size_t sliceCount() const { return slices_.size(); }
    StreamingMultiprocessor& sm(std::size_t i) { return *sms_[i]; }
    HomeController& home() { return *homes_[0]; }
    /// The address routing and node-id layout every component shares.
    const HomeMap& homeMap() const { return homeMap_; }
    BackingStore& backingStore() { return *store_; }
    /// The DS network's fault injector, or nullptr when faults are off (or
    /// not selected for that network).
    FaultInjector* dsFaultInjector() { return dsFault_; }

    /// Verifies protocol invariants over the quiesced system (no in-flight
    /// transactions): single owner per line, exclusivity of MM/M, shared
    /// copies matching memory. Returns human-readable violations (empty ==
    /// coherent).
    std::vector<std::string> checkCoherenceInvariants() const;

    /// Names what is still pending across the machine (home busy lines,
    /// agent MSHRs/writebacks/blocked requests, CPU-core buffers). Empty
    /// when nothing is outstanding. The no-progress watchdog appends this
    /// to its deadlock report so the stalled component is named.
    std::string describeOutstandingWork() const;

    /// Hash of this system's configuration (configHashOf) — embedded in
    /// snapshots and used to key the produce-phase snapshot cache.
    std::uint64_t configHash() const;

    /// Writes the complete simulator state to @p path (atomically). Only
    /// valid at a safe point: event queue drained, all transient machinery
    /// (MSHRs, store buffers, in-flight kernels) empty — throws
    /// snap::SnapError naming the busy component otherwise. The workload
    /// runner's phase boundaries are safe points by construction.
    /// @p extra, when set, contributes an additional "runner" section for
    /// driver-level progress (WorkloadRun phase position).
    void snapshotSave(
        const std::string& path,
        BasicInlineCallback<void(snap::SnapWriter&)> extra = {}) const;

    /// Restores a snapshot written by snapshotSave() into this System.
    /// Must be called on a freshly constructed instance (nothing run yet)
    /// built from a config with the same configHash() — mismatches throw
    /// snap::SnapError naming both hashes. A system with a checker
    /// attached requires the snapshot to carry the oracle's shadow state.
    /// @p extra, when set, consumes the "runner" section (which must then
    /// be present).
    void snapshotRestore(
        const std::string& path,
        BasicInlineCallback<void(snap::SnapReader&)> extra = {});

private:
    /// The one ordered section list, walked by snapshotSave with a
    /// SnapWriter and by snapshotRestore with a SnapReader.
    template <class Self, class Ar, class Extra>
    static void snapSections(Self& self, Ar& ar, Extra& extra);

    /// Checker/invariant label for the slice at flat index @p flatIndex
    /// ("slice<s>" on GPU 0, "gpu<g>.slice<s>" beyond).
    std::string sliceCheckerLabel(std::size_t flatIndex) const;

    SystemConfig config_;
    SimContext ctx_;
    StatRegistry stats_;
    HomeMap homeMap_;
    std::unique_ptr<EpochSampler> sampler_;

    std::unique_ptr<BackingStore> store_;
    std::unique_ptr<AddressSpace> space_;
    std::unique_ptr<DramPool> dram_;

    std::unique_ptr<Network> requestNet_;
    std::unique_ptr<Network> forwardNet_;
    std::unique_ptr<Network> responseNet_;
    std::unique_ptr<Network> dsNet_;
    std::unique_ptr<Network> gpuNet_;

    std::vector<std::unique_ptr<FaultInjector>> faults_;
    FaultInjector* dsFault_ = nullptr;

    /// One directory shard per GPU ("home" is shard 0).
    std::vector<std::unique_ptr<HomeController>> homes_;
    std::unique_ptr<CpuCacheAgent> cpuAgent_;
    std::unique_ptr<Tlb> tlb_;
    /// CPU cores share the coherent cpuAgent_ hierarchy ("cpu.core" is
    /// core 0).
    std::vector<std::unique_ptr<CpuCore>> cpuCores_;
    /// Flat across GPUs: GPU g's slice s at index g * slicesPerGpu + s.
    std::vector<std::unique_ptr<GpuL2Slice>> slices_;
    /// Flat across GPUs: GPU g's SM i at index g * numSms + i.
    std::vector<std::unique_ptr<StreamingMultiprocessor>> sms_;
    std::vector<std::unique_ptr<GpuDevice>> gpuDevices_;
};

} // namespace dscoh
