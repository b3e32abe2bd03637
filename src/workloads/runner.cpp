#include "workloads/runner.h"

#include <filesystem>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "check/coherence_checker.h"
#include "sim/errors.h"
#include "snap/serializer.h"

namespace dscoh {

WorkloadRun::WorkloadRun(const Workload& workload, InputSize size,
                         CoherenceMode mode, const SystemConfig& config,
                         WorkloadRunOptions options)
    : workload_(workload), size_(size), mode_(mode), opts_(std::move(options)),
      cfg_(config)
{
    cfg_.mode = mode;
    build();
}

void WorkloadRun::build()
{
    sys_ = std::make_unique<System>(cfg_);
    if (opts_.oracle)
        sys_->enableChecker();
    mem_.clear();
    footprint_ = 0;

    // Allocate the benchmark's arrays the way the (translated) program
    // would: kernel-referenced arrays move to the DS region under DS mode.
    // Allocation is deterministic (config + workload + size fix every
    // address), so a restore re-runs it and then overwrites the address
    // space with the identical snapshotted state.
    for (const ArraySpec& spec : workload_.arrays(size_)) {
        mem_[spec.name] = sys_->allocateArray(spec.bytes, spec.gpuShared);
        footprint_ += spec.bytes;
    }
    kernels_ = workload_.kernels(size_, mem_);
    // Multi-GPU scale-out: spread the workload's kernel phases round-robin
    // across the configured devices. Phase order (and hence the coherence
    // traffic each phase generates) is unchanged — only the launching
    // device rotates, so every GPU's L2 and the sharded directory get
    // exercised.
    if (cfg_.numGpus > 1)
        for (std::size_t i = 0; i < kernels_.size(); ++i)
            kernels_[i].gpu = static_cast<std::uint32_t>(i % cfg_.numGpus);
}

WorkloadRun::~WorkloadRun() = default;

std::string WorkloadRun::produceCachePath() const
{
    std::ostringstream os;
    os << opts_.produceCacheDir << "/produce-" << std::hex << std::setw(16)
       << std::setfill('0') << sys_->configHash() << "-"
       << workload_.info().code << "-" << to_string(size_) << ".snap";
    return os.str();
}

void WorkloadRun::writeCheckpoint(const std::string& path) const
{
    sys_->snapshotSave(path, [this](snap::SnapWriter& w) {
        w.str(workload_.info().code);
        w.u8(static_cast<std::uint8_t>(size_));
        w.u8(static_cast<std::uint8_t>(mode_));
        w.u32(static_cast<std::uint32_t>(phasesDone_));
        w.u64(produceDoneAt_);
        w.u32(static_cast<std::uint32_t>(kernelDoneAt_.size()));
        for (Tick t : kernelDoneAt_)
            w.u64(t);
    });
}

bool WorkloadRun::tryRestore(const std::string& path, bool required)
{
    try {
        sys_->snapshotRestore(path, [this, &path](snap::SnapReader& r) {
            const std::string code = r.str();
            const auto size = static_cast<InputSize>(r.u8());
            const auto mode = static_cast<CoherenceMode>(r.u8());
            if (code != workload_.info().code || size != size_ ||
                mode != mode_)
                throw snap::SnapError(
                    path + ": checkpoint belongs to " + code + "/" +
                    to_string(size) + "/" + to_string(mode) +
                    ", not to this run (" + workload_.info().code + "/" +
                    to_string(size_) + "/" + to_string(mode_) + ")");
            phasesDone_ = r.u32();
            produceDoneAt_ = r.u64();
            const std::uint32_t kernelsDone = r.u32();
            if (kernelsDone > kernels_.size())
                throw snap::SnapError(
                    path + ": checkpoint lists " +
                    std::to_string(kernelsDone) + " finished kernels, run " +
                    "only has " + std::to_string(kernels_.size()));
            kernelDoneAt_.resize(kernelsDone);
            for (Tick& t : kernelDoneAt_)
                t = r.u64();
        });
    } catch (const snap::SnapError&) {
        if (required)
            throw;
        // A stale/corrupt/missing cache entry is not an error: rebuild the
        // system (the failed restore may have partially mutated it) and
        // run fresh; the entry gets rewritten below.
        build();
        phasesDone_ = 0;
        produceDoneAt_ = 0;
        kernelDoneAt_.clear();
        return false;
    }
    if (phasesDone_ > phaseCount())
        throw snap::SnapError(path + ": checkpoint claims " +
                              std::to_string(phasesDone_) +
                              " completed phases, run only has " +
                              std::to_string(phaseCount()));
    restoredAt_ = sys_->queue().curTick();
    fromCheckpoint_ = true;
    return true;
}

void WorkloadRun::drain()
{
    EventQueue& queue = sys_->queue();
    if (opts_.maxIdleTicks == 0 && opts_.cancelFlag == nullptr) {
        queue.run();
        return;
    }
    // Slice the run so a protocol hang surfaces as an error instead of an
    // infinite loop, and so a raised cancel flag is noticed within one
    // slice. runUntil() preserves event order exactly (the slice boundary
    // only bounds the clock), so neither watchdog perturbs the simulation.
    // With only cancellation on, slices are a fixed stride: long enough to
    // stay off the hot path, short enough that cancels land promptly.
    constexpr Tick kCancelCheckTicks = Tick{1} << 16;
    const Tick slice =
        opts_.maxIdleTicks != 0 ? opts_.maxIdleTicks : kCancelCheckTicks;
    while (!queue.empty()) {
        if (opts_.cancelFlag != nullptr &&
            opts_.cancelFlag->load(std::memory_order_relaxed))
            throw CancelledError(workload_.info().code + " (" +
                                 std::string(to_string(size_)) + ", " +
                                 to_string(mode_) + "): cancelled at tick " +
                                 std::to_string(queue.curTick()));
        const std::uint64_t before = queue.executedEvents();
        queue.runUntil(queue.curTick() + slice);
        if (opts_.maxIdleTicks != 0 && !queue.empty() &&
            queue.executedEvents() == before) {
            std::string msg =
                workload_.info().code + " (" +
                std::string(to_string(size_)) + ", " + to_string(mode_) +
                "): no event executed for " +
                std::to_string(opts_.maxIdleTicks) + " ticks with " +
                std::to_string(queue.pending()) +
                " still queued — deadlock/livelock at tick " +
                std::to_string(queue.curTick());
            if (std::string stalled = sys_->describeOutstandingWork();
                !stalled.empty())
                msg += " [outstanding: " + stalled + "]";
            throw DeadlockError(msg);
        }
    }
}

void WorkloadRun::runPhase(std::size_t phase)
{
    if (phase == 0) {
        // Built only when the phase runs: a produce-cache hit restores past
        // it. The core points at the program until it retires, so it is
        // released only once the phase has drained; if drain() throws, the
        // run keeps owning it.
        produce_ = workload_.cpuProduce(size_, mem_);
        sys_->runCpuProgram(produce_, [this] {
            produceDoneAt_ = sys_->queue().curTick();
        });
        drain();
        produce_ = CpuProgram{};
        return;
    }
    sys_->launchKernel(kernels_[phase - 1], [this] {
        kernelDoneAt_.push_back(sys_->queue().curTick());
    });
    drain();
}

void WorkloadRun::afterPhase(std::size_t phase)
{
    phasesDone_ = phase + 1;

    if (phase == 0 && !opts_.produceCacheDir.empty() && restoredAt_ == 0) {
        // Populate the fork-after-produce cache (atomic write: concurrent
        // sweep jobs racing on the same key both publish a valid file).
        // The cache is a pure optimization: a storage failure (a full
        // disk, an injected fault) costs its benefit, never the simulation.
        try {
            writeCheckpoint(produceCachePath());
        } catch (const snap::SnapError&) {
        }
    }

    if (!opts_.checkpointOut.empty() && !checkpointWritten_) {
        const bool tickHit = opts_.checkpointAtTick != 0 &&
                             sys_->queue().curTick() >= opts_.checkpointAtTick;
        const bool phaseHit =
            opts_.checkpointAtPhase >= 0 &&
            static_cast<std::size_t>(opts_.checkpointAtPhase) == phase;
        if (tickHit || phaseHit) {
            writeCheckpoint(opts_.checkpointOut);
            checkpointWritten_ = true;
        }
    }
}

WorkloadRunResult WorkloadRun::run()
{
    if (!opts_.restoreFrom.empty()) {
        tryRestore(opts_.restoreFrom, /*required=*/true);
    } else if (!opts_.produceCacheDir.empty()) {
        // The existence check spares a miss the rebuild a failed restore
        // costs; an unusable entry still falls back to a fresh run.
        const std::string entry = produceCachePath();
        std::error_code ec;
        if (std::filesystem::is_regular_file(entry, ec) &&
            tryRestore(entry, /*required=*/false))
            produceTicksSaved_ = restoredAt_;
    }
    if (opts_.beforeFirstPhase)
        opts_.beforeFirstPhase(*sys_);

    for (std::size_t phase = phasesDone_; phase < phaseCount(); ++phase) {
        runPhase(phase);
        afterPhase(phase);
    }

    WorkloadRunResult result;
    result.code = workload_.info().code;
    result.size = size_;
    result.mode = mode_;
    result.metrics = sys_->metrics();
    if (CoherenceChecker* checker = sys_->checker(); checker != nullptr) {
        checker->finalize(sys_->queue().curTick());
        result.violations = checker->violations();
    }
    {
        const auto quiesced = sys_->checkCoherenceInvariants();
        result.violations.insert(result.violations.end(), quiesced.begin(),
                                 quiesced.end());
    }
    result.footprintBytes = footprint_;
    result.produceDoneAt = produceDoneAt_;
    result.kernelDoneAt = kernelDoneAt_;
    result.restoredAt = restoredAt_;
    result.simulatedTicks = result.metrics.ticks - restoredAt_;
    result.fromCheckpoint = fromCheckpoint_;
    for (const std::string& name : sys_->stats().counterNames())
        result.statCounters.emplace(name, sys_->stats().counter(name));

    if (result.metrics.checkFailures != 0)
        throw OracleError(
            workload_.info().code + " (" + std::string(to_string(size_)) +
            ", " + to_string(mode_) + "): " +
            std::to_string(result.metrics.checkFailures) +
            " value mismatches — functional bug, results untrustworthy");
    if (!result.violations.empty())
        throw OracleError(workload_.info().code +
                          ": coherence invariant violated: " +
                          result.violations.front());
    return result;
}

WorkloadRunResult runWorkload(const Workload& workload, InputSize size,
                              CoherenceMode mode, const SystemConfig& config)
{
    WorkloadRun run(workload, size, mode, config);
    return run.run();
}

ComparisonResult compareModes(const Workload& workload, InputSize size,
                              const SystemConfig& config)
{
    ComparisonResult result;
    result.ccsm = runWorkload(workload, size, CoherenceMode::kCcsm, config);
    result.directStore =
        runWorkload(workload, size, CoherenceMode::kDirectStore, config);
    return result;
}

} // namespace dscoh
