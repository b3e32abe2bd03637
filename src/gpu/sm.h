// Streaming Multiprocessor model (Table I: 16 SMs, 32 lanes, 1.4 GHz).
//
// Thread blocks are resident up to an occupancy limit; each block's threads
// are grouped into 32-lane warps executing their op streams in lockstep. A
// round-robin scheduler issues one warp-instruction per GPU cycle among the
// ready warps, so memory latency is hidden exactly as far as warp-level
// parallelism allows — the effect the paper's direct store interacts with.
//
// Memory path: a per-warp coalescer merges the lanes' addresses into line
// transactions; loads go through the SM-local L1 (write-through,
// no-allocate, flash-invalidated at kernel launch) and miss to the owning
// L2 slice; stores write through to the slice and only stall the warp when
// too many are outstanding. The GPU-side TLB is modelled as free (shared
// page table walker, never on the critical path in this study); the host
// memoizes translation per warp step, which changes no simulated timing.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coherence/home_map.h"
#include "gpu/gpu_l1.h"
#include "gpu/kernel.h"
#include "net/network.h"
#include "sim/sim_object.h"
#include "vm/address_space.h"

namespace dscoh {

/// Converts GPU cycles (1.4 GHz) to simulator ticks (2 GHz): 10/7 ticks per
/// cycle, with the remainder carried so long runs stay exact on average.
class GpuClock {
public:
    Tick ticksFor(std::uint32_t cycles)
    {
        acc_ += static_cast<std::uint64_t>(cycles) * 10;
        const Tick t = acc_ / 7;
        acc_ %= 7;
        return t;
    }

    /// The carried remainder is machine state: restoring it keeps the
    /// cycle-to-tick conversion bit-exact across a checkpoint.
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        ar.u64(self.acc_);
    }

private:
    std::uint64_t acc_ = 0;
};

class GpuDevice;

class StreamingMultiprocessor final : public SimObject {
public:
    struct Params {
        std::uint32_t lanes = 32;
        std::uint32_t maxResidentBlocks = 4;
        Tick l1Latency = 24;   ///< L1 lookup, ticks
        Tick smemLatency = 30; ///< scratchpad access, ticks
        std::size_t maxOutstandingStores = 64;
        NodeId self = kInvalidNode;
        Network* gpuNet = nullptr;
        HomeMap homeMap{};     ///< routes a line to this GPU's slice
        std::uint32_t gpu = 0; ///< the GPU this SM belongs to
        CacheGeometry l1Geometry;
    };

    StreamingMultiprocessor(std::string name, SimContext& ctx, Params params,
                            const AddressSpace& space);

    /// Called by @p device at kernel launch. The SM pulls block ids from
    /// device.nextBlock() until the grid is exhausted, and calls
    /// device.onSmIdle() every time it drains completely (no warps, no
    /// blocks to pull, no outstanding stores).
    void beginKernel(const KernelDesc& kernel, GpuDevice& device);

    /// kL1LoadResp / kL1StoreAck from the L2 slices.
    void handleGpuMessage(const Message& msg);

    bool idle() const;

    void regStats(StatRegistry& registry) override;

    std::uint64_t checkFailures() const { return checkFailures_.value(); }
    GpuL1& l1() { return l1_; }

    /// L1 contents plus the clock-conversion remainder. Everything else
    /// (warps, block slots, outstanding lines/stores) exists only while a
    /// kernel runs, and safe points are between kernels.
    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        if constexpr (!Ar::kLoading)
            requireQuiesced(self.idle(),
                            self.name() + " is executing a kernel");
        ar.nested(self.clock_);
        ar.nested(self.l1_);
    }

private:
    /// One checked lane of a load step: the loaded bytes must equal
    /// `expect` (masked to `size` bytes) at `offset` within the line.
    struct LaneCheck {
        std::uint64_t expect;
        std::uint32_t offset;
        std::uint32_t size;
    };

    /// A warp's ops live in one allocation, step-major: lane L's op at step
    /// S is laneOps[S * lanes + L], so a step reads one contiguous row.
    /// Lanes with shorter streams (and absent threads) are padded with
    /// nops to `steps` rows.
    struct Warp {
        std::uint32_t blockSlot = 0;
        std::vector<GpuOp> laneOps; ///< [step * lanes + lane], nop-padded
        /// The current load step's checked lanes, grouped by line in the
        /// coalescer's order; LineWaiter ranges index it.
        std::vector<LaneCheck> checks;
        std::uint32_t step = 0;
        std::uint32_t steps = 0;
        std::uint32_t pendingLines = 0; ///< load lines in flight this step
        bool waitingStores = false;     ///< stalled on the store cap
    };

    /// A warp waiting for one line of its load step: when the line arrives,
    /// warp->checks[begin, end) are run against it and the warp's
    /// pendingLines drops by one. The indices stay valid because a warp has
    /// one step in flight, and it neither advances (rebuilding checks) nor
    /// retires until its last waiter has run.
    struct LineWaiter {
        Warp* warp;
        std::uint32_t begin;
        std::uint32_t end;
    };

    /// One coalesced store line under construction.
    struct StoreLine {
        DataBlock data;
        ByteMask mask;
    };

    struct BlockSlot {
        bool active = false;
        std::uint32_t warpsLeft = 0;
    };

    void pullBlocks();
    void addBlock(std::uint32_t blockId);
    void scheduleIssue(Tick delay);
    void issue();
    const GpuOp* stepOps(const Warp& warp) const
    {
        return warp.laneOps.data() + std::size_t{warp.step} * params_.lanes;
    }
    void execStep(Warp& warp);
    void execLoads(Warp& warp);
    /// Counts a check failure for each of warp.checks[begin, end) that
    /// @p data does not match.
    void runChecks(const DataBlock& data, const Warp& warp,
                   std::uint32_t begin, std::uint32_t end);
    /// Issues the step's coalesced write-through stores; returns true when
    /// the outstanding-store cap is exceeded (the warp must stall).
    bool execStores(Warp& warp);
    void stepDone(Warp& warp, Tick latency);
    void advanceWarp(Warp& warp);
    void retireWarp(Warp& warp);
    void maybeReportIdle();
    void makeReady(Warp& warp);

    Params params_;
    const AddressSpace& space_;
    GpuL1 l1_;
    GpuClock clock_;

    const KernelDesc* kernel_ = nullptr;
    GpuDevice* device_ = nullptr; ///< set by the first beginKernel

    std::vector<std::unique_ptr<Warp>> warps_;
    std::deque<Warp*> readyQ_;
    std::vector<BlockSlot> blockSlots_;
    std::uint32_t residentBlocks_ = 0;
    bool gridExhausted_ = false;
    bool issueScheduled_ = false;

    std::size_t outstandingStores_ = 0;
    std::deque<Warp*> storeWaiters_;

    /// Line address -> warps to complete, in request order, when its data
    /// arrives.
    std::unordered_map<Addr, std::vector<LineWaiter>> outstandingLines_;

    // Front-end scratch, reused by every warp and step. A step has at most
    // one line per lane, so each per-line vector is sized by lanes and
    // indexed by the coalescer's slot number.
    ThreadBuilder builder_; ///< one warp's lanes, back to back
    /// Lane L's ops are builder_.ops()[laneBounds_[L], laneBounds_[L + 1]).
    std::vector<std::uint32_t> laneBounds_;
    std::vector<std::uint32_t> laneOffset_; ///< lane's byte offset in its line
    std::vector<std::uint32_t> laneNext_;   ///< next lane on the same line
    std::vector<std::uint32_t> slotHead_;   ///< first lane of a load line
    std::vector<std::uint32_t> slotTail_;   ///< last lane of a load line
    std::vector<StoreLine> storeLines_;     ///< bytes of a store line

    Counter instructionsIssued_;
    Counter globalLoads_;
    Counter globalStores_;
    Counter smemAccesses_;
    Counter coalescedTransactions_;
    Counter blocksExecuted_;
    Counter warpsRetired_;
    Counter checkFailures_;
};

} // namespace dscoh
