#include "gpu/sm.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <memory_resource>
#include <optional>
#include <unordered_map>
#include <utility>

#include "gpu/gpu_device.h"

namespace dscoh {

namespace {

constexpr std::uint32_t kNoLane = ~0u;

/// A warp step's coalescer: line address -> slot, numbered in first-touch
/// (lane) order. Iterating it yields the lines in the order a fresh
/// std::unordered_map fed the lanes in lane order would: it is the same
/// hash table with the same hash and rehash policy, only allocated from a
/// stack arena. Build a fresh one per step; a reused table keeps its bucket
/// count, and that changes the order.
class LineSlots {
public:
    LineSlots() : pool_(arena_.data(), arena_.size()), slots_(&pool_) {}

    /// The slot of @p line, and whether this call created it.
    std::pair<std::uint32_t, bool> slotOf(Addr line)
    {
        const auto [it, fresh] =
            slots_.try_emplace(line, static_cast<std::uint32_t>(slots_.size()));
        return {it->second, fresh};
    }

    auto begin() const { return slots_.begin(); }
    auto end() const { return slots_.end(); }

private:
    // Nodes and bucket arrays for up to 64 distinct lines; wider steps
    // spill to the heap.
    alignas(std::max_align_t) std::array<std::byte, 4096> arena_;
    std::pmr::monotonic_buffer_resource pool_;
    std::pmr::unordered_map<Addr, std::uint32_t> slots_;
};

/// One-entry host-side memo of AddressSpace::translate over a warp step,
/// whose lanes mostly share a page. Not a modelled TLB: the GPU's
/// translation stays free.
class PageMemo {
public:
    explicit PageMemo(const AddressSpace& space) : space_(space) {}

    /// Throws std::out_of_range for an unmapped @p va, as translate does.
    Addr paddr(Addr va)
    {
        const Addr page = pageAlign(va);
        if (page != vpage_) {
            ppage_ = space_.translate(page).paddr;
            vpage_ = page;
        }
        return ppage_ + (va - page);
    }

private:
    const AddressSpace& space_;
    Addr vpage_ = ~Addr{0}; ///< never page-aligned: matches no page
    Addr ppage_ = 0;
};

} // namespace

StreamingMultiprocessor::StreamingMultiprocessor(std::string name,
                                                 SimContext& ctx,
                                                 Params params,
                                                 const AddressSpace& space)
    : SimObject(std::move(name), ctx), params_(std::move(params)),
      space_(space), l1_(params_.l1Geometry)
{
    assert(params_.gpuNet);
    blockSlots_.resize(params_.maxResidentBlocks);
    laneBounds_.resize(params_.lanes + 1);
    laneOffset_.resize(params_.lanes);
    laneNext_.resize(params_.lanes);
    slotHead_.resize(params_.lanes);
    slotTail_.resize(params_.lanes);
    storeLines_.resize(params_.lanes);
}

void StreamingMultiprocessor::beginKernel(const KernelDesc& kernel,
                                          GpuDevice& device)
{
    assert(idle() && "SM still busy with the previous kernel");
    kernel_ = &kernel;
    device_ = &device;
    gridExhausted_ = false;

    // Software coherence at kernel boundaries: flash-invalidate the L1 so
    // CPU-produced data cannot be observed stale (§III-A).
    l1_.flashInvalidate();

    pullBlocks();
    maybeReportIdle();
}

void StreamingMultiprocessor::pullBlocks()
{
    while (!gridExhausted_ && residentBlocks_ < params_.maxResidentBlocks) {
        const std::optional<std::uint32_t> block = device_->nextBlock();
        if (!block) {
            gridExhausted_ = true;
            break;
        }
        addBlock(*block);
    }
}

void StreamingMultiprocessor::addBlock(std::uint32_t blockId)
{
    // Find a free slot.
    std::uint32_t slot = 0;
    while (slot < blockSlots_.size() && blockSlots_[slot].active)
        ++slot;
    assert(slot < blockSlots_.size());

    const std::uint32_t warpsInBlock =
        (kernel_->threadsPerBlock + params_.lanes - 1) / params_.lanes;
    blockSlots_[slot] = BlockSlot{true, warpsInBlock};
    ++residentBlocks_;
    blocksExecuted_.inc();

    const std::uint32_t lanes = params_.lanes;
    for (std::uint32_t w = 0; w < warpsInBlock; ++w) {
        // Record the warp's lanes back to back, then lay them out
        // step-major in one pass; padding divergent/absent lanes with
        // predicated-off nops keeps them in lockstep.
        builder_.clear();
        std::uint32_t maxSteps = 0;
        for (std::uint32_t lane = 0; lane < lanes; ++lane) {
            const std::uint32_t tid = w * lanes + lane;
            if (tid < kernel_->threadsPerBlock)
                kernel_->body(builder_, blockId, tid);
            laneBounds_[lane + 1] =
                static_cast<std::uint32_t>(builder_.ops().size());
            maxSteps =
                std::max(maxSteps, laneBounds_[lane + 1] - laneBounds_[lane]);
        }
        auto warp = std::make_unique<Warp>();
        warp->blockSlot = slot;
        warp->laneOps.reserve(std::size_t{maxSteps} * lanes);
        for (std::uint32_t step = 0; step < maxSteps; ++step) {
            for (std::uint32_t lane = 0; lane < lanes; ++lane) {
                const std::uint32_t i = laneBounds_[lane] + step;
                warp->laneOps.push_back(i < laneBounds_[lane + 1]
                                            ? builder_.ops()[i]
                                            : GpuOp{});
            }
        }
        warp->steps = maxSteps;
        Warp* raw = warp.get();
        warps_.push_back(std::move(warp));
        if (maxSteps == 0) {
            retireWarp(*raw);
        } else {
            makeReady(*raw);
        }
    }
}

void StreamingMultiprocessor::makeReady(Warp& warp)
{
    readyQ_.push_back(&warp);
    scheduleIssue(clock_.ticksFor(1));
}

void StreamingMultiprocessor::scheduleIssue(Tick delay)
{
    if (issueScheduled_)
        return;
    issueScheduled_ = true;
    queue().scheduleAfter(delay, [this] {
        issueScheduled_ = false;
        issue();
    }, EventPriority::kCore);
}

void StreamingMultiprocessor::issue()
{
    if (readyQ_.empty())
        return;
    Warp* warp = readyQ_.front();
    readyQ_.pop_front();
    execStep(*warp);
    if (!readyQ_.empty())
        scheduleIssue(clock_.ticksFor(1));
}

void StreamingMultiprocessor::execStep(Warp& warp)
{
    assert(warp.step < warp.steps);
    instructionsIssued_.inc();

    // A warp step is usually one kind across all lanes, but padding of
    // divergent lane streams can mix kinds at a step; every lane's op must
    // execute regardless (dropping any would corrupt data).
    bool hasLoad = false;
    bool hasStore = false;
    bool hasSmem = false;
    bool hasCompute = false;
    std::uint32_t maxCycles = 1;
    const GpuOp* ops = stepOps(warp);
    for (std::uint32_t lane = 0; lane < params_.lanes; ++lane) {
        const GpuOp& op = ops[lane];
        switch (op.kind) {
        case GpuOp::Kind::kLoad:
            hasLoad = true;
            break;
        case GpuOp::Kind::kStore:
            hasStore = true;
            break;
        case GpuOp::Kind::kSmemLoad:
        case GpuOp::Kind::kSmemStore:
            hasSmem = true;
            break;
        case GpuOp::Kind::kCompute:
            hasCompute = true;
            maxCycles = std::max(maxCycles, op.cycles);
            break;
        case GpuOp::Kind::kNop:
            break;
        }
    }
    if (hasSmem)
        smemAccesses_.inc();

    // Stores are write-through and fire-and-forget: issue them first.
    bool overStoreCap = false;
    if (hasStore)
        overStoreCap = execStores(warp);

    // Loads govern the warp's advancement when present.
    if (hasLoad) {
        execLoads(warp);
        return;
    }
    if (overStoreCap) {
        warp.waitingStores = true;
        storeWaiters_.push_back(&warp);
        return;
    }

    Tick latency = clock_.ticksFor(1);
    if (hasCompute)
        latency = std::max(latency, clock_.ticksFor(maxCycles));
    if (hasSmem)
        latency = std::max(latency, params_.smemLatency);
    if (hasStore)
        latency = std::max(latency, params_.l1Latency);
    stepDone(warp, latency);
}

void StreamingMultiprocessor::stepDone(Warp& warp, Tick latency)
{
    queue().scheduleAfter(latency, [this, &warp] { advanceWarp(warp); },
                          EventPriority::kCore);
}

void StreamingMultiprocessor::advanceWarp(Warp& warp)
{
    ++warp.step;
    if (warp.step >= warp.steps) {
        retireWarp(warp);
        return;
    }
    makeReady(warp);
}

void StreamingMultiprocessor::retireWarp(Warp& warp)
{
    warpsRetired_.inc();
    BlockSlot& slot = blockSlots_[warp.blockSlot];
    assert(slot.active && slot.warpsLeft > 0);
    if (--slot.warpsLeft == 0) {
        slot.active = false;
        --residentBlocks_;
        pullBlocks();
    }
    const auto it = std::find_if(warps_.begin(), warps_.end(),
                                 [&warp](const std::unique_ptr<Warp>& p) {
                                     return p.get() == &warp;
                                 });
    assert(it != warps_.end());
    warps_.erase(it);
    maybeReportIdle();
}

// ------------------------------------------------------------------ loads --

void StreamingMultiprocessor::runChecks(const DataBlock& data,
                                        const Warp& warp, std::uint32_t begin,
                                        std::uint32_t end)
{
    for (std::uint32_t i = begin; i < end; ++i) {
        const LaneCheck& c = warp.checks[i];
        const std::uint64_t mask =
            c.size >= 8 ? ~0ull : ((1ull << (c.size * 8)) - 1);
        if ((data.read(c.offset, c.size) & mask) != (c.expect & mask))
            checkFailures_.inc();
    }
}

void StreamingMultiprocessor::execLoads(Warp& warp)
{
    // Coalesce: group the lanes' physical addresses by cache line, keeping
    // lane order within a line.
    const GpuOp* ops = stepOps(warp);
    LineSlots slots;
    PageMemo memo(space_);
    for (std::uint32_t lane = 0; lane < params_.lanes; ++lane) {
        const GpuOp& op = ops[lane];
        if (op.kind != GpuOp::Kind::kLoad)
            continue;
        globalLoads_.inc();
        const Addr pa = memo.paddr(op.vaddr);
        laneOffset_[lane] = lineOffset(pa);
        laneNext_[lane] = kNoLane;
        const auto [slot, fresh] = slots.slotOf(lineAlign(pa));
        if (fresh)
            slotHead_[slot] = lane;
        else
            laneNext_[slotTail_[slot]] = lane;
        slotTail_[slot] = lane;
    }

    // Record each line's checked lanes, then check them against the L1 copy
    // now or against the line's bytes when they arrive.
    warp.checks.clear();
    warp.pendingLines = 0;
    for (const auto& [lineAddr, slot] : slots) {
        coalescedTransactions_.inc();
        const auto begin = static_cast<std::uint32_t>(warp.checks.size());
        for (std::uint32_t lane = slotHead_[slot]; lane != kNoLane;
             lane = laneNext_[lane]) {
            const GpuOp& op = ops[lane];
            if (op.check)
                warp.checks.push_back(
                    LaneCheck{op.value, laneOffset_[lane], op.size});
        }
        const auto end = static_cast<std::uint32_t>(warp.checks.size());
        if (GpuL1::Line* line = l1_.lookup(lineAddr)) {
            runChecks(line->data, warp, begin, end);
            continue;
        }
        ++warp.pendingLines;
        std::vector<LineWaiter>& waiters = outstandingLines_[lineAddr];
        const bool firstRequester = waiters.empty();
        waiters.push_back(LineWaiter{&warp, begin, end});
        if (firstRequester) {
            Message req;
            req.type = MsgType::kL1Load;
            req.addr = lineAddr;
            req.src = params_.self;
            req.dst = params_.homeMap.sliceOn(params_.gpu, lineAddr);
            req.requester = params_.self;
            if (TxnProfiler* p = profiling())
                req.prof = p->begin(TxnKind::kGpuLoad, lineAddr, name(),
                                    curTick());
            params_.gpuNet->send(std::move(req));
        }
    }

    if (warp.pendingLines == 0)
        stepDone(warp, params_.l1Latency);
}

// ----------------------------------------------------------------- stores --

bool StreamingMultiprocessor::execStores(Warp& warp)
{
    const GpuOp* ops = stepOps(warp);
    LineSlots slots;
    PageMemo memo(space_);
    for (std::uint32_t lane = 0; lane < params_.lanes; ++lane) {
        const GpuOp& op = ops[lane];
        if (op.kind != GpuOp::Kind::kStore)
            continue;
        globalStores_.inc();
        const Addr pa = memo.paddr(op.vaddr);
        const auto [slot, fresh] = slots.slotOf(lineAlign(pa));
        StoreLine& line = storeLines_[slot];
        if (fresh)
            line = StoreLine{}; // zeroed: the message carries the whole block
        line.data.write(lineOffset(pa), op.value, op.size);
        line.mask.set(lineOffset(pa), op.size);
    }

    for (const auto& [lineAddr, slot] : slots) {
        coalescedTransactions_.inc();
        const StoreLine& payload = storeLines_[slot];
        // Write-through, no-allocate; update a present L1 copy so later
        // local loads observe the stored bytes.
        l1_.storeUpdate(lineAddr, payload.data, payload.mask);
        Message st;
        st.type = MsgType::kL1Store;
        st.addr = lineAddr;
        st.src = params_.self;
        st.dst = params_.homeMap.sliceOn(params_.gpu, lineAddr);
        st.requester = params_.self;
        st.data = payload.data;
        st.mask = payload.mask;
        params_.gpuNet->send(std::move(st));
        ++outstandingStores_;
    }

    return outstandingStores_ > params_.maxOutstandingStores;
}

// --------------------------------------------------------------- messages --

void StreamingMultiprocessor::handleGpuMessage(const Message& msg)
{
    switch (msg.type) {
    case MsgType::kL1LoadResp: {
        if (TxnProfiler* p = profiling()) {
            p->hop(msg.prof, TxnStage::kDataArrive, name(), curTick());
            p->end(msg.prof, curTick());
        }
        l1_.fill(msg.addr, msg.data);
        const auto it = outstandingLines_.find(msg.addr);
        assert(it != outstandingLines_.end());
        const std::vector<LineWaiter> waiters = std::move(it->second);
        outstandingLines_.erase(it);
        for (const LineWaiter& w : waiters) {
            Warp& warp = *w.warp;
            runChecks(msg.data, warp, w.begin, w.end);
            assert(warp.pendingLines > 0);
            if (--warp.pendingLines == 0)
                advanceWarp(warp);
        }
        break;
    }
    case MsgType::kL1StoreAck: {
        assert(outstandingStores_ > 0);
        --outstandingStores_;
        while (!storeWaiters_.empty() &&
               outstandingStores_ <= params_.maxOutstandingStores) {
            Warp* warp = storeWaiters_.front();
            storeWaiters_.pop_front();
            warp->waitingStores = false;
            stepDone(*warp, params_.l1Latency);
        }
        maybeReportIdle();
        break;
    }
    default:
        assert(false && "unexpected message at SM");
    }
}

bool StreamingMultiprocessor::idle() const
{
    return warps_.empty() && residentBlocks_ == 0 && outstandingStores_ == 0;
}

void StreamingMultiprocessor::maybeReportIdle()
{
    if (idle() && gridExhausted_ && device_ != nullptr)
        device_->onSmIdle();
}

void StreamingMultiprocessor::regStats(StatRegistry& registry)
{
    registry.registerCounter(statName("instructions"), &instructionsIssued_);
    registry.registerCounter(statName("global_loads"), &globalLoads_);
    registry.registerCounter(statName("global_stores"), &globalStores_);
    registry.registerCounter(statName("smem_accesses"), &smemAccesses_);
    registry.registerCounter(statName("coalesced_transactions"),
                             &coalescedTransactions_);
    registry.registerCounter(statName("blocks"), &blocksExecuted_);
    registry.registerCounter(statName("warps_retired"), &warpsRetired_);
    registry.registerCounter(statName("check_failures"), &checkFailures_);
    l1_.regStats(registry, statName("l1"));
}

} // namespace dscoh
