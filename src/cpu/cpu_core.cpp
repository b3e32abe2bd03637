#include "cpu/cpu_core.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "coherence/transition_coverage.h"

namespace dscoh {

CpuCore::CpuCore(std::string name, SimContext& ctx, Params params, Tlb& tlb,
                 CpuCacheAgent& cache)
    : SimObject(std::move(name), ctx), params_(std::move(params)), tlb_(tlb),
      cache_(cache)
{
}

void CpuCore::run(const CpuProgram& program, InlineCallback onDone)
{
    assert(program_ == nullptr && "core already running a program");
    program_ = &program;
    pc_ = 0;
    onDone_ = std::move(onDone);
    queue().scheduleAfter(0, [this] { step(); }, EventPriority::kCore);
}

void CpuCore::finishOp()
{
    ++pc_;
    queue().scheduleAfter(1, [this] { step(); }, EventPriority::kCore);
}

void CpuCore::step()
{
    assert(program_ != nullptr);
    if (pc_ >= program_->size()) {
        // Implicit trailing fence: the program is done when every store is
        // globally performed.
        flushAllRsb();
        fencing_ = true;
        maybeFinishFence();
        return;
    }

    const CpuOp& op = (*program_)[pc_];
    switch (op.kind) {
    case CpuOp::Kind::kCompute:
        queue().scheduleAfter(op.delay, [this] { finishOp(); },
                              EventPriority::kCore);
        break;
    case CpuOp::Kind::kFence:
        execFence();
        break;
    case CpuOp::Kind::kLoad:
        execLoad(op);
        break;
    case CpuOp::Kind::kStore:
        execStore(op);
        break;
    }
}

void CpuCore::execFence()
{
    flushAllRsb();
    fencing_ = true;
    maybeFinishFence();
}

void CpuCore::maybeFinishFence()
{
    if (!fencing_ || !storesDrained())
        return;
    fencing_ = false;
    if (pc_ >= program_->size()) {
        program_ = nullptr;
        InlineCallback done = std::move(onDone_);
        if (done)
            done();
        return;
    }
    finishOp();
}

// ---------------------------------------------------------------- stores --

void CpuCore::execStore(const CpuOp& op)
{
    const TlbResult tr = tlb_.translate(op.vaddr);
    const Tick extra = tr.latency;
    if (tr.translation.dsRegion) {
        queue().scheduleAfter(extra, [this, pa = tr.translation.paddr, op] {
            remoteStore(pa, op);
            finishOp();
        }, EventPriority::kCore);
        return;
    }

    if (storeBuffer_.size() >= params_.storeBufferEntries) {
        // In-order core: wait for a slot, then retry this op.
        stalledStores_.push_back(op);
        return;
    }
    queue().scheduleAfter(extra, [this, pa = tr.translation.paddr, op] {
        pushStoreBuffer(pa, op);
        finishOp();
    }, EventPriority::kCore);
}

void CpuCore::pushStoreBuffer(Addr pa, const CpuOp& op)
{
    stores_.inc();
    const Addr base = lineAlign(pa);
    for (StoreBufferEntry& entry : storeBuffer_) {
        if (entry.base != base)
            continue;
        // Write-combine into the entry whose drain is already in flight;
        // the drain callback applies whatever bytes accumulated by then.
        entry.data.write(lineOffset(pa), op.value, op.size);
        entry.mask.set(lineOffset(pa), op.size);
        return;
    }
    StoreBufferEntry entry;
    entry.base = base;
    entry.data.write(lineOffset(pa), op.value, op.size);
    entry.mask.set(lineOffset(pa), op.size);
    storeBuffer_.push_back(std::move(entry));
    drainStoreEntry(base);
}

void CpuCore::drainStoreEntry(Addr base)
{
    ++inFlightStores_;
    const Tick lookup = cache_.l1Hit(base)
                            ? params_.l1Latency
                            : params_.l1Latency + params_.l2Latency;
    queue().scheduleAfter(lookup, [this, base] {
        cache_.access(base, /*exclusive=*/true,
                      [this, base](CacheAgent::Line& line) {
                          // Apply every byte combined into the entry so far.
                          const auto it = std::find_if(
                              storeBuffer_.begin(), storeBuffer_.end(),
                              [base](const StoreBufferEntry& e) {
                                  return e.base == base;
                              });
                          assert(it != storeBuffer_.end());
                          it->mask.apply(line.data, it->data);
                          if (CoherenceChecker* c = checking())
                              c->onStoreApplied(base, it->data, it->mask);
                          storeBuffer_.erase(it);
                          cache_.l1Insert(base);
                          --inFlightStores_;
                          if (!stalledStores_.empty() &&
                              storeBuffer_.size() < params_.storeBufferEntries) {
                              const CpuOp next = stalledStores_.front();
                              stalledStores_.pop_front();
                              execStore(next);
                          }
                          maybeFinishFence();
                      });
    }, EventPriority::kCore);
}

// ---------------------------------------------------------- remote stores --

void CpuCore::remoteStore(Addr pa, const CpuOp& op)
{
    assert(params_.dsNet != nullptr &&
           "direct-store path used without a DS network");
    remoteStores_.inc();
    const Addr base = lineAlign(pa);

    for (std::size_t i = 0; i < rsb_.size(); ++i) {
        if (rsb_[i].base != base)
            continue;
        rsb_[i].data.write(lineOffset(pa), op.value, op.size);
        rsb_[i].mask.set(lineOffset(pa), op.size);
        if (rsb_[i].mask.full())
            flushRsbEntry(i);
        return;
    }

    if (rsb_.size() >= params_.rsbEntries)
        flushRsbEntry(0); // evict the oldest write-combining entry

    RsbEntry entry;
    entry.base = base;
    entry.data.write(lineOffset(pa), op.value, op.size);
    entry.mask.set(lineOffset(pa), op.size);
    rsb_.push_back(std::move(entry));
}

void CpuCore::flushRsbEntry(std::size_t index)
{
    assert(index < rsb_.size());
    RsbEntry entry = std::move(rsb_[index]);
    rsb_.erase(rsb_.begin() + static_cast<std::ptrdiff_t>(index));
    // Counts the store from here until it is globally performed (acked or
    // applied through the fallback path), backlog time included.
    ++pendingDsAcks_;
    if (TxnProfiler* p = profiling())
        entry.prof = p->begin(TxnKind::kDsPush, entry.base, name(), curTick());

    if (hardened()) {
        if (dsInFlight_.size() >= params_.dsInFlightMax) {
            if (TxnProfiler* p = profiling())
                p->hop(entry.prof, TxnStage::kBacklog, name(), curTick());
            dsBacklog_.push_back(std::move(entry));
            return;
        }
        startDsStore(entry);
        return;
    }

    // Fig. 3: give up any local copy first (I/S/M/MM -> I), then push the
    // line over the dedicated network to the slice that owns the address.
    Message* m = context().msgPool.acquire(dsPutX(entry));
    cache_.prepareRemoteStore(entry.base, [this, m] {
        if (TxnProfiler* p = profiling())
            p->hop(m->prof, TxnStage::kIssue, name(), curTick());
        params_.dsNet->send(*m);
        context().msgPool.release(m);
        dsPutxSent_.inc();
    });
}

Message CpuCore::dsPutX(const RsbEntry& store) const
{
    Message msg;
    msg.type = MsgType::kDsPutX;
    msg.addr = store.base;
    msg.src = params_.self;
    msg.dst = params_.homeMap.homeSlice(store.base);
    msg.requester = params_.self;
    msg.data = store.data;
    msg.mask = store.mask;
    msg.dirty = true;
    msg.prof = store.prof;
    return msg;
}

// ------------------------------------------------ hardened store delivery --

void CpuCore::startDsStore(const RsbEntry& entry)
{
    Message* m = context().msgPool.acquire(dsPutX(entry));
    cache_.prepareRemoteStore(entry.base, [this, m] {
        const std::uint64_t txn = nextDsTxn_++;
        DsInFlight& f = dsInFlight_[txn];
        f.base = m->addr;
        f.data = m->data;
        f.mask = m->mask;
        f.prof = m->prof;
        context().msgPool.release(m);
        sendDsPutX(txn);
    });
}

void CpuCore::sendDsPutX(std::uint64_t txn)
{
    const auto it = dsInFlight_.find(txn);
    assert(it != dsInFlight_.end());
    DsInFlight& f = it->second;
    if (dsNetMarkedDown()) {
        // Don't even put it on the wire: degrade immediately.
        beginDsFallback(txn);
        return;
    }
    Message msg = dsPutX(f);
    msg.txn = txn;
    if (TxnProfiler* p = profiling())
        p->hop(f.prof, TxnStage::kIssue, name(), curTick());
    params_.dsNet->send(std::move(msg));
    dsPutxSent_.inc();
    armDsTimeout(txn);
}

void CpuCore::armDsTimeout(std::uint64_t txn)
{
    const auto it = dsInFlight_.find(txn);
    assert(it != dsInFlight_.end());
    const DsInFlight& f = it->second;
    const Tick wait = params_.dsAckTimeout
                      << std::min<std::uint32_t>(f.retries, 6);
    queue().scheduleAfter(wait,
                          [this, txn, seq = f.seq] { onDsTimeout(txn, seq); },
                          EventPriority::kCore);
}

void CpuCore::onDsTimeout(std::uint64_t txn, std::uint64_t seq)
{
    const auto it = dsInFlight_.find(txn);
    if (it == dsInFlight_.end() || it->second.seq != seq ||
        it->second.fallbackPending)
        return; // acked meanwhile, superseded, or already degrading
    dsTimeouts_.inc();
    if (TraceSession* t = tracing(TraceCat::kNet))
        t->instant(TraceCat::kNet, name(), "ds.timeout", curTick(),
                   it->second.base);
    retryDsStore(txn);
}

void CpuCore::retryDsStore(std::uint64_t txn)
{
    DsInFlight& f = dsInFlight_.at(txn);
    if (f.retries >= params_.dsMaxRetries && params_.dsFallback) {
        beginDsFallback(txn);
        return;
    }
    // Without a fallback path (dsonly mode) keep retrying at the backoff
    // cap: the outage is the only thing that can un-wedge the workload.
    if (f.retries < params_.dsMaxRetries)
        ++f.retries;
    ++f.seq;
    dsRetries_.inc();
    if (TxnProfiler* p = profiling())
        p->hop(f.prof, TxnStage::kRetry, name(), curTick());
    if (TraceSession* t = tracing(TraceCat::kNet))
        t->instant(TraceCat::kNet, name(), "ds.retransmit", curTick(), f.base);
    sendDsPutX(txn);
}

void CpuCore::beginDsFallback(std::uint64_t txn)
{
    assert(params_.dsFallback);
    DsInFlight& f = dsInFlight_.at(txn);
    f.fallbackPending = true;
    ++f.seq; // disarm any in-flight timeout
    if (TxnProfiler* p = profiling())
        p->hop(f.prof, TxnStage::kFallbackArm, name(), curTick());
    if (TraceSession* t = tracing(TraceCat::kNet))
        t->instant(TraceCat::kNet, name(), "ds.fallback-arm", curTick(),
                   f.base);
    // Wait out the maximum-segment-lifetime window first so no copy of the
    // abandoned push is still on the wire when the pull path takes over. A
    // late ack arriving during the window cancels the fallback.
    queue().scheduleAfter(params_.dsMslTicks,
                          [this, txn] { applyDsFallback(txn); },
                          EventPriority::kCore);
}

void CpuCore::applyDsFallback(std::uint64_t txn)
{
    const auto it = dsInFlight_.find(txn);
    if (it == dsInFlight_.end())
        return; // an ack landed during the drain window and completed it
    // The abandoned push waits in a pooled slot until the line is ours.
    Message* m = context().msgPool.acquire(dsPutX(it->second));
    dsInFlight_.erase(it);
    dsFallbackStores_.inc();
    if (TxnProfiler* p = profiling())
        p->hop(m->prof, TxnStage::kFallback, name(), curTick());
    if (TraceSession* t = tracing(TraceCat::kNet))
        t->instant(TraceCat::kNet, name(), "ds.fallback", curTick(), m->addr);
    // The baseline pull-based write: acquire ownership through the regular
    // coherence protocol and apply the combined bytes locally. The GPU will
    // pull the line back on demand, exactly as under CCSM.
    cache_.access(m->addr, /*exclusive=*/true,
                  [this, m](CacheAgent::Line& line) {
                      m->mask.apply(line.data, m->data);
                      if (CoherenceChecker* c = checking())
                          c->onStoreApplied(m->addr, m->data, m->mask);
                      recordTransition(CohState::kI, CohEvent::kFallbackStore,
                                       CohState::kMM);
                      if (TxnProfiler* p = profiling())
                          p->end(m->prof, curTick());
                      context().msgPool.release(m);
                      completeDsStore();
                  });
}

void CpuCore::completeDsStore()
{
    assert(pendingDsAcks_ > 0);
    --pendingDsAcks_;
    if (!dsBacklog_.empty() && dsInFlight_.size() < params_.dsInFlightMax) {
        const RsbEntry e = dsBacklog_.front();
        dsBacklog_.pop_front();
        startDsStore(e);
    }
    if (pendingDsAcks_ == 0)
        runDsDrainWaiters();
    maybeFinishFence();
}

void CpuCore::runDsDrainWaiters()
{
    std::deque<InlineCallback> thunks;
    thunks.swap(awaitingDsDrain_);
    for (auto& t : thunks)
        t();
}

void CpuCore::flushAllRsb()
{
    while (!rsb_.empty())
        flushRsbEntry(0);
}

// ----------------------------------------------------------------- loads --

void CpuCore::execLoad(const CpuOp& op)
{
    loads_.inc();
    loadStart_ = curTick();
    const TlbResult tr = tlb_.translate(op.vaddr);

    if (tr.translation.dsRegion) {
        doUncachedLoad(tr.translation.paddr, op, tr.latency);
        return;
    }

    // Store->load forwarding from the write-combining store buffer.
    const Addr pa = tr.translation.paddr;
    for (const StoreBufferEntry& entry : storeBuffer_) {
        if (entry.base != lineAlign(pa))
            continue;
        bool covered = true;
        for (std::uint32_t i = 0; i < op.size; ++i)
            covered = covered && entry.mask.test(lineOffset(pa) + i);
        if (!covered)
            break; // partially buffered: let the access path order it
        storeForwards_.inc();
        const std::uint64_t value = entry.data.read(lineOffset(pa), op.size);
        queue().scheduleAfter(tr.latency + params_.l1Latency,
                              [this, op, value] {
                                  checkLoadedValue(op, value);
                                  loadLatency_.sample(curTick() - loadStart_);
                                  finishOp();
                              }, EventPriority::kCore);
        return;
    }

    doLocalLoad(tr.translation.paddr, op, tr.latency);
}

void CpuCore::doLocalLoad(Addr pa, const CpuOp& op, Tick extraLatency)
{
    const Tick lookup = cache_.l1Hit(pa)
                            ? params_.l1Latency
                            : params_.l1Latency + params_.l2Latency;
    queue().scheduleAfter(extraLatency + lookup, [this, pa, op] {
        cache_.access(pa, /*exclusive=*/false,
                      [this, pa, op](CacheAgent::Line& line) {
                          const std::uint64_t value =
                              line.data.read(lineOffset(pa), op.size);
                          cache_.l1Insert(pa);
                          checkLoadedValue(op, value);
                          loadLatency_.sample(curTick() - loadStart_);
                          finishOp();
                      });
    }, EventPriority::kCore);
}

void CpuCore::doUncachedLoad(Addr pa, const CpuOp& op, Tick extraLatency)
{
    // Forward from a pending write-combining entry when it covers the load.
    const Addr base = lineAlign(pa);
    for (const RsbEntry& entry : rsb_) {
        if (entry.base != base)
            continue;
        bool covered = true;
        for (std::uint32_t i = 0; i < op.size; ++i)
            covered = covered && entry.mask.test(lineOffset(pa) + i);
        if (covered) {
            const std::uint64_t value = entry.data.read(lineOffset(pa), op.size);
            queue().scheduleAfter(extraLatency + params_.l1Latency,
                                  [this, op, value] {
                                      checkLoadedValue(op, value);
                                      loadLatency_.sample(curTick() - loadStart_);
                                      finishOp();
                                  }, EventPriority::kCore);
            return;
        }
        // Partially covered: push the entry out and read from the slice
        // once the push is acknowledged, to keep the bytes ordered.
        for (std::size_t i = 0; i < rsb_.size(); ++i) {
            if (rsb_[i].base == base) {
                flushRsbEntry(i);
                break;
            }
        }
        awaitingDsDrain_.push_back([this, pa, op] {
            doUncachedLoad(pa, op, 0);
        });
        return;
    }

    ucReads_.inc();
    assert(!pendingUcLoad_ && "in-order core: one uncached load at a time");
    // The span id rides in ucProf_ rather than the event capture (in-order
    // core: one uncached load at a time) to keep the event inline-sized.
    ucProf_ = 0;
    if (TxnProfiler* p = profiling())
        ucProf_ = p->begin(TxnKind::kUcRead, lineAlign(pa), name(), curTick());
    queue().scheduleAfter(extraLatency, [this, pa, op] {
        pendingUcLoad_ = [this, pa, op](const Message& reply) {
            const std::uint64_t value = reply.data.read(lineOffset(pa), op.size);
            checkLoadedValue(op, value);
            loadLatency_.sample(curTick() - loadStart_);
            finishOp();
        };
        if (hardened()) {
            ucPa_ = pa;
            ucOp_ = op;
            ucRetries_ = 0;
            ucTxn_ = nextDsTxn_++;
            ++ucSeq_;
            sendUcRead();
            return;
        }
        Message msg;
        msg.type = MsgType::kUcRead;
        msg.addr = lineAlign(pa);
        msg.src = params_.self;
        msg.dst = params_.homeMap.homeSlice(pa);
        msg.requester = params_.self;
        msg.prof = ucProf_;
        if (TxnProfiler* p = profiling())
            p->hop(ucProf_, TxnStage::kIssue, name(), curTick());
        params_.dsNet->send(std::move(msg));
    }, EventPriority::kCore);
}

// ------------------------------------------------- hardened uncached loads --

void CpuCore::sendUcRead()
{
    if (dsNetMarkedDown()) {
        fallbackUcLoad();
        return;
    }
    Message msg;
    msg.type = MsgType::kUcRead;
    msg.addr = lineAlign(ucPa_);
    msg.src = params_.self;
    msg.dst = params_.homeMap.homeSlice(ucPa_);
    msg.requester = params_.self;
    msg.txn = ucTxn_;
    msg.prof = ucProf_;
    if (TxnProfiler* p = profiling())
        p->hop(ucProf_, TxnStage::kIssue, name(), curTick());
    params_.dsNet->send(std::move(msg));
    const Tick wait = params_.dsAckTimeout
                      << std::min<std::uint32_t>(ucRetries_, 6);
    queue().scheduleAfter(
        wait, [this, txn = ucTxn_, seq = ucSeq_] { onUcTimeout(txn, seq); },
        EventPriority::kCore);
}

void CpuCore::onUcTimeout(std::uint64_t txn, std::uint64_t seq)
{
    if (!pendingUcLoad_ || ucTxn_ != txn || ucSeq_ != seq)
        return; // completed or superseded
    dsTimeouts_.inc();
    if (TraceSession* t = tracing(TraceCat::kNet))
        t->instant(TraceCat::kNet, name(), "ds.timeout", curTick(), ucPa_);
    retryUcLoad();
}

void CpuCore::retryUcLoad()
{
    if (ucRetries_ >= params_.dsMaxRetries && params_.dsFallback) {
        fallbackUcLoad();
        return;
    }
    if (ucRetries_ < params_.dsMaxRetries)
        ++ucRetries_;
    ++ucSeq_;
    dsRetries_.inc();
    if (TxnProfiler* p = profiling())
        p->hop(ucProf_, TxnStage::kRetry, name(), curTick());
    if (TraceSession* t = tracing(TraceCat::kNet))
        t->instant(TraceCat::kNet, name(), "ds.retransmit", curTick(), ucPa_);
    sendUcRead();
}

void CpuCore::fallbackUcLoad()
{
    assert(pendingUcLoad_);
    pendingUcLoad_ = {};
    ++ucSeq_; // disarm any in-flight timeout
    dsFallbackLoads_.inc();
    if (TxnProfiler* p = profiling()) {
        p->hop(ucProf_, TxnStage::kFallback, name(), curTick());
        p->end(ucProf_, curTick());
    }
    if (TraceSession* t = tracing(TraceCat::kNet))
        t->instant(TraceCat::kNet, name(), "ds.fallback", curTick(), ucPa_);
    // Degrade to a regular coherent load; it completes the op itself. No
    // drain window is needed: a late UcData reply carries a stale txn and
    // is ignored.
    doLocalLoad(ucPa_, ucOp_, 0);
}

void CpuCore::checkLoadedValue(const CpuOp& op, std::uint64_t value)
{
    if (!op.check)
        return;
    const std::uint64_t mask =
        op.size >= 8 ? ~0ull : ((1ull << (op.size * 8)) - 1);
    if ((value & mask) != (op.value & mask))
        checkFailures_.inc();
}

// -------------------------------------------------------------- messages --

void CpuCore::handleDsMessage(const Message& msg)
{
    switch (msg.type) {
    case MsgType::kDsAck: {
        if (hardened()) {
            const auto it = dsInFlight_.find(msg.txn);
            if (it == dsInFlight_.end())
                break; // duplicate or post-fallback straggler
            // An ack always wins, including during a fallback drain window:
            // the push was globally performed after all.
            if (TxnProfiler* p = profiling()) {
                p->hop(msg.prof, TxnStage::kAckArrive, name(), curTick());
                p->end(msg.prof, curTick());
            }
            dsInFlight_.erase(it);
            completeDsStore();
            break;
        }
        // Legacy path: tolerate stray acks (a duplication fault can echo
        // one even with hardening off).
        if (pendingDsAcks_ == 0)
            break;
        if (TxnProfiler* p = profiling()) {
            p->hop(msg.prof, TxnStage::kAckArrive, name(), curTick());
            p->end(msg.prof, curTick());
        }
        --pendingDsAcks_;
        if (pendingDsAcks_ == 0)
            runDsDrainWaiters();
        maybeFinishFence();
        break;
    }
    case MsgType::kDsNack: {
        // The slice rejected a corrupt push; resend (or degrade) as if the
        // timeout had fired.
        const auto it = dsInFlight_.find(msg.txn);
        if (it == dsInFlight_.end() || it->second.fallbackPending)
            break;
        retryDsStore(msg.txn);
        break;
    }
    case MsgType::kUcData: {
        if (hardened()) {
            if (!pendingUcLoad_ || msg.txn != ucTxn_)
                break; // stale reply from a superseded attempt
            if (params_.dsVerifyChecksum &&
                msg.checksum != messageChecksum(msg)) {
                retryUcLoad();
                break;
            }
            ++ucSeq_; // disarm the timeout
            if (TxnProfiler* p = profiling()) {
                p->hop(msg.prof, TxnStage::kDataArrive, name(), curTick());
                p->end(msg.prof, curTick());
            }
            auto handler = std::move(pendingUcLoad_);
            handler(msg);
            break;
        }
        if (!pendingUcLoad_)
            break; // stray duplicate of an already-served reply
        if (TxnProfiler* p = profiling()) {
            p->hop(msg.prof, TxnStage::kDataArrive, name(), curTick());
            p->end(msg.prof, curTick());
        }
        auto handler = std::move(pendingUcLoad_);
        handler(msg);
        break;
    }
    default:
        assert(false && "unexpected DS-network message at the CPU");
    }
}

std::string CpuCore::outstandingWork() const
{
    std::string out;
    const auto item = [&out](const std::string& what) {
        if (!out.empty())
            out += ", ";
        out += what;
    };
    if (program_ != nullptr)
        item("executing op " + std::to_string(pc_) + "/" +
             std::to_string(program_->size()));
    if (!storeBuffer_.empty() || inFlightStores_ != 0)
        item(std::to_string(storeBuffer_.size()) + " buffered / " +
             std::to_string(inFlightStores_) + " in-flight local stores");
    if (!stalledStores_.empty())
        item(std::to_string(stalledStores_.size()) + " stalled stores");
    if (!rsb_.empty())
        item(std::to_string(rsb_.size()) + " write-combining entries");
    if (pendingDsAcks_ != 0)
        item(std::to_string(pendingDsAcks_) + " unacked direct stores (" +
             std::to_string(dsInFlight_.size()) + " in flight, " +
             std::to_string(dsBacklog_.size()) + " backlogged)");
    if (pendingUcLoad_)
        item("an outstanding uncached load");
    return out;
}

void CpuCore::regStats(StatRegistry& registry)
{
    registry.registerCounter(statName("loads"), &loads_);
    registry.registerCounter(statName("stores"), &stores_);
    registry.registerCounter(statName("remote_stores"), &remoteStores_);
    registry.registerCounter(statName("ds_putx_sent"), &dsPutxSent_);
    registry.registerCounter(statName("uc_reads"), &ucReads_);
    registry.registerCounter(statName("store_forwards"), &storeForwards_);
    registry.registerCounter(statName("check_failures"), &checkFailures_);
    if (hardened()) {
        // Only present on the hardened path so the legacy stat set (and its
        // JSON dump) stays byte-identical.
        registry.registerCounter(statName("ds_retries"), &dsRetries_);
        registry.registerCounter(statName("ds_timeouts"), &dsTimeouts_);
        registry.registerCounter(statName("ds_fallback_stores"),
                                 &dsFallbackStores_);
        registry.registerCounter(statName("ds_fallback_loads"),
                                 &dsFallbackLoads_);
    }
    registry.registerHistogram(statName("load_latency"), &loadLatency_);
}

} // namespace dscoh
