#include "gpu/gpu_l2_slice.h"

#include <cassert>

#include "check/coherence_checker.h"
#include "coherence/transition_coverage.h"
#include <utility>

namespace dscoh {

GpuL2Slice::GpuL2Slice(std::string name, SimContext& ctx,
                       const CacheAgent::Params& agentParams,
                       const SliceParams& sliceParams)
    : CacheAgent(std::move(name), ctx, agentParams), slice_(sliceParams)
{
    assert(slice_.gpuNet && slice_.dsNet && slice_.dram);
}

void GpuL2Slice::noteDemand(Addr addr, bool exclusive)
{
    accesses_.inc();
    const bool miss = !probeHit(addr, exclusive);
    if (TxnProfiler* p = profiling())
        p->noteGpuDemand(addr, miss);
    if (miss) {
        misses_.inc();
        if (!everFilled(addr))
            compulsory_.inc();
        maybePrefetch(addr);
    }
}

void GpuL2Slice::maybePrefetch(Addr missAddr)
{
    // Sequential next-line prefetcher, striding over the lines this slice
    // owns. Pure pull-based comparison point for direct store.
    const Addr stride =
        static_cast<Addr>(params().homeMap.slicesPerGpu()) * kLineSize;
    for (std::uint32_t i = 1; i <= slice_.prefetchDepth; ++i) {
        const Addr next = lineAlign(missAddr) + i * stride;
        if (array().find(next) != nullptr)
            continue;
        prefetches_.inc();
        access(next, /*exclusive=*/false, [](Line&) {});
    }
}

void GpuL2Slice::handleGpuMessage(const Message& msg)
{
    if (TxnProfiler* p = profiling())
        p->hop(msg.prof, TxnStage::kSliceArrive, name(), curTick());
    // Charge the front-side tag latency, then serve. The message moves into
    // a pooled slot (the delivery slot we were handed is recycled as soon as
    // this handler returns), so the latency event captures one pointer.
    Message* m = context().msgPool.acquire(msg);
    queue().scheduleAfter(slice_.tagLatency, [this, m] {
        switch (m->type) {
        case MsgType::kL1Load:
            serveLoad(*m);
            break;
        case MsgType::kL1Store:
            serveStore(*m);
            break;
        default:
            assert(false && "unexpected GPU-network message at L2 slice");
        }
        context().msgPool.release(m);
    }, EventPriority::kController);
}

void GpuL2Slice::serveLoad(const Message& msg)
{
    // Timestamp fast path (multi-GPU): a read of a remotely-homed line
    // that misses locally may ride a lease instead of pulling through the
    // remote home directory.
    if (slice_.tsLeaseTicks != 0 && remoteHomed(msg.addr) &&
        !probeHit(msg.addr, /*exclusive=*/false)) {
        if (tryServeLeased(msg))
            return;
        startTsRead(msg);
        return;
    }
    serveLoadCoherent(msg);
}

void GpuL2Slice::serveLoadCoherent(const Message& msg)
{
    noteDemand(msg.addr, /*exclusive=*/false);
    noteRemoteMiss(msg.addr, /*exclusive=*/false);
    Message* m = context().msgPool.acquire(msg);
    access(msg.addr, /*exclusive=*/false, [this, m](Line& line) {
        sendLoadResp(*m, line.data);
        context().msgPool.release(m);
    });
}

void GpuL2Slice::sendLoadResp(const Message& msg, const DataBlock& data)
{
    Message resp;
    resp.type = MsgType::kL1LoadResp;
    resp.addr = msg.addr;
    resp.src = params().self;
    resp.dst = msg.src;
    resp.requester = msg.src;
    resp.data = data;
    resp.mask.set(0, kLineSize);
    resp.txn = msg.txn;
    resp.prof = msg.prof;
    if (TxnProfiler* p = profiling())
        p->hop(msg.prof, TxnStage::kSupplySend, name(), curTick());
    slice_.gpuNet->send(std::move(resp));
}

void GpuL2Slice::serveStore(const Message& msg)
{
    const Addr base = lineAlign(msg.addr);
    if (const Tick hold = holdUntil(base); hold > curTick()) {
        // A granted lease freezes the line: remote leaseholders may keep
        // serving their copy until the epoch expires, so the write waits
        // (skipped only by the injected cross-shard bug).
        tsHolds_.inc();
        noteTransition(stateOf(base), CohEvent::kLeaseHold, stateOf(base),
                       base);
        Message* m = context().msgPool.acquire(msg);
        queue().schedule(hold + 1, [this, m] {
            serveStore(*m);
            context().msgPool.release(m);
        }, EventPriority::kController);
        return;
    }
    noteDemand(msg.addr, /*exclusive=*/true);
    noteRemoteMiss(msg.addr, /*exclusive=*/true);
    Message* m = context().msgPool.acquire(msg);
    access(msg.addr, /*exclusive=*/true, [this, m](Line& line) {
        m->mask.apply(line.data, m->data);
        if (CoherenceChecker* c = checking())
            c->onStoreApplied(line.base, m->data, m->mask);
        Message ack;
        ack.type = MsgType::kL1StoreAck;
        ack.addr = m->addr;
        ack.src = params().self;
        ack.dst = m->src;
        ack.requester = m->src;
        ack.txn = m->txn;
        context().msgPool.release(m);
        slice_.gpuNet->send(std::move(ack));
    });
}

void GpuL2Slice::handleDsMessage(const Message& msg)
{
    if (TxnProfiler* p = profiling())
        p->hop(msg.prof, TxnStage::kSliceArrive, name(), curTick());
    Message* m = context().msgPool.acquire(msg);
    queue().scheduleAfter(slice_.tagLatency, [this, m] {
        switch (m->type) {
        case MsgType::kDsPutX:
            if (slice_.harden && !admitDirectStore(*m))
                break;
            serveDirectStore(*m);
            break;
        case MsgType::kUcRead:
            serveUncachedRead(*m);
            break;
        case MsgType::kTsRead:
            serveTsRead(*m);
            break;
        case MsgType::kTsData:
            handleTsData(*m);
            break;
        case MsgType::kTsNack:
            handleTsNack(*m);
            break;
        default:
            assert(false && "unexpected DS-network message at L2 slice");
        }
        context().msgPool.release(m);
    }, EventPriority::kController);
}

bool GpuL2Slice::admitDirectStore(const Message& msg)
{
    if (slice_.verifyChecksum && msg.checksum != messageChecksum(msg)) {
        // A corruption fault flipped a payload byte in flight. Reject; the
        // CPU's retransmit (or its fallback) re-delivers the real bytes.
        dsNacks_.inc();
        noteTransition(CohState::kI, CohEvent::kCorruptPush, CohState::kI,
                       msg.addr);
        Message nack;
        nack.type = MsgType::kDsNack;
        nack.addr = msg.addr;
        nack.src = params().self;
        nack.dst = msg.src;
        nack.requester = msg.src;
        nack.txn = msg.txn;
        nack.prof = msg.prof;
        slice_.dsNet->send(std::move(nack));
        return false;
    }
    if (msg.txn != 0) {
        const auto it = dsSeen_.find(msg.txn);
        if (it != dsSeen_.end()) {
            // Duplicate (wire echo or retransmit crossing the ack). Squash
            // idempotently; when the original was already served, replay
            // the ack so a retransmitting CPU can complete.
            dsDupSquashed_.inc();
            if (it->second) {
                noteTransition(CohState::kMM, CohEvent::kDupPush,
                               CohState::kMM, msg.addr);
                sendDsAck(msg);
            }
            return false;
        }
        dsSeen_.emplace(msg.txn, false);
        dsSeenOrder_.push_back(msg.txn);
        trimDsSeen();
    }
    return true;
}

void GpuL2Slice::trimDsSeen()
{
    // Bounded dedup memory: old *acked* transactions age out (the CPU has
    // stopped retransmitting them long ago); in-service entries stay.
    while (dsSeenOrder_.size() > 256) {
        const std::uint64_t oldest = dsSeenOrder_.front();
        const auto it = dsSeen_.find(oldest);
        if (it != dsSeen_.end() && !it->second)
            break;
        if (it != dsSeen_.end())
            dsSeen_.erase(it);
        dsSeenOrder_.pop_front();
    }
}

void GpuL2Slice::serveDirectStore(const Message& msg)
{
    if (tryDirectStore(msg) == Wait::kNone)
        return;
    // The same line is draining to memory; retry once it is gone so we
    // never hold two copies with different owners.
    Message* m = context().msgPool.acquire(msg);
    park(msg.addr, Wait::kOther, [this, m] {
        const Wait why = tryDirectStore(*m);
        if (why == Wait::kNone)
            context().msgPool.release(m);
        return why;
    });
}

CacheAgent::Wait GpuL2Slice::tryDirectStore(const Message& msg)
{
    if (const Tick hold = holdUntil(msg.addr); hold > curTick()) {
        // Same freeze as a local store: the push lands only after every
        // outstanding lease on the line has expired.
        tsHolds_.inc();
        noteTransition(stateOf(msg.addr), CohEvent::kLeaseHold,
                       stateOf(msg.addr), msg.addr);
        Message* m = context().msgPool.acquire(msg);
        queue().schedule(hold + 1, [this, m] {
            serveDirectStore(*m);
            context().msgPool.release(m);
        }, EventPriority::kController);
        return Wait::kNone;
    }
    const Addr base = msg.addr;
    if (inWriteback(base))
        return Wait::kOther;
    dsStores_.inc();

    Line* line = array().find(base);

    // The no-fetch install below is sound only when the pushing CPU was the
    // sole other agent that could hold the line (it self-invalidates before
    // pushing). With a sharded directory another GPU's slice may own the
    // line coherently — e.g. it upgraded via GetX and this slice was
    // invalidated — and a blind install would create a second owner. Multi-
    // GPU pushes therefore obtain ownership through the home ordering
    // point (fetch-merge), which snoops every peer slice; a line already
    // resident here takes the same path and usually upgrades in place.
    const bool sharded = params().homeMap.shards() > 1;

    if (line == nullptr && msg.mask.full() && !slice_.mergeOnly && !sharded) {
        // Fig. 3 blue transition: install the pushed full line, no fetch
        // needed. This is the payoff path of the whole paper.
        //
        // Pushes never evict valid lines, and occupy at most half the ways
        // of a set: "if the GPU L2 cache is full, the system then writes
        // data to DRAM". Displacing (or crowding out) the demand working
        // set with speculatively pushed data is how a push scheme could
        // *hurt*, and the paper reports direct store never does.
        const std::uint32_t pushed = array().countInSet(
            base, [](const Line& l) { return l.meta.dsFilled; });
        Line* way =
            pushed < array().ways() / 2 ? array().findFreeWay(base) : nullptr;
        if (way == nullptr) {
            dsBypassed_.inc();
            if (CoherenceChecker* c = checking())
                c->onStoreApplied(base, msg.data, msg.mask);
            Message* m = context().msgPool.acquire(msg);
            slice_.dram->writeMasked(base, msg.data, msg.mask, [this, m] {
                if (TxnProfiler* p = profiling())
                    p->hop(m->prof, TxnStage::kDramWrite, name(), curTick());
                sendDsAck(*m);
                context().msgPool.release(m);
            });
            return Wait::kNone;
        }
        Line& installed = array().install(*way, base);
        // The push writes through to DRAM in the background, so the line is
        // installed exclusive-clean (M): memory stays current, the eviction
        // is silent, and a later GPU store upgrades exactly like a store to
        // any other clean resident line. (Fig. 3 shows I->MM; our variant
        // write-through push makes M the faithful state — see DESIGN.md.)
        installed.meta.state = CohState::kM;
        installed.meta.dsFilled = true;
        installed.data = msg.data;
        if (CoherenceChecker* c = checking())
            c->onStoreApplied(base, msg.data, msg.mask);
        noteTransition(CohState::kI, CohEvent::kRemoteStore, CohState::kM,
                       base);
        slice_.dram->writeMasked(base, msg.data, msg.mask);
        noteFilled(base);
        dsFills_.inc();
        onFill(installed);
        if (TxnProfiler* p = profiling())
            p->hop(msg.prof, TxnStage::kInstall, name(), curTick());
        sendDsAck(msg);
        return Wait::kNone;
    }

    // Partial line, or the line is already present / in flight: obtain
    // ownership through the protocol (fetch-merge), then overlay the pushed
    // bytes. The line ends MM either way.
    dsMerges_.inc();
    Message* m = context().msgPool.acquire(msg);
    access(base, /*exclusive=*/true, [this, m](Line& owned) {
        m->mask.apply(owned.data, m->data);
        const CohState prev = owned.meta.state;
        owned.meta.state = CohState::kMM;
        owned.meta.dsFilled = true;
        if (CoherenceChecker* c = checking())
            c->onStoreApplied(owned.base, m->data, m->mask);
        noteTransition(prev, CohEvent::kRemoteStore, CohState::kMM,
                       owned.base);
        dsFills_.inc();
        if (TxnProfiler* p = profiling())
            p->hop(m->prof, TxnStage::kMerge, name(), curTick());
        sendDsAck(*m);
        context().msgPool.release(m);
    });
    return Wait::kNone;
}

void GpuL2Slice::sendDsAck(const Message& msg)
{
    if (slice_.harden && msg.txn != 0) {
        const auto it = dsSeen_.find(msg.txn);
        if (it != dsSeen_.end())
            it->second = true;
    }
    Message ack;
    ack.type = MsgType::kDsAck;
    ack.addr = msg.addr;
    ack.src = params().self;
    ack.dst = msg.src;
    ack.requester = msg.src;
    ack.txn = msg.txn;
    ack.prof = msg.prof;
    if (TxnProfiler* p = profiling())
        p->hop(msg.prof, TxnStage::kAckSend, name(), curTick());
    slice_.dsNet->send(std::move(ack));
}

void GpuL2Slice::serveUncachedRead(const Message& msg)
{
    ucReads_.inc();
    Message* m = context().msgPool.acquire(msg);
    access(msg.addr, /*exclusive=*/false, [this, m](Line& line) {
        Message resp;
        resp.type = MsgType::kUcData;
        resp.addr = m->addr;
        resp.src = params().self;
        resp.dst = m->src;
        resp.requester = m->src;
        resp.data = line.data;
        resp.mask.set(0, kLineSize);
        resp.txn = m->txn;
        resp.prof = m->prof;
        if (TxnProfiler* p = profiling())
            p->hop(m->prof, TxnStage::kSupplySend, name(), curTick());
        context().msgPool.release(m);
        slice_.dsNet->send(std::move(resp));
    });
}

bool GpuL2Slice::remoteHomed(Addr addr) const
{
    return params().homeMap.homeOf(addr) != slice_.myGpu;
}

Tick GpuL2Slice::holdUntil(Addr base) const
{
    if (params().injectBug == InjectedBug::kCrossShardOrder)
        return 0;
    const auto it = tsGranted_.find(base);
    return it == tsGranted_.end() ? 0 : it->second;
}

void GpuL2Slice::pruneExpiredGrants()
{
    for (auto it = tsGranted_.begin(); it != tsGranted_.end();) {
        if (it->second <= curTick())
            it = tsGranted_.erase(it);
        else
            ++it;
    }
}

bool GpuL2Slice::tryServeLeased(const Message& msg)
{
    const Addr base = lineAlign(msg.addr);
    const auto it = tsLeased_.find(base);
    if (it == tsLeased_.end())
        return false;
    if (curTick() >= it->second.expiry) {
        // Lazy self-invalidation at epoch expiry: no invalidation traffic
        // ever reaches a leaseholder, it just stops believing the copy.
        tsExpired_.inc();
        noteTransition(CohState::kI, CohEvent::kTsExpire, CohState::kI,
                       base);
        tsLeased_.erase(it);
        return false;
    }
    accesses_.inc();
    tsHits_.inc();
    if (CoherenceChecker* c = checking())
        c->onLeaseServe(name(), base, it->second.data, it->second.expiry,
                        curTick());
    sendLoadResp(msg, it->second.data);
    return true;
}

void GpuL2Slice::startTsRead(const Message& msg)
{
    const Addr base = lineAlign(msg.addr);
    auto& waiting = tsWaiting_[base];
    waiting.push_back(msg);
    if (waiting.size() > 1)
        return; // a kTsRead for this line is already in flight
    tsReads_.inc();
    Message req;
    req.type = MsgType::kTsRead;
    req.addr = base;
    req.src = params().self;
    req.dst = params().homeMap.homeSlice(base);
    req.requester = params().self;
    slice_.dsNet->send(std::move(req));
}

void GpuL2Slice::serveTsRead(const Message& msg)
{
    const Addr base = msg.addr;
    pruneExpiredGrants();
    const Line* line = array().find(base);
    const bool canLease = line != nullptr && isStable(line->meta.state) &&
                          isOwner(line->meta.state) && !inWriteback(base);
    if (!canLease) {
        tsNacksSent_.inc();
        Message nack;
        nack.type = MsgType::kTsNack;
        nack.addr = base;
        nack.src = params().self;
        nack.dst = msg.src;
        nack.requester = msg.src;
        slice_.dsNet->send(std::move(nack));
        return;
    }
    // A lease never extends: while one is active, later readers share its
    // expiry, so a popular line cannot freeze the home slice indefinitely.
    Tick expiry;
    const auto it = tsGranted_.find(base);
    if (it != tsGranted_.end() && it->second > curTick()) {
        expiry = it->second;
    } else {
        expiry = curTick() + slice_.tsLeaseTicks;
        tsGranted_[base] = expiry;
    }
    tsGrants_.inc();
    noteTransition(line->meta.state, CohEvent::kTsGrant, line->meta.state,
                   base);
    if (CoherenceChecker* c = checking())
        c->onLeaseGrant(name(), base, expiry, curTick());
    Message resp;
    resp.type = MsgType::kTsData;
    resp.addr = base;
    resp.src = params().self;
    resp.dst = msg.src;
    resp.requester = msg.src;
    resp.data = line->data;
    resp.mask.set(0, kLineSize);
    resp.txn = expiry; // the lease expiry rides in the txn field
    slice_.dsNet->send(std::move(resp));
}

void GpuL2Slice::handleTsData(const Message& msg)
{
    const Addr base = msg.addr;
    const Tick expiry = msg.txn;
    std::vector<Message> waiting = std::move(tsWaiting_[base]);
    tsWaiting_.erase(base);
    if (curTick() >= expiry) {
        // The grant expired in flight; its data may already be stale.
        tsExpired_.inc();
        noteTransition(CohState::kI, CohEvent::kTsExpire, CohState::kI,
                       base);
        for (const Message& w : waiting)
            serveLoadCoherent(w);
        return;
    }
    tsFills_.inc();
    noteTransition(CohState::kI, CohEvent::kTsFill, CohState::kI, base);
    LeasedLine& lease = tsLeased_[base];
    lease.data = msg.data;
    lease.expiry = expiry;
    for (const Message& w : waiting) {
        accesses_.inc();
        misses_.inc();
        tsHits_.inc();
        if (CoherenceChecker* c = checking())
            c->onLeaseServe(name(), base, lease.data, lease.expiry,
                            curTick());
        sendLoadResp(w, lease.data);
    }
}

void GpuL2Slice::handleTsNack(const Message& msg)
{
    const Addr base = msg.addr;
    tsFallbacks_.inc();
    noteTransition(CohState::kI, CohEvent::kTsFallback, CohState::kI, base);
    std::vector<Message> waiting = std::move(tsWaiting_[base]);
    tsWaiting_.erase(base);
    for (const Message& w : waiting)
        serveLoadCoherent(w);
}

void GpuL2Slice::noteRemoteMiss(Addr addr, bool exclusive)
{
    if (params().homeMap.shards() <= 1 || !remoteHomed(addr))
        return;
    if (stateOf(addr) != CohState::kI || inWriteback(addr))
        return;
    noteTransition(CohState::kI,
                   exclusive ? CohEvent::kRemoteGetX : CohEvent::kRemoteGetS,
                   exclusive ? CohState::kIM_D : CohState::kIS_D,
                   lineAlign(addr));
}

void GpuL2Slice::onFill(Line& line)
{
    static_cast<void>(line);
}

void GpuL2Slice::regStats(StatRegistry& registry)
{
    CacheAgent::regStats(registry);
    registry.registerCounter(statName("demand_accesses"), &accesses_);
    registry.registerCounter(statName("demand_misses"), &misses_);
    registry.registerCounter(statName("compulsory_misses"), &compulsory_);
    registry.registerCounter(statName("ds_stores"), &dsStores_);
    registry.registerCounter(statName("ds_fills"), &dsFills_);
    registry.registerCounter(statName("ds_bypassed"), &dsBypassed_);
    registry.registerCounter(statName("ds_merges"), &dsMerges_);
    registry.registerCounter(statName("uc_reads"), &ucReads_);
    registry.registerCounter(statName("prefetches"), &prefetches_);
    if (slice_.harden) {
        registry.registerCounter(statName("ds_duplicates_squashed"),
                                 &dsDupSquashed_);
        registry.registerCounter(statName("ds_nacks"), &dsNacks_);
    }
    if (slice_.tsLeaseTicks != 0) {
        registry.registerCounter(statName("ts_reads"), &tsReads_);
        registry.registerCounter(statName("ts_fills"), &tsFills_);
        registry.registerCounter(statName("ts_lease_hits"), &tsHits_);
        registry.registerCounter(statName("ts_grants"), &tsGrants_);
        registry.registerCounter(statName("ts_nacks"), &tsNacksSent_);
        registry.registerCounter(statName("ts_expired"), &tsExpired_);
        registry.registerCounter(statName("ts_fallbacks"), &tsFallbacks_);
        registry.registerCounter(statName("ts_lease_holds"), &tsHolds_);
    }
}

} // namespace dscoh
