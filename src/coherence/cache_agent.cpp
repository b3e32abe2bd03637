#include "coherence/cache_agent.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "check/coherence_checker.h"
#include "coherence/transition_coverage.h"

namespace dscoh {

const char* to_string(CohState s)
{
    switch (s) {
    case CohState::kI: return "I";
    case CohState::kS: return "S";
    case CohState::kO: return "O";
    case CohState::kM: return "M";
    case CohState::kMM: return "MM";
    case CohState::kIS_D: return "IS_D";
    case CohState::kIM_D: return "IM_D";
    case CohState::kSM_D: return "SM_D";
    case CohState::kMI_A: return "MI_A";
    case CohState::kOI_A: return "OI_A";
    case CohState::kII_A: return "II_A";
    }
    return "?";
}

const char* to_string(InjectedBug b)
{
    switch (b) {
    case InjectedBug::kNone: return "none";
    case InjectedBug::kSkipRemoteStoreInval: return "skip-remote-store-inval";
    case InjectedBug::kSkipSnoopInvalidate: return "skip-snoop-inval";
    case InjectedBug::kDropWbAck: return "drop-wback";
    case InjectedBug::kCrossShardOrder: return "cross-shard-order";
    }
    return "?";
}

CacheAgent::CacheAgent(std::string name, SimContext& ctx, const Params& params)
    : SimObject(std::move(name), ctx), params_(params),
      array_(params.geometry), mshr_(params.mshrs)
{
    assert(params_.requestNet && params_.forwardNet && params_.responseNet);
}

void CacheAgent::noteTransition(CohState from, CohEvent event, CohState to,
                                Addr base)
{
    if (TransitionCoverage* cov = context().coverage)
        cov->record(from, event, to);
    if (TraceSession* t = tracing(TraceCat::kCoherence))
        t->transition(name(), to_string(event), to_string(from), to_string(to),
                      curTick(), base);
    if (CoherenceChecker* c = checking())
        c->onTransition(base, event, curTick());
}

void CacheAgent::moveTo(Line& line, CohEvent event, CohState to)
{
    const CohState from = line.meta.state;
    const Addr base = line.base;
    if (canRead(from) && !canRead(to))
        onInvalidate(base);
    if (to == CohState::kI)
        array_.invalidate(line);
    else
        line.meta.state = to;
    noteTransition(from, event, to, base);
}

void CacheAgent::moveToWriteback(Line& line, CohEvent event)
{
    const CohState from = line.meta.state;
    const Addr base = line.base;
    assert(needsWriteback(from));
    assert(!inWriteback(base) && !writebackBufferFull());
    const CohState buffered =
        from == CohState::kMM ? CohState::kMI_A : CohState::kOI_A;
    const DataBlock& data =
        wbb_.emplace(base, WbEntry{buffered, line.data}).first->second.data;
    onInvalidate(base);
    array_.invalidate(line);
    // Fig. 3's edge: an eviction enters the buffer's transient, a remote
    // store leaves the CPU in I.
    noteTransition(from, event,
                   event == CohEvent::kEvict ? buffered : CohState::kI, base);
    writebacks_.inc();

    Message msg;
    msg.type = MsgType::kPut;
    msg.addr = base;
    msg.src = params_.self;
    msg.dst = homeFor(base);
    msg.requester = params_.self;
    msg.data = data;
    msg.mask.set(0, kLineSize);
    msg.dirty = true;
    msg.txn = nextTxn_++;
    if (TxnProfiler* p = profiling())
        msg.prof = p->begin(TxnKind::kWriteback, base, name(), curTick());
    params_.requestNet->send(std::move(msg));
}

void CacheAgent::moveWriteback(Addr base, CohEvent event, CohState to)
{
    const auto it = wbb_.find(base);
    assert(it != wbb_.end() && "no writeback to move");
    const CohState from = it->second.state;
    if (to == CohState::kI)
        wbb_.erase(it);
    else
        it->second.state = to;
    noteTransition(from, event, to, base);
}

bool CacheAgent::probeHit(Addr addr, bool exclusive) const
{
    const Line* line = array_.find(addr);
    return line != nullptr && satisfies(line->meta.state, exclusive);
}

void CacheAgent::access(Addr addr, bool exclusive, AccessDone done)
{
    const Addr base = lineAlign(addr);
    if (const Wait why = tryAccess(base, exclusive, done); why != Wait::kNone)
        park(base, why, [this, base, exclusive, d = std::move(done)]() mutable {
            return tryAccess(base, exclusive, d);
        });
}

CacheAgent::Wait CacheAgent::tryAccess(Addr base, bool exclusive,
                                       AccessDone& done)
{
    // Merge into an outstanding transaction for this line.
    if (auto* entry = mshr_.find(base)) {
        entry->targets.push_back({exclusive, std::move(done)});
        return Wait::kNone;
    }

    // The line is draining through the writeback buffer: wait for the WbAck
    // rather than creating a second copy.
    if (inWriteback(base))
        return Wait::kOther;

    Line* line = array_.find(base);
    if (line != nullptr && satisfies(line->meta.state, exclusive)) {
        noteTransition(line->meta.state,
                       exclusive ? CohEvent::kStore : CohEvent::kLoad,
                       line->meta.state, base);
        array_.touch(base);
        done(*line);
        return Wait::kNone;
    }

    // A transient line without an MSHR entry is impossible: every transient
    // array state is created together with its entry.
    assert(line == nullptr || isStable(line->meta.state));

    if (mshr_.full())
        return Wait::kMshrFull;
    return startTransaction(line, base, exclusive, done);
}

CacheAgent::Wait CacheAgent::startTransaction(Line* existing, Addr base,
                                              bool exclusive, AccessDone& done)
{
    if (existing != nullptr) {
        // Upgrade from S/M/O (stores are not allowed in M, per the paper, so
        // M also upgrades through GetX). Data stays readable while SM_D.
        assert(exclusive && canRead(existing->meta.state));
        moveTo(*existing, CohEvent::kStore, CohState::kSM_D);
        upgrades_.inc();
        allocateMshr(base, exclusive, done);
        getxIssued_.inc();
        std::uint64_t prof = 0;
        if (TxnProfiler* p = profiling())
            prof = p->begin(TxnKind::kUpgrade, base, name(), curTick());
        sendToHome(MsgType::kGetX, base, /*ownerFlag=*/false, prof);
        return Wait::kNone;
    }

    Line* way = makeRoom(base);
    if (way == nullptr)
        return Wait::kOther; // every way in the set is pinned
    moveTo(array_.install(*way, base),
           exclusive ? CohEvent::kStore : CohEvent::kLoad,
           exclusive ? CohState::kIM_D : CohState::kIS_D);
    allocateMshr(base, exclusive, done);
    std::uint64_t prof = 0;
    if (TxnProfiler* p = profiling())
        prof = p->begin(exclusive ? TxnKind::kGetX : TxnKind::kGetS, base,
                        name(), curTick());
    if (exclusive) {
        getxIssued_.inc();
        sendToHome(MsgType::kGetX, base, /*ownerFlag=*/false, prof);
    } else {
        getsIssued_.inc();
        sendToHome(MsgType::kGetS, base, /*ownerFlag=*/false, prof);
    }
    return Wait::kNone;
}

void CacheAgent::allocateMshr(Addr base, bool exclusive, AccessDone& done)
{
    if (CoherenceChecker* c = checking())
        c->onMshrAllocate(name(), base, curTick());
    auto& entry = mshr_.allocate(base);
    entry.allocatedAt = curTick();
    entry.targets.push_back({exclusive, std::move(done)});
    // Requests parked on this line can merge now.
    wake(base);
}

CacheAgent::Line* CacheAgent::makeRoom(Addr addr)
{
    if (Line* free = array_.findFreeWay(addr))
        return free;

    const bool wbbFull = writebackBufferFull();
    Line* victim = array_.selectVictim(addr, [this, wbbFull](const Line& l) {
        if (!isStable(l.meta.state))
            return false;
        // A line under a granted timestamp lease is pinned: evicting it
        // would let another agent take ownership and write while remote
        // leaseholders still read the old epoch's data.
        if (holdUntil(l.base) > curTick())
            return false;
        // A dirty victim needs a writeback-buffer slot and must not collide
        // with a line already draining.
        if (needsWriteback(l.meta.state) && (wbbFull || inWriteback(l.base)))
            return false;
        return true;
    });
    if (victim == nullptr)
        return nullptr;

    if (needsWriteback(victim->meta.state))
        moveToWriteback(*victim, CohEvent::kEvict);
    else
        moveTo(*victim, CohEvent::kEvict, CohState::kI);
    return victim;
}

void CacheAgent::sendToHome(MsgType type, Addr base, bool ownerFlag,
                            std::uint64_t prof)
{
    Message msg;
    msg.type = type;
    msg.addr = base;
    msg.src = params_.self;
    msg.dst = homeFor(base);
    msg.requester = params_.self;
    // For kUnblock, `exclusive` carries "requester ended the transaction as
    // the line's owner (MM)" so home can maintain its owner registry.
    msg.exclusive = ownerFlag;
    msg.txn = nextTxn_++;
    msg.prof = prof;
    params_.requestNet->send(std::move(msg));
}

void CacheAgent::sendDataTo(NodeId dst, Addr base, const DataBlock& data,
                            bool dirty, bool exclusive, std::uint64_t txn,
                            std::uint64_t prof)
{
    Message msg;
    msg.type = MsgType::kData;
    msg.addr = base;
    msg.src = params_.self;
    msg.dst = dst;
    msg.requester = dst;
    msg.data = data;
    msg.mask.set(0, kLineSize);
    msg.dirty = dirty;
    msg.exclusive = exclusive;
    msg.txn = txn;
    msg.prof = prof;
    dataSupplied_.inc();
    if (params_.dataSupplyLatency == 0 && params_.dataSupplyInterval == 0) {
        if (TxnProfiler* p = profiling())
            p->hop(prof, TxnStage::kSupplySend, name(), curTick());
        params_.responseNet->send(std::move(msg));
        return;
    }
    // Reading the line out of the hierarchy takes time and uses a single
    // read port; the requester sees it as the slow cache-to-cache leg of a
    // pull, and concurrent pulls serialize behind each other.
    const Tick start = std::max(curTick(), supplyPortFreeAt_);
    supplyPortFreeAt_ = start + params_.dataSupplyInterval;
    Message* slot = context().msgPool.acquire(msg);
    queue().schedule(start + params_.dataSupplyLatency,
                     [this, slot] {
                         if (TxnProfiler* p = profiling())
                             p->hop(slot->prof, TxnStage::kSupplySend,
                                    name(), curTick());
                         params_.responseNet->send(std::move(*slot));
                         context().msgPool.release(slot);
                     },
                     EventPriority::kController);
}

void CacheAgent::handleForward(const Message& msg)
{
    switch (msg.type) {
    case MsgType::kSnpGetS:
    case MsgType::kSnpGetX:
        // A granted timestamp lease freezes the line: the snoop (and with
        // it the competing writer) waits out the epoch so every remote
        // leaseholder reads consistent data until its own expiry. Re-checks
        // on arrival in case the line was re-leased meanwhile; grants never
        // extend an active lease, so the wait is bounded.
        if (const Tick hold = holdUntil(msg.addr); hold > curTick()) {
            Message* m = context().msgPool.acquire(msg);
            queue().schedule(hold + 1,
                             [this, m] {
                                 handleForward(*m);
                                 context().msgPool.release(m);
                             },
                             EventPriority::kController);
            break;
        }
        if (params_.snoopTagLatency == 0) {
            handleSnoop(msg);
        } else {
            Message* m = context().msgPool.acquire(msg);
            queue().scheduleAfter(params_.snoopTagLatency,
                                  [this, m] {
                                      handleSnoop(*m);
                                      context().msgPool.release(m);
                                  },
                                  EventPriority::kController);
        }
        break;
    case MsgType::kWbAck: {
        if (params_.injectBug == InjectedBug::kDropWbAck)
            break; // deliberate bug: the writeback entry wedges forever
        moveWriteback(msg.addr, CohEvent::kWbAck, CohState::kI);
        if (TxnProfiler* p = profiling()) {
            p->hop(msg.prof, TxnStage::kAckArrive, name(), curTick());
            p->end(msg.prof, curTick());
        }
        replayBlocked();
        break;
    }
    default:
        assert(false && "unexpected forward message");
    }
}

void CacheAgent::handleSnoop(const Message& msg)
{
    snoops_.inc();
    const Addr base = msg.addr;
    const bool wantsExclusive = msg.type == MsgType::kSnpGetX;
    if (TxnProfiler* p = profiling())
        p->hop(msg.prof, TxnStage::kSnpArrive, name(), curTick());

    bool suppliedData = false;
    bool wasSharer = false;

    if (const auto it = wbb_.find(base); it != wbb_.end()) {
        // The line is draining. Until the WbAck arrives we still act as its
        // owner (unless a previous snoop already took it away: II_A).
        WbEntry& entry = it->second;
        if (entry.state != CohState::kII_A) {
            sendDataTo(msg.requester, base, entry.data, /*dirty=*/true,
                       wantsExclusive, msg.txn, msg.prof);
            suppliedData = true;
            wasSharer = true;
            if (wantsExclusive)
                moveWriteback(base, CohEvent::kSnpGetX, CohState::kII_A);
        }
    } else if (Line* line = array_.find(base)) {
        switch (line->meta.state) {
        case CohState::kMM:
        case CohState::kM:
        case CohState::kO:
            sendDataTo(msg.requester, base, line->data,
                       /*dirty=*/line->meta.state != CohState::kM,
                       wantsExclusive, msg.txn, msg.prof);
            suppliedData = true;
            wasSharer = true;
            if (wantsExclusive) {
                if (params_.injectBug == InjectedBug::kSkipSnoopInvalidate)
                    break; // deliberate bug: keep a second "exclusive" copy
                moveTo(*line, CohEvent::kSnpGetX, CohState::kI);
            } else {
                moveTo(*line, CohEvent::kSnpGetS, CohState::kO);
            }
            break;
        case CohState::kS:
            wasSharer = true;
            if (wantsExclusive)
                moveTo(*line, CohEvent::kSnpGetX, CohState::kI);
            break;
        case CohState::kSM_D:
            // Our upgrade lost the race: the competing GetX invalidates our
            // S copy and our transaction degrades to a full miss.
            wasSharer = true;
            if (wantsExclusive)
                moveTo(*line, CohEvent::kSnpGetX, CohState::kIM_D);
            break;
        case CohState::kIS_D:
        case CohState::kIM_D:
            // Our own request is ordered after this transaction; we hold
            // nothing yet.
            break;
        default:
            assert(false && "stable I lines are not kept in the array");
        }
    }

    Message resp;
    resp.type = MsgType::kSnpResp;
    resp.addr = base;
    resp.src = params_.self;
    resp.dst = homeFor(base);
    resp.requester = msg.requester;
    resp.suppliedData = suppliedData;
    resp.wasSharer = wasSharer;
    resp.txn = msg.txn;
    resp.prof = msg.prof;
    params_.responseNet->send(std::move(resp));
}

void CacheAgent::handleResponse(const Message& msg)
{
    assert(msg.type == MsgType::kData);
    handleData(msg);
}

void CacheAgent::handleData(const Message& msg)
{
    Line* line = array_.find(msg.addr);
    // A correct protocol delivers exactly one data response per
    // transaction. An injected bug can break that — e.g. skipped snoop
    // invalidations leave two stale "owners" in a multi-GPU system and a
    // broadcast snoop makes both supply — so a second kData can land after
    // the fill already released the MSHR. Drop strays instead of tripping
    // over the missing bookkeeping: the oracle reports the underlying
    // single-writer violation.
    if (line == nullptr || mshr_.find(msg.addr) == nullptr)
        return;
    const CohState prev = line->meta.state;
    if (prev != CohState::kIS_D && prev != CohState::kIM_D &&
        prev != CohState::kSM_D)
        return;

    // An upgrade (SM_D) kept its copy — possibly the only up-to-date one
    // when it started from M/MM/O, in which case the response carries a
    // stale memory image. Only a true miss (IS_D/IM_D) takes the data; a
    // raced-out upgrade was already degraded to IM_D by the snoop.
    if (prev != CohState::kSM_D)
        line->data = msg.data;
    CohState next;
    if (prev == CohState::kIS_D)
        next = msg.exclusive ? CohState::kM : CohState::kS;
    else
        next = CohState::kMM;
    line->meta.dsFilled = false;
    moveTo(*line, CohEvent::kFill, next);
    fills_.inc();
    noteFilled(msg.addr);
    onFill(*line);
    if (TxnProfiler* p = profiling()) {
        p->hop(msg.prof, TxnStage::kDataArrive, name(), curTick());
        p->end(msg.prof, curTick());
    }

    sendToHome(MsgType::kUnblock, msg.addr,
               /*ownerFlag=*/next == CohState::kMM);

    if (TraceSession* t = tracing(TraceCat::kMshr)) {
        if (const auto* entry = mshr_.find(msg.addr))
            t->span(TraceCat::kMshr, name(), "mshr", entry->allocatedAt,
                    curTick(), msg.addr);
    }

    // Serve the merged requests. Targets the fill does not satisfy (a store
    // merged into a GetS) restart as fresh accesses (upgrade).
    if (CoherenceChecker* c = checking())
        c->onMshrRelease(name(), msg.addr, curTick());
    auto targets = mshr_.release(msg.addr);
    for (auto& target : targets) {
        if (satisfies(line->meta.state, target.exclusive)) {
            target.done(*line);
        } else {
            access(msg.addr, target.exclusive, std::move(target.done));
            // The restart may have changed `line`'s state (SM_D) but not its
            // storage location; later targets re-check via satisfies().
        }
    }

    replayBlocked();
}

void CacheAgent::noteFilled(Addr addr)
{
    everFilled_.insert(lineNumber(addr));
    // A request parked on the line may hit it now.
    wake(lineAlign(addr));
}

void CacheAgent::park(Addr base, Wait why, ParkedRetry retry)
{
    assert(why != Wait::kNone);
    deferrals_.inc();
    const std::uint64_t seq = nextPark_++;
    if (retrying_)
        parkedByRetry_.emplace_back(seq, *retrying_);
    parked_.emplace(seq, Parked{base, std::move(retry)});
    enlist(seq, base, why);
}

void CacheAgent::enlist(std::uint64_t seq, Addr base, Wait why)
{
    if (why == Wait::kMshrFull)
        mshrWaiters_[base].push_back(seq);
    else
        due_.insert(seq);
}

void CacheAgent::wake(Addr base)
{
    const auto it = mshrWaiters_.find(base);
    if (it == mshrWaiters_.end())
        return;
    due_.insert(it->second.begin(), it->second.end());
    mshrWaiters_.erase(it);
}

void CacheAgent::replayBlocked()
{
    assert(!retrying_ && "replay points never nest");
    // Requests parked during this walk wait for the next replay point.
    const std::uint64_t end = nextPark_;
    for (std::uint64_t from = 0;;) {
        // With a free MSHR slot any parked request may proceed; with the
        // file full only the due ones can.
        auto it = parked_.end();
        if (!mshr_.full())
            it = parked_.lower_bound(from);
        else if (const auto d = due_.lower_bound(from); d != due_.end())
            it = parked_.find(*d);
        if (it == parked_.end() || it->first >= end)
            break;
        from = it->first + 1;
        retryParked(it);
    }
    if (!parkedByRetry_.empty())
        renumberParked();
}

void CacheAgent::retryParked(ParkedMap::iterator it)
{
    const std::uint64_t seq = it->first;
    Parked& p = it->second;
    // Out of both lists while it runs; its new reason files it again.
    if (due_.erase(seq) == 0) {
        auto& waiters = mshrWaiters_.at(p.base);
        waiters.erase(std::find(waiters.begin(), waiters.end(), seq));
        if (waiters.empty())
            mshrWaiters_.erase(p.base);
    }
    retrying_ = seq;
    const Wait why = p.retry();
    retrying_.reset();
    if (why == Wait::kNone)
        parked_.erase(it);
    else
        enlist(seq, p.base, why);
}

void CacheAgent::renumberParked()
{
    const std::unordered_map<std::uint64_t, std::uint64_t> parkedBy(
        parkedByRetry_.begin(), parkedByRetry_.end());
    parkedByRetry_.clear();
    // Sort by (position, key): a request parked by another request's retry
    // takes that request's position, after it.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> order;
    order.reserve(parked_.size());
    for (const auto& entry : parked_) {
        const auto by = parkedBy.find(entry.first);
        order.emplace_back(by == parkedBy.end() ? entry.first : by->second,
                           entry.first);
    }
    std::sort(order.begin(), order.end());

    std::unordered_map<std::uint64_t, std::uint64_t> renamed;
    ParkedMap parked;
    nextPark_ = 0;
    for (const auto& [position, seq] : order) {
        auto node = parked_.extract(seq);
        node.key() = nextPark_++;
        renamed.emplace(seq, node.key());
        parked.insert(std::move(node));
    }
    parked_.swap(parked);
    std::set<std::uint64_t> due;
    for (const std::uint64_t seq : due_)
        due.insert(renamed.at(seq));
    due_.swap(due);
    for (auto& entry : mshrWaiters_)
        for (std::uint64_t& seq : entry.second)
            seq = renamed.at(seq);
}

CohState CacheAgent::stateOf(Addr addr) const
{
    if (const auto it = wbb_.find(lineAlign(addr)); it != wbb_.end())
        return it->second.state;
    const Line* line = array_.find(addr);
    return line == nullptr ? CohState::kI : line->meta.state;
}

const DataBlock* CacheAgent::peekLine(Addr addr) const
{
    if (const Line* line = array_.find(addr))
        return &line->data;
    if (const auto it = wbb_.find(lineAlign(addr)); it != wbb_.end())
        return &it->second.data;
    return nullptr;
}

void CacheAgent::regStats(StatRegistry& registry)
{
    registry.registerCounter(statName("gets_issued"), &getsIssued_);
    registry.registerCounter(statName("getx_issued"), &getxIssued_);
    registry.registerCounter(statName("upgrades"), &upgrades_);
    registry.registerCounter(statName("fills"), &fills_);
    registry.registerCounter(statName("writebacks"), &writebacks_);
    registry.registerCounter(statName("snoops"), &snoops_);
    registry.registerCounter(statName("data_supplied"), &dataSupplied_);
    registry.registerCounter(statName("deferrals"), &deferrals_);
}

} // namespace dscoh
