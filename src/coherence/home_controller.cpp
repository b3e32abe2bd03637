#include "coherence/home_controller.h"

#include <cassert>
#include <utility>

#include "check/coherence_checker.h"

namespace dscoh {

HomeController::HomeController(std::string name, SimContext& ctx, Params params)
    : SimObject(std::move(name), ctx), params_(std::move(params))
{
    assert(params_.requestNet && params_.forwardNet && params_.responseNet);
    assert(params_.dram && params_.store);
}

void HomeController::handleRequest(const Message& msg)
{
    if (params_.homeMap.homeOf(msg.addr) != params_.shardId) {
        if (CoherenceChecker* c = checking())
            c->reportExternal(name(),
                              "request " + std::string(to_string(msg.type)) +
                                  " for a line this shard does not order "
                                  "(shard " + std::to_string(params_.shardId) +
                                  ")",
                              curTick());
    }
    LineState& ls = line(msg.addr);

    if (msg.type == MsgType::kUnblock) {
        assert(ls.busy && "unblock without an active transaction");
        assert(msg.src == ls.req.src && "unblock from a non-requester");
        ls.unblockReceived = true;
        // `exclusive` on an Unblock means "I am now the owner (MM)".
        if (msg.exclusive)
            ls.owner = msg.src;
        maybeComplete(msg.addr, ls);
        return;
    }

    if (TxnProfiler* p = profiling())
        p->hop(msg.prof, TxnStage::kHomeArrive, name(), curTick());

    if (ls.busy) {
        queued_.inc();
        ls.pending.push_back(msg);
        return;
    }
    process(msg, ls);
}

void HomeController::process(const Message& msg, LineState& ls)
{
    if (TxnProfiler* p = profiling())
        p->hop(msg.prof, TxnStage::kHomeStart, name(), curTick());
    switch (msg.type) {
    case MsgType::kGetS:
    case MsgType::kGetX:
        startTransaction(msg, ls);
        break;
    case MsgType::kPut:
        processPut(msg, ls);
        break;
    default:
        assert(false && "unexpected request type");
    }
}

template <typename F>
void HomeController::forEachSnoopTarget(const Message& msg,
                                        const LineState& ls, F&& send) const
{
    if (!params_.directoryMode) {
        // Hammer: broadcast to every cache that may hold the line.
        if (!params_.noSnoop)
            params_.homeMap.forEachHolder(msg.addr, [&](NodeId peer) {
                if (peer != msg.src)
                    send(peer);
            });
        return;
    }
    // Directory: only believed holders. GetS needs just the owner (sharers
    // keep their copies); GetX must reach the owner and every sharer.
    if (ls.owner != kInvalidNode && ls.owner != msg.src)
        send(ls.owner);
    if (msg.type == MsgType::kGetX) {
        for (const NodeId sharer : ls.sharers)
            if (sharer != msg.src && sharer != ls.owner)
                send(sharer);
    }
}

void HomeController::issueMemRead(Addr addr, LineState& ls)
{
    ls.memReadIssued = true;
    if (TxnProfiler* p = profiling())
        p->hop(ls.req.prof, TxnStage::kDramIssue, name(), curTick());
    params_.dram->read(addr, [this, addr, txn = ls.activeTxn] {
        onMemData(addr, txn);
    });
}

void HomeController::startTransaction(const Message& msg, LineState& ls)
{
    transactions_.inc();
    ls.busy = true;
    ls.req = msg;
    ls.activeTxn = txnSeq_++;
    ls.snpOutstanding = 0;
    ls.anySharer = false;
    ls.dataSupplied = false;
    ls.memDataReady = false;
    ls.memReadIssued = false;
    ls.responded = false;
    ls.unblockReceived = false;

    forEachSnoopTarget(msg, ls, [&](NodeId peer) {
        Message snp;
        snp.type = msg.type == MsgType::kGetS ? MsgType::kSnpGetS
                                              : MsgType::kSnpGetX;
        snp.addr = msg.addr;
        snp.src = params_.self;
        snp.dst = peer;
        snp.requester = msg.src;
        snp.txn = msg.txn;
        snp.prof = msg.prof;
        params_.forwardNet->send(std::move(snp));
        snoopsSent_.inc();
        ++ls.snpOutstanding;
    });
    if (ls.snpOutstanding > 0) {
        if (TxnProfiler* p = profiling())
            p->hop(msg.prof, TxnStage::kSnpSend, name(), curTick());
    }

    // Hammer reads DRAM speculatively in parallel with the snoops. The
    // directory reads it up front only when no owner should supply (a
    // stale-owner miss falls back in handleResponse/maybeRespond).
    if (!params_.directoryMode || ls.owner == kInvalidNode ||
        ls.owner == msg.src)
        issueMemRead(msg.addr, ls);

    maybeRespond(msg.addr, ls);
}

void HomeController::handleResponse(const Message& msg)
{
    assert(msg.type == MsgType::kSnpResp);
    LineState& ls = line(msg.addr);
    assert(ls.busy && ls.snpOutstanding > 0);
    if (TxnProfiler* p = profiling())
        p->hop(msg.prof, TxnStage::kSnpRespArrive, name(), curTick());
    --ls.snpOutstanding;
    ls.anySharer = ls.anySharer || msg.wasSharer;
    ls.dataSupplied = ls.dataSupplied || msg.suppliedData;
    maybeRespond(msg.addr, ls);
    maybeComplete(msg.addr, ls);
}

void HomeController::onMemData(Addr addr, std::uint64_t txn)
{
    LineState& ls = line(addr);
    if (!ls.busy || ls.activeTxn != txn)
        return; // transaction already finished off cache-supplied data
    ls.memDataReady = true;
    if (TxnProfiler* p = profiling())
        p->hop(ls.req.prof, TxnStage::kDramDone, name(), curTick());
    maybeRespond(addr, ls);
}

void HomeController::maybeRespond(Addr addr, LineState& ls)
{
    // Memory responds only when every snoop reported back, none of them
    // supplied data, and the DRAM read finished.
    if (ls.responded || ls.dataSupplied || ls.snpOutstanding > 0)
        return;
    if (!ls.memDataReady) {
        // Directory mode skipped the speculative read expecting the owner
        // to supply; a stale entry (silent M drop) means nobody did.
        if (!ls.memReadIssued)
            issueMemRead(addr, ls);
        return;
    }
    ls.responded = true;

    Message data;
    data.type = MsgType::kData;
    data.addr = addr;
    data.src = params_.self;
    data.dst = ls.req.src;
    data.requester = ls.req.src;
    data.data = params_.store->readLine(addr);
    data.mask.set(0, kLineSize);
    data.dirty = false;
    // GetX always grants exclusivity; GetS grants M (conventional E) when no
    // peer held the line. The directory additionally consults its sharer
    // list, since an unsnooped sharer never sends a SnpResp.
    bool anySharer = ls.anySharer;
    if (params_.directoryMode) {
        for (const NodeId sharer : ls.sharers)
            anySharer = anySharer || sharer != ls.req.src;
    }
    data.exclusive = ls.req.type == MsgType::kGetX || !anySharer;
    data.txn = ls.req.txn;
    data.prof = ls.req.prof;
    if (TxnProfiler* p = profiling())
        p->hop(ls.req.prof, TxnStage::kDataSend, name(), curTick());
    params_.responseNet->send(std::move(data));
    memDataSent_.inc();
}

void HomeController::maybeComplete(Addr addr, LineState& ls)
{
    if (!ls.unblockReceived || ls.snpOutstanding > 0)
        return;
    updateDirectoryOnComplete(ls);
    ls.busy = false;
    ls.activeTxn = 0;
    popPending(addr, ls);
}

void HomeController::processPut(const Message& msg, LineState& ls)
{
    // Accept the writeback only when it cannot be stale: it comes from the
    // registered owner, or no owner is registered (covers lines that became
    // MM through a direct-store install, which home never sees).
    if (ls.owner == msg.src || ls.owner == kInvalidNode) {
        putsAccepted_.inc();
        ls.owner = kInvalidNode;
        ls.busy = true;
        Message* m = context().msgPool.acquire(msg);
        params_.dram->write(msg.addr, msg.data, [this, m] {
            if (TxnProfiler* p = profiling()) {
                p->hop(m->prof, TxnStage::kDramWrite, name(), curTick());
                p->hop(m->prof, TxnStage::kAckSend, name(), curTick());
            }
            Message ack;
            ack.type = MsgType::kWbAck;
            ack.addr = m->addr;
            ack.src = params_.self;
            ack.dst = m->src;
            ack.txn = m->txn;
            ack.prof = m->prof;
            params_.forwardNet->send(std::move(ack));
            LineState& state = line(m->addr);
            state.busy = false;
            popPending(m->addr, state);
            context().msgPool.release(m);
        });
    } else {
        // Stale: a snoop already moved ownership elsewhere; drop the data.
        putsStale_.inc();
        if (TxnProfiler* p = profiling())
            p->hop(msg.prof, TxnStage::kAckSend, name(), curTick());
        Message ack;
        ack.type = MsgType::kWbAck;
        ack.addr = msg.addr;
        ack.src = params_.self;
        ack.dst = msg.src;
        ack.txn = msg.txn;
        ack.prof = msg.prof;
        params_.forwardNet->send(std::move(ack));
    }
}

void HomeController::updateDirectoryOnComplete(LineState& ls)
{
    if (!params_.directoryMode)
        return;
    if (ls.req.type == MsgType::kGetX) {
        // New exclusive owner; everyone else was invalidated.
        ls.owner = ls.req.src;
        ls.sharers.clear();
        return;
    }
    // GetS: the requester joins as a sharer, unless it was granted
    // exclusivity (no prior holders) — then it is the new owner.
    bool othersHold = ls.dataSupplied || ls.anySharer;
    othersHold = othersHold ||
                 (ls.owner != kInvalidNode && ls.owner != ls.req.src);
    for (const NodeId sharer : ls.sharers)
        othersHold = othersHold || sharer != ls.req.src;
    if (othersHold) {
        ls.sharers.insert(ls.req.src);
    } else {
        ls.owner = ls.req.src; // exclusive-clean (M) grant
        ls.sharers.clear();
    }
}

void HomeController::popPending(Addr addr, LineState& ls)
{
    static_cast<void>(addr);
    if (ls.pending.empty())
        return;
    const Message next = ls.pending.front();
    ls.pending.pop_front();
    process(next, ls);
}

NodeId HomeController::registeredOwner(Addr addr) const
{
    const auto it = lines_.find(lineAlign(addr));
    return it == lines_.end() ? kInvalidNode : it->second.owner;
}

bool HomeController::quiescent() const
{
    for (const auto& [addr, ls] : lines_) {
        static_cast<void>(addr);
        if (ls.busy || !ls.pending.empty())
            return false;
    }
    return true;
}

std::size_t HomeController::busyLines() const
{
    std::size_t busy = 0;
    for (const auto& [addr, ls] : lines_) {
        static_cast<void>(addr);
        if (ls.busy || !ls.pending.empty())
            ++busy;
    }
    return busy;
}

void HomeController::regStats(StatRegistry& registry)
{
    registry.registerCounter(statName("transactions"), &transactions_);
    registry.registerCounter(statName("snoops_sent"), &snoopsSent_);
    registry.registerCounter(statName("mem_data_sent"), &memDataSent_);
    registry.registerCounter(statName("puts_accepted"), &putsAccepted_);
    registry.registerCounter(statName("puts_stale"), &putsStale_);
    registry.registerCounter(statName("queued_requests"), &queued_);
}

} // namespace dscoh
