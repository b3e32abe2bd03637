#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "fault/fault_injector.h"

namespace dscoh {

const char* to_string(MsgType t)
{
    switch (t) {
    case MsgType::kGetS: return "GetS";
    case MsgType::kGetX: return "GetX";
    case MsgType::kPut: return "Put";
    case MsgType::kUnblock: return "Unblock";
    case MsgType::kSnpGetS: return "SnpGetS";
    case MsgType::kSnpGetX: return "SnpGetX";
    case MsgType::kWbAck: return "WbAck";
    case MsgType::kSnpResp: return "SnpResp";
    case MsgType::kData: return "Data";
    case MsgType::kAck: return "Ack";
    case MsgType::kDsPutX: return "DsPutX";
    case MsgType::kDsAck: return "DsAck";
    case MsgType::kUcRead: return "UcRead";
    case MsgType::kUcData: return "UcData";
    case MsgType::kL1Load: return "L1Load";
    case MsgType::kL1LoadResp: return "L1LoadResp";
    case MsgType::kL1Store: return "L1Store";
    case MsgType::kL1StoreAck: return "L1StoreAck";
    case MsgType::kDsNack: return "DsNack";
    case MsgType::kTsRead: return "TsRead";
    case MsgType::kTsData: return "TsData";
    case MsgType::kTsNack: return "TsNack";
    }
    return "?";
}

Network::Network(std::string name, SimContext& ctx, NetworkParams params)
    : SimObject(std::move(name), ctx), params_(params)
{
}

void Network::connect(NodeId id, Handler handler)
{
    if (id >= handlers_.size()) {
        handlers_.resize(id + 1);
        portFreeAt_.resize(id + 1, 0);
    }
    if (handlers_[id])
        throw std::logic_error(name() + ": node already connected: " +
                               std::to_string(id));
    handlers_[id] = handler;
}

void Network::send(Message msg)
{
    if (fault_ == nullptr) {
        deliver(std::move(msg), 0);
        return;
    }

    // Stamp before deciding so a corruption fault leaves the checksum stale
    // and the receiver can detect it.
    fault_->stampChecksum(msg);
    const FaultDecision d = fault_->decide(msg.src, msg.dst, curTick());
    if (d.drop) {
        // The message never existed as far as the network's traffic
        // accounting, the port reservations and the checker's in-flight
        // count are concerned: decide() already counted it under the
        // injector's own stats.
        if (TraceSession* t = tracing(TraceCat::kNet))
            t->instant(TraceCat::kNet, name(),
                       d.linkDown ? "fault.linkdown-drop" : "fault.drop",
                       curTick(), msg.addr);
        return;
    }
    if (d.corrupt) {
        fault_->corruptPayload(msg);
        if (TraceSession* t = tracing(TraceCat::kNet))
            t->instant(TraceCat::kNet, name(), "fault.corrupt", curTick(),
                       msg.addr);
    }
    if (d.extraDelay != 0) {
        if (TraceSession* t = tracing(TraceCat::kNet))
            t->instant(TraceCat::kNet, name(), "fault.delay", curTick(),
                       msg.addr);
    }
    if (d.duplicate) {
        // The echo is a real wire-level message: it consumes bandwidth and
        // is visible to the checker like any other.
        if (TraceSession* t = tracing(TraceCat::kNet))
            t->instant(TraceCat::kNet, name(), "fault.duplicate", curTick(),
                       msg.addr);
        deliver(msg, d.extraDelay);
    }
    deliver(std::move(msg), d.extraDelay);
}

void Network::setRing(const std::vector<NodeId>& order)
{
    ringPos_.clear();
    ringSize_ = order.size();
    for (std::size_t i = 0; i < order.size(); ++i) {
        const NodeId n = order[i];
        if (n >= ringPos_.size())
            ringPos_.resize(n + 1, -1);
        if (ringPos_[n] != -1)
            throw std::logic_error(name() + ": node on ring twice: " +
                                   std::to_string(n));
        ringPos_[n] = static_cast<std::int32_t>(i);
    }
}

Tick Network::ringExtraHops(NodeId src, NodeId dst) const
{
    if (ringSize_ < 2 || src >= ringPos_.size() || dst >= ringPos_.size())
        return 0;
    const std::int32_t a = ringPos_[src];
    const std::int32_t b = ringPos_[dst];
    if (a < 0 || b < 0)
        return 0;
    const std::size_t fwd = static_cast<std::size_t>(
        b >= a ? b - a : static_cast<std::int32_t>(ringSize_) + b - a);
    const std::size_t hops = std::min(fwd, ringSize_ - fwd);
    return hops > 1 ? static_cast<Tick>(hops - 1) : 0;
}

void Network::deliver(Message msg, Tick extraDelay)
{
    assert(isConnected(msg.dst) && "message sent to unconnected node");
    msg.sentAt = curTick();
    if (ringSize_ != 0)
        extraDelay += params_.hopLatency * ringExtraHops(msg.src, msg.dst);

    const Tick serialization =
        (msg.wireBytes() + params_.bytesPerTick - 1) / params_.bytesPerTick;
    Tick& portFree = portFreeAt_[msg.dst];
    // A fault's extra delay lengthens the hop, not the port: it still
    // partakes in the max against the port reservation, so deliveries to one
    // destination stay monotonic and per-(src,dst) FIFO holds even with
    // delay faults on.
    const Tick arrival =
        std::max(curTick() + params_.hopLatency + extraDelay, portFree) +
        serialization;
    portFree = arrival;

    messages_.inc();
    bytes_.inc(msg.wireBytes());
    byType_[static_cast<std::size_t>(msg.type)].inc();
    if (carriesData(msg.type))
        dataMessages_.inc();
    deliveryLatency_.sample(arrival - curTick());

    if (TraceSession* t = tracing(TraceCat::kNet))
        t->span(TraceCat::kNet, name(), to_string(msg.type), curTick(),
                arrival, msg.addr);
    if (CoherenceChecker* c = checking())
        c->onMessageSent();

    // The message waits in a pooled slot and the delivery closure captures
    // only the pointer; the slot is recycled as soon as the handler returns.
    Message* slot = context().msgPool.acquire(msg);
    queue().schedule(
        arrival,
        [this, slot] {
            if (CoherenceChecker* c = checking())
                c->onMessageDelivered();
            handlers_[slot->dst](*slot);
            context().msgPool.release(slot);
        },
        EventPriority::kMessageDelivery);
}

void Network::regStats(StatRegistry& registry)
{
    registry.registerCounter(statName("messages"), &messages_);
    registry.registerCounter(statName("bytes"), &bytes_);
    registry.registerCounter(statName("data_messages"), &dataMessages_);
    for (std::size_t t = 0; t < byType_.size(); ++t) {
        // DsNack exists only under fault injection, and the timestamp
        // fast-path types only under a lease-enabled config; keep the
        // disabled stat set (and its JSON dump) byte-identical to what it
        // always was.
        const MsgType mt = static_cast<MsgType>(t);
        if (mt == MsgType::kDsNack && fault_ == nullptr)
            continue;
        if ((mt == MsgType::kTsRead || mt == MsgType::kTsData ||
             mt == MsgType::kTsNack) &&
            !tsStats_)
            continue;
        registry.registerCounter(
            statName(std::string("msg.") + to_string(static_cast<MsgType>(t))),
            &byType_[t]);
    }
    registry.registerHistogram(statName("delivery_latency"), &deliveryLatency_);
}

} // namespace dscoh
