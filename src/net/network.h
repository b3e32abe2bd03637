// Point-to-point interconnection network.
//
// Models what matters for the study: per-message latency, per-destination
// port serialization (bandwidth), per-(src,dst) FIFO ordering, and traffic
// statistics. All coherence virtual networks and the paper's dedicated
// direct-store network are instances of this class with different
// latency/bandwidth parameters.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/message.h"
#include "sim/sim_object.h"
#include "sim/stats.h"

namespace dscoh {

class FaultInjector;

struct NetworkParams {
    Tick hopLatency = 20;          ///< fixed traversal latency, ticks
    std::uint32_t bytesPerTick = 32; ///< per-destination-port bandwidth
};

/// Shape of the dedicated DS network once several GPUs share it: a full
/// crossbar (every endpoint one hop from every other, the single-GPU
/// behavior) or a ring with latency proportional to the hop distance.
enum class DsTopology : std::uint8_t {
    kCrossbar = 0,
    kRing = 1,
};

constexpr const char* to_string(DsTopology t)
{
    return t == DsTopology::kRing ? "ring" : "crossbar";
}

/// Inverse of to_string, for the ds-topology config key. Returns false on
/// anything but the exact names.
inline bool parseDsTopology(std::string_view text, DsTopology& out)
{
    if (text == "crossbar")
        out = DsTopology::kCrossbar;
    else if (text == "ring")
        out = DsTopology::kRing;
    else
        return false;
    return true;
}

class Network final : public SimObject {
public:
    /// Devirtualized receiver: a plain (function pointer, object) pair, so
    /// the per-message handler hop is one indirect call with no
    /// std::function dispatch or allocation. Controllers register through
    /// handlerFor<&T::method>; callables (tests, probes) go through the
    /// templated connect overload, which owns them.
    struct Handler {
        using Fn = void (*)(void*, const Message&);
        Fn fn = nullptr;
        void* obj = nullptr;

        void operator()(const Message& m) const { fn(obj, m); }
        explicit operator bool() const { return fn != nullptr; }
    };

    /// Binds a member function at compile time:
    /// `net.connect(id, Network::handlerFor<&HomeController::handleRequest>(home))`.
    template <auto Method, typename T>
    static Handler handlerFor(T* obj)
    {
        return Handler{[](void* o, const Message& m) {
                           (static_cast<T*>(o)->*Method)(m);
                       },
                       obj};
    }

    Network(std::string name, SimContext& ctx, NetworkParams params);

    /// Registers @p handler as the receiver for node @p id. A node id may be
    /// registered once; ids are dense and assigned by the System builder.
    void connect(NodeId id, Handler handler);

    /// Convenience overload for arbitrary callables: the network takes
    /// ownership of @p f and routes through a per-type thunk. Same delivery
    /// cost as a member-function handler.
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Handler>>>
    void connect(NodeId id, F&& f)
    {
        using D = std::decay_t<F>;
        auto holder = std::make_unique<Holder<D>>(std::forward<F>(f));
        const Handler h{&Holder<D>::call, holder.get()};
        owned_.push_back(std::move(holder));
        connect(id, h);
    }

    bool isConnected(NodeId id) const
    {
        return id < handlers_.size() && static_cast<bool>(handlers_[id]);
    }

    /// Sends @p msg; it is delivered to msg.dst after hop latency plus
    /// serialization at the destination port. Messages from any source to a
    /// given destination are delivered in increasing-time order, and two
    /// messages with one (src,dst) pair never reorder.
    void send(Message msg);

    const NetworkParams& params() const { return params_; }

    /// Lays the listed nodes out on a ring: a message between two ring
    /// members pays hopLatency per traversed link (shortest direction)
    /// instead of the flat crossbar hop. Nodes not on the ring (and every
    /// network without a ring) keep the single-hop behavior, so a
    /// crossbar-configured system is bit-identical to the pre-ring code.
    void setRing(const std::vector<NodeId>& order);

    /// Enables the per-type counters of the timestamp fast-path messages
    /// (kTsRead/kTsData/kTsNack). Like the fault injector's kDsNack rule,
    /// this must precede regStats: when the fast path is off the counters
    /// are never registered and the stats JSON stays byte-identical.
    void enableTsStats() { tsStats_ = true; }

    /// Attaches a fault injector consulted on every send. Must happen before
    /// regStats (the injector's presence decides which counters exist).
    /// Without one, send() costs a single null-pointer test extra.
    void attachFaultInjector(FaultInjector* f) { fault_ = f; }

    void regStats(StatRegistry& registry) override;

    /// Messages never cross a safe point (delivery closures live in the
    /// event queue, which is drained), but the per-destination port
    /// reservations can extend past it and are timing state.
    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        ar.expect(self.portFreeAt_.size(), "port count");
        for (auto& t : self.portFreeAt_)
            ar.u64(t);
    }

    std::uint64_t messagesSent() const { return messages_.value(); }
    std::uint64_t bytesSent() const { return bytes_.value(); }

private:
    struct HolderBase {
        virtual ~HolderBase() = default;
    };
    template <typename F>
    struct Holder final : HolderBase {
        explicit Holder(F f) : fn(std::move(f)) {}
        static void call(void* o, const Message& m)
        {
            static_cast<Holder*>(o)->fn(m);
        }
        F fn;
    };

    /// The pre-fault send path: computes arrival (with @p extraDelay folded
    /// in before the port max, preserving per-destination monotonicity),
    /// accounts traffic, and schedules the handler.
    void deliver(Message msg, Tick extraDelay);

    /// Extra links beyond the first between @p src and @p dst on the
    /// configured ring (0 when no ring is set or either node is off it).
    Tick ringExtraHops(NodeId src, NodeId dst) const;

    NetworkParams params_;
    std::vector<Handler> handlers_;
    std::vector<std::unique_ptr<HolderBase>> owned_;
    std::vector<Tick> portFreeAt_; ///< per-destination serialization point
    FaultInjector* fault_ = nullptr;
    std::vector<std::int32_t> ringPos_; ///< node -> ring index (-1 off-ring)
    std::size_t ringSize_ = 0;
    bool tsStats_ = false;

    Counter messages_;
    Counter bytes_;
    Counter dataMessages_;
    std::array<Counter, kMsgTypeCount> byType_; ///< indexed by MsgType
    Histogram deliveryLatency_{8, 32};
};

} // namespace dscoh
