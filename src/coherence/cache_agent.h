// A coherent cache agent: one node of the Hammer-style MOESI protocol.
//
// The CPU cache hierarchy (L1D filtered, L2 coherent) and each GPU L2 slice
// are CacheAgents. The agent owns a set-associative array whose per-line
// metadata is the protocol state, an MSHR file that merges concurrent local
// requests, and a writeback buffer holding evicted dirty lines until the
// home controller acknowledges their Put.
//
// Front side: access(addr, exclusive, done) — resolves locally on a hit or
// starts a GetS/GetX transaction; `done` runs (possibly immediately) when the
// line is readable/writable, with a reference to the filled line. A request
// that cannot proceed yet is parked and retried at the next replay point
// that could let it through (see park()).
//
// Network side: handleForward (snoops, writeback acks, from home) and
// handleResponse (data). Wired up by the System builder.
//
// Every change of a line's state goes through moveTo() (the array) or its
// writeback-buffer legs, moveToWriteback() and moveWriteback(). Each writes
// the new state first and then notes the transition, so the coverage
// table, the trace and the checker see every change, and see it after it
// landed.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "coherence/home_map.h"
#include "coherence/protocol.h"
#include "coherence/transition_coverage.h"
#include "mem/cache_array.h"
#include "mem/mshr.h"
#include "net/network.h"
#include "sim/inline_callback.h"
#include "sim/sim_object.h"

namespace dscoh {

class CacheAgent : public SimObject {
public:
    using Line = CacheArray<CohMeta>::Line;
    using AccessDone = BasicInlineCallback<void(Line&)>;

    struct Params {
        CacheGeometry geometry;
        std::size_t mshrs = 16;
        std::size_t writebackEntries = 8;
        NodeId self = kInvalidNode;
        /// Address routing: the directory shard that orders each line (a
        /// single-shard map makes homeMap.homeNode() the lone home for
        /// every address, exactly the pre-sharding behavior).
        HomeMap homeMap{};
        Network* requestNet = nullptr;  ///< agent -> home (GetS/GetX/Put/Unblock)
        Network* forwardNet = nullptr;  ///< home -> agent (snoops, WbAck)
        Network* responseNet = nullptr; ///< data / acks / snoop responses
        /// Tag-check latency charged before a snoop is processed.
        Tick snoopTagLatency = 0;
        /// Extra latency when a snoop is answered with data: reading the
        /// line out of the hierarchy and injecting it into the response
        /// network (the slow cache-to-cache leg of the CCSM pull path).
        Tick dataSupplyLatency = 0;
        /// Initiation interval between successive data supplies (a single
        /// read port on the supplying cache): back-to-back snoop hits
        /// serialize, which is what keeps massively parallel consumers from
        /// hiding the pull latency.
        Tick dataSupplyInterval = 0;
        /// Deliberate protocol mis-implementation for checker validation
        /// (tests and the fuzzer only).
        InjectedBug injectBug = InjectedBug::kNone;
    };

    CacheAgent(std::string name, SimContext& ctx, const Params& params);

    /// Requests read (exclusive=false) or write (exclusive=true) permission
    /// on @p addr's line. Always accepted; parks on resource pressure.
    /// @p done runs with the line in a satisfying state. For writes the
    /// callback must write the line's bytes itself (and the state is
    /// already MM).
    void access(Addr addr, bool exclusive, AccessDone done);

    /// Would @p addr hit right now (stable state satisfying @p exclusive)?
    /// Used by the front ends for hit/miss statistics and latency choice.
    bool probeHit(Addr addr, bool exclusive) const;

    /// Has this line ever been filled into this cache? (compulsory-miss
    /// classification; direct-store fills count.)
    bool everFilled(Addr addr) const
    {
        return everFilled_.count(lineNumber(addr)) != 0;
    }

    // -- network entry points ------------------------------------------------
    void handleForward(const Message& msg);
    void handleResponse(const Message& msg);

    void regStats(StatRegistry& registry) override;

    /// Tells this context's observers about a protocol transition: the
    /// attached TransitionCoverage, the TraceSession (when it records
    /// coherence events) and the CoherenceChecker. moveTo() and its
    /// writeback legs call it for every state change; callers use it
    /// directly only for edges that change no line (hits, lease and
    /// delivery-hardening events, remote-miss markers).
    void noteTransition(CohState from, CohEvent event, CohState to,
                        Addr base);

    /// Debug/verification: invokes @p fn for every valid line (stable or
    /// transient) in the array.
    template <typename Fn>
    void forEachLine(Fn&& fn) const
    {
        array_.forEachValid(fn);
    }

    /// Debug/verification: protocol state for a line (kI if absent and not
    /// in the writeback buffer; writeback-buffer entries report their
    /// transient state).
    CohState stateOf(Addr addr) const;

    /// Debug/verification: the line's data if this agent holds any copy of
    /// it (array first, then the writeback buffer), else nullptr.
    const DataBlock* peekLine(Addr addr) const;

    /// Debug/verification: invokes @p fn for every parked writeback-buffer
    /// entry (MI_A/OI_A/II_A) — these hold data outside the array.
    template <typename Fn>
    void forEachWriteback(Fn&& fn) const
    {
        for (const auto& [base, entry] : wbb_)
            fn(base, entry.state, entry.data);
    }

    std::size_t mshrInFlight() const { return mshr_.size(); }
    std::size_t writebackBufferEntries() const { return wbb_.size(); }
    std::size_t blockedRequests() const { return parked_.size(); }

    std::uint64_t fills() const { return fills_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }

    /// Line states and data, replacement state, the compulsory-miss filter,
    /// the transaction-id counter and the data-supply port reservation.
    /// Transient structures (MSHRs, writeback buffer, parked requests)
    /// must be empty — a safe point has no transaction in flight.
    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        if constexpr (!Ar::kLoading) {
            requireQuiesced(self.mshr_.size() == 0,
                            self.name() + " has in-flight MSHR transactions");
            requireQuiesced(self.wbb_.empty(),
                            self.name() + " has parked writebacks");
            requireQuiesced(self.parked_.empty(),
                            self.name() + " has deferred requests");
        }
        ar.nested(self.array_, [](Ar& a, auto& meta) {
            a.u8(meta.state);
            a.flag(meta.dsFilled);
        });
        ar.u64(self.nextTxn_);
        ar.u64(self.supplyPortFreeAt_);
        snap::keyed(ar, self.everFilled_);
    }

protected:
    /// Hook: a protocol fill landed (the CPU agent refills its L1 filter).
    virtual void onFill(Line& line) { static_cast<void>(line); }
    /// Hook: a line stops being readable here (moveTo, moveToWriteback);
    /// upper non-coherent levels (CPU L1 filter) must drop their copy.
    virtual void onInvalidate(Addr base) { static_cast<void>(base); }
    /// Hook: latest tick until which @p base is frozen by a granted
    /// timestamp lease (multi-GPU fast path): snoops wait and eviction
    /// skips the line until then. 0 / past ticks mean no hold.
    virtual Tick holdUntil(Addr base) const
    {
        static_cast<void>(base);
        return 0;
    }

    /// Directory shard ordering @p base.
    NodeId homeFor(Addr base) const
    {
        return params_.homeMap.homeNodeOf(base);
    }

    CacheArray<CohMeta>& array() { return array_; }
    const CacheArray<CohMeta>& array() const { return array_; }

    /// Frees a way in @p addr's set, evicting (and writing back) a victim if
    /// necessary. Returns nullptr when every way is pinned by an in-flight
    /// transaction (caller parks).
    Line* makeRoom(Addr addr);

    bool inWriteback(Addr addr) const
    {
        return wbb_.count(lineAlign(addr)) != 0;
    }

    /// Why a request cannot proceed yet. kMshrFull: the MSHR file is full
    /// and the line has no entry to merge into. kOther: anything else — the
    /// line is draining through the writeback buffer, every way of its set
    /// is pinned, or the writeback buffer is full.
    enum class Wait : std::uint8_t { kNone, kMshrFull, kOther };

    /// Re-attempts a parked request and returns why it is still blocked.
    /// It owns the request's callback (an AccessDone, or a remote store's
    /// ready callback) plus a few words of context, so its buffer is larger
    /// than an event's; it lives in a parked-map node, never in the queue.
    using ParkedRetry = BasicInlineCallback<Wait(), sizeof(AccessDone) + 32>;

    /// Parks a request on @p base's line that is blocked for @p why; one
    /// park is one `deferrals` count. @p retry re-attempts the request and
    /// returns why it is still blocked (kNone once it went through).
    ///
    /// Park/wake contract. Replay points are the end of a fill (after its
    /// merged targets are served) and a WbAck. Each one retries parked
    /// requests in park order: every kOther request, and a kMshrFull one
    /// only while the MSHR file has a free slot or when its line gained an
    /// MSHR entry or was filled since its last try. Any other kMshrFull
    /// retry could only block again, so a retry blocked on kMshrFull must
    /// change nothing. A still-blocked retry keeps its place; a request
    /// parked by another request's retry goes right after that request and
    /// waits for the next replay point. That is exactly the order of
    /// re-running every parked request at every replay point.
    void park(Addr base, Wait why, ParkedRetry retry);

    /// Records a fill of @p addr's line (protocol fill or direct-store
    /// install): the compulsory-miss filter, and a wake for the requests
    /// parked on it.
    void noteFilled(Addr addr);

    /// Moves @p line to @p to on @p event; kI drops it from the array.
    /// When the line stops being readable, upper non-coherent levels are
    /// told first (onInvalidate). Then the transition is noted.
    void moveTo(Line& line, CohEvent event, CohState to);

    /// moveTo's writeback-buffer leg: an MM/O @p line leaves the array for
    /// the buffer as MI_A/OI_A, and its Put goes to the home once the edge
    /// (MI_A/OI_A on an eviction, I on a remote store) is noted.
    /// Precondition: !inWriteback(base) and the buffer is not full.
    void moveToWriteback(Line& line, CohEvent event);
    /// Moves @p base's buffer entry to @p to on @p event: II_A when a
    /// snoop takes the line away, kI (the entry is freed) on its WbAck.
    void moveWriteback(Addr base, CohEvent event, CohState to);

    bool writebackBufferFull() const
    {
        return wbb_.size() >= params_.writebackEntries;
    }

    const Params& params() const { return params_; }

private:
    struct MshrTarget {
        bool exclusive = false;
        AccessDone done;
    };

    struct WbEntry {
        CohState state = CohState::kMI_A; ///< kMI_A, kOI_A or kII_A
        DataBlock data;
    };

    struct Parked {
        Addr base = 0;
        ParkedRetry retry;
    };
    using ParkedMap = std::map<std::uint64_t, Parked>;

    static bool satisfies(CohState s, bool exclusive)
    {
        return exclusive ? canWrite(s) : canRead(s);
    }

    /// One attempt at access(). @p done is merged, queued or run only
    /// when the attempt goes through.
    Wait tryAccess(Addr base, bool exclusive, AccessDone& done);
    Wait startTransaction(Line* existing, Addr base, bool exclusive,
                          AccessDone& done);
    void allocateMshr(Addr base, bool exclusive, AccessDone& done);

    /// Files parked request @p seq under @p why: kMshrFull by line, kOther
    /// in due_.
    void enlist(std::uint64_t seq, Addr base, Wait why);
    /// Moves the kMshrFull requests parked on @p base into due_.
    void wake(Addr base);
    /// A replay point: retries the parked requests that could proceed.
    void replayBlocked();
    void retryParked(ParkedMap::iterator it);
    /// Moves requests parked by another request's retry to right after
    /// it, and renumbers park order from 0.
    void renumberParked();

    void handleSnoop(const Message& msg);
    void handleData(const Message& msg);
    void sendToHome(MsgType type, Addr base, bool ownerFlag = false,
                    std::uint64_t prof = 0);
    void sendDataTo(NodeId dst, Addr base, const DataBlock& data, bool dirty,
                    bool exclusive, std::uint64_t txn, std::uint64_t prof = 0);

    Params params_;
    CacheArray<CohMeta> array_;
    MshrFile<MshrTarget> mshr_;
    std::unordered_map<Addr, WbEntry> wbb_;
    /// Parked requests, keyed by park order.
    ParkedMap parked_;
    /// Parked requests the next replay point retries even with the MSHR
    /// file full: every kOther one, and each kMshrFull one whose line
    /// gained an MSHR entry or was filled since its last try.
    std::set<std::uint64_t> due_;
    /// The other kMshrFull requests, by line.
    std::unordered_map<Addr, std::vector<std::uint64_t>> mshrWaiters_;
    /// (request, the request whose retry parked it), for renumberParked().
    std::vector<std::pair<std::uint64_t, std::uint64_t>> parkedByRetry_;
    std::uint64_t nextPark_ = 0;
    std::optional<std::uint64_t> retrying_; ///< park key being retried
    std::unordered_set<Addr> everFilled_; ///< line numbers ever present here
    std::uint64_t nextTxn_ = 1;
    Tick supplyPortFreeAt_ = 0;

    Counter getsIssued_;
    Counter getxIssued_;
    Counter upgrades_;
    Counter fills_;
    Counter writebacks_;
    Counter snoops_;
    Counter dataSupplied_;
    Counter deferrals_; ///< requests parked (not retries)
};

} // namespace dscoh
