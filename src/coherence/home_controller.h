// Home (memory-side) controller: the per-line ordering point.
//
// Two operating modes:
//
//  * Hammer (default, the paper's baseline): broadcast snoops to every peer
//    that may hold the line and read DRAM speculatively in parallel. A
//    small owner registry (the moral equivalent of gem5 MOESI_hammer's
//    probe filter "Dir" state) exists solely to drop stale writebacks that
//    lost a race with a snoop.
//
//  * Directory: precise owner+sharer tracking per line. Snoops go only to
//    caches the directory believes hold the line, and DRAM is read only
//    when no owner can supply. Fewer messages and no wasted memory reads,
//    at the cost of directory state — the classic trade-off, exposed here
//    so the direct-store win can be measured against a stronger baseline
//    (bench/ablation_protocol). Directory entries may be stale after
//    silent S/M drops; snooped non-holders simply answer "not sharer" and
//    the entry is corrected.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>

#include "coherence/home_map.h"
#include "mem/dram.h"
#include "net/network.h"
#include "sim/sim_object.h"

namespace dscoh {

class HomeController final : public SimObject {
public:
    struct Params {
        NodeId self = kInvalidNode;
        Network* requestNet = nullptr;
        Network* forwardNet = nullptr;
        Network* responseNet = nullptr;
        MemoryInterface* dram = nullptr;
        BackingStore* store = nullptr;
        /// The caches a broadcast snoops: the CPU agent, then the line's
        /// slice on every GPU. Also names the shard that orders each line.
        HomeMap homeMap{};
        /// Directory mode: snoop only believed holders instead of
        /// broadcasting, and skip the speculative DRAM read when an owner
        /// should supply.
        bool directoryMode = false;
        /// Broadcast to no cache at all (§III-H replacement mode): every
        /// transaction is a plain memory fetch.
        bool noSnoop = false;
        /// Sharded directory (multi-GPU): this controller's shard index. A
        /// request for an address homeMap homes on another shard is
        /// reported to the attached checker (misroute detection) — it is
        /// still processed, so the divergence is observable rather than
        /// fatal.
        std::uint32_t shardId = 0;
    };

    HomeController(std::string name, SimContext& ctx, Params params);

    void handleRequest(const Message& msg);  ///< GetS/GetX/Put/Unblock
    void handleResponse(const Message& msg); ///< SnpResp

    void regStats(StatRegistry& registry) override;

    /// Debug/verification: current registered owner (kInvalidNode if none).
    NodeId registeredOwner(Addr addr) const;

    /// Debug/verification: no line is mid-transaction.
    bool quiescent() const;

    /// Debug/verification: lines currently mid-transaction or with queued
    /// requests (the CoherenceChecker's home-side outstanding-work probe).
    std::size_t busyLines() const;

    /// Persistent cross-transaction state: the owner registry, directory
    /// sharer sets and the transaction-id counter. Requires quiescent()
    /// (no busy line, nothing queued) — active-transaction bookkeeping is
    /// transient and never serialized.
    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }

private:
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        if constexpr (!Ar::kLoading)
            requireQuiesced(self.quiescent(),
                            self.name() + " has in-flight transactions");
        ar.u64(self.txnSeq_);
        // Only entries with persistent content survive: an owner registered or
        // directory sharers remembered.
        snap::keyed(
            ar, self.lines_,
            [](Ar& a, auto& ls) {
                a.u64(ls.owner);
                snap::keyed(a, ls.sharers);
            },
            [](const auto& entry) {
                return entry.second.owner != kInvalidNode ||
                       !entry.second.sharers.empty();
            });
    }

    struct LineState {
        bool busy = false;
        std::deque<Message> pending;
        NodeId owner = kInvalidNode;
        std::set<NodeId> sharers; ///< directory mode only (may be stale)

        // Active transaction bookkeeping.
        std::uint64_t activeTxn = 0;
        Message req;
        std::uint32_t snpOutstanding = 0;
        bool anySharer = false;
        bool dataSupplied = false;
        bool memDataReady = false;
        bool memReadIssued = false;
        bool responded = false;
        bool unblockReceived = false;
    };

    void process(const Message& msg, LineState& ls);
    void startTransaction(const Message& msg, LineState& ls);
    void issueMemRead(Addr addr, LineState& ls);
    /// Calls @p send for each cache this transaction snoops, in send order.
    template <typename F>
    void forEachSnoopTarget(const Message& msg, const LineState& ls,
                            F&& send) const;
    void updateDirectoryOnComplete(LineState& ls);
    void processPut(const Message& msg, LineState& ls);
    void onMemData(Addr addr, std::uint64_t txn);
    void maybeRespond(Addr addr, LineState& ls);
    void maybeComplete(Addr addr, LineState& ls);
    void popPending(Addr addr, LineState& ls);
    LineState& line(Addr addr) { return lines_[lineAlign(addr)]; }

    Params params_;
    std::unordered_map<Addr, LineState> lines_;
    std::uint64_t txnSeq_ = 1;

    Counter transactions_;
    Counter snoopsSent_;
    Counter memDataSent_;
    Counter putsAccepted_;
    Counter putsStale_;
    Counter queued_;
};

} // namespace dscoh
