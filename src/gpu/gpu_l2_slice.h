// One slice of the shared GPU L2 (Table I: 2 MB, 16-way, 4 slices).
//
// Each slice is a coherent CacheAgent for the (interleaved) addresses it
// owns. Its front side serves the SM L1s over the GPU-internal network, and
// it is the landing zone for the paper's direct stores: a DsPutX installs
// the pushed line as MM (Fig. 3, I -> MM via the blue transition), falling
// back to a DRAM write when the set has no evictable way (the paper's "if
// the GPU L2 cache is full, the system writes data to DRAM").
#pragma once

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "coherence/cache_agent.h"
#include "mem/dram.h"

namespace dscoh {

class GpuL2Slice final : public CacheAgent {
public:
    struct SliceParams {
        Tick tagLatency = 16;  ///< front-side lookup latency, ticks
        Network* gpuNet = nullptr; ///< SM L1s <-> slices
        Network* dsNet = nullptr;  ///< dedicated direct-store network
        MemoryInterface* dram = nullptr; ///< for the DS bypass/write-through path
        /// Sequential (next-line) prefetch depth on demand misses; 0 = off.
        /// Used by the prefetching-vs-direct-store ablation (§IV-C notes
        /// direct store beats prefetching; bench/ablation_prefetch checks).
        std::uint32_t prefetchDepth = 0;

        // --- delivery hardening (PROTOCOL.md "Delivery hardening") ---
        /// Track DsPutX transaction ids, squash duplicates idempotently and
        /// replay the ack for already-served pushes.
        bool harden = false;
        /// Serve every push through the coherent fetch-merge path (skip the
        /// bare install) so an arbitrarily late or reordered copy can never
        /// create a second owner behind the fallback pull path.
        bool mergeOnly = false;
        /// Verify each DsPutX payload checksum; a mismatch is NACKed.
        bool verifyChecksum = false;

        // --- multi-GPU scale-out (PROTOCOL.md "Directory sharding across
        // GPUs") ---
        /// Timestamp-lease length in ticks for the GPU<->GPU read fast
        /// path. 0 disables the fast path: remote-homed reads always take
        /// the home-directory pull path.
        Tick tsLeaseTicks = 0;
        /// Which GPU this slice belongs to (the shard index the agent's
        /// homeMap reports for locally-homed addresses).
        std::uint32_t myGpu = 0;
    };

    GpuL2Slice(std::string name, SimContext& ctx,
               const CacheAgent::Params& agentParams,
               const SliceParams& sliceParams);

    /// Entry point for kL1Load / kL1Store from the SMs (GPU network).
    void handleGpuMessage(const Message& msg);

    /// Entry point for kDsPutX / kUcRead from the CPU (dedicated network).
    void handleDsMessage(const Message& msg);

    void regStats(StatRegistry& registry) override;

    // GPU-side demand statistics (what Fig. 5 reports).
    std::uint64_t demandAccesses() const { return accesses_.value(); }
    std::uint64_t demandMisses() const { return misses_.value(); }
    std::uint64_t compulsoryMisses() const { return compulsory_.value(); }
    std::uint64_t dsFills() const { return dsFills_.value(); }
    std::uint64_t dsBypasses() const { return dsBypassed_.value(); }

    // Timestamp fast path (multi-GPU): lease traffic observed by tests.
    std::uint64_t tsGrantsIssued() const { return tsGrants_.value(); }

    /// Adds the lease buffer and the granted-lease table to the coherent
    /// agent's snapshot (only when the fast path is configured, so 1-GPU
    /// snapshot bytes are unchanged).
    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }

protected:
    void onFill(Line& line) override;
    /// Granted-lease freeze (write stall / snoop hold / eviction pin in the
    /// base agent). The injected cross-shard bug reports no hold.
    Tick holdUntil(Addr base) const override;

private:
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        CacheAgent::snapState(self, ar);
        if (self.slice_.tsLeaseTicks == 0)
            return;
        if constexpr (!Ar::kLoading)
            requireQuiesced(self.tsWaiting_.empty(),
                            self.name() + " has in-flight lease requests");
        snap::keyed(ar, self.tsLeased_, [](Ar& a, auto& lease) {
            a.u64(lease.expiry);
            a.bytes(lease.data.data(), kLineSize);
        });
        snap::keyed(ar, self.tsGranted_, [](Ar& a, auto& expiry) {
            a.u64(expiry);
        });
    }

    void serveLoad(const Message& msg);
    void serveStore(const Message& msg);
    void maybePrefetch(Addr missAddr);
    void serveDirectStore(const Message& msg);
    /// One attempt at serveDirectStore(); blocked only while the line is
    /// draining through the writeback buffer.
    Wait tryDirectStore(const Message& msg);
    void serveUncachedRead(const Message& msg);
    void noteDemand(Addr addr, bool exclusive);
    void sendDsAck(const Message& msg);
    /// Hardened admission control, run once per *network arrival* of a
    /// DsPutX (never from a deferred retry, which would squash its own
    /// in-service transaction): checksum verify, then duplicate squash.
    /// Returns false when the message was consumed (NACKed or squashed).
    bool admitDirectStore(const Message& msg);
    void trimDsSeen();

    // --- timestamp fast path (multi-GPU) ---
    /// Is @p addr ordered by another GPU's directory shard?
    bool remoteHomed(Addr addr) const;
    /// Serve a load from the lease buffer if a valid epoch covers it;
    /// expired entries self-invalidate lazily (HALCONE-style).
    bool tryServeLeased(const Message& msg);
    /// Park the load and (for the first waiter) send kTsRead to the home
    /// slice.
    void startTsRead(const Message& msg);
    /// Home-slice side: grant a lease on an owned stable line, else NACK.
    void serveTsRead(const Message& msg);
    void handleTsData(const Message& msg);
    void handleTsNack(const Message& msg);
    /// The pre-sharding load path (demand counters + coherent access).
    void serveLoadCoherent(const Message& msg);
    void sendLoadResp(const Message& msg, const DataBlock& data);
    /// Record the Fig. 3 cross-shard request edge when a coherent miss
    /// targets a remotely-homed line.
    void noteRemoteMiss(Addr addr, bool exclusive);
    void pruneExpiredGrants();

    SliceParams slice_;

    /// Served-or-in-service DsPutX transaction ids (hardened path); value =
    /// "ack already sent". Bounded FIFO; only acked entries are evicted.
    std::unordered_map<std::uint64_t, bool> dsSeen_;
    std::deque<std::uint64_t> dsSeenOrder_;

    /// Leased (non-coherent) copy of a remotely-homed line; readable
    /// strictly before @c expiry, self-invalidated lazily at or after it.
    struct LeasedLine {
        DataBlock data;
        Tick expiry = 0;
    };
    std::unordered_map<Addr, LeasedLine> tsLeased_;
    /// Leases this slice granted on its own lines: base -> expiry. Until
    /// then the line is write-stalled, snoop-held and eviction-pinned —
    /// and re-grants reply with the same expiry (a lease never extends),
    /// so every hold is bounded by the first grant.
    std::unordered_map<Addr, Tick> tsGranted_;
    /// Loads parked on an in-flight kTsRead, replayed on kTsData/kTsNack.
    std::unordered_map<Addr, std::vector<Message>> tsWaiting_;

    Counter accesses_;
    Counter misses_;
    Counter compulsory_;
    Counter dsStores_;
    Counter dsFills_;
    Counter dsBypassed_;
    Counter dsMerges_;
    Counter ucReads_;
    Counter prefetches_;
    Counter dsDupSquashed_;
    Counter dsNacks_;
    Counter tsReads_;
    Counter tsFills_;
    Counter tsHits_;
    Counter tsGrants_;
    Counter tsNacksSent_;
    Counter tsExpired_;
    Counter tsFallbacks_;
    Counter tsHolds_;
};

} // namespace dscoh
