// In-order CPU core (Table I: one core) executing a CpuProgram.
//
// Loads block; stores retire into a small store buffer that drains through
// the cache hierarchy in the background (with store->load forwarding).
// Stores whose TLB translation carries the direct-store flag instead enter
// the remote-store buffer (RSB): a few line-sized write-combining entries
// that coalesce adjacent stores and push each completed (or evicted) line to
// the owning GPU L2 slice as a DsPutX over the dedicated network. Loads from
// the DS region are uncached round-trips to the slice (§III-E: the region
// can never be cached on the CPU).
// With a non-zero ackTimeout the direct-store delivery path is *hardened*
// (PROTOCOL.md "Delivery hardening"): every DsPutX carries a transaction id
// and sits in a bounded in-flight table until its ack returns; a timeout
// retransmits with capped exponential backoff, and after maxRetries failed
// attempts (or while the DS network is marked down) the store degrades to
// the baseline coherent pull-based write path. Uncached DS-region loads get
// the same treatment. With ackTimeout == 0 the legacy fire-and-forget path
// runs byte-identically to before.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "cpu/cpu_cache_agent.h"
#include "cpu/program.h"
#include "cpu/tlb.h"
#include "fault/fault_injector.h"
#include "net/network.h"

namespace dscoh {

class CpuCore final : public SimObject {
public:
    struct Params {
        Tick l1Latency = 4;
        Tick l2Latency = 12;
        std::size_t storeBufferEntries = 8;
        std::size_t rsbEntries = 4;
        NodeId self = kInvalidNode;         ///< this core's id on the DS network
        Network* dsNet = nullptr;           ///< dedicated CPU -> GPU L2 network
        HomeMap homeMap{}; ///< routes a PA to its home slice

        // --- delivery hardening (0 / empty = legacy fire-and-forget) ---
        Tick dsAckTimeout = 0;         ///< ticks before a retransmit fires
        std::uint32_t dsMaxRetries = 4;
        std::size_t dsInFlightMax = 8; ///< bound on tracked DsPutX stores
        bool dsFallback = false;       ///< pull-path degradation allowed
        /// Drain window between deciding to fall back and applying it: long
        /// enough that no copy of the abandoned push is still on the wire
        /// (System computes it from the network and fault parameters).
        Tick dsMslTicks = 0;
        /// The DS network's fault injector (its outage window), or null.
        const FaultInjector* dsFault = nullptr;
        bool dsVerifyChecksum = false; ///< verify UcData payload integrity
    };

    CpuCore(std::string name, SimContext& ctx, Params params, Tlb& tlb,
            CpuCacheAgent& cache);

    /// Starts executing @p program; @p onDone fires once every op has
    /// executed AND all buffered stores (local and remote) are globally
    /// performed (implicit trailing fence).
    void run(const CpuProgram& program, InlineCallback onDone);

    /// Entry point for DsAck / UcData arriving on the dedicated network.
    void handleDsMessage(const Message& msg);

    void regStats(StatRegistry& registry) override;

    bool idle() const { return program_ == nullptr; }
    std::uint64_t checkFailures() const { return checkFailures_.value(); }
    std::uint64_t remoteStores() const { return remoteStores_.value(); }

    /// One-line summary of what the core is still waiting on; empty when
    /// nothing is pending. Used by the no-progress watchdog to name the
    /// stalled component.
    std::string outstandingWork() const;

    /// The core is purely transient state (program position, store/remote
    /// buffers, pending loads) and all of it drains before a safe point, so
    /// the section only asserts quiescence; counters live in the stats
    /// section.
    void snapSave(snap::SnapWriter& w) const override { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) override { snapState(*this, r); }

private:
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        if constexpr (!Ar::kLoading) {
            requireQuiesced(self.idle(),
                            self.name() + " is executing a program");
            requireQuiesced(self.storesDrained(),
                            self.name() + " has undrained stores");
            requireQuiesced(self.stalledStores_.empty() &&
                                self.awaitingDsDrain_.empty() &&
                                !self.pendingUcLoad_,
                            self.name() + " has pending memory operations");
            requireQuiesced(self.dsInFlight_.empty() && self.dsBacklog_.empty(),
                            self.name() + " has unacknowledged direct stores");
        }
        // The core itself carries no state at a safe point.
        ar.expect(std::uint8_t{1}, "quiescence marker");
    }

    /// Line-granular write-combining store-buffer entry: stores to the same
    /// line merge into one entry and drain as a single ownership request, so
    /// several line misses overlap (as in any real LSQ+MSHR design).
    struct StoreBufferEntry {
        Addr base = 0; ///< line-aligned physical address
        DataBlock data;
        ByteMask mask;
    };

    struct RsbEntry {
        Addr base = 0; ///< line-aligned physical address
        DataBlock data;
        ByteMask mask;
        std::uint64_t prof = 0; ///< TxnProfiler span (0 when profiling off)
    };

    /// One hardened store from push until ack / fallback application.
    struct DsInFlight : RsbEntry {
        std::uint32_t retries = 0;
        bool fallbackPending = false; ///< waiting out the drain window
        std::uint64_t seq = 0;        ///< bumped to invalidate armed timeouts
    };

    void step();
    void finishOp();
    void execLoad(const CpuOp& op);
    void execStore(const CpuOp& op);
    void execFence();
    void doLocalLoad(Addr pa, const CpuOp& op, Tick extraLatency);
    void doUncachedLoad(Addr pa, const CpuOp& op, Tick extraLatency);
    void pushStoreBuffer(Addr pa, const CpuOp& op);
    void drainStoreEntry(Addr base);
    void remoteStore(Addr pa, const CpuOp& op);
    void flushRsbEntry(std::size_t index);
    void flushAllRsb();
    /// The kDsPutX that pushes @p store's bytes to the slice owning its
    /// line (txn 0: the hardened path stamps its own).
    Message dsPutX(const RsbEntry& store) const;

    bool hardened() const { return params_.dsAckTimeout != 0; }
    bool dsNetMarkedDown() const
    {
        return params_.dsFallback && params_.dsFault != nullptr &&
               params_.dsFault->linkDownNow(curTick());
    }
    void startDsStore(const RsbEntry& entry);
    void sendDsPutX(std::uint64_t txn);
    void armDsTimeout(std::uint64_t txn);
    void onDsTimeout(std::uint64_t txn, std::uint64_t seq);
    void retryDsStore(std::uint64_t txn);
    void beginDsFallback(std::uint64_t txn);
    void applyDsFallback(std::uint64_t txn);
    void completeDsStore();
    /// Runs the loads waiting for every direct store to be acknowledged.
    void runDsDrainWaiters();
    void sendUcRead();
    void onUcTimeout(std::uint64_t txn, std::uint64_t seq);
    void retryUcLoad();
    void fallbackUcLoad();
    bool storesDrained() const
    {
        return storeBuffer_.empty() && inFlightStores_ == 0 && rsb_.empty() &&
               pendingDsAcks_ == 0;
    }
    void maybeFinishFence();
    void checkLoadedValue(const CpuOp& op, std::uint64_t value);

    Params params_;
    Tlb& tlb_;
    CpuCacheAgent& cache_;

    const CpuProgram* program_ = nullptr;
    std::size_t pc_ = 0;
    InlineCallback onDone_;
    bool fencing_ = false;

    std::deque<StoreBufferEntry> storeBuffer_;
    std::size_t inFlightStores_ = 0;
    std::deque<CpuOp> stalledStores_; ///< waiting for a store-buffer slot

    std::vector<RsbEntry> rsb_; ///< FIFO write-combining entries
    std::size_t pendingDsAcks_ = 0;

    // Hardened-path state (all empty/idle on the legacy path). Transaction
    // ids are opaque and never surface in stats or traces, so a restored
    // run may restart them from scratch.
    std::map<std::uint64_t, DsInFlight> dsInFlight_; ///< keyed by txn
    std::deque<RsbEntry> dsBacklog_; ///< overflow past dsInFlightMax
    std::uint64_t nextDsTxn_ = 1;

    BasicInlineCallback<void(const Message&)> pendingUcLoad_;
    std::uint64_t ucTxn_ = 0; ///< txn of the outstanding hardened UcRead
    std::uint64_t ucSeq_ = 0; ///< bumped to invalidate armed UcRead timeouts
    std::uint32_t ucRetries_ = 0;
    std::uint64_t ucProf_ = 0; ///< TxnProfiler span of the outstanding UcRead
    Addr ucPa_ = 0;
    CpuOp ucOp_{};
    std::deque<InlineCallback> awaitingDsDrain_;

    Counter loads_;
    Counter stores_;
    Counter remoteStores_;
    Counter dsPutxSent_;
    Counter ucReads_;
    Counter storeForwards_;
    Counter checkFailures_;
    Counter dsRetries_;
    Counter dsTimeouts_;
    Counter dsFallbackStores_;
    Counter dsFallbackLoads_;
    Histogram loadLatency_{16, 64};
    Tick loadStart_ = 0;
};

} // namespace dscoh
