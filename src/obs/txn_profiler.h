// Transaction-level latency attribution.
//
// A TxnProfiler stamps every coherence transaction (GetS, GetX, upgrades,
// writebacks, direct-store pushes, uncached reads, GPU L1 fills) with a
// per-SimContext span id and per-hop timestamps as the message moves
// through the machine: issue -> network -> directory/ordering point ->
// DRAM -> response -> install, plus the hardened retry/backoff/fallback
// paths. From the closed spans it accumulates
//
//   - a latency histogram per transaction kind (p50/p95/p99),
//   - a stage-by-stage critical-path breakdown (queueing vs network vs
//     directory occupancy vs DRAM vs supply vs install vs retry/backoff),
//   - a deterministic top-K list of the slowest transactions with their
//     full hop timelines, and
//   - per-page reuse + latency counters keyed for the adaptive push/pull
//     predictor (ROADMAP).
//
// The profiler is owned by the SimContext (System::enableTxnProfiler) and
// follows the TraceSession gate discipline exactly: when none is attached
// every hook is one pointer load and branch, no message carries a live
// span id, and every default output stays byte-identical. When a
// TraceSession recording TraceCat::kTxn is also attached, each closed span
// is interleaved into the Chrome trace as a flow-event arrow chain.
//
// Span ids travel on Message::prof (excluded from the delivery checksum,
// like the timing fields); id 0 is inert, so hops on unprofiled messages —
// and duplicate acks arriving after a span closed — are no-ops. Open-span
// state is empty at every phase-boundary safe point (all transactions
// complete before the queue drains), so snapshots carry only the closed
// aggregate and restored runs reproduce byte-identical profiles.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.h"
#include "sim/types.h"

namespace dscoh {

class TraceSession;

/// Transaction kinds, one latency population each.
enum class TxnKind : std::uint8_t {
    kGetS,      ///< read miss on the coherence fabric
    kGetX,      ///< write miss, wants exclusive ownership
    kUpgrade,   ///< S -> M upgrade (GetX from a sharer)
    kWriteback, ///< dirty eviction Put -> WbAck
    kDsPush,    ///< direct store: RSB flush -> DsAck (or fallback)
    kUcRead,    ///< uncached CPU load of the DS region
    kGpuLoad,   ///< SM L1 miss -> slice -> L1LoadResp
};
constexpr std::size_t kTxnKindCount = 7;

const char* to_string(TxnKind k);

/// Per-hop stamps. The interval between consecutive hops is attributed to
/// the *later* hop's bucket (bucketOf), so each stage name describes what
/// the transaction was waiting on until that point.
enum class TxnStage : std::uint8_t {
    kIssue,         ///< request left its origin component
    kBacklog,       ///< DS push parked behind the in-flight window
    kHomeArrive,    ///< request reached the home / ordering point
    kHomeStart,     ///< home began processing (left the busy-line queue)
    kSnpSend,       ///< home issued the snoop round
    kSnpArrive,     ///< snoop reached the owning/sharing agent
    kSupplySend,    ///< owner read the line out and sent data
    kSnpRespArrive, ///< snoop response reached the home
    kDramIssue,     ///< home issued the memory read
    kDramDone,      ///< memory data returned to the home
    kDataSend,      ///< home (or owner) sent the data response
    kDataArrive,    ///< response reached the requester
    kSliceArrive,   ///< DS/GPU message reached the L2 slice
    kDramWrite,     ///< slice/home wrote memory (DS bypass, writeback)
    kMerge,         ///< DS push merged into a present line
    kInstall,       ///< line installed / store globally performed
    kAckSend,       ///< ack left the completing component
    kAckArrive,     ///< ack reached the requester
    kRetry,         ///< timeout/NACK retransmit fired
    kFallbackArm,   ///< hardened path armed the MSL drain window
    kFallback,      ///< degraded to the pull path
    kDone,          ///< span closed at the requester
};
constexpr std::size_t kTxnStageCount = 22;

const char* to_string(TxnStage s);

/// Critical-path buckets the stage intervals are summed into.
enum class StageBucket : std::uint8_t {
    kQueue,     ///< waiting to issue / behind a busy line / backlog
    kNetwork,   ///< on a virtual network link
    kDirectory, ///< home / ordering-point occupancy
    kDram,      ///< memory access
    kSupply,    ///< owner cache read-out and data supply
    kInstall,   ///< fill/install/ack at the destination
    kMerge,     ///< DS merge into a present line (includes the pull)
    kRetry,     ///< retransmit wait
    kBackoff,   ///< fallback arming and MSL drain
};
constexpr std::size_t kStageBucketCount = 9;

const char* to_string(StageBucket b);

constexpr StageBucket bucketOf(TxnStage s)
{
    switch (s) {
    case TxnStage::kIssue: return StageBucket::kQueue;
    case TxnStage::kBacklog: return StageBucket::kQueue;
    case TxnStage::kHomeArrive: return StageBucket::kNetwork;
    case TxnStage::kHomeStart: return StageBucket::kQueue;
    case TxnStage::kSnpSend: return StageBucket::kDirectory;
    case TxnStage::kSnpArrive: return StageBucket::kNetwork;
    case TxnStage::kSupplySend: return StageBucket::kSupply;
    case TxnStage::kSnpRespArrive: return StageBucket::kNetwork;
    case TxnStage::kDramIssue: return StageBucket::kDirectory;
    case TxnStage::kDramDone: return StageBucket::kDram;
    case TxnStage::kDataSend: return StageBucket::kDirectory;
    case TxnStage::kDataArrive: return StageBucket::kNetwork;
    case TxnStage::kSliceArrive: return StageBucket::kNetwork;
    case TxnStage::kDramWrite: return StageBucket::kDram;
    case TxnStage::kMerge: return StageBucket::kMerge;
    case TxnStage::kInstall: return StageBucket::kInstall;
    case TxnStage::kAckSend: return StageBucket::kInstall;
    case TxnStage::kAckArrive: return StageBucket::kNetwork;
    case TxnStage::kRetry: return StageBucket::kRetry;
    case TxnStage::kFallbackArm: return StageBucket::kBackoff;
    case TxnStage::kFallback: return StageBucket::kBackoff;
    case TxnStage::kDone: return StageBucket::kInstall;
    }
    return StageBucket::kInstall;
}

class TxnProfiler {
public:
    struct Params {
        /// Slowest closed spans kept with full hop timelines.
        std::size_t topK = 32;
        /// Latency histogram geometry (per kind).
        std::uint64_t histBucketTicks = 64;
        std::size_t histBuckets = 128;
        /// log2 of the region granularity for the per-page counters.
        std::uint32_t regionShift = 12; ///< 4 KiB pages
    };

    struct Hop {
        TxnStage stage = TxnStage::kDone;
        Tick at = 0;
        std::uint32_t track = 0; ///< index into trackNames()
    };

    /// One transaction's record. While open it accumulates hops; closed
    /// records survive only in the top-K list.
    struct SpanRecord {
        std::uint64_t id = 0;
        TxnKind kind = TxnKind::kGetS;
        Addr addr = 0;
        Tick beginTick = 0;
        Tick endTick = 0;
        std::uint32_t beginTrack = 0;
        std::vector<Hop> hops; ///< chronological; last is kDone once closed

        Tick latency() const { return endTick - beginTick; }
    };

    struct KindStats {
        std::uint64_t count = 0; ///< closed spans
        Histogram latency;
        std::array<std::uint64_t, kStageBucketCount> stageTicks{};
    };

    /// Reuse + latency counters per regionShift-sized page, the feature
    /// vector for the future push/pull predictor.
    struct RegionStats {
        std::uint64_t pushes = 0;     ///< DS pushes begun
        std::uint64_t installs = 0;   ///< pushes installed into a free way
        std::uint64_t bypasses = 0;   ///< pushes written around the cache
        std::uint64_t merges = 0;     ///< pushes merged into a present line
        std::uint64_t fallbacks = 0;  ///< pushes degraded to the pull path
        std::uint64_t ucReads = 0;    ///< uncached CPU loads begun
        std::uint64_t pulls = 0;      ///< coherence pulls begun (GetS/GetX)
        std::uint64_t gpuAccesses = 0;///< GPU L2 demand accesses
        std::uint64_t gpuMisses = 0;  ///< ... of which missed
        std::uint64_t completed = 0;  ///< closed spans touching the page
        std::uint64_t latencyTicks = 0; ///< summed latency of those spans
    };

    TxnProfiler(); ///< default Params
    explicit TxnProfiler(Params params);

    TxnProfiler(const TxnProfiler&) = delete;
    TxnProfiler& operator=(const TxnProfiler&) = delete;

    /// Interleave closed spans into @p trace as flow events (TraceCat::kTxn)
    /// — System::enableTracing/enableTxnProfiler cross-wire this in either
    /// enable order.
    void attachTrace(TraceSession* trace) { trace_ = trace; }

    /// Opens a span and returns its id (>= 1) to stamp onto Message::prof.
    std::uint64_t begin(TxnKind kind, Addr addr, const std::string& track,
                        Tick now);

    /// Stamps one hop. Id 0 — an unprofiled message — and ids of spans that
    /// already closed (duplicate/replayed acks) are no-ops.
    void hop(std::uint64_t id, TxnStage stage, const std::string& track,
             Tick now);

    /// Closes a span: attributes every hop interval to its stage bucket,
    /// samples the kind's latency histogram, updates the page counters and
    /// the top-K list, and emits the flow-event chain when a trace session
    /// recording TraceCat::kTxn is attached. No-op for id 0 / closed ids.
    void end(std::uint64_t id, Tick now);

    /// Page-counter hook for GPU L2 demand accesses (slice noteDemand).
    void noteGpuDemand(Addr addr, bool miss);

    std::uint64_t begun() const { return begun_; }
    std::uint64_t completed() const { return completed_; }
    std::size_t openCount() const { return open_.size(); }
    const Params& params() const { return params_; }
    const KindStats& kindStats(TxnKind k) const
    {
        return kinds_[static_cast<std::size_t>(k)];
    }
    /// Sorted by latency descending, span id ascending.
    const std::vector<SpanRecord>& slowest() const { return slowest_; }
    const std::map<Addr, RegionStats>& regions() const { return regions_; }
    const std::vector<std::string>& trackNames() const { return trackNames_; }

    /// Writes the whole profile as one versioned "dscoh-txnprof-v1" JSON
    /// object (see DESIGN.md for the schema).
    void writeJson(std::ostream& os) const;

    /// Serializes the closed aggregate (histograms, stage sums, top-K,
    /// regions, track table, id counters). Throws snap::SnapError when
    /// spans are still open — the caller is off a safe point.
    void snapSave(snap::SnapWriter& w) const { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) { snapState(*this, r); }

private:
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        if constexpr (!Ar::kLoading)
            if (!self.open_.empty())
                throw snap::SnapError(
                    "snapshot off a safe point: txnprof has " +
                    std::to_string(self.open_.size()) + " open span(s)");
        ar.expect(self.params_.topK, "txnprof top-K");
        ar.expect(self.params_.histBucketTicks, "txnprof bucket width");
        ar.expect(self.params_.histBuckets, "txnprof bucket count");
        ar.expect(self.params_.regionShift, "txnprof region shift");
        ar.u64(self.nextSpan_);
        ar.u64(self.begun_);
        ar.u64(self.completed_);

        snap::seq(ar, self.trackNames_, [](Ar& a, auto& t) { a.str(t); });
        if constexpr (Ar::kLoading) {
            self.trackIds_.clear();
            for (std::size_t i = 0; i < self.trackNames_.size(); ++i)
                self.trackIds_.emplace(self.trackNames_[i],
                                       static_cast<std::uint32_t>(i));
        }

        for (auto& ks : self.kinds_) {
            ar.u64(ks.count);
            ar.nested(ks.latency);
            for (auto& ticks : ks.stageTicks)
                ar.u64(ticks);
        }

        snap::seq(ar, self.slowest_, [](Ar& a, auto& rec) {
            a.u64(rec.id);
            a.u8(rec.kind);
            a.u64(rec.addr);
            a.u64(rec.beginTick);
            a.u64(rec.endTick);
            a.u32(rec.beginTrack);
            snap::seq(a, rec.hops, [](Ar& h, auto& hop) {
                h.u8(hop.stage);
                h.u64(hop.at);
                h.u32(hop.track);
            });
        });

        snap::keyed(ar, self.regions_, [](Ar& a, auto& r) {
            a.u64(r.pushes);
            a.u64(r.installs);
            a.u64(r.bypasses);
            a.u64(r.merges);
            a.u64(r.fallbacks);
            a.u64(r.ucReads);
            a.u64(r.pulls);
            a.u64(r.gpuAccesses);
            a.u64(r.gpuMisses);
            a.u64(r.completed);
            a.u64(r.latencyTicks);
        });
    }

    std::uint32_t trackId(const std::string& name);
    void insertTopK(SpanRecord&& rec);
    void emitFlow(const SpanRecord& rec) const;
    RegionStats& regionOf(Addr addr)
    {
        return regions_[addr >> params_.regionShift];
    }

    Params params_;
    TraceSession* trace_ = nullptr;
    std::uint64_t nextSpan_ = 1;
    std::uint64_t begun_ = 0;
    std::uint64_t completed_ = 0;
    std::map<std::uint64_t, SpanRecord> open_;
    std::array<KindStats, kTxnKindCount> kinds_;
    std::vector<SpanRecord> slowest_;
    std::map<Addr, RegionStats> regions_;
    std::vector<std::string> trackNames_;
    std::unordered_map<std::string, std::uint32_t> trackIds_;
};

} // namespace dscoh
