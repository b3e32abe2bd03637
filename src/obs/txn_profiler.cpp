#include "obs/txn_profiler.h"

#include <algorithm>
#include <utility>

#include "obs/trace_session.h"
#include "sim/json_writer.h"
#include "snap/serializer.h"

namespace dscoh {

const char* to_string(TxnKind k)
{
    switch (k) {
    case TxnKind::kGetS: return "GetS";
    case TxnKind::kGetX: return "GetX";
    case TxnKind::kUpgrade: return "Upgrade";
    case TxnKind::kWriteback: return "Writeback";
    case TxnKind::kDsPush: return "DsPush";
    case TxnKind::kUcRead: return "UcRead";
    case TxnKind::kGpuLoad: return "GpuLoad";
    }
    return "?";
}

const char* to_string(TxnStage s)
{
    switch (s) {
    case TxnStage::kIssue: return "issue";
    case TxnStage::kBacklog: return "backlog";
    case TxnStage::kHomeArrive: return "home-arrive";
    case TxnStage::kHomeStart: return "home-start";
    case TxnStage::kSnpSend: return "snoop-send";
    case TxnStage::kSnpArrive: return "snoop-arrive";
    case TxnStage::kSupplySend: return "supply-send";
    case TxnStage::kSnpRespArrive: return "snoop-resp-arrive";
    case TxnStage::kDramIssue: return "dram-issue";
    case TxnStage::kDramDone: return "dram-done";
    case TxnStage::kDataSend: return "data-send";
    case TxnStage::kDataArrive: return "data-arrive";
    case TxnStage::kSliceArrive: return "slice-arrive";
    case TxnStage::kDramWrite: return "dram-write";
    case TxnStage::kMerge: return "merge";
    case TxnStage::kInstall: return "install";
    case TxnStage::kAckSend: return "ack-send";
    case TxnStage::kAckArrive: return "ack-arrive";
    case TxnStage::kRetry: return "retry";
    case TxnStage::kFallbackArm: return "fallback-arm";
    case TxnStage::kFallback: return "fallback";
    case TxnStage::kDone: return "done";
    }
    return "?";
}

const char* to_string(StageBucket b)
{
    switch (b) {
    case StageBucket::kQueue: return "queue";
    case StageBucket::kNetwork: return "network";
    case StageBucket::kDirectory: return "directory";
    case StageBucket::kDram: return "dram";
    case StageBucket::kSupply: return "supply";
    case StageBucket::kInstall: return "install";
    case StageBucket::kMerge: return "merge";
    case StageBucket::kRetry: return "retry";
    case StageBucket::kBackoff: return "backoff";
    }
    return "?";
}

TxnProfiler::TxnProfiler() : TxnProfiler(Params{}) {}

TxnProfiler::TxnProfiler(Params params) : params_(params)
{
    for (KindStats& k : kinds_)
        k.latency = Histogram(params_.histBucketTicks, params_.histBuckets);
}

std::uint32_t TxnProfiler::trackId(const std::string& name)
{
    const auto it = trackIds_.find(name);
    if (it != trackIds_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(trackNames_.size());
    trackNames_.push_back(name);
    trackIds_.emplace(name, id);
    return id;
}

std::uint64_t TxnProfiler::begin(TxnKind kind, Addr addr,
                                 const std::string& track, Tick now)
{
    const std::uint64_t id = nextSpan_++;
    ++begun_;
    SpanRecord& rec = open_[id];
    rec.id = id;
    rec.kind = kind;
    rec.addr = addr;
    rec.beginTick = now;
    rec.beginTrack = trackId(track);

    RegionStats& region = regionOf(addr);
    switch (kind) {
    case TxnKind::kDsPush: ++region.pushes; break;
    case TxnKind::kUcRead: ++region.ucReads; break;
    case TxnKind::kGetS:
    case TxnKind::kGetX:
    case TxnKind::kUpgrade: ++region.pulls; break;
    default: break;
    }
    return id;
}

void TxnProfiler::hop(std::uint64_t id, TxnStage stage,
                      const std::string& track, Tick now)
{
    if (id == 0)
        return;
    const auto it = open_.find(id);
    if (it == open_.end())
        return; // already closed (duplicate/replayed ack) — inert
    it->second.hops.push_back(Hop{stage, now, trackId(track)});
}

void TxnProfiler::end(std::uint64_t id, Tick now)
{
    if (id == 0)
        return;
    const auto it = open_.find(id);
    if (it == open_.end())
        return;
    SpanRecord rec = std::move(it->second);
    open_.erase(it);
    rec.endTick = now;
    const std::uint32_t doneTrack =
        rec.hops.empty() ? rec.beginTrack : rec.hops.back().track;
    rec.hops.push_back(Hop{TxnStage::kDone, now, doneTrack});

    KindStats& ks = kinds_[static_cast<std::size_t>(rec.kind)];
    ++ks.count;
    ks.latency.sample(rec.latency());
    Tick prev = rec.beginTick;
    for (const Hop& h : rec.hops) {
        const auto bucket = static_cast<std::size_t>(bucketOf(h.stage));
        ks.stageTicks[bucket] += h.at - prev;
        prev = h.at;
    }

    RegionStats& region = regionOf(rec.addr);
    ++region.completed;
    region.latencyTicks += rec.latency();
    if (rec.kind == TxnKind::kDsPush) {
        for (const Hop& h : rec.hops) {
            switch (h.stage) {
            case TxnStage::kInstall: ++region.installs; break;
            case TxnStage::kDramWrite: ++region.bypasses; break;
            case TxnStage::kMerge: ++region.merges; break;
            case TxnStage::kFallback: ++region.fallbacks; break;
            default: break;
            }
        }
    } else if (rec.kind == TxnKind::kUcRead) {
        for (const Hop& h : rec.hops)
            if (h.stage == TxnStage::kFallback)
                ++region.fallbacks;
    }

    ++completed_;
    emitFlow(rec);
    insertTopK(std::move(rec));
}

void TxnProfiler::noteGpuDemand(Addr addr, bool miss)
{
    RegionStats& region = regionOf(addr);
    ++region.gpuAccesses;
    if (miss)
        ++region.gpuMisses;
}

void TxnProfiler::insertTopK(SpanRecord&& rec)
{
    if (params_.topK == 0)
        return;
    const auto worse = [](const SpanRecord& a, const SpanRecord& b) {
        if (a.latency() != b.latency())
            return a.latency() > b.latency();
        return a.id < b.id;
    };
    if (slowest_.size() >= params_.topK && !worse(rec, slowest_.back()))
        return;
    const auto pos =
        std::lower_bound(slowest_.begin(), slowest_.end(), rec, worse);
    slowest_.insert(pos, std::move(rec));
    if (slowest_.size() > params_.topK)
        slowest_.pop_back();
}

void TxnProfiler::emitFlow(const SpanRecord& rec) const
{
    if (trace_ == nullptr || !trace_->enabled(TraceCat::kTxn))
        return;
    const char* name = to_string(rec.kind);
    trace_->flow(TraceCat::kTxn, trackNames_[rec.beginTrack], name,
                 rec.beginTick, 's', rec.id);
    for (std::size_t i = 0; i < rec.hops.size(); ++i) {
        const Hop& h = rec.hops[i];
        const char ph = i + 1 == rec.hops.size() ? 'f' : 't';
        trace_->flow(TraceCat::kTxn, trackNames_[h.track], name, h.at, ph,
                     rec.id);
    }
}

void TxnProfiler::writeJson(std::ostream& os) const
{
    JsonWriter w(os);
    w.object(2).key("schema").value("dscoh-txnprof-v1");
    w.key("spans").object()
        .key("begun").value(begun_)
        .key("completed").value(completed_)
        .key("open").value(open_.size())
        .end();

    w.key("kinds").array(4);
    for (std::size_t k = 0; k < kTxnKindCount; ++k) {
        const KindStats& ks = kinds_[k];
        w.object()
            .key("kind").value(to_string(static_cast<TxnKind>(k)))
            .key("count").value(ks.count)
            .key("latency").object()
            .key("mean").fixed(ks.latency.mean(), 1)
            .key("min").value(ks.latency.min())
            .key("max").value(ks.latency.max())
            .key("p50").fixed(ks.latency.percentile(50.0), 1)
            .key("p95").fixed(ks.latency.percentile(95.0), 1)
            .key("p99").fixed(ks.latency.percentile(99.0), 1)
            .end()
            .key("stages").object();
        for (std::size_t b = 0; b < kStageBucketCount; ++b)
            w.key(to_string(static_cast<StageBucket>(b)))
                .value(ks.stageTicks[b]);
        w.end().end();
    }
    w.end();

    w.key("slowest").array(4);
    for (const SpanRecord& rec : slowest_) {
        w.object()
            .key("id").value(rec.id)
            .key("kind").value(to_string(rec.kind))
            .key("addr").hex(rec.addr)
            .key("begin").value(rec.beginTick)
            .key("end").value(rec.endTick)
            .key("latency").value(rec.latency())
            .key("track").value(trackNames_[rec.beginTrack])
            .key("hops").array();
        for (const Hop& hop : rec.hops)
            w.object()
                .key("stage").value(to_string(hop.stage))
                .key("at").value(hop.at)
                .key("track").value(trackNames_[hop.track])
                .end();
        w.end().end();
    }
    w.end();

    w.key("regionShift").value(params_.regionShift);
    w.key("regions").array(4);
    for (const auto& [page, r] : regions_)
        w.object()
            .key("page").hex(page << params_.regionShift)
            .key("pushes").value(r.pushes)
            .key("installs").value(r.installs)
            .key("bypasses").value(r.bypasses)
            .key("merges").value(r.merges)
            .key("fallbacks").value(r.fallbacks)
            .key("ucReads").value(r.ucReads)
            .key("pulls").value(r.pulls)
            .key("gpuAccesses").value(r.gpuAccesses)
            .key("gpuMisses").value(r.gpuMisses)
            .key("completed").value(r.completed)
            .key("latencyTicks").value(r.latencyTicks)
            .end();
    w.end().end();
}

} // namespace dscoh
