// Minimal statistics framework in the spirit of gem5's Stats package.
//
// Components own Counter / Scalar / Histogram members and register them with
// a StatRegistry under a hierarchical dotted name; the registry can dump a
// formatted report or be queried programmatically by the bench harnesses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "snap/snapshot.h"

namespace dscoh {

/// Monotonically increasing event count.
class Counter {
public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }
    /// Snapshot restore only — counters otherwise only ever increment.
    void set(std::uint64_t v) { value_ = v; }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        ar.u64(self.value_);
    }

private:
    std::uint64_t value_ = 0;
};

/// Arbitrary scalar sample (gauges, accumulated latencies, ...).
class Scalar {
public:
    void set(double v) { value_ = v; }
    void add(double v) { value_ += v; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        ar.f64(self.value_);
    }

private:
    double value_ = 0.0;
};

/// Fixed-bucket histogram with overflow bucket; tracks sum/min/max so the
/// mean is exact even when samples fall in the overflow bucket.
class Histogram {
public:
    /// Buckets are [0,width), [width,2*width), ..., plus one overflow bucket.
    explicit Histogram(std::uint64_t bucketWidth = 16, std::size_t buckets = 32)
        : width_(bucketWidth == 0 ? 1 : bucketWidth), counts_(buckets + 1, 0)
    {
    }

    void sample(std::uint64_t v);

    std::uint64_t samples() const { return samples_; }
    double mean() const { return samples_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(samples_); }
    std::uint64_t min() const { return samples_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return max_; }
    std::uint64_t bucketWidth() const { return width_; }
    const std::vector<std::uint64_t>& buckets() const { return counts_; }
    void reset();

    /// Estimated value at percentile @p p (0..100), linearly interpolated
    /// within the bucket the rank falls into. Exact at the edges: p == 0
    /// returns min(), p == 100 returns max(); results are clamped into
    /// [min, max], which also bounds the overflow bucket's estimate.
    /// Returns 0 with no samples; throws std::invalid_argument outside
    /// [0, 100].
    double percentile(double p) const;

    /// Counts/samples/sum/min/max (geometry is config-derived and must
    /// already match on restore).
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        ar.expect(self.counts_.size(), "histogram bucket count");
        for (auto& c : self.counts_)
            ar.u64(c);
        ar.u64(self.samples_);
        ar.u64(self.sum_);
        ar.u64(self.min_);
        ar.u64(self.max_);
    }

private:
    std::uint64_t width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t samples_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/// Hierarchical registry of named statistics. Names use dots, e.g.
/// "gpu.l2.slice0.misses". Pointers registered here must outlive the
/// registry's last use (components and registry are both owned by System).
class StatRegistry {
public:
    void registerCounter(std::string name, Counter* c);
    void registerScalar(std::string name, Scalar* s);
    void registerHistogram(std::string name, Histogram* h);

    /// Value of a registered counter; throws std::out_of_range if unknown.
    std::uint64_t counter(const std::string& name) const;
    /// Value of a registered scalar; throws std::out_of_range if unknown.
    double scalar(const std::string& name) const;
    /// Histogram lookup; throws std::out_of_range if unknown.
    const Histogram& histogram(const std::string& name) const;

    bool hasCounter(const std::string& name) const { return counters_.count(name) != 0; }

    /// Sum of all counters whose name matches "prefix*" (prefix match).
    std::uint64_t sumCounters(const std::string& prefix) const;

    /// Writes a sorted, formatted report of every registered stat.
    void dump(std::ostream& os) const;

    /// Writes every registered stat as one JSON object with a versioned
    /// schema ("dscoh-stats-v1"): counters and scalars as name -> value
    /// maps, histograms with samples/mean/min/max/p50/p90/p99 plus raw
    /// buckets. @p extraMember, when non-empty, must be a pre-rendered
    /// `"key": value` fragment and is appended as one more top-level member
    /// (dscoh_run uses it to embed the epoch time-series).
    void dumpJson(std::ostream& os, const std::string& extraMember = {}) const;

    std::vector<std::string> counterNames() const;

    /// Serializes every registered stat by name (sorted map order). The
    /// restore side writes values back *through* the registered pointers
    /// into the owning components, and insists the two registries hold
    /// exactly the same names — a drifted stat set is a layout mismatch.
    void snapSave(snap::SnapWriter& w) const { snapState(*this, w); }
    void snapRestore(snap::SnapReader& r) { snapState(*this, r); }

private:
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        // Each kind by name in map order; a drifted stat set is a layout
        // mismatch, refused by expect().
        const auto kind = [&ar](auto& stats, const char* count,
                                const char* name) {
            ar.expect(stats.size(), count);
            for (auto& [statName, stat] : stats) {
                ar.expect(statName, name);
                ar.nested(*stat);
            }
        };
        kind(self.counters_, "counter count", "counter name");
        kind(self.scalars_, "scalar count", "scalar name");
        kind(self.histograms_, "histogram count", "histogram name");
    }

    std::map<std::string, Counter*> counters_;
    std::map<std::string, Scalar*> scalars_;
    std::map<std::string, Histogram*> histograms_;
};

} // namespace dscoh
