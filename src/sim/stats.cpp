#include "sim/stats.h"

#include <iomanip>
#include <stdexcept>
#include <utility>

#include "sim/json_escape.h"

namespace dscoh {

void Histogram::sample(std::uint64_t v)
{
    const std::size_t bucket =
        std::min(static_cast<std::size_t>(v / width_), counts_.size() - 1);
    ++counts_[bucket];
    if (samples_ == 0 || v < min_)
        min_ = v;
    max_ = std::max(max_, v);
    sum_ += v;
    ++samples_;
}

void Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    samples_ = sum_ = min_ = max_ = 0;
}

double Histogram::percentile(double p) const
{
    if (p < 0.0 || p > 100.0)
        throw std::invalid_argument("percentile must be in [0, 100]");
    if (samples_ == 0)
        return 0.0;
    if (p == 0.0)
        return static_cast<double>(min());
    if (p == 100.0)
        return static_cast<double>(max_);

    const double rank = p / 100.0 * static_cast<double>(samples_);
    double below = 0.0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        if (counts_[b] == 0)
            continue;
        const double inBucket = static_cast<double>(counts_[b]);
        if (rank > below + inBucket) {
            below += inBucket;
            continue;
        }
        // The rank lands in bucket b: interpolate linearly across it. The
        // overflow bucket has no upper edge of its own; max() bounds it.
        const double lo = static_cast<double>(b) * static_cast<double>(width_);
        const double hi = b + 1 == counts_.size()
                              ? static_cast<double>(max_)
                              : lo + static_cast<double>(width_);
        const double frac = (rank - below) / inBucket;
        const double v = lo + frac * (std::max(hi, lo) - lo);
        return std::clamp(v, static_cast<double>(min()),
                          static_cast<double>(max_));
    }
    return static_cast<double>(max_);
}

void Histogram::snapSave(snap::SnapWriter& w) const
{
    w.u64(static_cast<std::uint64_t>(counts_.size()));
    for (const std::uint64_t c : counts_)
        w.u64(c);
    w.u64(samples_);
    w.u64(sum_);
    w.u64(min_);
    w.u64(max_);
}

void Histogram::snapRestore(snap::SnapReader& r)
{
    const std::uint64_t n = r.u64();
    if (n != counts_.size())
        throw snap::SnapError("histogram bucket count mismatch: snapshot " +
                              std::to_string(n) + ", this build " +
                              std::to_string(counts_.size()));
    for (auto& c : counts_)
        c = r.u64();
    samples_ = r.u64();
    sum_ = r.u64();
    min_ = r.u64();
    max_ = r.u64();
}

void StatRegistry::registerCounter(std::string name, Counter* c)
{
    counters_.emplace(std::move(name), c);
}

void StatRegistry::registerScalar(std::string name, Scalar* s)
{
    scalars_.emplace(std::move(name), s);
}

void StatRegistry::registerHistogram(std::string name, Histogram* h)
{
    histograms_.emplace(std::move(name), h);
}

std::uint64_t StatRegistry::counter(const std::string& name) const
{
    return counters_.at(name)->value();
}

double StatRegistry::scalar(const std::string& name) const
{
    return scalars_.at(name)->value();
}

const Histogram& StatRegistry::histogram(const std::string& name) const
{
    return *histograms_.at(name);
}

std::uint64_t StatRegistry::sumCounters(const std::string& prefix) const
{
    std::uint64_t total = 0;
    for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        total += it->second->value();
    }
    return total;
}

void StatRegistry::dump(std::ostream& os) const
{
    for (const auto& [name, c] : counters_)
        os << std::left << std::setw(52) << name << ' ' << c->value() << '\n';
    for (const auto& [name, s] : scalars_)
        os << std::left << std::setw(52) << name << ' ' << s->value() << '\n';
    for (const auto& [name, h] : histograms_) {
        os << std::left << std::setw(52) << name << " samples=" << h->samples()
           << " mean=" << h->mean() << " min=" << h->min() << " max=" << h->max()
           << '\n';
    }
}

void StatRegistry::dumpJson(std::ostream& os,
                            const std::string& extraMember) const
{
    os << "{\n  \"schema\": \"dscoh-stats-v1\",\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << c->value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"scalars\": {";
    first = true;
    for (const auto& [name, s] : scalars_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << s->value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"samples\": " << h->samples()
           << ", \"mean\": " << h->mean() << ", \"min\": " << h->min()
           << ", \"max\": " << h->max()
           << ", \"p50\": " << h->percentile(50.0)
           << ", \"p90\": " << h->percentile(90.0)
           << ", \"p99\": " << h->percentile(99.0)
           << ", \"bucketWidth\": " << h->bucketWidth() << ", \"buckets\": [";
        const auto& buckets = h->buckets();
        for (std::size_t b = 0; b < buckets.size(); ++b)
            os << (b == 0 ? "" : ", ") << buckets[b];
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}";
    if (!extraMember.empty())
        os << ",\n  " << extraMember;
    os << "\n}\n";
}

void StatRegistry::snapSave(snap::SnapWriter& w) const
{
    w.u64(counters_.size());
    for (const auto& [name, c] : counters_) {
        w.str(name);
        w.u64(c->value());
    }
    w.u64(scalars_.size());
    for (const auto& [name, s] : scalars_) {
        w.str(name);
        w.f64(s->value());
    }
    w.u64(histograms_.size());
    for (const auto& [name, h] : histograms_) {
        w.str(name);
        h->snapSave(w);
    }
}

void StatRegistry::snapRestore(snap::SnapReader& r)
{
    const std::uint64_t nCounters = r.u64();
    if (nCounters != counters_.size())
        throw snap::SnapError("stat registry mismatch: snapshot has " +
                              std::to_string(nCounters) +
                              " counters, this build registered " +
                              std::to_string(counters_.size()));
    for (auto& [name, c] : counters_) {
        const std::string saved = r.str();
        if (saved != name)
            throw snap::SnapError("stat registry mismatch: snapshot counter '" +
                                  saved + "' vs registered '" + name + "'");
        c->set(r.u64());
    }
    const std::uint64_t nScalars = r.u64();
    if (nScalars != scalars_.size())
        throw snap::SnapError("stat registry mismatch: snapshot has " +
                              std::to_string(nScalars) +
                              " scalars, this build registered " +
                              std::to_string(scalars_.size()));
    for (auto& [name, s] : scalars_) {
        const std::string saved = r.str();
        if (saved != name)
            throw snap::SnapError("stat registry mismatch: snapshot scalar '" +
                                  saved + "' vs registered '" + name + "'");
        s->set(r.f64());
    }
    const std::uint64_t nHistograms = r.u64();
    if (nHistograms != histograms_.size())
        throw snap::SnapError("stat registry mismatch: snapshot has " +
                              std::to_string(nHistograms) +
                              " histograms, this build registered " +
                              std::to_string(histograms_.size()));
    for (auto& [name, h] : histograms_) {
        const std::string saved = r.str();
        if (saved != name)
            throw snap::SnapError(
                "stat registry mismatch: snapshot histogram '" + saved +
                "' vs registered '" + name + "'");
        h->snapRestore(r);
    }
}

std::vector<std::string> StatRegistry::counterNames() const
{
    std::vector<std::string> names;
    names.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
        static_cast<void>(c);
        names.push_back(name);
    }
    return names;
}

} // namespace dscoh
