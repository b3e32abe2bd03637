#include "sim/stats.h"

#include <iomanip>
#include <stdexcept>
#include <utility>

#include "sim/json_writer.h"

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
    JsonWriter w(os);
    w.object(2).key("schema").value("dscoh-stats-v1");
    w.key("counters").object(4);
    for (const auto& [name, c] : counters_)
        w.key(name).value(c->value());
    w.end().key("scalars").object(4);
    for (const auto& [name, s] : scalars_)
        w.key(name).value(s->value());
    w.end().key("histograms").object(4);
    for (const auto& [name, h] : histograms_) {
        w.key(name).object()
            .key("samples").value(h->samples())
            .key("mean").value(h->mean())
            .key("min").value(h->min())
            .key("max").value(h->max())
            .key("p50").value(h->percentile(50.0))
            .key("p90").value(h->percentile(90.0))
            .key("p99").value(h->percentile(99.0))
            .key("bucketWidth").value(h->bucketWidth())
            .key("buckets").array();
        for (const std::uint64_t count : h->buckets())
            w.value(count);
        w.end().end();
    }
    w.end();
    if (!extraMember.empty())
        w.raw(extraMember);
    w.end();
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
