#include "obs/epoch_sampler.h"

#include <utility>

#include "sim/json_writer.h"

namespace dscoh {

EpochSampler::EpochSampler(EventQueue& queue, const StatRegistry& stats,
                           Params params)
    : queue_(queue), stats_(stats), params_(std::move(params))
{
}

void EpochSampler::start()
{
    if (params_.epochTicks == 0 || restored_)
        return;
    const std::vector<std::string> all = stats_.counterNames();
    if (params_.selectors.empty()) {
        names_ = all;
    } else {
        for (const std::string& name : all) {
            for (const std::string& sel : params_.selectors) {
                if (name.compare(0, sel.size(), sel) == 0) {
                    names_.push_back(name);
                    break;
                }
            }
        }
    }
    takeSample();
    arm();
}

void EpochSampler::takeSample()
{
    Sample s;
    s.tick = queue_.curTick();
    s.values.reserve(names_.size());
    for (const std::string& name : names_)
        s.values.push_back(stats_.counter(name));
    samples_.push_back(std::move(s));
}

void EpochSampler::arm()
{
    queue_.scheduleAfterInline(params_.epochTicks,
                               [this] {
                                   takeSample();
                                   // Re-arm only while the simulation still
                                   // has work: a lone sampler event must not
                                   // keep the queue spinning forever after
                                   // the run drains.
                                   if (queue_.pending() > 0)
                                       arm();
                               },
                               EventPriority::kStats);
}

void EpochSampler::snapSave(snap::SnapWriter& w) const
{
    w.u64(params_.epochTicks);
    w.u64(names_.size());
    for (const std::string& name : names_)
        w.str(name);
    w.u64(samples_.size());
    for (const Sample& s : samples_) {
        w.u64(s.tick);
        for (const std::uint64_t v : s.values)
            w.u64(v);
    }
}

void EpochSampler::snapRestore(snap::SnapReader& r)
{
    const std::uint64_t epochTicks = r.u64();
    if (epochTicks != params_.epochTicks)
        throw snap::SnapError(
            "epoch sampler period differs from the snapshot's (" +
            std::to_string(params_.epochTicks) + " vs " +
            std::to_string(epochTicks) + ")");
    names_.clear();
    const std::uint64_t nNames = r.u64();
    for (std::uint64_t i = 0; i < nNames; ++i)
        names_.push_back(r.str());
    samples_.clear();
    const std::uint64_t nSamples = r.u64();
    for (std::uint64_t i = 0; i < nSamples; ++i) {
        Sample s;
        s.tick = r.u64();
        s.values.reserve(names_.size());
        for (std::size_t v = 0; v < names_.size(); ++v)
            s.values.push_back(r.u64());
        samples_.push_back(std::move(s));
    }
    restored_ = true;
}

void EpochSampler::writeJson(std::ostream& os) const
{
    JsonWriter w;
    w.object().key("epochTicks").value(params_.epochTicks).key("names").array();
    for (const std::string& name : names_)
        w.value(name);
    w.end().key("samples").array(4);
    for (const Sample& s : samples_) {
        w.object().key("tick").value(s.tick).key("values").array();
        for (const std::uint64_t v : s.values)
            w.value(v);
        w.end().end();
    }
    os << w.end().end().str();
}

} // namespace dscoh
