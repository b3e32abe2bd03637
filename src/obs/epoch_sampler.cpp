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
    queue_.scheduleAfter(params_.epochTicks,
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
