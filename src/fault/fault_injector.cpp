#include "fault/fault_injector.h"

#include <utility>

namespace dscoh {

FaultInjector::FaultInjector(std::string name, SimContext& ctx,
                             const FaultConfig& cfg, std::uint64_t seedSalt)
    : SimObject(std::move(name), ctx), cfg_(cfg)
{
    std::uint64_t sm = cfg_.seed;
    for (std::uint64_t i = 0; i <= seedSalt; ++i)
        splitmix64(sm);
    rng_.reseed(sm);
}

FaultDecision FaultInjector::decide(NodeId src, NodeId dst, Tick now)
{
    FaultDecision d;
    if (linkDownNow(now) && linkMatches(src, dst)) {
        d.drop = true;
        d.linkDown = true;
        linkDownDrops_.inc();
        return d;
    }
    if (!cfg_.anyProbabilistic() || !windowActive(now) || !matches(src, dst))
        return d;
    if (cfg_.dropPpm != 0 && draw() < cfg_.dropPpm) {
        d.drop = true;
        drops_.inc();
        return d;
    }
    if (cfg_.dupPpm != 0 && draw() < cfg_.dupPpm) {
        d.duplicate = true;
        duplicates_.inc();
    }
    if (cfg_.corruptPpm != 0 && draw() < cfg_.corruptPpm) {
        d.corrupt = true;
        corruptions_.inc();
    }
    if (cfg_.delayPpm != 0 && draw() < cfg_.delayPpm) {
        d.extraDelay = 1 + rng_.below(cfg_.delayTicks == 0 ? 1 : cfg_.delayTicks);
        delays_.inc();
    }
    return d;
}

void FaultInjector::corruptPayload(Message& msg)
{
    const auto i = static_cast<std::uint32_t>(rng_.below(kLineSize));
    msg.data.data()[i] ^= 0xa5;
}

void FaultInjector::regStats(StatRegistry& registry)
{
    registry.registerCounter(statName("drops"), &drops_);
    registry.registerCounter(statName("link_down_drops"), &linkDownDrops_);
    registry.registerCounter(statName("duplicates"), &duplicates_);
    registry.registerCounter(statName("corruptions"), &corruptions_);
    registry.registerCounter(statName("delays"), &delays_);
}

} // namespace dscoh
