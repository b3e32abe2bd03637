// Fault-model configuration: what the injector may do to messages in
// flight, with what probability, when, and to whom.
//
// Probabilities are integer parts-per-million so the configuration hashes
// and serializes exactly (no floating point in configHashOf). All fields
// default to "no faults": a default FaultConfig is inert and costs nothing
// (System attaches no injector).
#pragma once

#include <cstdint>

#include "sim/types.h"

namespace dscoh {

// Bits of SystemConfig::faultNets selecting which networks the injector
// attaches to. Unsafe faults (drop / duplicate / corrupt / link-down) are
// honoured only on the dedicated direct-store network — the coherence vnets
// have no retransmit story — so on every other network the injector
// degrades to delay-only.
inline constexpr std::uint32_t kFaultNetRequest = 1u << 0;
inline constexpr std::uint32_t kFaultNetForward = 1u << 1;
inline constexpr std::uint32_t kFaultNetResponse = 1u << 2;
inline constexpr std::uint32_t kFaultNetDs = 1u << 3;
inline constexpr std::uint32_t kFaultNetGpu = 1u << 4;

struct FaultConfig {
    // Per-message fault probabilities, parts per million (1'000'000 = every
    // message). Evaluated independently in the fixed order drop, duplicate,
    // corrupt, delay; a dropped message draws nothing further.
    std::uint32_t dropPpm = 0;
    std::uint32_t dupPpm = 0;
    std::uint32_t corruptPpm = 0;
    std::uint32_t delayPpm = 0;
    /// Maximum extra delivery delay when a delay fault fires (uniform in
    /// [1, delayTicks]). This bounds a message's extra lifetime on the
    /// wire, which the CPU's fallback drain window relies on (see
    /// PROTOCOL.md "Delivery hardening").
    Tick delayTicks = 200;

    /// Probabilistic faults fire only in [windowStart, windowEnd), or at
    /// any tick when windowEnd == 0.
    Tick windowStart = 0;
    Tick windowEnd = 0;

    /// Per-(src,dst) targeting: kInvalidNode matches any node.
    NodeId srcFilter = kInvalidNode;
    NodeId dstFilter = kInvalidNode;

    /// Single-link-down outage: every send on the matching (src,dst) pair
    /// during [linkDownFrom, linkDownUntil) is dropped deterministically.
    /// kInvalidNode endpoints match any node (whole network down). Both
    /// ticks zero = no outage.
    Tick linkDownFrom = 0;
    Tick linkDownUntil = 0;
    NodeId linkDownSrc = kInvalidNode;
    NodeId linkDownDst = kInvalidNode;

    /// Seed of the injector's private RNG stream (salted per network).
    std::uint64_t seed = 1;

    bool anyProbabilistic() const
    {
        return dropPpm != 0 || dupPpm != 0 || corruptPpm != 0 ||
               delayPpm != 0;
    }
    bool linkDownConfigured() const { return linkDownUntil != 0; }
    /// True when this configuration can ever perturb a message.
    bool enabled() const { return anyProbabilistic() || linkDownConfigured(); }
};

} // namespace dscoh
