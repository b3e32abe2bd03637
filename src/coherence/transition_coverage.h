// Protocol transition coverage: a per-run table of the (state, event) ->
// state edges the cache agents take, attached to a System like the trace
// and the checker. The test suite uses it to prove the implementation
// exercises every stable transition of the paper's Fig. 3, including the
// remote-store extension.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <tuple>

#include "coherence/protocol.h"

namespace dscoh {

enum class CohEvent : std::uint8_t {
    kLoad,        ///< local load request
    kStore,       ///< local store request
    kFill,        ///< data arrived for an outstanding request
    kSnpGetS,     ///< snooped by a reader
    kSnpGetX,     ///< snooped by a writer
    kEvict,       ///< replacement victim
    kRemoteStore, ///< the paper's direct-store transitions (Fig. 3 bold/blue)
    kWbAck,       ///< writeback acknowledged

    // Delivery-hardening edges (fault injection; PROTOCOL.md "Delivery
    // hardening").
    kFallbackStore, ///< DS push abandoned, store re-done via the pull path
    kDupPush,       ///< duplicate DsPutX squashed at the slice
    kCorruptPush,   ///< DsPutX failed its checksum at the slice, NACKed

    // Multi-GPU cross-shard edges (directory sharding + timestamp fast
    // path; PROTOCOL.md "Directory sharding across GPUs").
    kRemoteGetS,  ///< slice misses a remotely-homed line, pulls via its home
    kRemoteGetX,  ///< slice writes a remotely-homed line, GetX via its home
    kTsGrant,     ///< home slice granted a timestamp lease on its copy
    kTsFill,      ///< requesting slice installed leased data (epoch buffer)
    kTsExpire,    ///< leased copy self-invalidated at epoch expiry
    kTsFallback,  ///< lease NACKed, requester took the home-directory pull
    kLeaseHold,   ///< write on the home GPU stalled until lease expiry
};

const char* to_string(CohEvent e);

/// Counts the (state, event) -> state edges one run's cache agents take.
/// The caller owns the table and attaches it to a System
/// (System::attachCoverage); unattached, each transition costs the agents
/// one pointer test. A table sums the runs of every System it is attached
/// to; Systems that run at once on different threads need a table each.
class TransitionCoverage {
public:
    void record(CohState from, CohEvent event, CohState to)
    {
        ++counts_[std::make_tuple(from, event, to)];
    }

    std::uint64_t count(CohState from, CohEvent event, CohState to) const
    {
        const auto it = counts_.find(std::make_tuple(from, event, to));
        return it == counts_.end() ? 0 : it->second;
    }

    bool covered(CohState from, CohEvent event, CohState to) const
    {
        return count(from, event, to) > 0;
    }

    std::size_t distinctTransitions() const { return counts_.size(); }

    void dump(std::ostream& os) const;

private:
    using Key = std::tuple<CohState, CohEvent, CohState>;
    std::map<Key, std::uint64_t> counts_;
};

} // namespace dscoh
