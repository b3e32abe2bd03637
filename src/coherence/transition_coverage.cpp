#include "coherence/transition_coverage.h"

namespace dscoh {

const char* to_string(CohEvent e)
{
    switch (e) {
    case CohEvent::kLoad: return "Load";
    case CohEvent::kStore: return "Store";
    case CohEvent::kFill: return "Fill";
    case CohEvent::kSnpGetS: return "SnpGetS";
    case CohEvent::kSnpGetX: return "SnpGetX";
    case CohEvent::kEvict: return "Evict";
    case CohEvent::kRemoteStore: return "RemoteStore";
    case CohEvent::kWbAck: return "WbAck";
    case CohEvent::kFallbackStore: return "FallbackStore";
    case CohEvent::kDupPush: return "DupPush";
    case CohEvent::kCorruptPush: return "CorruptPush";
    case CohEvent::kRemoteGetS: return "RemoteGetS";
    case CohEvent::kRemoteGetX: return "RemoteGetX";
    case CohEvent::kTsGrant: return "TsGrant";
    case CohEvent::kTsFill: return "TsFill";
    case CohEvent::kTsExpire: return "TsExpire";
    case CohEvent::kTsFallback: return "TsFallback";
    case CohEvent::kLeaseHold: return "LeaseHold";
    }
    return "?";
}

void TransitionCoverage::dump(std::ostream& os) const
{
    for (const auto& [key, n] : counts_) {
        os << to_string(std::get<0>(key)) << " --"
           << to_string(std::get<1>(key)) << "--> "
           << to_string(std::get<2>(key)) << "  x" << n << "\n";
    }
}

} // namespace dscoh
