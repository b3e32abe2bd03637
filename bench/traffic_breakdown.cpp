// Quantifies Fig. 1 / SIII-H: direct store's data movement takes fewer
// steps and fewer coherence messages than the CCSM pull path, supporting
// the paper's "simpler replacement" argument.
//
// Usage: traffic_breakdown <small results.json>, the file written by
// `dscoh_sweep small --json FILE`.
#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"

using namespace dscoh;
using namespace dscoh::bench;

int main(int argc, char** argv)
{
    const auto inputs = loadReportArgs(argc, argv, "traffic_breakdown",
                                       {InputSize::kSmall});
    const auto& rows = inputs[0];

    std::printf("=== Coherence-traffic breakdown (Fig. 1 / SIII-H) ===\n");
    std::printf("Messages on the three coherence virtual networks "
                "(request/forward/response)\nversus the dedicated direct-store "
                "network, small inputs.\n\n");
    std::printf("%-5s %12s %12s %10s %12s %14s\n", "Name", "CCSM msgs",
                "DS msgs", "saved", "DS-net msgs", "CCSM KB on wire");

    std::uint64_t ccsmTotal = 0;
    std::uint64_t dsTotal = 0;
    std::uint64_t dsNetTotal = 0;
    for (const auto& row : rows) {
        const std::uint64_t c = row.ccsm.metrics.coherenceMessages;
        const std::uint64_t d = row.ds.metrics.coherenceMessages;
        ccsmTotal += c;
        dsTotal += d;
        dsNetTotal += row.ds.metrics.dsNetworkMessages;
        std::printf("%-5s %12llu %12llu %9.1f%% %12llu %14llu\n",
                    row.code.c_str(), static_cast<unsigned long long>(c),
                    static_cast<unsigned long long>(d),
                    c == 0 ? 0.0
                           : (1.0 - static_cast<double>(d) /
                                        static_cast<double>(c)) *
                                 100.0,
                    static_cast<unsigned long long>(
                        row.ds.metrics.dsNetworkMessages),
                    static_cast<unsigned long long>(
                        row.ccsm.metrics.coherenceBytes / 1024));
    }
    std::printf("\nTotals: CCSM %llu coherence msgs; DS %llu coherence + %llu "
                "DS-network msgs\n",
                static_cast<unsigned long long>(ccsmTotal),
                static_cast<unsigned long long>(dsTotal),
                static_cast<unsigned long long>(dsNetTotal));
    const double saving =
        (1.0 - static_cast<double>(dsTotal + dsNetTotal) /
                   static_cast<double>(ccsmTotal)) *
        100.0;
    std::printf("Net message saving including the dedicated network: %.1f%%\n",
                saving);
    std::printf("\nFig. 1 shape check: a CCSM pull is GetS + snoop + data + "
                "unblock (4+ messages\nper line); a direct-store push is one "
                "DsPutX + one ack on a dedicated network.\n");

    // Per-message-type breakdown on the purest producer-consumer benchmark,
    // which is Fig. 1 rendered as numbers.
    std::printf("\n--- Message types, VA small ---\n");
    const auto countTypes = [](const WorkloadRunResult& run) {
        const auto stat = [&run](const std::string& name) {
            const auto it = run.statCounters.find(name);
            return it == run.statCounters.end() ? std::uint64_t{0}
                                                : it->second;
        };
        std::map<std::string, std::uint64_t> counts;
        for (const MsgType t :
             {MsgType::kGetS, MsgType::kGetX, MsgType::kPut, MsgType::kUnblock,
              MsgType::kSnpGetS, MsgType::kSnpGetX, MsgType::kSnpResp,
              MsgType::kData, MsgType::kWbAck}) {
            const std::string type = to_string(t);
            counts[type] = stat("net.request.msg." + type) +
                           stat("net.forward.msg." + type) +
                           stat("net.response.msg." + type);
        }
        counts["DsPutX"] = stat("net.ds.msg.DsPutX");
        counts["DsAck"] = stat("net.ds.msg.DsAck");
        return counts;
    };

    // loadRows() checked the file holds every registry code, VA included.
    const BenchmarkRow* va = nullptr;
    for (const auto& row : rows)
        if (row.code == "VA")
            va = &row;
    const auto ccsmTypes = countTypes(va->ccsm);
    const auto dsTypes = countTypes(va->ds);
    std::printf("%-10s %10s %10s\n", "type", "CCSM", "DS");
    for (const auto& [type, n] : ccsmTypes)
        std::printf("%-10s %10llu %10llu\n", type.c_str(),
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(dsTypes.at(type)));
    return 0;
}
