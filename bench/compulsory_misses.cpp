// Reproduces the compulsory-miss measurement (SIV intro): "we believe the
// proposed approach should specifically reduce compulsory misses, so we
// measure those for both approaches."
//
// A GPU L2 miss is compulsory when the line has never before been present
// in the slice; a direct-store push pre-fills the line, so the first GPU
// access is not even a miss.
//
// Usage: compulsory_misses <small results.json> <big results.json>, the
// files written by `dscoh_sweep small|big --json FILE`.
#include <cstdio>

#include "bench_util.h"

using namespace dscoh;
using namespace dscoh::bench;

namespace {

void report(const char* title, const std::vector<BenchmarkRow>& rows)
{
    std::printf("\n--- Compulsory GPU L2 misses (%s inputs) ---\n", title);
    std::printf("%-5s %12s %12s %12s %14s\n", "Name", "CCSM comp", "DS comp",
                "eliminated", "DS pre-fills");
    std::uint64_t totalCcsm = 0;
    std::uint64_t totalDs = 0;
    for (const auto& row : rows) {
        const std::uint64_t c = row.ccsm.metrics.gpuL2Compulsory;
        const std::uint64_t d = row.ds.metrics.gpuL2Compulsory;
        totalCcsm += c;
        totalDs += d;
        const double eliminated =
            c == 0 ? 0.0
                   : (1.0 - static_cast<double>(d) / static_cast<double>(c)) *
                         100.0;
        std::printf("%-5s %12llu %12llu %11.1f%% %14llu\n", row.code.c_str(),
                    static_cast<unsigned long long>(c),
                    static_cast<unsigned long long>(d), eliminated,
                    static_cast<unsigned long long>(row.ds.metrics.dsFills));
    }
    std::printf("%-5s %12llu %12llu %11.1f%%\n", "TOTAL",
                static_cast<unsigned long long>(totalCcsm),
                static_cast<unsigned long long>(totalDs),
                totalCcsm == 0
                    ? 0.0
                    : (1.0 - static_cast<double>(totalDs) /
                                 static_cast<double>(totalCcsm)) *
                          100.0);
}

} // namespace

int main(int argc, char** argv)
{
    const auto inputs = loadReportArgs(argc, argv, "compulsory_misses",
                                       {InputSize::kSmall, InputSize::kBig});

    std::printf("=== Compulsory-miss reduction under direct store ===\n");
    report("small", inputs[0]);
    report("big", inputs[1]);
    return 0;
}
