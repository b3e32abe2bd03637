// Reproduces Fig. 4: direct-store speedup over CCSM for small (top) and big
// (bottom) inputs, with the geometric mean of the non-zero speedups.
//
// Paper reference points: speedups up to 37%, typically 5-7%; NN, BL, VA,
// MM, MT above 10% for small inputs; GA, KM, LV, PT, SR, ST, MS at zero;
// geomean of non-zero speedups 7.8% (small) and 5.7% (big); direct store
// never hurts.
//
// Usage: fig4_speedup <small results.json> <big results.json>, the files
// written by `dscoh_sweep small|big --json FILE`.
#include <cstdio>

#include "bench_util.h"

using namespace dscoh;
using namespace dscoh::bench;

namespace {

void report(const char* title, const std::vector<BenchmarkRow>& rows,
            double paperGeomean)
{
    std::printf("\n--- Fig. 4 (%s inputs): direct store speedup over CCSM ---\n",
                title);
    std::printf("%-5s %14s %14s %10s\n", "Name", "CCSM ticks", "DS ticks",
                "speedup%");
    std::vector<double> speedups;
    for (const auto& row : rows) {
        std::printf("%-5s %14llu %14llu %9.1f%%\n", row.code.c_str(),
                    static_cast<unsigned long long>(row.ccsm.metrics.ticks),
                    static_cast<unsigned long long>(row.ds.metrics.ticks),
                    row.speedupPercent());
        speedups.push_back(row.speedupPercent());
    }
    std::printf("%-5s %40.1f%%  (paper: %.1f%%)\n", "GEO*",
                geomeanNonZero(speedups), paperGeomean);
    std::printf("  GEO* = geometric mean of non-zero speedups, as in the "
                "paper\n");
}

} // namespace

int main(int argc, char** argv)
{
    const auto inputs = loadReportArgs(argc, argv, "fig4_speedup",
                                       {InputSize::kSmall, InputSize::kBig});
    const auto& small = inputs[0];
    const auto& big = inputs[1];

    std::printf("=== Fig. 4: Direct store speedup over CCSM ===\n");
    std::printf("(22 benchmarks x 2 schemes per input size; every run is "
                "functionally\n verified -- any produced-value mismatch "
                "aborts the bench)\n");

    report("small", small, 7.8);
    report("big", big, 5.7);

    // The paper's qualitative claims, checked mechanically.
    int regressions = 0;
    for (const auto* rows : {&small, &big})
        for (const auto& row : *rows)
            if (row.speedupPercent() < -1.0)
                ++regressions;
    std::printf("\nClaim checks:\n");
    std::printf("  'never decreases performance' (within 1%% noise): %s\n",
                regressions == 0 ? "HOLDS" : "VIOLATED");

    int smallAbove10 = 0;
    for (const auto& row : small)
        if (row.speedupPercent() > 10.0)
            ++smallAbove10;
    std::printf("  benchmarks above 10%% for small inputs: %d (paper: 5)\n",
                smallAbove10);
    return 0;
}
