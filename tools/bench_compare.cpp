// bench_compare — diff two or more dscoh_bench reports.
//
//   dscoh_bench --reps 3 --out BENCH_2.json
//   bench_compare BENCH_1.json BENCH_2.json
//
// Loads "dscoh-bench-v1" files (the first is the baseline), matches runs by
// (code, mode), and prints the per-run events/sec delta against the
// baseline plus the geometric-mean throughput ratio per file. A run whose
// events/sec fell more than --max-regress-pct percent (default 10) below
// the baseline is flagged; any flagged run makes the tool exit 1, so it can
// gate CI the same way dscoh_bench --compare does but across full saved
// reports instead of a live run.
//
// Wall-clock numbers are host-machine measurements: comparing files
// recorded on different machines tells you about the machines, not the
// code. The per-run ticks/events columns, in contrast, are simulation
// outputs and must match exactly between any two reports of the same
// revision — a mismatch there is flagged as a determinism warning.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli/options.h"
#include "obs/json_lite.h"
#include "sim/errors.h"

using namespace dscoh;

namespace {

struct BenchRun {
    std::string code;
    std::string mode;
    std::uint64_t events = 0;
    std::uint64_t ticks = 0;
    double eventsPerSecond = 0.0;
};

struct BenchFile {
    std::string path;
    std::vector<BenchRun> runs;

    const BenchRun* find(const std::string& code,
                         const std::string& mode) const
    {
        for (const BenchRun& r : runs)
            if (r.code == code && r.mode == mode)
                return &r;
        return nullptr;
    }
};

bool loadBench(const std::string& path, BenchFile& out, std::string& error)
{
    const jsonlite::ValuePtr doc = jsonlite::parseFile(path, error);
    if (doc == nullptr)
        return false;
    const jsonlite::Value* schema = doc->get("schema");
    if (schema == nullptr || schema->string != "dscoh-bench-v1") {
        error = path + ": not a dscoh-bench-v1 file";
        return false;
    }
    const jsonlite::Value* runs = doc->get("runs");
    if (runs == nullptr || !runs->isArray()) {
        error = path + ": missing \"runs\" array";
        return false;
    }
    out.path = path;
    for (const jsonlite::ValuePtr& entry : runs->array) {
        BenchRun r;
        const jsonlite::Value* code = entry->get("code");
        const jsonlite::Value* mode = entry->get("mode");
        if (code == nullptr || mode == nullptr)
            continue;
        r.code = code->string;
        r.mode = mode->string;
        if (const jsonlite::Value* v = entry->get("events"))
            r.events = v->asUint();
        if (const jsonlite::Value* v = entry->get("ticks"))
            r.ticks = v->asUint();
        if (const jsonlite::Value* v = entry->get("events_per_second"))
            r.eventsPerSecond = v->number;
        out.runs.push_back(std::move(r));
    }
    if (out.runs.empty()) {
        error = path + ": no usable runs";
        return false;
    }
    return true;
}

} // namespace

int main(int argc, char** argv)
{
    std::uint64_t maxRegressPct = 10;
    cli::OptionParser parser(
        "bench_compare",
        "diff dscoh-bench-v1 reports against the first (baseline) file: "
        "per-run events/sec delta, geomean ratio, regression flags");
    parser.addUint("max-regress-pct", "flag runs whose events/sec dropped "
                   "more than this percent below the baseline (default 10)",
                   &maxRegressPct);
    if (!parser.parse(argc, argv, std::cerr))
        return kExitUsage;
    if (parser.positional().size() < 2) {
        std::cerr << "usage: bench_compare BASELINE.json NEW.json [MORE...] "
                     "(--help for details)\n";
        return kExitUsage;
    }

    std::vector<BenchFile> files;
    for (const std::string& path : parser.positional()) {
        BenchFile f;
        std::string error;
        if (!loadBench(path, f, error)) {
            std::cerr << "bench_compare: " << error << "\n";
            return kExitIo;
        }
        files.push_back(std::move(f));
    }

    const BenchFile& base = files.front();
    const double limit = -static_cast<double>(maxRegressPct);
    bool regressed = false;
    bool determinismWarned = false;
    for (std::size_t f = 1; f < files.size(); ++f) {
        const BenchFile& cur = files[f];
        std::printf("=== %s vs %s ===\n", cur.path.c_str(),
                    base.path.c_str());
        std::printf("%-4s %-4s %14s %14s %9s\n", "code", "mode", "base ev/s",
                    "new ev/s", "delta%");
        double logRatioSum = 0.0;
        std::size_t matched = 0;
        for (const BenchRun& b : base.runs) {
            const BenchRun* c = cur.find(b.code, b.mode);
            if (c == nullptr)
                continue;
            if (b.eventsPerSecond <= 0.0 || c->eventsPerSecond <= 0.0)
                continue;
            const double ratio = c->eventsPerSecond / b.eventsPerSecond;
            const double deltaPct = (ratio - 1.0) * 100.0;
            const bool flag = deltaPct < limit;
            std::printf("%-4s %-4s %14.0f %14.0f %+8.1f%%%s\n",
                        b.code.c_str(), b.mode.c_str(), b.eventsPerSecond,
                        c->eventsPerSecond, deltaPct,
                        flag ? "  REGRESSION" : "");
            if (flag)
                regressed = true;
            if (b.ticks != c->ticks || b.events != c->events) {
                std::printf("     (determinism warning: %s %s simulated "
                            "ticks/events differ — different revisions?)\n",
                            b.code.c_str(), b.mode.c_str());
                determinismWarned = true;
            }
            logRatioSum += std::log(ratio);
            ++matched;
        }
        if (matched == 0) {
            std::cerr << "bench_compare: no comparable runs between "
                      << base.path << " and " << cur.path << "\n";
            return kExitIo;
        }
        const double geomean =
            std::exp(logRatioSum / static_cast<double>(matched));
        std::printf("geomean events/sec ratio over %zu shared runs: %.3f "
                    "(%+.1f%%)\n\n",
                    matched, geomean, (geomean - 1.0) * 100.0);
    }
    if (determinismWarned)
        std::printf("note: simulated counters differed on some runs; the "
                    "wall-clock deltas above mix code and machine effects\n");
    if (regressed) {
        std::fprintf(stderr,
                     "bench_compare: at least one run regressed more than "
                     "%llu%%\n",
                     static_cast<unsigned long long>(maxRegressPct));
        return kExitFailure;
    }
    return kExitOk;
}
