// trace_stats — offline analyzer for dscoh trace-event files.
//
//   dscoh_run --workload VA --mode ds --trace-out t.json
//   trace_stats t.json
//
// Parses a Chrome trace-event JSON file (as written by --trace-out),
// validates its shape, and prints per-category event counts plus latency
// percentiles for the span categories (net, dram, mshr, kernel). Flow
// events ('s'/'t'/'f' — the arrows --txn-profile interleaves under the txn
// category) are tallied in their own column. Phases this tool does not
// know are counted under "other" and reported; --strict turns them into a
// hard error instead, the old behavior. Uses the same strict JSON reader
// the observability tests use, so a file this tool accepts is a file
// Perfetto will load.
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cli/options.h"
#include "obs/json_lite.h"
#include "sim/stats.h"

using namespace dscoh;

namespace {

/// Per-category tally: event counts by phase plus a latency histogram over
/// the completed spans.
struct CategoryStats {
    std::uint64_t instants = 0;
    std::uint64_t spans = 0;
    std::uint64_t flows = 0; ///< 's'/'t'/'f' flow-arrow events
    std::uint64_t other = 0; ///< phases this tool does not model
    std::vector<std::uint64_t> durations;
};

/// Builds a histogram sized to the sample range so the interpolated
/// percentiles stay tight even for long-tailed categories.
Histogram buildHistogram(const std::vector<std::uint64_t>& durations)
{
    std::uint64_t maxDur = 0;
    for (const std::uint64_t d : durations)
        maxDur = std::max(maxDur, d);
    const std::size_t buckets = 64;
    const std::uint64_t width = maxDur / buckets + 1;
    Histogram h(width, buckets);
    for (const std::uint64_t d : durations)
        h.sample(d);
    return h;
}

int analyze(const std::string& path, bool strict)
{
    std::string error;
    const jsonlite::ValuePtr root = jsonlite::parseFile(path, error);
    if (!root) {
        std::cerr << "trace_stats: " << error << "\n";
        return 1;
    }
    const jsonlite::Value* events = root->get("traceEvents");
    if (events == nullptr || !events->isArray()) {
        std::cerr << "trace_stats: " << path
                  << ": missing \"traceEvents\" array\n";
        return 1;
    }

    std::map<std::string, CategoryStats> byCat;
    std::map<std::string, std::string> tracks; ///< tid -> thread_name
    std::uint64_t metadata = 0;
    for (const jsonlite::ValuePtr& ev : events->array) {
        const jsonlite::Value* ph = ev->get("ph");
        if (ph == nullptr || !ph->isString()) {
            std::cerr << "trace_stats: event without \"ph\" phase\n";
            return 1;
        }
        if (ph->string == "M") {
            ++metadata;
            const jsonlite::Value* name = ev->get("name");
            const jsonlite::Value* args = ev->get("args");
            const jsonlite::Value* tid = ev->get("tid");
            if (name != nullptr && name->string == "thread_name" &&
                args != nullptr && tid != nullptr) {
                if (const jsonlite::Value* n = args->get("name"))
                    tracks[std::to_string(tid->asUint())] = n->string;
            }
            continue;
        }
        const jsonlite::Value* cat = ev->get("cat");
        if (cat == nullptr || !cat->isString()) {
            std::cerr << "trace_stats: non-metadata event without \"cat\"\n";
            return 1;
        }
        CategoryStats& s = byCat[cat->string];
        if (ph->string == "X") {
            ++s.spans;
            const jsonlite::Value* dur = ev->get("dur");
            s.durations.push_back(dur != nullptr ? dur->asUint() : 0);
        } else if (ph->string == "s" || ph->string == "t" ||
                   ph->string == "f") {
            ++s.flows;
        } else if (ph->string == "i" || ph->string == "C") {
            ++s.instants;
        } else if (strict) {
            std::cerr << "trace_stats: unknown event phase \""
                      << ph->string << "\" (category " << cat->string
                      << ")\n";
            return 1;
        } else {
            ++s.other;
        }
    }

    std::printf("%s: %zu events (%llu metadata), %zu tracks\n", path.c_str(),
                events->array.size(),
                static_cast<unsigned long long>(metadata), tracks.size());
    std::uint64_t unknown = 0;
    std::printf("%-10s %10s %10s %8s %8s %8s %8s %8s\n", "category",
                "instants", "spans", "flows", "p50", "p90", "p99", "max");
    for (auto& [name, s] : byCat) {
        unknown += s.other;
        if (s.durations.empty()) {
            std::printf("%-10s %10llu %10llu %8llu %8s %8s %8s %8s\n",
                        name.c_str(),
                        static_cast<unsigned long long>(s.instants),
                        static_cast<unsigned long long>(s.spans),
                        static_cast<unsigned long long>(s.flows), "-", "-",
                        "-", "-");
            continue;
        }
        const Histogram h = buildHistogram(s.durations);
        std::printf("%-10s %10llu %10llu %8llu %8.0f %8.0f %8.0f %8llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(s.instants),
                    static_cast<unsigned long long>(s.spans),
                    static_cast<unsigned long long>(s.flows),
                    h.percentile(50.0), h.percentile(90.0),
                    h.percentile(99.0),
                    static_cast<unsigned long long>(h.max()));
    }
    if (unknown != 0)
        std::printf("(%llu event(s) with phases this tool does not model; "
                    "--strict rejects them)\n",
                    static_cast<unsigned long long>(unknown));
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    bool strict = false;
    cli::OptionParser parser("trace_stats",
                             "summarize a dscoh --trace-out JSON file");
    parser.addFlag("strict", "error out on event phases this tool does not "
                   "model instead of counting them as \"other\"", &strict);
    if (!parser.parse(argc, argv, std::cerr))
        return 2;
    if (parser.positional().size() != 1) {
        std::cerr << "usage: trace_stats TRACE.json (--help for details)\n";
        return 2;
    }
    try {
        return analyze(parser.positional().front(), strict);
    } catch (const std::exception& e) {
        std::cerr << "trace_stats: " << e.what() << "\n";
        return 1;
    }
}
