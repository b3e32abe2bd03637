// txn_report — offline analyzer for dscoh transaction profiles.
//
//   dscoh_run --workload VA --mode ccsm --txn-profile va.ccsm.json
//   dscoh_run --workload VA --mode ds   --txn-profile va.ds.json
//   txn_report va.ccsm.json va.ds.json
//
// Reads one or more "dscoh-txnprof-v1" files (as written by
// dscoh_run/dscoh_fuzz --txn-profile) and prints, per file,
//
//   - the per-kind latency table (count, mean, p50/p95/p99),
//   - the stage-attribution table: for every transaction kind, how its
//     total latency splits across the critical-path buckets (queueing,
//     network, directory occupancy, DRAM, data supply, install, merge,
//     retry, backoff), in ticks and percent, and
//   - the --top K slowest transactions with their full hop timelines
//     (stage @ +delta-since-begin on which track).
//
// With two or more files it closes with a side-by-side per-kind summary —
// the view that shows the direct-store push path skipping the directory
// and DRAM stages the CCSM pull path pays.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli/options.h"
#include "obs/json_lite.h"
#include "sim/errors.h"

using namespace dscoh;

namespace {

constexpr std::size_t kBuckets = 9;
const char* const kBucketNames[kBuckets] = {
    "queue", "network", "directory", "dram", "supply",
    "install", "merge", "retry", "backoff",
};

struct KindRow {
    std::string kind;
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    std::uint64_t stageTicks[kBuckets] = {};

    std::uint64_t totalStageTicks() const
    {
        std::uint64_t t = 0;
        for (const std::uint64_t s : stageTicks)
            t += s;
        return t;
    }
};

struct Profile {
    std::string path;
    std::uint64_t begun = 0;
    std::uint64_t completed = 0;
    std::uint64_t open = 0;
    std::vector<KindRow> kinds; ///< only kinds with count > 0
    const jsonlite::Value* slowest = nullptr;
    jsonlite::ValuePtr doc; ///< keeps `slowest` alive
};

bool loadProfile(const std::string& path, Profile& out, std::string& error)
{
    out.doc = jsonlite::parseFile(path, error);
    if (out.doc == nullptr)
        return false;
    const jsonlite::Value* schema = out.doc->get("schema");
    if (schema == nullptr || schema->string != "dscoh-txnprof-v1") {
        error = path + ": not a dscoh-txnprof-v1 file";
        return false;
    }
    out.path = path;
    if (const jsonlite::Value* spans = out.doc->get("spans")) {
        if (const jsonlite::Value* v = spans->get("begun"))
            out.begun = v->asUint();
        if (const jsonlite::Value* v = spans->get("completed"))
            out.completed = v->asUint();
        if (const jsonlite::Value* v = spans->get("open"))
            out.open = v->asUint();
    }
    const jsonlite::Value* kinds = out.doc->get("kinds");
    if (kinds == nullptr || !kinds->isArray()) {
        error = path + ": missing \"kinds\" array";
        return false;
    }
    for (const jsonlite::ValuePtr& k : kinds->array) {
        KindRow row;
        if (const jsonlite::Value* v = k->get("kind"))
            row.kind = v->string;
        if (const jsonlite::Value* v = k->get("count"))
            row.count = v->asUint();
        if (row.count == 0)
            continue;
        if (const jsonlite::Value* lat = k->get("latency")) {
            if (const jsonlite::Value* v = lat->get("mean"))
                row.mean = v->number;
            if (const jsonlite::Value* v = lat->get("p50"))
                row.p50 = v->number;
            if (const jsonlite::Value* v = lat->get("p95"))
                row.p95 = v->number;
            if (const jsonlite::Value* v = lat->get("p99"))
                row.p99 = v->number;
        }
        if (const jsonlite::Value* stages = k->get("stages")) {
            for (std::size_t b = 0; b < kBuckets; ++b)
                if (const jsonlite::Value* v = stages->get(kBucketNames[b]))
                    row.stageTicks[b] = v->asUint();
        }
        out.kinds.push_back(row);
    }
    out.slowest = out.doc->get("slowest");
    return true;
}

void printLatencyTable(const Profile& p)
{
    std::printf("%-10s %8s %10s %10s %10s %10s\n", "kind", "count", "mean",
                "p50", "p95", "p99");
    for (const KindRow& k : p.kinds)
        std::printf("%-10s %8llu %10.1f %10.1f %10.1f %10.1f\n",
                    k.kind.c_str(), static_cast<unsigned long long>(k.count),
                    k.mean, k.p50, k.p95, k.p99);
}

void printStageTable(const Profile& p)
{
    std::printf("%-10s", "kind");
    for (const char* const b : kBucketNames)
        std::printf(" %9s", b);
    std::printf("\n");
    for (const KindRow& k : p.kinds) {
        const std::uint64_t total = k.totalStageTicks();
        std::printf("%-10s", k.kind.c_str());
        for (const std::uint64_t t : k.stageTicks)
            std::printf(" %9llu", static_cast<unsigned long long>(t));
        std::printf("\n");
        std::printf("%-10s", "");
        for (const std::uint64_t t : k.stageTicks) {
            if (total == 0) {
                std::printf(" %9s", "-");
            } else {
                const double pct = 100.0 * static_cast<double>(t) /
                                   static_cast<double>(total);
                char buf[16];
                std::snprintf(buf, sizeof buf, "%.1f%%", pct);
                std::printf(" %9s", buf);
            }
        }
        std::printf("\n");
    }
}

void printSlowest(const Profile& p, std::uint64_t top)
{
    if (p.slowest == nullptr || !p.slowest->isArray())
        return;
    std::uint64_t shown = 0;
    for (const jsonlite::ValuePtr& rec : p.slowest->array) {
        if (shown++ == top)
            break;
        const jsonlite::Value* id = rec->get("id");
        const jsonlite::Value* kind = rec->get("kind");
        const jsonlite::Value* addr = rec->get("addr");
        const jsonlite::Value* begin = rec->get("begin");
        const jsonlite::Value* latency = rec->get("latency");
        const jsonlite::Value* track = rec->get("track");
        std::printf("  #%llu %s %s latency=%llu from %s\n",
                    static_cast<unsigned long long>(
                        id != nullptr ? id->asUint() : 0),
                    kind != nullptr ? kind->string.c_str() : "?",
                    addr != nullptr ? addr->string.c_str() : "?",
                    static_cast<unsigned long long>(
                        latency != nullptr ? latency->asUint() : 0),
                    track != nullptr ? track->string.c_str() : "?");
        const jsonlite::Value* hops = rec->get("hops");
        if (hops == nullptr || !hops->isArray() || begin == nullptr)
            continue;
        std::printf("    ");
        bool first = true;
        for (const jsonlite::ValuePtr& hop : hops->array) {
            const jsonlite::Value* stage = hop->get("stage");
            const jsonlite::Value* at = hop->get("at");
            const jsonlite::Value* htrack = hop->get("track");
            std::printf("%s%s@+%llu(%s)", first ? "" : " -> ",
                        stage != nullptr ? stage->string.c_str() : "?",
                        static_cast<unsigned long long>(
                            at != nullptr ? at->asUint() - begin->asUint()
                                          : 0),
                        htrack != nullptr ? htrack->string.c_str() : "?");
            first = false;
        }
        std::printf("\n");
    }
}

/// Side-by-side per-kind view over all loaded files: count, p50, and the
/// bucket that dominates the kind's critical path in each profile.
void printComparison(const std::vector<Profile>& profiles)
{
    std::printf("\n=== comparison ===\n");
    std::printf("%-10s", "kind");
    for (const Profile& p : profiles)
        std::printf("  %28s", p.path.size() > 28
                                  ? p.path.substr(p.path.size() - 28).c_str()
                                  : p.path.c_str());
    std::printf("\n");
    std::vector<std::string> kinds;
    for (const Profile& p : profiles)
        for (const KindRow& k : p.kinds)
            if (std::find(kinds.begin(), kinds.end(), k.kind) == kinds.end())
                kinds.push_back(k.kind);
    for (const std::string& kind : kinds) {
        std::printf("%-10s", kind.c_str());
        for (const Profile& p : profiles) {
            const KindRow* row = nullptr;
            for (const KindRow& k : p.kinds)
                if (k.kind == kind)
                    row = &k;
            if (row == nullptr) {
                std::printf("  %28s", "-");
                continue;
            }
            std::size_t topBucket = 0;
            for (std::size_t b = 1; b < kBuckets; ++b)
                if (row->stageTicks[b] > row->stageTicks[topBucket])
                    topBucket = b;
            char buf[64];
            std::snprintf(buf, sizeof buf, "n=%llu p50=%.0f top=%s",
                          static_cast<unsigned long long>(row->count),
                          row->p50,
                          row->totalStageTicks() == 0
                              ? "-"
                              : kBucketNames[topBucket]);
            std::printf("  %28s", buf);
        }
        std::printf("\n");
    }
}

} // namespace

int main(int argc, char** argv)
{
    std::uint64_t top = 5;
    cli::OptionParser parser(
        "txn_report",
        "summarize dscoh --txn-profile files: per-kind latency percentiles, "
        "stage-by-stage critical-path attribution, slowest-transaction hop "
        "timelines; multiple files get a side-by-side comparison");
    parser.addUint("top", "slowest transactions to print per file "
                   "(default 5)", &top);
    if (!parser.parse(argc, argv, std::cerr))
        return kExitUsage;
    if (parser.positional().empty()) {
        std::cerr << "usage: txn_report PROFILE.json [MORE.json ...] "
                     "(--help for details)\n";
        return kExitUsage;
    }

    std::vector<Profile> profiles;
    for (const std::string& path : parser.positional()) {
        Profile p;
        std::string error;
        if (!loadProfile(path, p, error)) {
            std::cerr << "txn_report: " << error << "\n";
            return kExitIo;
        }
        profiles.push_back(std::move(p));
    }

    for (const Profile& p : profiles) {
        std::printf("=== %s ===\n", p.path.c_str());
        std::printf("spans: %llu begun, %llu completed, %llu open\n",
                    static_cast<unsigned long long>(p.begun),
                    static_cast<unsigned long long>(p.completed),
                    static_cast<unsigned long long>(p.open));
        if (p.kinds.empty()) {
            std::printf("(no completed transactions)\n\n");
            continue;
        }
        printLatencyTable(p);
        std::printf("\nstage attribution (ticks, %% of kind total):\n");
        printStageTable(p);
        if (top > 0) {
            std::printf("\nslowest %llu:\n",
                        static_cast<unsigned long long>(top));
            printSlowest(p, top);
        }
        std::printf("\n");
    }
    if (profiles.size() > 1)
        printComparison(profiles);
    return kExitOk;
}
