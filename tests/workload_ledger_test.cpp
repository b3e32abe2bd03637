// Work-count ledger: the exact amount of simulated work each small Table II
// run does, pinned in tests/golden/work_counts_small.tsv (one row per code
// and mode). The counts are deterministic, so a change that moves one moves
// the simulation: a pure speed-up must leave every row as it is, and a
// change that means to move a count updates its rows (the failure message
// prints the actual row) and explains why.
//
// Columns, summed over the run's stat counters matched as
// perfbench/layers.py matches them: simulated ticks, queue.executed_events, queue.schedule_calls,
// parked cache requests (*.deferrals), SM lane accesses (global_loads +
// global_stores) and SM coalesced_transactions. The last column,
// stats_crc32, is snap::crc32 of the run's results.json job object without
// its queue.* counters (dscoh_sweep never registers those), so a moved
// metric or stat counter fails the row even when every count holds.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "exp/experiment_engine.h"
#include "snap/serializer.h"
#include "workloads/runner.h"

namespace dscoh {
namespace {

using Row = std::string; // tab-separated, as in the file

/// "<code>\t<mode>" -> the whole row.
std::map<std::string, Row> loadLedger()
{
    std::ifstream in(DSCOH_GOLDEN_DIR "/work_counts_small.tsv");
    std::map<std::string, Row> rows;
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        const std::size_t second = line.find('\t', line.find('\t') + 1);
        rows.emplace(line.substr(0, second), line);
    }
    return rows;
}

/// True for "gpu<N>.sm<M>.<counter>", the GPU index optional
/// (layers.py: gpu\d*\.sm\d+\.<counter>).
bool isSmCounter(std::string_view name, std::string_view counter)
{
    const auto digits = [&name](std::size_t i) {
        while (i < name.size() &&
               std::isdigit(static_cast<unsigned char>(name[i])))
            ++i;
        return i;
    };
    if (name.substr(0, 3) != "gpu")
        return false;
    const std::size_t sm = digits(3);
    if (name.substr(sm, 3) != ".sm")
        return false;
    const std::size_t dot = digits(sm + 3);
    return dot > sm + 3 && name.substr(dot, 1) == "." &&
           name.substr(dot + 1) == counter;
}

/// The file's mode column uses dscoh_run's --mode names.
struct Mode {
    CoherenceMode mode;
    const char* label;
};

/// crc32 of @p r's job object, byte for byte as dscoh_sweep writes it into
/// results.json, with the queue.* counters left out.
std::uint32_t statsCrc32(WorkloadRunResult r)
{
    std::erase_if(r.statCounters, [](const auto& counter) {
        return counter.first.starts_with("queue.");
    });
    ExperimentResult job;
    job.job.code = r.code;
    job.job.size = r.size;
    job.job.mode = r.mode;
    job.ok = true;
    job.run = std::move(r);
    std::ostringstream os;
    writeResultsJson(os, {job});
    const std::string doc = os.str();
    const std::size_t open = doc.find('{', doc.find("\"results\""));
    const std::size_t close = doc.rfind('}', doc.rfind(']'));
    return snap::crc32(doc.data() + open, close + 1 - open);
}

Row countRow(const std::string& code, Mode mode)
{
    WorkloadRun run(WorkloadRegistry::instance().get(code), InputSize::kSmall,
                    mode.mode);
    run.system().enableQueueStats();
    const WorkloadRunResult r = run.run();

    std::uint64_t parked = 0;
    std::uint64_t lanes = 0;
    std::uint64_t coalesced = 0;
    for (const auto& [name, value] : r.statCounters) {
        const std::string_view n = name;
        if (n.size() > 10 && n.substr(n.size() - 10) == ".deferrals")
            parked += value;
        if (isSmCounter(n, "global_loads") || isSmCounter(n, "global_stores"))
            lanes += value;
        if (isSmCounter(n, "coalesced_transactions"))
            coalesced += value;
    }
    std::ostringstream row;
    row << code << '\t' << mode.label << '\t' << r.metrics.ticks << '\t'
        << r.statCounters.at("queue.executed_events") << '\t'
        << r.statCounters.at("queue.schedule_calls") << '\t' << parked << '\t'
        << lanes << '\t' << coalesced << '\t' << statsCrc32(r);
    return row.str();
}

class WorkCounts : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkCounts, MatchTheLedger)
{
    static const std::map<std::string, Row> ledger = loadLedger();
    ASSERT_EQ(ledger.size(), 44u) << "unreadable or incomplete ledger";
    for (const Mode mode : {Mode{CoherenceMode::kCcsm, "ccsm"},
                            Mode{CoherenceMode::kDirectStore, "ds"}}) {
        const std::string key = std::string(GetParam()) + '\t' + mode.label;
        const auto it = ledger.find(key);
        ASSERT_TRUE(it != ledger.end()) << "no ledger row for " << key;
        EXPECT_EQ(countRow(GetParam(), mode), it->second)
            << "actual row (left) differs from work_counts_small.tsv";
    }
}

INSTANTIATE_TEST_SUITE_P(Small, WorkCounts,
                         ::testing::Values("BP", "BF", "GA", "HT", "KM", "LV",
                                           "LU", "NN", "NW", "PT", "SR", "ST",
                                           "GC", "FW", "MS", "SP", "BL", "VA",
                                           "BS", "MM", "MT", "CH"),
                         [](const ::testing::TestParamInfo<const char*>& p) {
                             return p.param;
                         });

} // namespace
} // namespace dscoh
