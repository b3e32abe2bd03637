// Observer byte ledger: the exact bytes of what the observers of a run
// write, pinned in tests/golden/observer_digests.tsv (one ctest per row).
// Each test runs the row's command-line tool in a fresh directory and
// compares its exit status and one document — a file the arguments name,
// or the tool's stdout — with the row's byte count and CRC-32.
//
// The clean-run rows (trace, transaction profile, stats with epochs) move
// only when what the simulated machine does, or what its observers are
// told, moves. The planted-bug rows pin the oracle's report of each bug
// the fuzzer is calibrated against, run exactly as CI runs it: a change to
// when or how the oracle reports a violation re-records them.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ledger_rows.h"
#include "snap/serializer.h"

namespace dscoh {
namespace {

struct ObserverRow {
    std::string name;
    std::string tool;     ///< dscoh_run | dscoh_fuzz
    std::string args;     ///< passed to the tool through the shell
    std::string document; ///< "stdout", or a file the arguments name
    std::string exit;     ///< the tool's exit status
    std::string bytes;
    std::string crc32; ///< eight lower-case hex digits
};

/// Names the parameter in test names (the default prints raw bytes).
void PrintTo(const ObserverRow& row, std::ostream* os)
{
    *os << row.name;
}

/// Every data row of the ledger.
std::vector<ObserverRow> loadLedger()
{
    std::vector<ObserverRow> rows;
    for (const std::vector<std::string>& f :
         ledger::rows(DSCOH_GOLDEN_DIR "/observer_digests.tsv", 7))
        rows.push_back(ObserverRow{f[0], f[1], f[2], f[3], f[4], f[5], f[6]});
    return rows;
}

std::string toolPath(const std::string& tool)
{
    if (tool == "dscoh_run")
        return DSCOH_RUN_TOOL;
    if (tool == "dscoh_fuzz")
        return DSCOH_FUZZ_TOOL;
    return {};
}

TEST(ObserverDigest, LedgerHasEveryRow)
{
    // Three documents of two clean runs, and four planted bugs.
    const std::vector<ObserverRow> rows = loadLedger();
    ASSERT_EQ(rows.size(), 10u) << "unreadable or incomplete ledger";
    for (const ObserverRow& row : rows)
        EXPECT_FALSE(toolPath(row.tool).empty()) << row.name;
}

class ObserverDigest : public ::testing::TestWithParam<ObserverRow> {};

TEST_P(ObserverDigest, MatchesTheLedger)
{
    const ObserverRow& row = GetParam();
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(testing::TempDir()) / ("observer_" + row.name);
    fs::remove_all(dir);
    fs::create_directories(dir);

    const std::string command = "cd '" + dir.string() + "' && '" +
                                toolPath(row.tool) + "' " + row.args +
                                " > stdout.txt";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;

    std::ifstream in(dir / (row.document == "stdout" ? "stdout.txt"
                                                     : row.document),
                     std::ios::binary);
    std::ostringstream image;
    image << in.rdbuf();
    const std::string bytes = image.str();
    fs::remove_all(dir);

    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x",
                  snap::crc32(bytes.data(), bytes.size()));
    EXPECT_EQ(std::to_string(WEXITSTATUS(status)) + "\t" +
                  std::to_string(bytes.size()) + "\t" + crc,
              row.exit + "\t" + row.bytes + "\t" + row.crc32)
        << "actual exit, bytes and crc32 (left) differ from "
           "observer_digests.tsv";
}

INSTANTIATE_TEST_SUITE_P(Golden, ObserverDigest,
                         ::testing::ValuesIn(loadLedger()),
                         [](const ::testing::TestParamInfo<ObserverRow>& p) {
                             return p.param.name;
                         });

} // namespace
} // namespace dscoh
