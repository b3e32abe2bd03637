// Snapshot byte ledger: the exact bytes of a checkpoint, pinned in
// tests/golden/snapshot_digests.tsv (one ctest per row). Each test runs the
// row's workload on the row's machine with the row's observers attached,
// writes the snapshot at the row's safe point and compares the file's byte
// count and CRC-32 with the row. The rows together cover every section
// kind, so a change to how any component saves its state moves a row: a
// refactor of the snapshot code must leave every row as it is, and a
// deliberate layout change bumps snap::kFormatVersion and re-records the
// file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "obs/epoch_sampler.h"
#include "snap/serializer.h"
#include "workloads/runner.h"

namespace dscoh {
namespace {

struct DigestRow {
    std::string name;
    std::string code;
    std::string size;       ///< small | big
    std::string mode;       ///< ccsm | ds
    std::string configFile; ///< relative to the source root, or "-"
    std::string keys;       ///< "key=value;key=value", or "-"
    std::string observers;  ///< "check,txnprof,epochs=<ticks>", or "-"
    std::string checkpoint; ///< produce-done | kernel<N>-done
    std::string bytes;
    std::string crc32; ///< eight lower-case hex digits
};

/// Names the parameter in test names (the default prints raw bytes,
/// pointers included, which differ between runs).
void PrintTo(const DigestRow& row, std::ostream* os)
{
    *os << row.name;
}

std::vector<std::string> split(const std::string& text, char sep)
{
    std::vector<std::string> parts;
    std::istringstream in(text);
    std::string part;
    while (std::getline(in, part, sep))
        parts.push_back(part);
    return parts;
}

/// Every data row; '#' lines are comments and the first other line is the
/// column header.
std::vector<DigestRow> loadLedger()
{
    std::ifstream in(DSCOH_GOLDEN_DIR "/snapshot_digests.tsv");
    std::vector<DigestRow> rows;
    bool header = true;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (header) {
            header = false;
            continue;
        }
        const std::vector<std::string> f = split(line, '\t');
        if (f.size() != 10)
            continue; // counted by LedgerCoversEverySectionKind
        rows.push_back(DigestRow{f[0], f[1], f[2], f[3], f[4], f[5], f[6],
                                 f[7], f[8], f[9]});
    }
    return rows;
}

bool hasObserver(const DigestRow& row, const std::string& name)
{
    for (const std::string& o : split(row.observers, ','))
        if (o == name || o.rfind(name + "=", 0) == 0)
            return true;
    return false;
}

Tick epochTicksOf(const DigestRow& row)
{
    for (const std::string& o : split(row.observers, ','))
        if (o.rfind("epochs=", 0) == 0)
            return std::stoull(o.substr(7));
    return 0;
}

/// "produce-done" is phase 0, "kernel<N>-done" phase N.
int phaseOf(const std::string& checkpoint)
{
    if (checkpoint == "produce-done")
        return 0;
    return std::stoi(checkpoint.substr(6));
}

/// Runs @p row and returns its snapshot file's bytes.
std::string writeSnapshot(const DigestRow& row)
{
    SystemConfig cfg;
    std::string error;
    if (row.configFile != "-" &&
        !loadConfigFile(DSCOH_SOURCE_DIR "/" + row.configFile, &cfg, &error))
        throw std::runtime_error(error);
    if (row.keys != "-") {
        std::string text;
        for (const std::string& kv : split(row.keys, ';'))
            text += kv + "\n";
        if (!applyConfigText(text, &cfg, &error))
            throw std::runtime_error(error);
    }

    const std::string path =
        testing::TempDir() + "digest_" + row.name + ".snap";
    std::remove(path.c_str());
    WorkloadRunOptions opts;
    opts.checkpointOut = path;
    opts.checkpointAtPhase = phaseOf(row.checkpoint);
    opts.oracle = hasObserver(row, "check");
    WorkloadRun run(WorkloadRegistry::instance().get(row.code),
                    row.size == "big" ? InputSize::kBig : InputSize::kSmall,
                    row.mode == "ds" ? CoherenceMode::kDirectStore
                                     : CoherenceMode::kCcsm,
                    cfg, std::move(opts));
    if (hasObserver(row, "txnprof"))
        run.system().enableTxnProfiler();
    if (const Tick epochs = epochTicksOf(row); epochs != 0) {
        EpochSampler::Params params;
        params.epochTicks = epochs;
        run.system().enableEpochSampler(std::move(params));
        run.options().beforeFirstPhase = [](System& s) {
            s.epochSampler()->start();
        };
    }
    run.run();

    std::ifstream in(path, std::ios::binary);
    std::ostringstream image;
    image << in.rdbuf();
    std::remove(path.c_str());
    return image.str();
}

TEST(SnapshotDigest, LedgerCoversEverySectionKind)
{
    const std::vector<DigestRow> rows = loadLedger();
    ASSERT_EQ(rows.size(), 5u) << "unreadable or incomplete ledger";
    // The optional sections, the lease tables and a multi-home machine
    // come from one row; the others vary the protocol and the policies.
    bool all = false;
    for (const DigestRow& row : rows)
        all = all || (hasObserver(row, "check") &&
                      hasObserver(row, "txnprof") && epochTicksOf(row) != 0 &&
                      row.configFile != "-");
    EXPECT_TRUE(all) << "no row attaches every observer on a config file";
}

class SnapshotDigest : public ::testing::TestWithParam<DigestRow> {};

TEST_P(SnapshotDigest, MatchesTheLedger)
{
    const DigestRow& row = GetParam();
    const std::string image = writeSnapshot(row);
    ASSERT_FALSE(image.empty()) << "no snapshot written at " << row.checkpoint;
    ASSERT_GT(image.size(), 4u);
    // The CRC of everything before the trailer: over the whole file,
    // trailer included, a CRC-32 is the same constant for every file.
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x",
                  snap::crc32(image.data(), image.size() - 4));
    EXPECT_EQ(std::to_string(image.size()) + "\t" + crc,
              row.bytes + "\t" + row.crc32)
        << "actual bytes and crc32 (left) differ from snapshot_digests.tsv";
}

INSTANTIATE_TEST_SUITE_P(Golden, SnapshotDigest,
                         ::testing::ValuesIn(loadLedger()),
                         [](const ::testing::TestParamInfo<DigestRow>& p) {
                             return p.param.name;
                         });

} // namespace
} // namespace dscoh
