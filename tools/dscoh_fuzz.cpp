// Deterministic coherence-protocol fuzzer driver.
//
//   dscoh_fuzz --seeds 0:200 --check          # fuzz a seed range
//   dscoh_fuzz --replay repro_seed7.scn       # re-run a saved reproducer
//   dscoh_fuzz --replay r.scn --txn-profile p.json  # + latency attribution
//   dscoh_fuzz --seeds 0:50 --inject-bug skip-remote-store-inval
//   dscoh_fuzz --seeds 0:60 --check --faults  # randomized DS-network faults
//
// Each seed expands to a randomized scenario (see src/check/fuzz.h) which
// runs under CCSM and direct store; with --check the CoherenceChecker
// oracle is attached and the final output arrays of the two modes are
// compared word-by-word. Failing scenarios are automatically shrunk to a
// minimal reproducer and written next to --out as a --replay file.
//
// --txn-profile FILE attaches the transaction profiler and writes the
// dscoh-txnprof-v1 latency attribution (see txn_report). With --mode both
// the two runs land in FILE.ccsm and FILE.ds; when fuzzing a seed range
// the file is rewritten per seed, so it is mainly useful with --replay or
// a single-seed range. Profiling never alters simulation behavior, so a
// replayed reproducer fails identically with it on.
//
// Exit codes: 0 all seeds clean, 1 at least one failure, 2 usage error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "check/fuzz.h"
#include "cli/options.h"

namespace {

using namespace dscoh;

enum class RunMode { kBoth, kCcsm, kDirectStore };

struct FuzzRunConfig {
    RunMode mode = RunMode::kBoth;
    FuzzOptions options;
};

struct Outcome {
    bool failed = false;
    std::string detail;
};

Outcome runOnce(const FuzzScenario& sc, const FuzzRunConfig& rc)
{
    Outcome o;
    const auto describe = [](const char* label, const FuzzReport& r) {
        std::ostringstream os;
        if (!r.failed())
            return std::string();
        os << "  [" << label << "] completed=" << (r.completed ? 1 : 0)
           << " checkFailures=" << r.checkFailures << " violations="
           << r.violations.size() << " ticks=" << r.ticks << "\n";
        for (const std::string& v : r.violations)
            os << "    " << v << "\n";
        return os.str();
    };
    if (rc.mode == RunMode::kBoth) {
        const DifferentialReport diff = runDifferential(sc, rc.options);
        o.failed = diff.failed();
        std::ostringstream os;
        os << describe("ccsm", diff.ccsm)
           << describe("direct-store", diff.directStore);
        if (!diff.divergentWords.empty()) {
            os << "  [differential] " << diff.divergentWords.size()
               << " output words differ between modes (first: word "
               << diff.divergentWords.front() << ")\n";
        }
        o.detail = os.str();
        return o;
    }
    const CoherenceMode mode = rc.mode == RunMode::kCcsm
                                   ? CoherenceMode::kCcsm
                                   : CoherenceMode::kDirectStore;
    const FuzzReport r = runScenario(sc, mode, rc.options);
    o.failed = r.failed();
    o.detail =
        describe(rc.mode == RunMode::kCcsm ? "ccsm" : "direct-store", r);
    return o;
}

bool parseSeedRange(const std::string& text, std::uint64_t& lo,
                    std::uint64_t& hi)
{
    const auto colon = text.find(':');
    if (colon == std::string::npos)
        return false;
    std::istringstream a(text.substr(0, colon));
    std::istringstream b(text.substr(colon + 1));
    return static_cast<bool>(a >> lo) && a.eof() &&
           static_cast<bool>(b >> hi) && b.eof() && lo < hi;
}

} // namespace

int main(int argc, char** argv)
{
    std::string seeds = "0:50";
    std::string mode = "both";
    std::string replay;
    std::string injectBug = "none";
    std::string outDir = ".";
    bool check = false;
    bool noShrink = false;
    bool faults = false;
    bool faultDropsOnly = false;
    std::uint64_t maxTicks = 50'000'000;
    std::uint64_t shrinkBudget = 96;
    std::uint64_t forceGpus = 0;
    std::string txnProfile;

    cli::OptionParser parser(
        "dscoh_fuzz",
        "Deterministic coherence-protocol fuzzer: randomized scenarios under "
        "the invariant oracle, with differential CCSM/direct-store "
        "comparison and automatic failing-case shrinking.");
    parser.addString("seeds", "seed range lo:hi (half-open), default 0:50",
                     &seeds);
    parser.addFlag("check", "attach the CoherenceChecker oracle", &check);
    parser.addString("mode", "both|ccsm|ds (default both: differential run)",
                     &mode);
    parser.addString("replay", "re-run a saved scenario file and exit",
                     &replay);
    parser.addString("inject-bug",
                     "none|skip-remote-store-inval|skip-snoop-inval|"
                     "drop-wback|cross-shard-order (oracle validation)",
                     &injectBug);
    parser.addUint("gpus", "force every generated scenario to this many "
                   "GPUs (0 = let the seed decide; >1 shards the DS "
                   "directory)", &forceGpus, UINT32_MAX);
    parser.addString("out", "directory for shrunk reproducer files", &outDir);
    parser.addFlag("no-shrink", "report failures without shrinking them",
                   &noShrink);
    parser.addFlag("faults", "inject randomized DS-network faults (drops, "
                   "duplicates, corruption, delays, link outages) with the "
                   "delivery hardening armed", &faults);
    parser.addFlag("fault-drops-only", "with --faults: drop every DsPutX and "
                   "disarm the retransmit hardening — every seed MUST fail "
                   "(fault-calibration check that the harness can see a real "
                   "delivery bug)", &faultDropsOnly);
    parser.addUint("max-ticks", "per-run hang cut-off (simulated ticks)",
                   &maxTicks);
    parser.addUint("shrink-budget", "max candidate runs while shrinking",
                   &shrinkBudget);
    parser.addString("txn-profile", "write per-transaction latency "
                     "attribution (dscoh-txnprof-v1; .ccsm/.ds suffixes "
                     "with --mode both; feed to txn_report)", &txnProfile);
    if (!parser.parse(argc, argv, std::cerr))
        return 2;

    FuzzRunConfig rc;
    if (mode == "both")
        rc.mode = RunMode::kBoth;
    else if (mode == "ccsm")
        rc.mode = RunMode::kCcsm;
    else if (mode == "ds")
        rc.mode = RunMode::kDirectStore;
    else {
        std::cerr << "dscoh_fuzz: unknown --mode '" << mode << "'\n";
        return 2;
    }
    rc.options.oracle = check;
    rc.options.maxTicks = maxTicks;
    rc.options.txnProfilePath = txnProfile;
    if (faultDropsOnly && !faults) {
        std::cerr << "dscoh_fuzz: --fault-drops-only needs --faults\n";
        return 2;
    }

    bool bugOk = false;
    InjectedBug bug = InjectedBug::kNone;
    for (const InjectedBug b :
         {InjectedBug::kNone, InjectedBug::kSkipRemoteStoreInval,
          InjectedBug::kSkipSnoopInvalidate, InjectedBug::kDropWbAck,
          InjectedBug::kCrossShardOrder}) {
        if (injectBug == to_string(b)) {
            bug = b;
            bugOk = true;
        }
    }
    if (!bugOk) {
        std::cerr << "dscoh_fuzz: unknown --inject-bug '" << injectBug
                  << "'\n";
        return 2;
    }

    if (!replay.empty()) {
        std::ifstream in(replay);
        if (!in) {
            std::cerr << "dscoh_fuzz: cannot open replay file '" << replay
                      << "'\n";
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        FuzzScenario sc;
        std::string error;
        if (!parseScenario(text.str(), sc, error)) {
            std::cerr << "dscoh_fuzz: " << replay << ": " << error << "\n";
            return 2;
        }
        if (bug != InjectedBug::kNone)
            sc.bug = bug;
        const Outcome o = runOnce(sc, rc);
        if (o.failed) {
            std::cout << "replay " << replay << ": FAIL\n" << o.detail;
            return 1;
        }
        std::cout << "replay " << replay << ": ok\n";
        return 0;
    }

    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    if (!parseSeedRange(seeds, lo, hi)) {
        std::cerr << "dscoh_fuzz: bad --seeds '" << seeds
                  << "' (expected lo:hi with lo < hi)\n";
        return 2;
    }

    std::uint64_t failures = 0;
    for (std::uint64_t seed = lo; seed < hi; ++seed) {
        FuzzScenario sc =
            faults ? generateFaultScenario(seed) : generateScenario(seed);
        sc.bug = bug;
        if (forceGpus != 0)
            sc.gpus = static_cast<std::uint32_t>(forceGpus);
        if (bug == InjectedBug::kCrossShardOrder && !faults) {
            // The planted bug drops the lease-hold ordering protections, so
            // give every seed the surface it needs: at least two GPUs, the
            // timestamp fast path armed with a lease long enough to span a
            // produce phase (the bug lets those pushes land mid-lease), and
            // enough phases for the leasing GPU to come back around and
            // re-read its now-stale lease (kernels rotate over devices).
            if (sc.gpus < 2)
                sc.gpus = 2;
            sc.tsLeaseTicks = 1'000'000;
            if (sc.phases < 3)
                sc.phases = 3;
        }
        if (faultDropsOnly) {
            // Calibration inversion: every DsPutX/UcRead vanishes and the
            // retransmit machinery is disarmed, so every seed must fail. A
            // clean seed here means the harness cannot see a real delivery
            // bug either.
            sc.faultDropPpm = 1'000'000;
            sc.faultDupPpm = 0;
            sc.faultCorruptPpm = 0;
            sc.faultDelayPpm = 0;
            sc.faultLinkDownFrom = 0;
            sc.faultLinkDownUntil = 0;
            sc.dsAckTimeout = 0;
        }
        const Outcome o = runOnce(sc, rc);
        if (!o.failed)
            continue;
        ++failures;
        std::cout << "seed " << seed << ": FAIL\n" << o.detail;

        FuzzScenario minimal = sc;
        if (!noShrink) {
            minimal = shrinkScenario(
                sc,
                [&rc](const FuzzScenario& c) { return runOnce(c, rc).failed; },
                shrinkBudget);
            std::cout << "  shrunk to " << minimal.arrays.size()
                      << " array(s), " << minimal.phases << " phase(s), "
                      << minimal.blocks << "x" << minimal.threadsPerBlock
                      << " threads\n";
        }
        const std::string path =
            outDir + "/repro_seed" + std::to_string(seed) + ".scn";
        std::ofstream repro(path);
        if (repro) {
            serializeScenario(minimal, repro);
            std::cout << "  reproducer written to " << path
                      << " (dscoh_fuzz --replay " << path << ")\n";
        } else {
            std::cout << "  could not write reproducer to " << path << "\n";
        }
    }

    std::cout << "dscoh_fuzz: " << (hi - lo) << " seeds, " << failures
              << " failure(s)" << (check ? " [oracle on]" : "") << "\n";
    if (faultDropsOnly) {
        // Inverted exit: success means every planted fault was caught.
        if (failures == hi - lo) {
            std::cout << "fault calibration ok: every seed failed as "
                         "planted\n";
            return 0;
        }
        std::cout << "fault calibration FAILED: " << (hi - lo - failures)
                  << " seed(s) completed despite 100% DsPutX drops with the "
                     "hardening disarmed\n";
        return 1;
    }
    return failures == 0 ? 0 : 1;
}
