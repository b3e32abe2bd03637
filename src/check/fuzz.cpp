#include "check/fuzz.h"

#include <algorithm>
#include <functional>
#include <ostream>
#include <sstream>
#include <utility>

#include "check/coherence_checker.h"
#include "core/system.h"
#include "sim/rng.h"
#include "snap/serializer.h"
#include "workloads/workload.h" // producedValue

namespace dscoh {

namespace {

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&choices)[N])
{
    return choices[rng.below(N)];
}

/// Final value of the 4-byte word at @p va, viewed through the coherence
/// hierarchy: the owner's copy when a cache owns the line, else memory.
std::uint64_t readGlobalWord(System& sys, Addr va)
{
    const Addr pa = sys.addressSpace().translate(va).paddr;
    const auto ownedCopy = [pa](CacheAgent& agent) -> const DataBlock* {
        return isOwner(agent.stateOf(pa)) ? agent.peekLine(pa) : nullptr;
    };
    const DataBlock* block = ownedCopy(sys.cpuCache());
    for (std::size_t s = 0; block == nullptr && s < sys.sliceCount(); ++s)
        block = ownedCopy(sys.slice(s));
    if (block == nullptr)
        block = &sys.backingStore().readLine(pa);
    return block->read(lineOffset(pa), 4);
}

/// The canonical value phase @p p's kernel writes to output word @p gid.
constexpr std::uint64_t outValue(std::uint32_t gid, std::uint32_t p)
{
    return gid * 11ull + 3 + p;
}

} // namespace

FuzzScenario generateScenario(std::uint64_t seed)
{
    Rng rng(seed * 0x2545F4914F6CDD1Dull + 0x9E3779B97F4A7C15ull);
    FuzzScenario sc;
    sc.seed = seed;

    const std::uint32_t sliceChoices[] = {1, 2, 4};
    const std::uint32_t cpuKbChoices[] = {64, 256, 2048};
    const std::uint32_t gpuKbChoices[] = {128, 512, 2048};
    const std::uint32_t mshrChoices[] = {4, 8, 16};
    const std::uint32_t wbChoices[] = {4, 8, 32};

    sc.slices = pick(rng, sliceChoices);
    sc.sms = 1 + static_cast<std::uint32_t>(rng.below(4));
    sc.cpuL2KB = pick(rng, cpuKbChoices);
    sc.gpuL2KB = pick(rng, gpuKbChoices);
    sc.mshrs = pick(rng, mshrChoices);
    sc.wbEntries = pick(rng, wbChoices);
    sc.cohHop = 10 + rng.below(70);
    sc.dsHop = 10 + rng.below(70);
    sc.gpuHop = 4 + rng.below(16);
    sc.directory = rng.chance(0.25);

    sc.phases = 1 + static_cast<std::uint32_t>(rng.below(3));
    sc.blocks = 1 + static_cast<std::uint32_t>(rng.below(8));
    sc.threadsPerBlock = 32 * (1 + static_cast<std::uint32_t>(rng.below(4)));
    sc.opsPerThread = 1 + static_cast<std::uint32_t>(rng.below(6));
    sc.dsMinWords = rng.chance(0.3) ? 256 : 0;
    sc.tieBreakSeed = rng.chance(0.5) ? (rng.next() | 1) : 0;

    const std::uint32_t numArrays =
        2 + static_cast<std::uint32_t>(rng.below(3));
    for (std::uint32_t a = 0; a < numArrays; ++a) {
        FuzzArray arr;
        arr.words = 16 + static_cast<std::uint32_t>(rng.below(1024));
        arr.gpuShared = rng.chance(0.8);
        arr.cpuPretouch = rng.chance(0.25);
        sc.arrays.push_back(arr);
    }

    // Multi-GPU scale-out, drawn strictly after everything above so a
    // single-GPU expansion of any historical seed is unchanged up to the
    // new draws. Roughly a third of scenarios scale out.
    if (rng.chance(1.0 / 3)) {
        sc.gpus = 2 + static_cast<std::uint32_t>(rng.below(3)); // 2..4
        sc.shardPolicy = static_cast<std::uint32_t>(rng.below(3));
        sc.tsLeaseTicks = rng.chance(0.5) ? 1024 + rng.below(7169) : 0;
        sc.dsTopology = rng.chance(0.3) ? 1 : 0; // ring less common
    }
    return sc;
}

FuzzScenario generateFaultScenario(std::uint64_t seed)
{
    FuzzScenario sc = generateScenario(seed);
    Rng rng(seed * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull);

    // The faults live on the DS network; give them traffic to hit.
    bool anyShared = false;
    for (const FuzzArray& arr : sc.arrays)
        anyShared = anyShared || arr.gpuShared;
    if (!anyShared)
        sc.arrays.front().gpuShared = true;
    sc.dsMinWords = 0; // no hybrid threshold: every shared array is pushed
    // The timestamp fast path carries no delivery hardening (PROTOCOL.md:
    // leases assume a fault-free DS network), so fault scenarios keep it
    // off. Multi-GPU shapes themselves stay — per-shard hardening is
    // exactly what fault fuzzing must exercise.
    sc.tsLeaseTicks = 0;

    // Hardening must be armed: a drop with no retransmit story is a hang by
    // construction (that inversion is the CI calibration check, not a fuzz
    // scenario).
    sc.dsAckTimeout = 2000 + rng.below(6000);
    sc.dsMaxRetries = 3 + static_cast<std::uint32_t>(rng.below(4));
    sc.faultSeed = rng.next() | 1;

    sc.faultDropPpm = rng.chance(0.7)
        ? 20'000 + static_cast<std::uint32_t>(rng.below(180'000)) : 0;
    sc.faultDupPpm = rng.chance(0.5)
        ? 10'000 + static_cast<std::uint32_t>(rng.below(90'000)) : 0;
    sc.faultCorruptPpm = rng.chance(0.4)
        ? 5'000 + static_cast<std::uint32_t>(rng.below(45'000)) : 0;
    sc.faultDelayPpm = rng.chance(0.6)
        ? 50'000 + static_cast<std::uint32_t>(rng.below(300'000)) : 0;
    sc.faultDelayTicks = 50 + rng.below(1450);
    if (rng.chance(0.25)) {
        sc.faultLinkDownFrom = 1000 + rng.below(50'000);
        sc.faultLinkDownUntil =
            sc.faultLinkDownFrom + 2000 + rng.below(30'000);
    }
    if (!sc.faultsEnabled())
        sc.faultDropPpm = 50'000; // at least one fault class is always on
    return sc;
}

SystemConfig scenarioConfig(const FuzzScenario& sc, CoherenceMode mode)
{
    SystemConfig cfg = SystemConfig::paper(mode);
    cfg.numSms = sc.sms;
    cfg.gpuL2Slices = sc.slices;
    cfg.cpuL2Size = sc.cpuL2KB * 1024ull;
    cfg.gpuL2Size = sc.gpuL2KB * 1024ull;
    cfg.agentMshrs = sc.mshrs;
    cfg.gpuL2Mshrs = sc.mshrs * 4ull;
    cfg.writebackEntries = sc.wbEntries;
    cfg.coherenceNet.hopLatency = sc.cohHop;
    cfg.dsNet.hopLatency = sc.dsHop;
    cfg.gpuNet.hopLatency = sc.gpuHop;
    cfg.directoryHome = sc.directory;
    cfg.numGpus = sc.gpus;
    cfg.shardPolicy = static_cast<ShardPolicy>(sc.shardPolicy);
    cfg.tsLeaseTicks = sc.tsLeaseTicks;
    cfg.dsTopology = static_cast<DsTopology>(sc.dsTopology);
    cfg.dsMinBytes = sc.dsMinWords * 4;
    cfg.eventTieBreakSeed = sc.tieBreakSeed;
    cfg.injectBug = sc.bug;
    cfg.seed = sc.seed + 1; // replacement-policy seeds
    cfg.faults.dropPpm = sc.faultDropPpm;
    cfg.faults.dupPpm = sc.faultDupPpm;
    cfg.faults.corruptPpm = sc.faultCorruptPpm;
    cfg.faults.delayPpm = sc.faultDelayPpm;
    cfg.faults.delayTicks = sc.faultDelayTicks;
    cfg.faults.linkDownFrom = sc.faultLinkDownFrom;
    cfg.faults.linkDownUntil = sc.faultLinkDownUntil;
    cfg.faults.seed = sc.faultSeed;
    cfg.dsAckTimeout = sc.dsAckTimeout;
    cfg.dsMaxRetries = sc.dsMaxRetries;
    return cfg;
}

FuzzReport runScenario(const FuzzScenario& sc, CoherenceMode mode,
                       const FuzzOptions& options)
{
    FuzzReport report;
    if (sc.arrays.empty() || sc.phases == 0)
        return report;

    System sys(scenarioConfig(sc, mode));
    CoherenceChecker* checker = nullptr;
    if (options.oracle)
        checker = &sys.enableChecker();
    if (!options.txnProfilePath.empty())
        sys.enableTxnProfiler();

    std::vector<Addr> bases;
    std::vector<std::uint32_t> words;
    for (const FuzzArray& arr : sc.arrays) {
        bases.push_back(sys.allocateArray(arr.words * 4ull, arr.gpuShared));
        words.push_back(arr.words);
    }
    const Addr out = bases.back();
    const std::uint32_t outWords = words.back();
    const std::uint32_t inputs =
        static_cast<std::uint32_t>(sc.arrays.size()) - 1;

    // Pre-touch: pull the first lines of selected arrays into the CPU's
    // coherent L2 (driving the agent directly, below the TLB's DS-region
    // routing). This seeds the CPU-holds-a-copy states every kRemoteStore
    // edge of Fig. 3 starts from — without it a DS-mode run never exercises
    // the CPU-side invalidation the protocol (and the injected
    // kSkipRemoteStoreInval bug) hinges on.
    const bool restoring = options.phased && !options.restorePath.empty();
    Rng touchRng(sc.seed ^ 0xA5A5A5A500000001ull);
    for (std::uint32_t a = 0; !restoring && a < sc.arrays.size(); ++a) {
        if (!sc.arrays[a].cpuPretouch)
            continue;
        const bool exclusive = touchRng.chance(0.5);
        const std::uint32_t lines = std::min<std::uint32_t>(
            4, (sc.arrays[a].words * 4 + kLineSize - 1) / kLineSize);
        for (std::uint32_t l = 0; l < lines; ++l) {
            const Addr pa =
                sys.addressSpace()
                    .translate(bases[a] + static_cast<Addr>(l) * kLineSize)
                    .paddr;
            sys.cpuCache().access(pa, exclusive, [](CacheAgent::Line&) {});
        }
    }
    if (!restoring)
        sys.simulate(); // pre-touch effects are inside the snapshot otherwise

    // Build every phase up front; storage must outlive the run.
    struct Phase {
        CpuProgram produce;
        KernelDesc kernel;
        CpuProgram readBack;
    };
    std::vector<Phase> phases(sc.phases);
    Rng rng(sc.seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
    const std::uint32_t totalThreads = sc.blocks * sc.threadsPerBlock;
    for (std::uint32_t p = 0; p < sc.phases; ++p) {
        Phase& phase = phases[p];
        for (std::uint32_t a = 0; a < inputs; ++a) {
            for (std::uint32_t i = 0; i < words[a]; ++i) {
                const Addr va = bases[a] + i * 4ull;
                phase.produce.push_back(
                    cpuStore(va, producedValue(va) + p, 4));
                if (rng.chance(0.05))
                    phase.produce.push_back(cpuCompute(rng.below(8)));
            }
        }
        phase.produce.push_back(cpuFence());

        KernelDesc& k = phase.kernel;
        k.name = "fuzz_phase" + std::to_string(p);
        k.blocks = sc.blocks;
        k.threadsPerBlock = sc.threadsPerBlock;
        k.gpu = sc.gpus > 1 ? p % sc.gpus : 0; // rotate phases over devices
        const std::uint64_t bodySeed = rng.next();
        const std::uint32_t tpb = sc.threadsPerBlock;
        const std::uint32_t maxOps = sc.opsPerThread;
        const auto basesCopy = bases;
        const auto wordsCopy = words;
        k.body = [=](ThreadBuilder& t, std::uint32_t b, std::uint32_t tid) {
            // SIMT lockstep: warp-uniform decisions from a warp-seeded RNG,
            // per-lane addresses from a lane-seeded one.
            Rng warpRng(bodySeed ^ (static_cast<std::uint64_t>(b) << 32) ^
                        (tid / 32));
            Rng laneRng(bodySeed * 31 + b * 131071 + tid);
            const std::uint32_t ops =
                1 + static_cast<std::uint32_t>(warpRng.below(maxOps));
            for (std::uint32_t op = 0; op < ops; ++op) {
                if (inputs == 0) {
                    t.compute(1 +
                              static_cast<std::uint32_t>(warpRng.below(4)));
                    continue;
                }
                const std::uint32_t a =
                    static_cast<std::uint32_t>(warpRng.below(inputs));
                const std::uint32_t i =
                    static_cast<std::uint32_t>(laneRng.below(wordsCopy[a]));
                const Addr va = basesCopy[a] + i * 4ull;
                t.ldCheck(va, producedValue(va) + p, 4);
                if (warpRng.chance(0.4))
                    t.compute(
                        1 + static_cast<std::uint32_t>(warpRng.below(6)));
            }
            const std::uint32_t gid = b * tpb + tid;
            if (gid < outWords)
                t.st(out + gid * 4ull, outValue(gid, p), 4);
        };

        const std::uint32_t checked = std::min(outWords, totalThreads);
        const std::uint32_t stride =
            1 + static_cast<std::uint32_t>((sc.seed + p) % 7);
        for (std::uint32_t gid = 0; gid < checked; gid += stride)
            phase.readBack.push_back(
                cpuLoadCheck(out + gid * 4ull, outValue(gid, p), 4));
    }

    // Sliced run loop: the horizon always advances, so a wedged system
    // cannot spin this loop, and the checker's no-progress watchdog fires
    // between slices.
    constexpr Tick kSlice = 200'000;
    Tick horizon = 0;
    bool watchdogFired = false;
    const auto drainSliced = [&] {
        while (!sys.queue().empty() && horizon < options.maxTicks) {
            horizon += kSlice;
            sys.queue().runUntil(horizon);
            if (checker != nullptr &&
                !checker->checkProgress(sys.queue().curTick())) {
                watchdogFired = true;
                return;
            }
        }
    };

    std::uint32_t phasesDone = 0;
    if (!options.phased) {
        std::function<void(std::uint32_t)> runPhase = [&](std::uint32_t p) {
            sys.runCpuProgram(phases[p].produce, [&, p] {
                sys.launchKernel(phases[p].kernel, [&, p] {
                    sys.runCpuProgram(phases[p].readBack, [&, p] {
                        ++phasesDone;
                        if (p + 1 < sc.phases)
                            runPhase(p + 1);
                    });
                });
            });
        };
        runPhase(0);
        drainSliced();
    } else {
        // Phased: each round (produce -> kernel -> readback) drains fully
        // before the next starts, so every round boundary is a safe point.
        std::uint32_t startRound = 0;
        if (restoring) {
            sys.snapshotRestore(options.restorePath,
                                [&startRound](snap::SnapReader& r) {
                                    startRound = r.u32();
                                });
            phasesDone = startRound;
            horizon = sys.queue().curTick();
        }
        for (std::uint32_t p = startRound;
             p < sc.phases && !watchdogFired && horizon < options.maxTicks;
             ++p) {
            sys.runCpuProgram(phases[p].produce, [&, p] {
                sys.launchKernel(phases[p].kernel, [&, p] {
                    sys.runCpuProgram(phases[p].readBack,
                                      [&phasesDone] { ++phasesDone; });
                });
            });
            drainSliced();
            if (phasesDone == p + 1 && !options.snapshotPath.empty() &&
                options.snapshotAfterRound == p + 1)
                sys.snapshotSave(options.snapshotPath,
                                 [p](snap::SnapWriter& w) { w.u32(p + 1); });
        }
    }

    report.ticks = sys.queue().curTick();
    report.completed =
        phasesDone == sc.phases && sys.queue().empty() && !watchdogFired;
    report.checkFailures = sys.metrics().checkFailures;
    if (!report.completed)
        report.violations.push_back(
            "[hang] run did not complete: " + std::to_string(phasesDone) +
            "/" + std::to_string(sc.phases) + " phases, " +
            std::to_string(sys.queue().pending()) + " events pending at tick " +
            std::to_string(report.ticks));
    if (checker != nullptr) {
        checker->finalize(report.ticks);
        const auto& v = checker->violations();
        report.violations.insert(report.violations.end(), v.begin(), v.end());
    }
    if (report.completed) {
        const auto quiesced = sys.checkCoherenceInvariants();
        report.violations.insert(report.violations.end(), quiesced.begin(),
                                 quiesced.end());
        // Every callback that parked a payload has run and released it.
        if (const std::size_t held = sys.context().msgPool.inUse(); held != 0)
            report.violations.push_back(
                "[leak] " + std::to_string(held) +
                " msgPool slots still held after the run drained");
    }

    report.outWords.reserve(outWords);
    for (std::uint32_t gid = 0; gid < outWords; ++gid)
        report.outWords.push_back(static_cast<std::uint32_t>(
            readGlobalWord(sys, out + gid * 4ull)));

    if (!options.txnProfilePath.empty()) {
        std::ostringstream prof;
        sys.txnProfiler()->writeJson(prof);
        snap::atomicWriteFile(options.txnProfilePath, prof.str());
    }
    return report;
}

DifferentialReport runDifferential(const FuzzScenario& sc,
                                   const FuzzOptions& options)
{
    DifferentialReport diff;
    // Both modes run with the same options; the profile output (one file
    // per run) gets a per-mode suffix so the second run cannot clobber the
    // first.
    FuzzOptions ccsmOpts = options;
    FuzzOptions dsOpts = options;
    if (!options.txnProfilePath.empty()) {
        ccsmOpts.txnProfilePath += ".ccsm";
        dsOpts.txnProfilePath += ".ds";
    }
    diff.ccsm = runScenario(sc, CoherenceMode::kCcsm, ccsmOpts);
    diff.directStore = runScenario(sc, CoherenceMode::kDirectStore, dsOpts);
    const std::size_t n =
        std::min(diff.ccsm.outWords.size(), diff.directStore.outWords.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (diff.ccsm.outWords[i] != diff.directStore.outWords[i])
            diff.divergentWords.push_back(static_cast<std::uint32_t>(i));
    }
    return diff;
}

// --------------------------------------------------------------- replay --

namespace {
constexpr const char* kHeader = "# dscoh-fuzz-scenario-v1";

InjectedBug bugFromName(const std::string& name, bool& ok)
{
    ok = true;
    for (const InjectedBug b :
         {InjectedBug::kNone, InjectedBug::kSkipRemoteStoreInval,
          InjectedBug::kSkipSnoopInvalidate, InjectedBug::kDropWbAck,
          InjectedBug::kCrossShardOrder}) {
        if (name == to_string(b))
            return b;
    }
    ok = false;
    return InjectedBug::kNone;
}
} // namespace

void serializeScenario(const FuzzScenario& sc, std::ostream& os)
{
    os << kHeader << "\n"
       << "seed " << sc.seed << "\n"
       << "slices " << sc.slices << "\n"
       << "sms " << sc.sms << "\n"
       << "cpuL2KB " << sc.cpuL2KB << "\n"
       << "gpuL2KB " << sc.gpuL2KB << "\n"
       << "mshrs " << sc.mshrs << "\n"
       << "wbEntries " << sc.wbEntries << "\n"
       << "cohHop " << sc.cohHop << "\n"
       << "dsHop " << sc.dsHop << "\n"
       << "gpuHop " << sc.gpuHop << "\n"
       << "directory " << (sc.directory ? 1 : 0) << "\n"
       << "phases " << sc.phases << "\n"
       << "blocks " << sc.blocks << "\n"
       << "threadsPerBlock " << sc.threadsPerBlock << "\n"
       << "opsPerThread " << sc.opsPerThread << "\n"
       << "dsMinWords " << sc.dsMinWords << "\n"
       << "tieBreakSeed " << sc.tieBreakSeed << "\n"
       << "bug " << to_string(sc.bug) << "\n";
    // The multi-GPU block only appears when something scales out, so
    // single-GPU scenario files (and existing corpora) stay byte-identical.
    if (sc.multiGpu())
        os << "gpus " << sc.gpus << "\n"
           << "shardPolicy " << sc.shardPolicy << "\n"
           << "tsLeaseTicks " << sc.tsLeaseTicks << "\n"
           << "dsTopology " << sc.dsTopology << "\n";
    // The fault block only appears when something is armed, so fault-free
    // scenario files (and existing corpora) stay byte-identical.
    if (sc.faultsEnabled() || sc.dsAckTimeout != 0)
        os << "faultDropPpm " << sc.faultDropPpm << "\n"
           << "faultDupPpm " << sc.faultDupPpm << "\n"
           << "faultCorruptPpm " << sc.faultCorruptPpm << "\n"
           << "faultDelayPpm " << sc.faultDelayPpm << "\n"
           << "faultDelayTicks " << sc.faultDelayTicks << "\n"
           << "faultLinkDownFrom " << sc.faultLinkDownFrom << "\n"
           << "faultLinkDownUntil " << sc.faultLinkDownUntil << "\n"
           << "faultSeed " << sc.faultSeed << "\n"
           << "dsAckTimeout " << sc.dsAckTimeout << "\n"
           << "dsMaxRetries " << sc.dsMaxRetries << "\n";
    for (const FuzzArray& arr : sc.arrays)
        os << "array " << arr.words << ' ' << (arr.gpuShared ? 1 : 0) << ' '
           << (arr.cpuPretouch ? 1 : 0) << "\n";
}

std::string serializeScenario(const FuzzScenario& sc)
{
    std::ostringstream os;
    serializeScenario(sc, os);
    return os.str();
}

bool parseScenario(const std::string& text, FuzzScenario& out,
                   std::string& error)
{
    std::istringstream in(text);
    std::string line;
    bool sawHeader = false;
    FuzzScenario sc;
    sc.arrays.clear();
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        if (!sawHeader) {
            if (line != kHeader) {
                error = "line 1: expected '" + std::string(kHeader) + "'";
                return false;
            }
            sawHeader = true;
            continue;
        }
        if (line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        const auto fail = [&](const std::string& what) {
            error = "line " + std::to_string(lineNo) + ": " + what;
            return false;
        };
        const auto readU64 = [&ls](std::uint64_t& v) -> bool {
            return static_cast<bool>(ls >> v);
        };
        const auto readU32 = [&ls](std::uint32_t& v) -> bool {
            return static_cast<bool>(ls >> v);
        };
        const auto readBool = [&ls](bool& v) -> bool {
            int i = 0;
            if (!(ls >> i) || (i != 0 && i != 1))
                return false;
            v = i == 1;
            return true;
        };
        bool ok = true;
        if (key == "seed")
            ok = readU64(sc.seed);
        else if (key == "slices")
            ok = readU32(sc.slices);
        else if (key == "sms")
            ok = readU32(sc.sms);
        else if (key == "cpuL2KB")
            ok = readU32(sc.cpuL2KB);
        else if (key == "gpuL2KB")
            ok = readU32(sc.gpuL2KB);
        else if (key == "mshrs")
            ok = readU32(sc.mshrs);
        else if (key == "wbEntries")
            ok = readU32(sc.wbEntries);
        else if (key == "cohHop")
            ok = readU64(sc.cohHop);
        else if (key == "dsHop")
            ok = readU64(sc.dsHop);
        else if (key == "gpuHop")
            ok = readU64(sc.gpuHop);
        else if (key == "directory")
            ok = readBool(sc.directory);
        else if (key == "phases")
            ok = readU32(sc.phases);
        else if (key == "blocks")
            ok = readU32(sc.blocks);
        else if (key == "threadsPerBlock")
            ok = readU32(sc.threadsPerBlock);
        else if (key == "opsPerThread")
            ok = readU32(sc.opsPerThread);
        else if (key == "dsMinWords")
            ok = readU64(sc.dsMinWords);
        else if (key == "tieBreakSeed")
            ok = readU64(sc.tieBreakSeed);
        else if (key == "gpus")
            ok = readU32(sc.gpus);
        else if (key == "shardPolicy")
            ok = readU32(sc.shardPolicy);
        else if (key == "tsLeaseTicks")
            ok = readU64(sc.tsLeaseTicks);
        else if (key == "dsTopology")
            ok = readU32(sc.dsTopology);
        else if (key == "faultDropPpm")
            ok = readU32(sc.faultDropPpm);
        else if (key == "faultDupPpm")
            ok = readU32(sc.faultDupPpm);
        else if (key == "faultCorruptPpm")
            ok = readU32(sc.faultCorruptPpm);
        else if (key == "faultDelayPpm")
            ok = readU32(sc.faultDelayPpm);
        else if (key == "faultDelayTicks")
            ok = readU64(sc.faultDelayTicks);
        else if (key == "faultLinkDownFrom")
            ok = readU64(sc.faultLinkDownFrom);
        else if (key == "faultLinkDownUntil")
            ok = readU64(sc.faultLinkDownUntil);
        else if (key == "faultSeed")
            ok = readU64(sc.faultSeed);
        else if (key == "dsAckTimeout")
            ok = readU64(sc.dsAckTimeout);
        else if (key == "dsMaxRetries")
            ok = readU32(sc.dsMaxRetries);
        else if (key == "bug") {
            std::string name;
            ls >> name;
            sc.bug = bugFromName(name, ok);
            if (!ok)
                return fail("unknown bug name '" + name + "'");
        } else if (key == "array") {
            FuzzArray arr;
            ok = readU32(arr.words) && readBool(arr.gpuShared) &&
                 readBool(arr.cpuPretouch);
            if (ok)
                sc.arrays.push_back(arr);
        } else {
            return fail("unknown key '" + key + "'");
        }
        if (!ok)
            return fail("malformed value for '" + key + "'");
    }
    if (!sawHeader) {
        error = "empty scenario file";
        return false;
    }
    if (sc.arrays.empty()) {
        error = "scenario has no arrays";
        return false;
    }
    if (sc.phases == 0 || sc.blocks == 0 || sc.threadsPerBlock == 0 ||
        sc.slices == 0 || sc.sms == 0 || sc.opsPerThread == 0 ||
        sc.mshrs == 0 || sc.wbEntries == 0 || sc.cpuL2KB == 0 ||
        sc.gpuL2KB == 0 || sc.gpus == 0) {
        error = "scenario has a zero-sized field";
        return false;
    }
    if (sc.shardPolicy > 2 || sc.dsTopology > 1) {
        error = "scenario has an out-of-range enum field";
        return false;
    }
    out = std::move(sc);
    return true;
}

// -------------------------------------------------------------- shrinking --

FuzzScenario
shrinkScenario(const FuzzScenario& failing,
               const std::function<bool(const FuzzScenario&)>& stillFails,
               std::size_t maxAttempts)
{
    FuzzScenario current = failing;
    std::size_t attempts = 0;

    // Every transformation strictly simplifies the scenario, so greedy
    // fixpoint iteration terminates even without the attempt bound.
    const auto candidates = [](const FuzzScenario& sc) {
        std::vector<FuzzScenario> out;
        // Drop one array (the cheapest big win; keeps at least one).
        for (std::size_t a = 0; sc.arrays.size() > 1 && a < sc.arrays.size();
             ++a) {
            FuzzScenario c = sc;
            c.arrays.erase(c.arrays.begin() + static_cast<std::ptrdiff_t>(a));
            out.push_back(std::move(c));
        }
        if (sc.phases > 1) {
            FuzzScenario c = sc;
            c.phases = 1;
            out.push_back(std::move(c));
        }
        if (sc.blocks > 1) {
            FuzzScenario c = sc;
            c.blocks = std::max(1u, sc.blocks / 2);
            out.push_back(std::move(c));
        }
        if (sc.threadsPerBlock > 32) {
            FuzzScenario c = sc;
            c.threadsPerBlock = std::max(32u, sc.threadsPerBlock / 2);
            out.push_back(std::move(c));
        }
        if (sc.opsPerThread > 1) {
            FuzzScenario c = sc;
            c.opsPerThread = std::max(1u, sc.opsPerThread / 2);
            out.push_back(std::move(c));
        }
        for (std::size_t a = 0; a < sc.arrays.size(); ++a) {
            if (sc.arrays[a].words > 4) {
                FuzzScenario c = sc;
                c.arrays[a].words = std::max(4u, sc.arrays[a].words / 2);
                out.push_back(std::move(c));
            }
        }
        for (std::size_t a = 0; a < sc.arrays.size(); ++a) {
            if (sc.arrays[a].cpuPretouch) {
                FuzzScenario c = sc;
                c.arrays[a].cpuPretouch = false;
                out.push_back(std::move(c));
            }
        }
        if (sc.tieBreakSeed != 0) {
            FuzzScenario c = sc;
            c.tieBreakSeed = 0;
            out.push_back(std::move(c));
        }
        if (sc.directory) {
            FuzzScenario c = sc;
            c.directory = false;
            out.push_back(std::move(c));
        }
        if (sc.dsMinWords != 0) {
            FuzzScenario c = sc;
            c.dsMinWords = 0;
            out.push_back(std::move(c));
        }
        // Multi-GPU simplifications: try collapsing back to the original
        // single-GPU machine first (the biggest win), then peel the axes
        // off one at a time.
        if (sc.multiGpu()) {
            FuzzScenario c = sc;
            c.gpus = 1;
            c.shardPolicy = 0;
            c.tsLeaseTicks = 0;
            c.dsTopology = 0;
            out.push_back(std::move(c));
        }
        if (sc.gpus > 2) {
            FuzzScenario c = sc;
            c.gpus = 2;
            out.push_back(std::move(c));
        }
        if (sc.tsLeaseTicks != 0) {
            FuzzScenario c = sc;
            c.tsLeaseTicks = 0;
            out.push_back(std::move(c));
        }
        if (sc.dsTopology != 0) {
            FuzzScenario c = sc;
            c.dsTopology = 0;
            out.push_back(std::move(c));
        }
        if (sc.gpus > 1 && sc.shardPolicy != 0) {
            FuzzScenario c = sc;
            c.shardPolicy = 0;
            out.push_back(std::move(c));
        }
        // Faults shrink one class at a time; the hardening itself is only
        // offered for removal once no fault class remains that needs it
        // (otherwise the candidate hangs by construction and the shrink
        // would chase a different failure).
        if (sc.faultDupPpm != 0) {
            FuzzScenario c = sc;
            c.faultDupPpm = 0;
            out.push_back(std::move(c));
        }
        if (sc.faultDelayPpm != 0) {
            FuzzScenario c = sc;
            c.faultDelayPpm = 0;
            out.push_back(std::move(c));
        }
        if (sc.faultDropPpm != 0) {
            FuzzScenario c = sc;
            c.faultDropPpm = 0;
            out.push_back(std::move(c));
        }
        if (sc.faultCorruptPpm != 0) {
            FuzzScenario c = sc;
            c.faultCorruptPpm = 0;
            out.push_back(std::move(c));
        }
        if (sc.faultLinkDownUntil != 0) {
            FuzzScenario c = sc;
            c.faultLinkDownFrom = 0;
            c.faultLinkDownUntil = 0;
            out.push_back(std::move(c));
        }
        if (sc.dsAckTimeout != 0 && sc.faultDropPpm == 0 &&
            sc.faultCorruptPpm == 0 && sc.faultLinkDownUntil == 0) {
            FuzzScenario c = sc;
            c.dsAckTimeout = 0;
            out.push_back(std::move(c));
        }
        if (sc.sms > 1) {
            FuzzScenario c = sc;
            c.sms = std::max(1u, sc.sms / 2);
            out.push_back(std::move(c));
        }
        if (sc.slices > 1) {
            FuzzScenario c = sc;
            c.slices = std::max(1u, sc.slices / 2);
            out.push_back(std::move(c));
        }
        return out;
    };

    bool improved = true;
    while (improved && attempts < maxAttempts) {
        improved = false;
        for (FuzzScenario& c : candidates(current)) {
            if (attempts >= maxAttempts)
                break;
            ++attempts;
            if (stillFails(c)) {
                current = std::move(c);
                improved = true;
                break; // restart from the simplified scenario
            }
        }
    }
    return current;
}

} // namespace dscoh
