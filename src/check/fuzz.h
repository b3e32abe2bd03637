// Deterministic protocol fuzzer.
//
// A FuzzScenario is a small, fully serializable description of one
// randomized producer/consumer experiment: array layout, produce/consume
// phases, cache geometry, network latencies, an optional event-queue
// tie-break perturbation seed and an optional injected protocol bug.
// generateScenario(seed) expands a seed into a scenario; runScenario() is a
// pure function of (scenario, mode) — same inputs, bit-identical simulation
// — executed under the CoherenceChecker oracle with a no-progress watchdog.
// runDifferential() runs the same scenario under CCSM and direct store and
// compares the placement-independent output array word-by-word.
//
// Failing scenarios shrink: shrinkScenario() greedily applies
// scenario-simplifying transformations (drop arrays, collapse phases,
// halve footprints, disable perturbations) while the caller-supplied
// predicate keeps failing, and the result round-trips through
// serializeScenario()/parseScenario() as a --replay file.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "coherence/protocol.h"
#include "core/config.h"
#include "sim/types.h"

namespace dscoh {

struct FuzzArray {
    std::uint32_t words = 64;  ///< 4-byte words
    bool gpuShared = true;     ///< kernel-referenced (DS region candidate)
    bool cpuPretouch = false;  ///< CPU caches the first lines before phase 0
};

struct FuzzScenario {
    std::uint64_t seed = 0;

    // Machine shape.
    std::uint32_t slices = 4;
    std::uint32_t sms = 2;
    std::uint32_t cpuL2KB = 2048;
    std::uint32_t gpuL2KB = 2048;
    std::uint32_t mshrs = 16;       ///< CPU agent; slices get 4x
    std::uint32_t wbEntries = 32;
    std::uint64_t cohHop = 40;      ///< coherence-vnet hop latency
    std::uint64_t dsHop = 40;       ///< dedicated DS network hop latency
    std::uint64_t gpuHop = 12;      ///< SM<->slice network hop latency
    bool directory = false;         ///< directory home instead of Hammer

    // Program shape.
    std::uint32_t phases = 1; ///< produce -> kernel -> readback rounds
    std::uint32_t blocks = 4;
    std::uint32_t threadsPerBlock = 64;
    std::uint32_t opsPerThread = 3;
    std::uint64_t dsMinWords = 0; ///< hybrid §III-H threshold, in words

    // Multi-GPU scale-out. All-default = the original single-GPU machine;
    // the scenario file then carries no multi-GPU block, keeping
    // pre-multi-GPU corpora byte-identical.
    std::uint32_t gpus = 1;        ///< GPUs sharing the DS region
    std::uint32_t shardPolicy = 0; ///< ShardPolicy enum value (page/line/range)
    std::uint64_t tsLeaseTicks = 0; ///< timestamp fast-path lease (0 = off)
    std::uint32_t dsTopology = 0;  ///< DsTopology enum value (crossbar/ring)

    bool multiGpu() const
    {
        return gpus > 1 || shardPolicy != 0 || tsLeaseTicks != 0 ||
               dsTopology != 0;
    }

    // Perturbation / bug injection.
    std::uint64_t tieBreakSeed = 0; ///< EventQueue::setTieBreakShuffle
    InjectedBug bug = InjectedBug::kNone;

    // Fault injection on the direct-store network plus the delivery
    // hardening that must absorb it (PROTOCOL.md "Delivery hardening").
    // All zero = no faults, hardening off — the scenario file then carries
    // no fault block, keeping pre-fault corpora byte-identical.
    std::uint32_t faultDropPpm = 0;
    std::uint32_t faultDupPpm = 0;
    std::uint32_t faultCorruptPpm = 0;
    std::uint32_t faultDelayPpm = 0;
    std::uint64_t faultDelayTicks = 200;
    std::uint64_t faultLinkDownFrom = 0;
    std::uint64_t faultLinkDownUntil = 0; ///< 0 = no outage
    std::uint64_t faultSeed = 1;
    std::uint64_t dsAckTimeout = 0; ///< 0 = delivery hardening off
    std::uint32_t dsMaxRetries = 4;

    bool faultsEnabled() const
    {
        return faultDropPpm != 0 || faultDupPpm != 0 || faultCorruptPpm != 0 ||
               faultDelayPpm != 0 || faultLinkDownUntil != 0;
    }

    std::vector<FuzzArray> arrays; ///< last array is the kernel output
};

/// Expands @p seed into a randomized scenario (pure function of the seed).
FuzzScenario generateScenario(std::uint64_t seed);

/// Like generateScenario(), but layers randomized DS-network faults (drops,
/// duplicates, corruption, delays, an optional link outage) on top and arms
/// the delivery hardening (ACK/timeout/retransmit) that must absorb them.
/// Always routes at least one array through the DS region so the faults
/// have traffic to hit.
FuzzScenario generateFaultScenario(std::uint64_t seed);

struct FuzzOptions {
    bool oracle = true;          ///< attach the CoherenceChecker
    Tick maxTicks = 50'000'000;  ///< hang cut-off for the sliced run loop

    /// Drain the event queue completely between rounds (produce -> kernel
    /// -> readback) instead of chaining every round in one event cascade.
    /// Round boundaries become safe points, enabling the two fields below.
    /// Phased and chained runs are both deterministic but tick-shifted
    /// relative to each other, so compare like with like.
    bool phased = false;
    /// With phased: snapshot (System::snapshotSave) after this many rounds
    /// completed (1-based). 0 = never.
    std::uint32_t snapshotAfterRound = 0;
    std::string snapshotPath;
    /// With phased: restore this snapshot (same scenario/mode/options) and
    /// run only the remaining rounds. The oracle's shadow state travels
    /// with the snapshot, so a restored run keeps full checking history.
    std::string restorePath;

    /// When non-empty, attach a TxnProfiler to the run and atomically
    /// publish its dscoh-txnprof-v1 JSON here afterwards (feed the file to
    /// txn_report). The profiler state rides in snapshots, so a
    /// snapshot/restore pair reproduces the uninterrupted run's profile
    /// byte for byte.
    std::string txnProfilePath;
};

struct FuzzReport {
    bool completed = false; ///< all phases ran and the queue drained in time
    Tick ticks = 0;
    std::uint64_t checkFailures = 0; ///< ldCheck/cpuLoadCheck mismatches
    std::vector<std::string> violations; ///< oracle + quiesced-state sweeps
    /// Final 4-byte values of the output array (placement-independent, so
    /// directly comparable across modes).
    std::vector<std::uint32_t> outWords;

    bool failed() const
    {
        return !completed || checkFailures != 0 || !violations.empty();
    }
};

/// Runs @p scenario under @p mode. Deterministic: equal (scenario, mode,
/// options) means an equal report.
FuzzReport runScenario(const FuzzScenario& scenario, CoherenceMode mode,
                       const FuzzOptions& options = {});

struct DifferentialReport {
    FuzzReport ccsm;
    FuzzReport directStore;
    /// Output-array words that differ between the two modes' final memory.
    std::vector<std::uint32_t> divergentWords;

    bool failed() const
    {
        return ccsm.failed() || directStore.failed() ||
               !divergentWords.empty();
    }
};

/// Runs @p scenario under kCcsm and kDirectStore and compares the final
/// output array across modes. With options.txnProfilePath set, the two
/// runs' profiles land in "<path>.ccsm" and "<path>.ds".
DifferentialReport runDifferential(const FuzzScenario& scenario,
                                   const FuzzOptions& options = {});

/// Writes the replayable text form (dscoh-fuzz-scenario-v1).
void serializeScenario(const FuzzScenario& scenario, std::ostream& os);
std::string serializeScenario(const FuzzScenario& scenario);

/// Parses the text form back. Returns false (and fills @p error) on
/// malformed input; accepts exactly what serializeScenario writes.
bool parseScenario(const std::string& text, FuzzScenario& out,
                   std::string& error);

/// Greedily minimizes @p failing while @p stillFails holds, bounded by
/// @p maxAttempts candidate evaluations. Returns the smallest reproducer
/// found (at worst the input itself).
FuzzScenario
shrinkScenario(const FuzzScenario& failing,
               const std::function<bool(const FuzzScenario&)>& stillFails,
               std::size_t maxAttempts = 128);

/// The SystemConfig a scenario maps to (exposed so tests can reuse the
/// exact machine the fuzzer builds).
SystemConfig scenarioConfig(const FuzzScenario& scenario, CoherenceMode mode);

} // namespace dscoh
