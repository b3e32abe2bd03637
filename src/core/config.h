// System configuration. Defaults reproduce Table I of the paper.
#pragma once

#include <cstdint>
#include <ostream>

#include "coherence/home_map.h"
#include "coherence/protocol.h"
#include "cpu/tlb.h"
#include "fault/fault_config.h"
#include "mem/dram.h"
#include "mem/replacement.h"
#include "net/network.h"
#include "sim/types.h"

namespace dscoh {

/// The memory-access schemes the paper discusses: the two compared in
/// §IV-C, plus §III-H's standalone variant in which direct store fully
/// replaces CPU<->GPU hardware coherence (no snooping between the CPU and
/// the GPU L2; shared data lives only on the GPU side).
enum class CoherenceMode {
    kCcsm,            ///< baseline cache-coherent shared memory (pull-based)
    kDirectStore,     ///< the paper's push-based scheme atop CCSM
    kDirectStoreOnly, ///< §III-H: direct store as the sole CPU-GPU mechanism
};

const char* to_string(CoherenceMode m);

struct SystemConfig {
    CoherenceMode mode = CoherenceMode::kCcsm;

    // --- CPU (Table I) ---
    std::uint32_t cpuCores = 1;
    std::uint64_t cpuL1dSize = 64 * 1024;  ///< 64 KB, 2 ways
    std::uint32_t cpuL1dWays = 2;
    std::uint64_t cpuL1iSize = 32 * 1024;  ///< 32 KB, 2 ways (I-side traffic
    std::uint32_t cpuL1iWays = 2;          ///  is not simulated; listed for
                                           ///  Table I completeness)
    std::uint64_t cpuL2Size = 2 * 1024 * 1024; ///< 2 MB, 8 ways
    std::uint32_t cpuL2Ways = 8;
    Tick cpuL1Latency = 4;
    Tick cpuL2Latency = 12;
    /// Snoop service at the CPU hierarchy: tag check, and the extra cost of
    /// reading a line out of L2/L1 to supply it cache-to-cache (the slow
    /// pull leg the paper's Fig. 1 contrasts with the direct push).
    Tick cpuSnoopTagLatency = 20;
    Tick cpuDataSupplyLatency = 60;
    Tick cpuDataSupplyInterval = 16; ///< single L2 read port
    std::size_t storeBufferEntries = 8;
    std::size_t rsbEntries = 4; ///< remote-store write-combining entries
    Tlb::Params tlb{};

    // --- GPU (Table I) ---
    std::uint32_t numSms = 16;   ///< 16 SMs, 32 lanes each @ 1.4 GHz
    std::uint32_t lanesPerSm = 32;
    std::uint64_t gpuL1Size = 16 * 1024;      ///< 16 KB + 48 KB shared, 4 ways
    std::uint32_t gpuL1Ways = 4;
    std::uint64_t gpuSharedMemBytes = 48 * 1024;
    std::uint64_t gpuL2Size = 2 * 1024 * 1024; ///< 2 MB, 16 ways, 4 slices
    std::uint32_t gpuL2Ways = 16;
    std::uint32_t gpuL2Slices = 4;
    /// The capacity of one GPU L2 slice.
    std::uint64_t gpuL2SliceBytes() const { return gpuL2Size / gpuL2Slices; }
    Tick gpuL1Latency = 24;
    Tick gpuSmemLatency = 30;
    Tick gpuL2TagLatency = 16;
    Tick gpuSnoopTagLatency = 8;
    Tick gpuDataSupplyLatency = 20;
    Tick gpuDataSupplyInterval = 4;  ///< slices are banked
    /// Next-line prefetch depth at the GPU L2 (0 = off; the ablation bench
    /// compares direct store against this pull-based alternative).
    std::uint32_t gpuL2PrefetchDepth = 0;
    std::uint32_t maxResidentBlocks = 4;
    std::size_t maxOutstandingStores = 64;
    Tick kernelLaunchLatency = 2000;

    // --- Memory (Table I: 2 GB, 1 channel, 2 ranks, 8 banks @ 1 GHz) ---
    std::uint64_t memBytes = 2ull * 1024 * 1024 * 1024;
    DramTiming dram{};
    std::uint32_t memChannels = 1; ///< Table I: 1 channel; >1 for ablations

    // --- Interconnect ---
    NetworkParams coherenceNet{40, 32}; ///< request/forward/response vnets
    NetworkParams gpuNet{12, 64};       ///< SM L1s <-> L2 slices
    /// The paper's added dedicated network (§III-G), "exactly the same
    /// characteristics as the network used in many cache coherence systems".
    NetworkParams dsNet{40, 32};

    // --- Multi-GPU scale-out ---
    /// GPUs sharing the DS region. Each GPU owns its own L2 slice group,
    /// SMs and device front end; the DS range is split across them by
    /// shardPolicy with one directory/ordering-point shard per home GPU.
    /// 1 keeps the original single-GPU system bit for bit.
    std::uint32_t numGpus = 1;
    /// Which GPU homes a given physical address (see coherence/home_map.h).
    ShardPolicy shardPolicy = ShardPolicy::kPage;
    /// DS-network shape: full crossbar (uniform hop) or a ring over the
    /// CPU cores + slices with distance-proportional latency.
    DsTopology dsTopology = DsTopology::kCrossbar;
    /// Non-zero enables the timestamp-assisted fast path for GPU<->GPU
    /// reads of remotely-homed lines: the home slice grants a data lease of
    /// this many ticks (stalling its own writes until expiry) and the
    /// requesting slice self-invalidates the copy when the epoch runs out,
    /// falling back to the home-directory pull path on a miss/NACK.
    Tick tsLeaseTicks = 0;

    /// Hybrid policy (SIII-H): only kernel-referenced arrays of at least
    /// this size move to the direct-store region; smaller ones stay on the
    /// heap and use CCSM. 0 = every kernel-referenced array (the
    /// translator's default behaviour).
    std::uint64_t dsMinBytes = 0;

    /// Home-controller protocol: Hammer broadcast (the paper's baseline)
    /// or a precise directory (bench/ablation_protocol compares them).
    bool directoryHome = false;

    // --- Misc ---
    std::size_t agentMshrs = 16;   ///< CPU-side outstanding line transactions
    std::size_t gpuL2Mshrs = 64;   ///< per-slice outstanding transactions
    std::size_t writebackEntries = 32;
    ReplacementKind replacement = ReplacementKind::kLru;
    std::uint64_t seed = 1;
    /// Deliberate protocol mis-implementation, applied to the CPU cache
    /// agent and GPU L2 slices (checker/fuzzer validation only).
    InjectedBug injectBug = InjectedBug::kNone;
    /// Non-zero: randomize same-(tick, priority) event ordering with this
    /// seed (EventQueue::setTieBreakShuffle). The fuzzer's schedule
    /// perturbation; 0 keeps deterministic insertion order.
    std::uint64_t eventTieBreakSeed = 0;

    // --- Fault injection & direct-store delivery hardening ---
    /// What the injector may do to in-flight messages. Inert by default.
    FaultConfig faults{};
    /// Which networks get an injector (kFaultNet* bits). Unsafe faults
    /// (drop/dup/corrupt/link-down) only ever apply to the DS network; on
    /// coherence/GPU vnets the injector degrades to delay-only.
    std::uint32_t faultNets = kFaultNetDs;
    /// Non-zero enables the hardened direct-store path: the CPU tracks each
    /// forwarded store, the slice acks it by transaction id, and this many
    /// ticks without an ack retransmits (capped exponential backoff).
    Tick dsAckTimeout = 0;
    /// Retransmits before a store degrades to the pull-based fallback path.
    std::uint32_t dsMaxRetries = 4;
    /// Bound on simultaneously in-flight hardened stores (excess queue up).
    std::size_t dsInFlightMax = 8;

    /// Table I defaults under the given scheme.
    static SystemConfig paper(CoherenceMode mode)
    {
        SystemConfig cfg;
        cfg.mode = mode;
        return cfg;
    }

    /// Prints the configuration in the shape of the paper's Table I.
    void printTable(std::ostream& os) const;
};

} // namespace dscoh
