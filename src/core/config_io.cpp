#include "core/config_io.h"

#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>

#include "mem/cache_array.h"
#include "mem/dram_pool.h"

namespace dscoh {

namespace {

struct Field {
    std::function<bool(SystemConfig&, const std::string&)> set;
    std::function<std::string(const SystemConfig&)> get;
};

template <typename T>
bool parseNumber(const std::string& value, T* out)
{
    // stoull would read "-1" as 2^64-1, and the cast would then truncate
    // anything wider than the field.
    if (value.empty() || value[0] < '0' || value[0] > '9')
        return false;
    try {
        std::size_t used = 0;
        const std::uint64_t v = std::stoull(value, &used, 0);
        if (used != value.size() || v > std::numeric_limits<T>::max())
            return false;
        *out = static_cast<T>(v);
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

template <typename T>
Field numField(T SystemConfig::* member)
{
    return Field{
        [member](SystemConfig& cfg, const std::string& value) {
            return parseNumber(value, &(cfg.*member));
        },
        [member](const SystemConfig& cfg) {
            return std::to_string(cfg.*member);
        },
    };
}

template <typename T>
Field faultField(T FaultConfig::* member)
{
    return Field{
        [member](SystemConfig& cfg, const std::string& value) {
            return parseNumber(value, &(cfg.faults.*member));
        },
        [member](const SystemConfig& cfg) {
            return std::to_string(cfg.faults.*member);
        },
    };
}

const std::map<std::string, Field>& fields()
{
    static const std::map<std::string, Field> table = [] {
        std::map<std::string, Field> f;
        f.emplace("mode", Field{
            [](SystemConfig& cfg, const std::string& v) {
                if (v == "ccsm")
                    cfg.mode = CoherenceMode::kCcsm;
                else if (v == "ds" || v == "directstore")
                    cfg.mode = CoherenceMode::kDirectStore;
                else if (v == "dsonly")
                    cfg.mode = CoherenceMode::kDirectStoreOnly;
                else
                    return false;
                return true;
            },
            [](const SystemConfig& cfg) -> std::string {
                switch (cfg.mode) {
                case CoherenceMode::kCcsm: return "ccsm";
                case CoherenceMode::kDirectStore: return "ds";
                case CoherenceMode::kDirectStoreOnly: return "dsonly";
                }
                return "ccsm";
            }});
        f.emplace("replacement", Field{
            [](SystemConfig& cfg, const std::string& v) {
                try {
                    cfg.replacement = replacementKindFromString(v);
                    return true;
                } catch (const std::exception&) {
                    return false;
                }
            },
            [](const SystemConfig& cfg) { return to_string(cfg.replacement); }});

        f.emplace("cpu-l1d-size", numField(&SystemConfig::cpuL1dSize));
        f.emplace("cpu-l1d-ways", numField(&SystemConfig::cpuL1dWays));
        f.emplace("cpu-l2-size", numField(&SystemConfig::cpuL2Size));
        f.emplace("cpu-l2-ways", numField(&SystemConfig::cpuL2Ways));
        f.emplace("cpu-l1-latency", numField(&SystemConfig::cpuL1Latency));
        f.emplace("cpu-l2-latency", numField(&SystemConfig::cpuL2Latency));
        f.emplace("cpu-snoop-tag-latency",
                  numField(&SystemConfig::cpuSnoopTagLatency));
        f.emplace("cpu-data-supply-latency",
                  numField(&SystemConfig::cpuDataSupplyLatency));
        f.emplace("cpu-data-supply-interval",
                  numField(&SystemConfig::cpuDataSupplyInterval));
        f.emplace("store-buffer-entries",
                  numField(&SystemConfig::storeBufferEntries));
        f.emplace("rsb-entries", numField(&SystemConfig::rsbEntries));

        f.emplace("num-sms", numField(&SystemConfig::numSms));
        f.emplace("lanes-per-sm", numField(&SystemConfig::lanesPerSm));
        f.emplace("gpu-l1-size", numField(&SystemConfig::gpuL1Size));
        f.emplace("gpu-l1-ways", numField(&SystemConfig::gpuL1Ways));
        f.emplace("gpu-l2-size", numField(&SystemConfig::gpuL2Size));
        f.emplace("gpu-l2-ways", numField(&SystemConfig::gpuL2Ways));
        f.emplace("gpu-l2-slices", numField(&SystemConfig::gpuL2Slices));
        f.emplace("gpu-l1-latency", numField(&SystemConfig::gpuL1Latency));
        f.emplace("gpu-smem-latency", numField(&SystemConfig::gpuSmemLatency));
        f.emplace("gpu-l2-tag-latency",
                  numField(&SystemConfig::gpuL2TagLatency));
        f.emplace("gpu-l2-mshrs", numField(&SystemConfig::gpuL2Mshrs));
        f.emplace("gpu-l2-prefetch-depth",
                  numField(&SystemConfig::gpuL2PrefetchDepth));
        f.emplace("max-resident-blocks",
                  numField(&SystemConfig::maxResidentBlocks));
        f.emplace("kernel-launch-latency",
                  numField(&SystemConfig::kernelLaunchLatency));

        f.emplace("mem-bytes", numField(&SystemConfig::memBytes));
        f.emplace("mem-channels", numField(&SystemConfig::memChannels));

        f.emplace("coherence-hop-latency", Field{
            [](SystemConfig& cfg, const std::string& v) {
                return parseNumber(v, &cfg.coherenceNet.hopLatency);
            },
            [](const SystemConfig& cfg) {
                return std::to_string(cfg.coherenceNet.hopLatency);
            }});
        f.emplace("ds-hop-latency", Field{
            [](SystemConfig& cfg, const std::string& v) {
                return parseNumber(v, &cfg.dsNet.hopLatency);
            },
            [](const SystemConfig& cfg) {
                return std::to_string(cfg.dsNet.hopLatency);
            }});
        f.emplace("gpu-hop-latency", Field{
            [](SystemConfig& cfg, const std::string& v) {
                return parseNumber(v, &cfg.gpuNet.hopLatency);
            },
            [](const SystemConfig& cfg) {
                return std::to_string(cfg.gpuNet.hopLatency);
            }});

        f.emplace("fault-drop-ppm", faultField(&FaultConfig::dropPpm));
        f.emplace("fault-dup-ppm", faultField(&FaultConfig::dupPpm));
        f.emplace("fault-corrupt-ppm", faultField(&FaultConfig::corruptPpm));
        f.emplace("fault-delay-ppm", faultField(&FaultConfig::delayPpm));
        f.emplace("fault-delay-ticks", faultField(&FaultConfig::delayTicks));
        f.emplace("fault-window-start", faultField(&FaultConfig::windowStart));
        f.emplace("fault-window-end", faultField(&FaultConfig::windowEnd));
        f.emplace("fault-src", faultField(&FaultConfig::srcFilter));
        f.emplace("fault-dst", faultField(&FaultConfig::dstFilter));
        f.emplace("fault-link-down-from",
                  faultField(&FaultConfig::linkDownFrom));
        f.emplace("fault-link-down-until",
                  faultField(&FaultConfig::linkDownUntil));
        f.emplace("fault-seed", faultField(&FaultConfig::seed));
        f.emplace("fault-nets", numField(&SystemConfig::faultNets));

        f.emplace("ds-ack-timeout", numField(&SystemConfig::dsAckTimeout));
        f.emplace("ds-max-retries", numField(&SystemConfig::dsMaxRetries));
        f.emplace("ds-inflight-max", numField(&SystemConfig::dsInFlightMax));

        f.emplace("cpu-cores", numField(&SystemConfig::cpuCores));
        f.emplace("num-gpus", numField(&SystemConfig::numGpus));
        f.emplace("ts-lease-ticks", numField(&SystemConfig::tsLeaseTicks));
        f.emplace("shard-policy", Field{
            [](SystemConfig& cfg, const std::string& v) {
                return parseShardPolicy(v, cfg.shardPolicy);
            },
            [](const SystemConfig& cfg) -> std::string {
                return to_string(cfg.shardPolicy);
            }});
        f.emplace("ds-topology", Field{
            [](SystemConfig& cfg, const std::string& v) {
                return parseDsTopology(v, cfg.dsTopology);
            },
            [](const SystemConfig& cfg) -> std::string {
                return to_string(cfg.dsTopology);
            }});

        f.emplace("ds-min-bytes", numField(&SystemConfig::dsMinBytes));
        f.emplace("agent-mshrs", numField(&SystemConfig::agentMshrs));
        f.emplace("writeback-entries",
                  numField(&SystemConfig::writebackEntries));
        f.emplace("seed", numField(&SystemConfig::seed));
        f.emplace("home-protocol", Field{
            [](SystemConfig& cfg, const std::string& v) {
                if (v == "hammer")
                    cfg.directoryHome = false;
                else if (v == "directory")
                    cfg.directoryHome = true;
                else
                    return false;
                return true;
            },
            [](const SystemConfig& cfg) -> std::string {
                return cfg.directoryHome ? "directory" : "hammer";
            }});
        return f;
    }();
    return table;
}

std::string trim(const std::string& s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

} // namespace

bool applyConfigText(const std::string& text, SystemConfig* cfg,
                     std::string* error)
{
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line.resize(hash);
        const std::string trimmed = trim(line);
        if (trimmed.empty())
            continue;
        const auto eq = trimmed.find('=');
        if (eq == std::string::npos) {
            *error = "line " + std::to_string(lineNo) + ": expected key = value";
            return false;
        }
        const std::string key = trim(trimmed.substr(0, eq));
        const std::string value = trim(trimmed.substr(eq + 1));
        const auto it = fields().find(key);
        if (it == fields().end()) {
            *error = "line " + std::to_string(lineNo) + ": unknown key '" +
                     key + "'";
            return false;
        }
        if (!it->second.set(*cfg, value)) {
            *error = "line " + std::to_string(lineNo) + ": bad value '" +
                     value + "' for '" + key + "'";
            return false;
        }
    }
    return validateConfig(*cfg, error);
}

bool validateConfig(const SystemConfig& cfg, std::string* error)
{
    const auto refuse = [error](const std::string& why) {
        *error = why;
        return false;
    };
    // A zero here divides by zero, indexes nothing, or builds a machine
    // that runs no kernel or never issues a request.
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"num-gpus", cfg.numGpus},
        {"cpu-cores", cfg.cpuCores},
        {"rsb-entries", cfg.rsbEntries},
        {"cpu-l1d-ways", cfg.cpuL1dWays},
        {"cpu-l2-ways", cfg.cpuL2Ways},
        {"gpu-l1-ways", cfg.gpuL1Ways},
        {"gpu-l2-ways", cfg.gpuL2Ways},
        {"lanes-per-sm", cfg.lanesPerSm},
        {"num-sms", cfg.numSms},
        {"max-resident-blocks", cfg.maxResidentBlocks},
        {"agent-mshrs", cfg.agentMshrs},
        {"gpu-l2-mshrs", cfg.gpuL2Mshrs},
        {"store-buffer-entries", cfg.storeBufferEntries},
    };
    for (const auto& [key, value] : counts)
        if (value == 0)
            return refuse(std::string("'") + key + "' must be at least 1");
    if (!HomeMap::takesSlices(cfg.gpuL2Slices))
        return refuse("'gpu-l2-slices' must be a power of two");
    if (!DramPool::takesChannels(cfg.memChannels))
        return refuse("'mem-channels' must be a power of two");
    const std::tuple<const char*, std::uint64_t, std::uint32_t> caches[] = {
        {"'cpu-l1d-size' / 'cpu-l1d-ways'", cfg.cpuL1dSize, cfg.cpuL1dWays},
        {"'cpu-l2-size' / 'cpu-l2-ways'", cfg.cpuL2Size, cfg.cpuL2Ways},
        {"'gpu-l1-size' / 'gpu-l1-ways'", cfg.gpuL1Size, cfg.gpuL1Ways},
        {"'gpu-l2-size' per 'gpu-l2-slices' / 'gpu-l2-ways'",
         cfg.gpuL2SliceBytes(), cfg.gpuL2Ways},
    };
    for (const auto& [keys, size, ways] : caches) {
        CacheGeometry geometry;
        geometry.sizeBytes = size;
        geometry.ways = ways;
        geometry.replacement = cfg.replacement;
        if (const std::string why = geometry.problem(); !why.empty())
            return refuse(std::string(keys) + ": " + why);
    }
    return true;
}

bool loadConfigFile(const std::string& path, SystemConfig* cfg,
                    std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot open config file: " + path;
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return applyConfigText(buffer.str(), cfg, error);
}

std::string dumpConfig(const SystemConfig& cfg)
{
    std::ostringstream os;
    os << "# dscoh system configuration (defaults reproduce Table I)\n";
    for (const auto& [key, field] : fields())
        os << key << " = " << field.get(cfg) << "\n";
    return os.str();
}

std::uint64_t configHashOf(const SystemConfig& cfg)
{
    // FNV-1a, folding every behavior-relevant field in declaration order.
    // Hashed directly off the struct (not through the key=value field
    // table) so fields without a text key — injectBug, eventTieBreakSeed,
    // TLB and DRAM sub-structs, snoop/supply latencies — still count.
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    mix(static_cast<std::uint64_t>(cfg.mode));
    mix(cfg.cpuCores);
    mix(cfg.cpuL1dSize);
    mix(cfg.cpuL1dWays);
    mix(cfg.cpuL1iSize);
    mix(cfg.cpuL1iWays);
    mix(cfg.cpuL2Size);
    mix(cfg.cpuL2Ways);
    mix(cfg.cpuL1Latency);
    mix(cfg.cpuL2Latency);
    mix(cfg.cpuSnoopTagLatency);
    mix(cfg.cpuDataSupplyLatency);
    mix(cfg.cpuDataSupplyInterval);
    mix(cfg.storeBufferEntries);
    mix(cfg.rsbEntries);
    mix(cfg.tlb.entries);
    mix(cfg.tlb.walkLatency);
    mix(cfg.numSms);
    mix(cfg.lanesPerSm);
    mix(cfg.gpuL1Size);
    mix(cfg.gpuL1Ways);
    mix(cfg.gpuSharedMemBytes);
    mix(cfg.gpuL2Size);
    mix(cfg.gpuL2Ways);
    mix(cfg.gpuL2Slices);
    mix(cfg.gpuL1Latency);
    mix(cfg.gpuSmemLatency);
    mix(cfg.gpuL2TagLatency);
    mix(cfg.gpuSnoopTagLatency);
    mix(cfg.gpuDataSupplyLatency);
    mix(cfg.gpuDataSupplyInterval);
    mix(cfg.gpuL2PrefetchDepth);
    mix(cfg.maxResidentBlocks);
    mix(cfg.maxOutstandingStores);
    mix(cfg.kernelLaunchLatency);
    mix(cfg.memBytes);
    mix(cfg.dram.tRcd);
    mix(cfg.dram.tCas);
    mix(cfg.dram.tRp);
    mix(cfg.dram.tBurst);
    mix(cfg.dram.ranks);
    mix(cfg.dram.banksPerRank);
    mix(cfg.dram.rowBytes);
    mix(cfg.memChannels);
    mix(cfg.coherenceNet.hopLatency);
    mix(cfg.coherenceNet.bytesPerTick);
    mix(cfg.gpuNet.hopLatency);
    mix(cfg.gpuNet.bytesPerTick);
    mix(cfg.dsNet.hopLatency);
    mix(cfg.dsNet.bytesPerTick);
    mix(cfg.dsMinBytes);
    mix(cfg.directoryHome ? 1 : 0);
    mix(cfg.agentMshrs);
    mix(cfg.gpuL2Mshrs);
    mix(cfg.writebackEntries);
    mix(static_cast<std::uint64_t>(cfg.replacement));
    mix(cfg.seed);
    mix(static_cast<std::uint64_t>(cfg.injectBug));
    mix(cfg.eventTieBreakSeed);
    mix(cfg.faults.dropPpm);
    mix(cfg.faults.dupPpm);
    mix(cfg.faults.corruptPpm);
    mix(cfg.faults.delayPpm);
    mix(cfg.faults.delayTicks);
    mix(cfg.faults.windowStart);
    mix(cfg.faults.windowEnd);
    mix(cfg.faults.srcFilter);
    mix(cfg.faults.dstFilter);
    mix(cfg.faults.linkDownFrom);
    mix(cfg.faults.linkDownUntil);
    mix(cfg.faults.linkDownSrc);
    mix(cfg.faults.linkDownDst);
    mix(cfg.faults.seed);
    mix(cfg.faultNets);
    mix(cfg.dsAckTimeout);
    mix(cfg.dsMaxRetries);
    mix(cfg.dsInFlightMax);
    // Multi-GPU knobs are appended only when set off their defaults, each
    // under a distinct tag: every pre-existing config keeps its exact
    // historical hash (snapshots, sweep journals and the produce-snapshot
    // cache all key on it), while any multi-GPU setting changes it.
    if (cfg.numGpus != 1) {
        mix(0x6e756d2d67707573ull); // "num-gpus"
        mix(cfg.numGpus);
    }
    if (cfg.shardPolicy != ShardPolicy::kPage) {
        mix(0x73686172642d706full); // "shard-po"
        mix(static_cast<std::uint64_t>(cfg.shardPolicy));
    }
    if (cfg.dsTopology != DsTopology::kCrossbar) {
        mix(0x64732d746f706f6cull); // "ds-topol"
        mix(static_cast<std::uint64_t>(cfg.dsTopology));
    }
    if (cfg.tsLeaseTicks != 0) {
        mix(0x74732d6c65617365ull); // "ts-lease"
        mix(cfg.tsLeaseTicks);
    }
    return h;
}

} // namespace dscoh
