#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include "core/config_io.h"
#include "core/system.h"

namespace dscoh {
namespace {

TEST(ConfigIo, AppliesKeysAndComments)
{
    SystemConfig cfg;
    std::string error;
    const char* text = R"(
# experiment: tiny GPU
num-sms = 4
gpu-l2-size = 0x100000   # 1 MB
mode = dsonly
ds-hop-latency = 80
replacement = tree-plru
)";
    ASSERT_TRUE(applyConfigText(text, &cfg, &error)) << error;
    EXPECT_EQ(cfg.numSms, 4u);
    EXPECT_EQ(cfg.gpuL2Size, 1u << 20);
    EXPECT_EQ(cfg.mode, CoherenceMode::kDirectStoreOnly);
    EXPECT_EQ(cfg.dsNet.hopLatency, 80u);
    EXPECT_EQ(cfg.replacement, ReplacementKind::kTreePlru);
}

TEST(ConfigIo, RejectsUnknownKeyWithLineNumber)
{
    SystemConfig cfg;
    std::string error;
    EXPECT_FALSE(applyConfigText("num-sms = 4\nbogus-key = 1\n", &cfg, &error));
    EXPECT_NE(error.find("line 2"), std::string::npos);
    EXPECT_NE(error.find("bogus-key"), std::string::npos);
}

TEST(ConfigIo, IoFaultKeysAreNotConfigKeys)
{
    // Storage faults belong to the process (--iofault), not to the
    // simulated machine, so a config file cannot arm them.
    SystemConfig cfg;
    std::string error;
    EXPECT_FALSE(applyConfigText("iofault-eio-ppm = 1\n", &cfg, &error));
    EXPECT_EQ(error, "line 1: unknown key 'iofault-eio-ppm'");
}

TEST(ConfigIo, RejectsBadValues)
{
    SystemConfig cfg;
    std::string error;
    EXPECT_FALSE(applyConfigText("num-sms = lots\n", &cfg, &error));
    EXPECT_FALSE(applyConfigText("mode = turbo\n", &cfg, &error));
    EXPECT_FALSE(applyConfigText("just a line\n", &cfg, &error));

    // Zero counts the simulator divides by or indexes with, and values a
    // narrowing cast would wrap (2^32 GPUs is 0) or a sign would flip.
    for (const char* text :
         {"num-gpus = 0", "cpu-cores = 0", "rsb-entries = 0",
          "cpu-l1d-ways = 0", "cpu-l2-ways = 0", "gpu-l1-ways = 0",
          "gpu-l2-ways = 0", "lanes-per-sm = 0", "num-gpus = 4294967296",
          "num-gpus = 4294967298", "num-gpus = -1", "cpu-cores = -1",
          "num-sms = -1", "seed = -1", "fault-src = -1",
          "seed = 18446744073709551616"}) {
        SystemConfig fresh;
        error.clear();
        EXPECT_FALSE(applyConfigText(text, &fresh, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
    SystemConfig widest;
    ASSERT_TRUE(applyConfigText("num-gpus = 4294967295\n"
                                "seed = 18446744073709551615\n",
                                &widest, &error))
        << error;
    EXPECT_EQ(widest.numGpus, 4294967295u);
}

TEST(ConfigIo, SystemRefusesZeroCounts)
{
    // A config built in code bypasses applyConfigText; the System
    // constructor runs the same check, so it fails with a message instead
    // of a signal.
    SystemConfig noGpus;
    noGpus.numGpus = 0;
    EXPECT_THROW(System{noGpus}, std::invalid_argument);
    SystemConfig noWays;
    noWays.gpuL2Ways = 0;
    EXPECT_THROW(System{noWays}, std::invalid_argument);
}

/// The error applyConfigText gives @p text on a default config; empty
/// when it accepts the text.
std::string refusal(const std::string& text)
{
    SystemConfig cfg;
    std::string error;
    return applyConfigText(text, &cfg, &error) ? std::string() : error;
}

// One case per rule validateConfig shares with the component that would
// otherwise fail at construction, or run and silently skip work.

TEST(ConfigIo, RefusesSliceCountThatIsNotAPowerOfTwo)
{
    EXPECT_EQ(refusal("gpu-l2-slices = 3\n"),
              "'gpu-l2-slices' must be a power of two");
}

TEST(ConfigIo, RefusesChannelCountThatIsNotAPowerOfTwo)
{
    EXPECT_EQ(refusal("mem-channels = 3\n"),
              "'mem-channels' must be a power of two");
    EXPECT_EQ(refusal("mem-channels = 0\n"),
              "'mem-channels' must be a power of two");
}

TEST(ConfigIo, RefusesCpuL2SizeThatDoesNotDivideIntoWays)
{
    EXPECT_EQ(refusal("cpu-l2-size = 3000000\n"),
              "'cpu-l2-size' / 'cpu-l2-ways': cache size not divisible "
              "into ways");
}

TEST(ConfigIo, RefusesGpuL1WithNonPowerOfTwoSets)
{
    // 12 KiB in 4 ways of 128 B is 24 sets.
    EXPECT_EQ(refusal("gpu-l1-size = 12288\n"),
              "'gpu-l1-size' / 'gpu-l1-ways': set count must be a power "
              "of two");
}

TEST(ConfigIo, RefusesGpuL2SliceWithNonPowerOfTwoSets)
{
    // 3 MiB over 4 slices in 16 ways is 384 sets per slice.
    EXPECT_EQ(refusal("gpu-l2-size = 3145728\n"),
              "'gpu-l2-size' per 'gpu-l2-slices' / 'gpu-l2-ways': set "
              "count must be a power of two");
}

TEST(ConfigIo, RefusesTreePlruWithNonPowerOfTwoWays)
{
    // 512 sets of 12 ways per slice: an LRU machine, not a tree-PLRU one.
    const std::string twelveWays =
        "gpu-l2-size = 3145728\ngpu-l2-ways = 12\n";
    EXPECT_EQ(refusal(twelveWays), "");
    EXPECT_EQ(refusal(twelveWays + "replacement = tree-plru\n"),
              "'gpu-l2-size' per 'gpu-l2-slices' / 'gpu-l2-ways': tree-plru "
              "requires power-of-two ways >= 2");
}

TEST(ConfigIo, RefusesMoreThan64Ways)
{
    // 2 MiB in 128 ways is 128 sets, which passes every other rule; victim
    // selection passes a one-word way mask.
    EXPECT_EQ(refusal("cpu-l2-ways = 64\n"), "");
    EXPECT_EQ(refusal("cpu-l2-ways = 128\n"),
              "'cpu-l2-size' / 'cpu-l2-ways': ways must be at most 64");
}

TEST(ConfigIo, RefusesZeroSms)
{
    EXPECT_EQ(refusal("num-sms = 0\n"), "'num-sms' must be at least 1");
}

TEST(ConfigIo, RefusesZeroResidentBlocks)
{
    EXPECT_EQ(refusal("max-resident-blocks = 0\n"),
              "'max-resident-blocks' must be at least 1");
}

TEST(ConfigIo, RefusesZeroL2Mshrs)
{
    EXPECT_EQ(refusal("gpu-l2-mshrs = 0\n"),
              "'gpu-l2-mshrs' must be at least 1");
}

TEST(ConfigIo, RefusesZeroAgentMshrs)
{
    EXPECT_EQ(refusal("agent-mshrs = 0\n"),
              "'agent-mshrs' must be at least 1");
}

TEST(ConfigIo, RefusesZeroStoreBufferEntries)
{
    EXPECT_EQ(refusal("store-buffer-entries = 0\n"),
              "'store-buffer-entries' must be at least 1");
}

TEST(ConfigIo, SystemRefusesAnUnbuildableMachineBeforeBuildingIt)
{
    // Built in code, past applyConfigText: the constructor's own check
    // names the key before HomeMap would throw its own message.
    SystemConfig threeSlices;
    threeSlices.gpuL2Slices = 3;
    try {
        System sys(threeSlices);
        FAIL() << "a 3-slice machine was built";
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()),
                  "system config: 'gpu-l2-slices' must be a power of two");
    }
}

TEST(ConfigIo, DumpRoundTrips)
{
    SystemConfig original;
    original.numSms = 8;
    original.mode = CoherenceMode::kDirectStore;
    original.gpuL2PrefetchDepth = 3;
    original.dsMinBytes = 4096;
    original.coherenceNet.hopLatency = 55;
    original.replacement = ReplacementKind::kRandom;

    const std::string text = dumpConfig(original);
    SystemConfig restored;
    std::string error;
    ASSERT_TRUE(applyConfigText(text, &restored, &error)) << error;
    EXPECT_EQ(restored.numSms, original.numSms);
    EXPECT_EQ(restored.mode, original.mode);
    EXPECT_EQ(restored.gpuL2PrefetchDepth, original.gpuL2PrefetchDepth);
    EXPECT_EQ(restored.dsMinBytes, original.dsMinBytes);
    EXPECT_EQ(restored.coherenceNet.hopLatency,
              original.coherenceNet.hopLatency);
    EXPECT_EQ(restored.replacement, original.replacement);
}

TEST(ConfigIo, LoadsFromFile)
{
    const std::string path = "/tmp/dscoh_test_config.cfg";
    {
        std::ofstream out(path);
        out << "num-sms = 2\nmem-channels = 2\n";
    }
    SystemConfig cfg;
    std::string error;
    ASSERT_TRUE(loadConfigFile(path, &cfg, &error)) << error;
    EXPECT_EQ(cfg.numSms, 2u);
    EXPECT_EQ(cfg.memChannels, 2u);
    EXPECT_FALSE(loadConfigFile("/no/such/file.cfg", &cfg, &error));
}

TEST(ConfigIo, MultiGpuKeysRoundTrip)
{
    SystemConfig original;
    original.numGpus = 4;
    original.cpuCores = 2;
    original.shardPolicy = ShardPolicy::kRange;
    original.dsTopology = DsTopology::kRing;
    original.tsLeaseTicks = 50'000;

    const std::string text = dumpConfig(original);
    SystemConfig restored;
    std::string error;
    ASSERT_TRUE(applyConfigText(text, &restored, &error)) << error;
    EXPECT_EQ(restored.numGpus, 4u);
    EXPECT_EQ(restored.cpuCores, 2u);
    EXPECT_EQ(restored.shardPolicy, ShardPolicy::kRange);
    EXPECT_EQ(restored.dsTopology, DsTopology::kRing);
    EXPECT_EQ(restored.tsLeaseTicks, 50'000u);

    SystemConfig cfg;
    EXPECT_FALSE(applyConfigText("shard-policy = spiral\n", &cfg, &error));
    EXPECT_FALSE(applyConfigText("ds-topology = mesh\n", &cfg, &error));
}

TEST(ConfigIo, MultiGpuFieldsFlipTheConfigHash)
{
    // Single-GPU defaults must hash exactly as before the scale-out fields
    // existed (old snapshots stay loadable), while every multi-GPU setting
    // produces a distinct hash so a restore cannot cross configurations.
    const std::uint64_t base = configHashOf(SystemConfig{});
    SystemConfig cfg;
    cfg.numGpus = 2;
    const std::uint64_t twoGpus = configHashOf(cfg);
    EXPECT_NE(twoGpus, base);
    cfg.shardPolicy = ShardPolicy::kLine;
    const std::uint64_t lineShards = configHashOf(cfg);
    EXPECT_NE(lineShards, twoGpus);
    cfg.dsTopology = DsTopology::kRing;
    const std::uint64_t ring = configHashOf(cfg);
    EXPECT_NE(ring, lineShards);
    cfg.tsLeaseTicks = 1000;
    EXPECT_NE(configHashOf(cfg), ring);
    SystemConfig cores;
    cores.cpuCores = 2;
    EXPECT_NE(configHashOf(cores), base);
}

TEST(ConfigIo, DumpedDefaultsBuildTableISystem)
{
    SystemConfig cfg;
    std::string error;
    ASSERT_TRUE(applyConfigText(dumpConfig(SystemConfig{}), &cfg, &error));
    EXPECT_EQ(cfg.cpuL2Size, 2u * 1024 * 1024);
    EXPECT_EQ(cfg.numSms, 16u);
    EXPECT_EQ(cfg.gpuL2Slices, 4u);
}

} // namespace
} // namespace dscoh
