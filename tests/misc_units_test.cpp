// Small-unit coverage: the helpers that everything else leans on.
#include <gtest/gtest.h>

#include "coherence/home_map.h"
#include "gpu/sm.h"
#include "net/message.h"
#include "sim/sim_context.h"
#include "sim/sim_object.h"

namespace dscoh {
namespace {

// ------------------------------------------------------------- GpuClock --

TEST(GpuClock, TenSeventhsTicksPerCycleOnAverage)
{
    GpuClock clock;
    Tick total = 0;
    for (int i = 0; i < 700; ++i)
        total += clock.ticksFor(1);
    // 700 GPU cycles at 1.4 GHz == 1000 CPU ticks at 2 GHz, exactly.
    EXPECT_EQ(total, 1000u);
}

TEST(GpuClock, BulkAndIncrementalAgree)
{
    GpuClock a;
    GpuClock b;
    Tick incremental = 0;
    for (int i = 0; i < 123; ++i)
        incremental += a.ticksFor(1);
    const Tick bulk = b.ticksFor(123);
    EXPECT_EQ(incremental, bulk);
}

// ------------------------------------------------- HomeMap slice routing --

TEST(HomeMapSlices, MapsLinesRoundRobin)
{
    const HomeMap map(1, ShardPolicy::kPage, 4);
    EXPECT_EQ(map.sliceBits(), 2u);
    for (Addr line = 0; line < 16; ++line)
        EXPECT_EQ(map.sliceIndexOf(line * kLineSize), line % 4);
    // Offsets within a line never change the slice.
    EXPECT_EQ(map.sliceIndexOf(5 * kLineSize + 127),
              map.sliceIndexOf(5 * kLineSize));
}

TEST(HomeMapSlices, RejectsBadCounts)
{
    EXPECT_THROW(HomeMap(1, ShardPolicy::kPage, 3), std::invalid_argument);
    EXPECT_THROW(HomeMap(1, ShardPolicy::kPage, 0), std::invalid_argument);
    EXPECT_NO_THROW(HomeMap(1, ShardPolicy::kPage, 1));
    EXPECT_EQ(HomeMap(1, ShardPolicy::kPage, 1).sliceBits(), 0u);
}

// --------------------------------------------------------------- Message --

TEST(Message, WireBytesReflectPayload)
{
    Message control;
    control.type = MsgType::kGetS;
    EXPECT_EQ(control.wireBytes(), 8u);

    Message data;
    data.type = MsgType::kData;
    EXPECT_EQ(data.wireBytes(), 8u + kLineSize);

    EXPECT_TRUE(carriesData(MsgType::kDsPutX));
    EXPECT_TRUE(carriesData(MsgType::kL1LoadResp));
    EXPECT_FALSE(carriesData(MsgType::kSnpGetS));
    EXPECT_FALSE(carriesData(MsgType::kDsAck));
}

// ------------------------------------------------------------- SimObject --

TEST(SimObject, StatNamesAreHierarchical)
{
    struct Probe : SimObject {
        using SimObject::SimObject;
        std::string leaf(const std::string& l) const { return statName(l); }
    };
    SimContext ctx;
    Probe p("gpu.l2.slice0", ctx);
    EXPECT_EQ(p.leaf("misses"), "gpu.l2.slice0.misses");
    EXPECT_EQ(p.name(), "gpu.l2.slice0");
    EXPECT_EQ(&p.queue(), &ctx.queue);
}

// ---------------------------------------------------------- line helpers --

TEST(AddressHelpers, AlignOffsetNumber)
{
    EXPECT_EQ(lineAlign(0x1234), 0x1200u + 0x00u); // 0x1234 & ~127
    EXPECT_EQ(lineAlign(0x1280), 0x1280u);
    EXPECT_EQ(lineOffset(0x1234), 0x34u);
    EXPECT_EQ(lineNumber(0x1280), 0x25u);
    EXPECT_EQ(pageAlign(0x12345), 0x12000u);
}

// --------------------------------------------------------- CacheGeometry --

TEST(CacheGeometry, SetMathAndErrors)
{
    CacheGeometry g;
    g.sizeBytes = 2 * 1024 * 1024;
    g.ways = 16;
    EXPECT_EQ(g.sets(), 1024u);

    CacheGeometry bad;
    bad.sizeBytes = 100; // not divisible into lines/ways
    bad.ways = 3;
    EXPECT_THROW(bad.sets(), std::invalid_argument);
}

} // namespace
} // namespace dscoh
