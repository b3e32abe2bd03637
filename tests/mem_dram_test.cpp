#include <gtest/gtest.h>

#include "mem/dram.h"
#include "sim/sim_context.h"

namespace dscoh {
namespace {

struct DramFixture : ::testing::Test {
    SimContext ctx;
    EventQueue& queue = ctx.queue;
    BackingStore store{64ull << 20};
    DramTiming timing{};
    Dram dram{"dram", ctx, store, timing};
};

TEST_F(DramFixture, ReadCompletesWithRowMissLatency)
{
    Tick done = 0;
    dram.read(0x1000, [&] { done = queue.curTick(); });
    queue.run();
    // Closed bank: tRCD + tCAS + burst.
    EXPECT_EQ(done, timing.tRcd + timing.tCas + timing.tBurst);
}

TEST_F(DramFixture, RowHitIsFasterThanRowMiss)
{
    Tick first = 0;
    Tick second = 0;
    dram.read(0x0, [&] { first = queue.curTick(); });
    queue.run();
    const Tick start = queue.curTick();
    dram.read(kLineSize * 16, [&] { second = queue.curTick(); }); // same bank+row? ensure same bank:
    queue.run();
    // Same bank requires line % 16 == 0 -> line 16 maps to bank 0, row 0
    // (row covers rowBytes*banks bytes).
    EXPECT_LT(second - start, first) << "open-row access should be faster";
}

TEST_F(DramFixture, WriteIsVisibleAtCompletion)
{
    DataBlock d;
    d.write(0, 0xabcdef, 4);
    bool wrote = false;
    dram.write(0x2000, d, [&] { wrote = true; });
    queue.run();
    EXPECT_TRUE(wrote);
    EXPECT_EQ(store.readLine(0x2000).read(0, 4), 0xabcdefu);
}

TEST_F(DramFixture, MaskedWriteMergesIntoExistingLine)
{
    DataBlock base;
    base.write(0, 0x11111111, 4);
    base.write(4, 0x22222222, 4);
    store.writeLine(0x3000, base);

    DataBlock update;
    update.write(4, 0x33333333, 4);
    ByteMask mask;
    mask.set(4, 4);
    dram.writeMasked(0x3000, update, mask);
    queue.run();
    EXPECT_EQ(store.readLine(0x3000).read(0, 4), 0x11111111u);
    EXPECT_EQ(store.readLine(0x3000).read(4, 4), 0x33333333u);
}

TEST_F(DramFixture, BankConflictsSerialize)
{
    // Two reads to the same bank, different rows: the second waits for the
    // first and pays a precharge.
    Tick firstDone = 0;
    Tick secondDone = 0;
    const Addr sameBankFarRow =
        static_cast<Addr>(timing.ranks) * timing.banksPerRank *
        timing.rowBytes * 4;
    dram.read(0, [&] { firstDone = queue.curTick(); });
    dram.read(sameBankFarRow, [&] { secondDone = queue.curTick(); });
    queue.run();
    EXPECT_GT(secondDone, firstDone);
    EXPECT_GE(secondDone - firstDone, timing.tRp);
}

TEST_F(DramFixture, DifferentBanksOverlap)
{
    Tick firstDone = 0;
    Tick secondDone = 0;
    dram.read(0, [&] { firstDone = queue.curTick(); });
    dram.read(kLineSize, [&] { secondDone = queue.curTick(); }); // next bank
    queue.run();
    // Bank access overlaps; only the shared data bus serializes, so the
    // second finishes one burst later, not a full access later.
    EXPECT_EQ(secondDone - firstDone, timing.tBurst);
}

TEST_F(DramFixture, StatsCountAccesses)
{
    StatRegistry reg;
    dram.regStats(reg);
    dram.read(0, [] {});
    DataBlock d;
    dram.write(0x100, d);
    queue.run();
    EXPECT_EQ(reg.counter("dram.reads"), 1u);
    EXPECT_EQ(reg.counter("dram.writes"), 1u);
    EXPECT_EQ(reg.counter("dram.row_hits") + reg.counter("dram.row_misses"), 2u);
}

} // namespace
} // namespace dscoh
