/**
 * @file
 * Tests for the Warp Control Block (paper Figure 7, section 4.3).
 */

#include <gtest/gtest.h>

#include "core/wcb.hh"

using namespace ltrf;

TEST(Wcb, StorageCostMatchesPaper)
{
    // 256 x 5-bit address table + 3-bit warp offset + two 256-bit
    // vectors; 64 warps -> 114880 bits per SM (section 4.3).
    EXPECT_EQ(Wcb::bitsPerWarp(), 1795);
    EXPECT_EQ(64 * Wcb::bitsPerWarp(), 114880);
}

TEST(Wcb, EntryLifecycle)
{
    Wcb wcb;
    EXPECT_FALSE(wcb.resident(5));
    EXPECT_EQ(wcb.lookup(5), -1);
    const int bank = 3;
    wcb.setEntries(RegBitVec{5}, &bank);
    EXPECT_TRUE(wcb.resident(5));
    EXPECT_EQ(wcb.lookup(5), 3);
    int freed = -1;
    EXPECT_EQ(wcb.clearEntries(RegBitVec{5}, &freed), 1);
    EXPECT_EQ(freed, 3);
    EXPECT_FALSE(wcb.resident(5));
    EXPECT_EQ(wcb.lookup(5), -1);
}

TEST(Wcb, HighBankIdsRoundTrip)
{
    // 256 registers per interval (the most SimConfig admits) hand out
    // bank ids up to 255; a signed 8-bit table wrapped them negative.
    Wcb wcb;
    const int banks[] = {200, 255};
    wcb.setEntries(RegBitVec{7, 8}, banks);
    EXPECT_EQ(wcb.lookup(7), 200);
    EXPECT_EQ(wcb.lookup(8), 255);
    int freed[2] = {};
    EXPECT_EQ(wcb.clearEntries(RegBitVec{7, 8}, freed), 2);
    EXPECT_EQ(freed[0], 200);
    EXPECT_EQ(freed[1], 255);
}

TEST(Wcb, BulkEntriesWalkAscendingRegisters)
{
    // setEntries/clearEntries pair banks with registers in ascending
    // register order, the order a FIFO bank allocator hands them out.
    Wcb wcb;
    const int banks[] = {198, 199, 200};
    wcb.setEntries(RegBitVec{200, 3, 70}, banks);
    EXPECT_EQ(wcb.residentSet(), (RegBitVec{3, 70, 200}));
    EXPECT_EQ(wcb.lookup(3), 198);
    EXPECT_EQ(wcb.lookup(70), 199);
    EXPECT_EQ(wcb.lookup(200), 200);
    int freed[MAX_ARCH_REGS];
    EXPECT_EQ(wcb.clearEntries(RegBitVec{200, 3}, freed), 2);
    EXPECT_EQ(freed[0], 198);
    EXPECT_EQ(freed[1], 200);
    EXPECT_EQ(wcb.residentSet(), RegBitVec{70});
}

TEST(Wcb, ResidentSetTracksEntries)
{
    Wcb wcb;
    const int banks[] = {0, 7, 15};
    wcb.setEntries(RegBitVec{0, 100, 255}, banks);
    EXPECT_EQ(wcb.residentSet().count(), 3);
    EXPECT_TRUE(wcb.residentSet().test(100));
    int freed;
    wcb.clearEntries(RegBitVec{100}, &freed);
    EXPECT_EQ(wcb.residentSet().count(), 2);
}

TEST(Wcb, LivenessVectorStartsDead)
{
    // Paper section 3.2: the liveness vector is cleared when a warp
    // starts executing.
    Wcb wcb;
    for (int r = 0; r < MAX_ARCH_REGS; r += 17)
        EXPECT_FALSE(wcb.live(static_cast<RegId>(r)));
    wcb.markLive(9);
    EXPECT_TRUE(wcb.live(9));
    wcb.markDead(9);
    EXPECT_FALSE(wcb.live(9));
}

TEST(Wcb, WorkingSetVector)
{
    Wcb wcb;
    RegBitVec ws{1, 2, 3};
    wcb.setWorkingSet(ws);
    EXPECT_EQ(wcb.workingSet(), ws);
}

TEST(Wcb, ResetClearsEverything)
{
    Wcb wcb;
    const int bank = 2;
    wcb.setEntries(RegBitVec{7}, &bank);
    wcb.markLive(7);
    wcb.setWarpOffset(5);
    wcb.reset();
    EXPECT_FALSE(wcb.resident(7));
    EXPECT_FALSE(wcb.live(7));
    EXPECT_EQ(wcb.warpOffset(), -1);
    EXPECT_TRUE(wcb.workingSet().empty());
}

TEST(WcbDeath, ClearingNonResidentOrRemappingPanics)
{
    // A non-resident register has no bank to free, and a resident one
    // would leak its bank if mapped again.
    Wcb wcb;
    int freed;
    EXPECT_DEATH(wcb.clearEntries(RegBitVec{3}, &freed), "non-resident");
    const int bank = 1;
    wcb.setEntries(RegBitVec{3}, &bank);
    EXPECT_DEATH(wcb.setEntries(RegBitVec{3}, &bank), "already resident");
}
