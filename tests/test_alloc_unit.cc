/**
 * @file
 * Tests for the Address Allocation Unit (paper Figure 8).
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "core/alloc_unit.hh"

using namespace ltrf;

TEST(AllocUnit, StartsAllFree)
{
    AllocUnit au(16);
    EXPECT_EQ(au.freeCount(), 16);
    EXPECT_EQ(au.capacity(), 16);
    for (int i = 0; i < 16; i++)
        EXPECT_FALSE(au.isAllocated(i));
}

TEST(AllocUnit, AllocationsAreUniqueAndTracked)
{
    AllocUnit au(8);
    std::set<int> got;
    for (int i = 0; i < 8; i++) {
        int id = au.allocate();
        EXPECT_GE(id, 0);
        EXPECT_LT(id, 8);
        EXPECT_TRUE(au.isAllocated(id));
        EXPECT_TRUE(got.insert(id).second) << "duplicate id " << id;
    }
    EXPECT_EQ(au.freeCount(), 0);
}

TEST(AllocUnit, FifoRecycling)
{
    // Released entries go to the back of the unused queue (the
    // figure's two-queue structure): allocation order follows
    // release order.
    AllocUnit au(4);
    int a = au.allocate();
    int b = au.allocate();
    au.release(a);
    au.release(b);
    // Queue now: [c0, c1, a, b] where c0, c1 never allocated.
    au.allocate();
    au.allocate();
    EXPECT_EQ(au.allocate(), a);
    EXPECT_EQ(au.allocate(), b);
}

TEST(AllocUnit, ReleaseMakesReusable)
{
    AllocUnit au(2);
    int a = au.allocate();
    au.allocate();
    EXPECT_EQ(au.freeCount(), 0);
    au.release(a);
    EXPECT_EQ(au.freeCount(), 1);
    EXPECT_FALSE(au.isAllocated(a));
}

TEST(AllocUnit, ResetFreesEverything)
{
    AllocUnit au(4);
    au.allocate();
    au.allocate();
    au.reset();
    EXPECT_EQ(au.freeCount(), 4);
    std::set<int> got;
    for (int i = 0; i < 4; i++)
        got.insert(au.allocate());
    EXPECT_EQ(got.size(), 4u);
}

TEST(AllocUnit, RingKeepsDequeOrderAcrossWraparound)
{
    // The unused queue is a fixed ring; over many wraps its
    // allocation order must stay that of a plain FIFO of free ids.
    AllocUnit au(5);
    std::deque<int> model = {0, 1, 2, 3, 4};
    std::deque<int> held;
    std::uint64_t x = 12345;
    for (int step = 0; step < 2000; step++) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        bool alloc = held.empty() || (!model.empty() && (x >> 40) % 2);
        if (alloc) {
            ASSERT_EQ(au.allocate(), model.front());
            held.push_back(model.front());
            model.pop_front();
        } else {
            // Release a held id chosen by the generator, not in
            // allocation order, so the ring's contents get shuffled.
            std::size_t i = (x >> 20) % held.size();
            au.release(held[i]);
            model.push_back(held[i]);
            held.erase(held.begin() + static_cast<long>(i));
        }
        ASSERT_EQ(au.freeCount(), static_cast<int>(model.size()));
    }
}

TEST(AllocUnitDeath, ExhaustionPanics)
{
    AllocUnit au(1);
    au.allocate();
    EXPECT_DEATH(au.allocate(), "exhausted");
}

TEST(AllocUnitDeath, DoubleReleasePanics)
{
    AllocUnit au(2);
    int a = au.allocate();
    au.release(a);
    EXPECT_DEATH(au.release(a), "double release");
}
