/**
 * @file
 * Tests for the two-level warp scheduler.
 */

#include <gtest/gtest.h>

#include "isa/kernel_builder.hh"
#include "sim/scheduler.hh"

using namespace ltrf;

namespace
{

/** Minimal fixture: warps over a one-instruction trace. */
struct Rig
{
    explicit Rig(int num_warps, int active_slots,
                 RfDesign design = RfDesign::BL)
    {
        KernelBuilder b("k");
        b.mov(0);
        kernel = b.build();
        cfg.design = design;
        cw = compileWorkload(kernel, cfg, 1);
        rf = makeRegFileSystem(cfg, cw, num_warps);
        arena = std::make_unique<WarpStateArena>(num_warps,
                                                 kernel.num_regs, 1);
        for (int i = 0; i < num_warps; i++)
            warps.emplace_back(i, cw.traces[i], cw.kernel(), *arena);
        sched = std::make_unique<TwoLevelScheduler>(active_slots, warps);
    }

    Kernel kernel;
    SimConfig cfg;
    CompiledWorkload cw;
    std::unique_ptr<RegFileSystem> rf;
    std::unique_ptr<WarpStateArena> arena;
    std::vector<Warp> warps;
    std::unique_ptr<TwoLevelScheduler> sched;
};

} // namespace

TEST(Scheduler, FillsActivePoolUpToLimit)
{
    Rig rig(16, 8);
    rig.sched->tick(0, *rig.rf);
    EXPECT_EQ(rig.sched->activePool().size(), 8u);
    int active = 0;
    for (const Warp &w : rig.warps)
        if (w.state == WarpState::ACTIVE)
            active++;
    EXPECT_EQ(active, 8);
}

TEST(Scheduler, FewWarpsAllActivate)
{
    Rig rig(3, 8);
    rig.sched->tick(0, *rig.rf);
    EXPECT_EQ(rig.sched->activePool().size(), 3u);
}

TEST(Scheduler, DeactivationFreesSlotForNextWarp)
{
    Rig rig(10, 8);
    rig.sched->tick(0, *rig.rf);
    Warp &victim = rig.warps[rig.sched->activePool()[0]];
    rig.sched->deactivate(victim, 500, *rig.rf, 10);
    EXPECT_EQ(victim.state, WarpState::INACTIVE_WAIT);
    EXPECT_EQ(rig.sched->activePool().size(), 7u);

    rig.sched->tick(11, *rig.rf);
    EXPECT_EQ(rig.sched->activePool().size(), 8u);
    // The victim is not back yet.
    EXPECT_EQ(victim.state, WarpState::INACTIVE_WAIT);
}

TEST(Scheduler, WaitExpiryRequeues)
{
    Rig rig(9, 8);
    rig.sched->tick(0, *rig.rf);
    Warp &victim = rig.warps[rig.sched->activePool()[0]];
    WarpId vid = victim.id;
    rig.sched->deactivate(victim, 100, *rig.rf, 0);
    rig.sched->tick(1, *rig.rf);     // warp 8 takes the slot
    // Deactivate another warp so a slot opens for the victim later.
    Warp &other = rig.warps[rig.sched->activePool()[0]];
    rig.sched->deactivate(other, 1000, *rig.rf, 2);

    rig.sched->tick(100, *rig.rf);
    EXPECT_EQ(rig.warps[vid].state, WarpState::ACTIVE);
}

TEST(Scheduler, FinishReleasesSlotPermanently)
{
    Rig rig(8, 8);
    rig.sched->tick(0, *rig.rf);
    for (int i = 0; i < 8; i++) {
        Warp &w = rig.warps[rig.sched->activePool()[0]];
        rig.sched->finish(w, *rig.rf, i);
    }
    EXPECT_EQ(rig.sched->finishedCount(), 8);
    EXPECT_TRUE(rig.sched->activePool().empty());
    rig.sched->tick(100, *rig.rf);
    EXPECT_TRUE(rig.sched->activePool().empty());
}

TEST(Scheduler, ActivationDelayGatesIssue)
{
    // LTRF activation refetches registers: the warp sits in
    // ACTIVATING until the register file system's completion time.
    // Only two warps exist so no third warp can steal the slot.
    Rig rig(2, 2, RfDesign::LTRF);
    // Give warp 0 a non-empty working set, then deactivate it.
    rig.sched->tick(0, *rig.rf);
    Warp &w0 = rig.warps[0];
    // Seed a working set via a prefetch.
    RegBitVec ws{0, 1, 2, 3};
    Instruction pf = Instruction::prefetch(ws);
    BlockId header = rig.cw.analysis.intervals[0].header;
    rig.rf->prefetch(0, header, pf, 0);
    rig.sched->deactivate(w0, 10, *rig.rf, 5);

    // When it reactivates, the refetch takes time: ACTIVATING.
    rig.sched->deactivate(rig.warps[rig.sched->activePool()[0]],
                          10000, *rig.rf, 6);
    rig.sched->tick(10, *rig.rf);
    EXPECT_EQ(w0.state, WarpState::ACTIVATING);
    EXPECT_GT(w0.wait_until, 10u);

    rig.sched->tick(w0.wait_until, *rig.rf);
    EXPECT_EQ(w0.state, WarpState::ACTIVE);
}

TEST(Scheduler, RoundRobinIndexStaysInRange)
{
    Rig rig(12, 8);
    rig.sched->tick(0, *rig.rf);
    for (int i = 0; i < 30; i++) {
        rig.sched->advanceRr();
        EXPECT_GE(rig.sched->rrIndex(), 0);
        EXPECT_LT(rig.sched->rrIndex(),
                  static_cast<int>(rig.sched->activePool().size()));
    }
    // Removal keeps the index valid.
    rig.sched->deactivate(rig.warps[rig.sched->activePool()[5]],
                          1000000, *rig.rf, 1);
    EXPECT_LT(rig.sched->rrIndex(),
              static_cast<int>(rig.sched->activePool().size()));
}
