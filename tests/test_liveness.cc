/**
 * @file
 * Tests for liveness analysis and dead-operand-bit annotation.
 */

#include <gtest/gtest.h>

#include "compiler/liveness.hh"
#include "isa/kernel_builder.hh"

using namespace ltrf;

TEST(Liveness, StraightLineLastUse)
{
    // r0 defined, used once; r1 used twice; last uses get dead bits.
    KernelBuilder b("straight");
    b.mov(0);                 // def r0
    b.mov(1);                 // def r1
    b.iadd(2, 0, 1);          // last use of r0, r1 still live
    b.iadd(3, 2, 1);          // last use of r1 and r2
    Kernel k = b.build();
    int marked = annotateDeadOperands(k);

    const auto &ins = k.block(0).instrs;
    // iadd r2, r0, r1: r0 dead, r1 not.
    EXPECT_TRUE(ins[2].src_dead[0]);
    EXPECT_FALSE(ins[2].src_dead[1]);
    // iadd r3, r2, r1: both dead.
    EXPECT_TRUE(ins[3].src_dead[0]);
    EXPECT_TRUE(ins[3].src_dead[1]);
    EXPECT_EQ(marked, 3);
}

TEST(Liveness, LoopKeepsCarriedRegistersLive)
{
    // r0 is loop-carried: its use inside the loop must NOT be marked
    // dead because the back edge reads it again.
    KernelBuilder b("loop");
    b.mov(0);
    b.beginLoop(4);
    b.iadd(1, 0, 1);          // reads r0 every iteration
    b.endLoop();
    b.mov(2, 1);              // r1 used after the loop
    Kernel k = b.build();
    annotateDeadOperands(k);

    const auto &body = k.block(1).instrs;
    ASSERT_EQ(body[0].op, Opcode::IADD);
    EXPECT_FALSE(body[0].src_dead[0]);  // r0 live around the back edge
    EXPECT_FALSE(body[0].src_dead[1]);  // r1 live (used after loop)

    // After the loop, r1's last use is dead.
    const auto &after = k.block(2).instrs;
    ASSERT_EQ(after[0].op, Opcode::MOV);
    EXPECT_TRUE(after[0].src_dead[0]);
}

TEST(Liveness, LiveInOfEntryOnlyUpwardExposed)
{
    KernelBuilder b("k");
    b.mov(0);
    b.iadd(1, 0, 2);  // r2 read before any def: upward exposed
    Kernel k = b.build();
    LivenessInfo info = computeLiveness(k);
    EXPECT_TRUE(info.live_in[0].test(2));
    EXPECT_FALSE(info.live_in[0].test(0));
    EXPECT_FALSE(info.live_in[0].test(1));
}

TEST(Liveness, BranchMergesLiveness)
{
    // r1 is read only on the then side, r2 only on the else side;
    // both must be live out of the cond block.
    KernelBuilder b("branchy");
    b.mov(0).mov(1).mov(2);
    b.beginIf(0.5, 0);
    b.mov(3, 1);
    b.beginElse();
    b.mov(3, 2);
    b.endIf();
    b.mov(4, 3);
    Kernel k = b.build();
    LivenessInfo info = computeLiveness(k);
    EXPECT_TRUE(info.live_out[0].test(1));
    EXPECT_TRUE(info.live_out[0].test(2));
    // r3 defined on both sides, not live into cond.
    EXPECT_FALSE(info.live_in[0].test(3));
}

TEST(Liveness, DeadAcrossConditionalIsConservative)
{
    // r1 read on one side only: its earlier use cannot be dead until
    // control flow resolves; the cond-block read must stay live.
    KernelBuilder b("cond");
    b.mov(1);
    b.isetp(0, 1, 1);   // reads r1; r1 still potentially read later
    b.beginIf(0.5, 0);
    b.mov(2, 1);        // reads r1 on then side
    b.endIf();
    Kernel k = b.build();
    annotateDeadOperands(k);
    const auto &cond = k.block(0).instrs;
    // isetp r0, r1, r1: r1 must NOT be dead (then-side may read it).
    ASSERT_EQ(cond[1].op, Opcode::ISETP);
    EXPECT_FALSE(cond[1].src_dead[0]);
}

TEST(Liveness, MaxLiveRegsBounds)
{
    KernelBuilder b("k");
    b.mov(0).mov(1).mov(2).mov(3);
    b.iadd(4, 0, 1);
    b.iadd(5, 2, 3);
    b.iadd(6, 4, 5);
    Kernel k = b.build();
    int ml = maxLiveRegs(k);
    EXPECT_GE(ml, 4);
    EXPECT_LE(ml, k.num_regs);
}

TEST(Liveness, ConvergesOnDeepLoopNest)
{
    KernelBuilder b("deep");
    b.mov(0);
    for (int i = 0; i < 6; i++)
        b.beginLoop(2);
    b.iadd(1, 0, 1);
    for (int i = 0; i < 6; i++)
        b.endLoop();
    Kernel k = b.build();
    LivenessInfo info = computeLiveness(k);
    EXPECT_GT(info.iterations, 0);
    EXPECT_LT(info.iterations, 50);
    // r0 live into every loop level.
    for (int blk = 1; blk < k.numBlocks() - 1; blk++) {
        if (!k.block(blk).instrs.empty()) {
            EXPECT_TRUE(info.live_in[blk].test(0) ||
                        info.def[blk].test(0));
        }
    }
}
