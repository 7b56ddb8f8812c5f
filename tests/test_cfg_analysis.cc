/**
 * @file
 * Tests for reverse postorder, dominators, back edges, and natural
 * loop discovery.
 */

#include <gtest/gtest.h>

#include "compiler/cfg_analysis.hh"
#include "isa/kernel_builder.hh"

using namespace ltrf;

namespace
{

Kernel
loopKernel()
{
    KernelBuilder b("loop");
    b.mov(0);
    b.beginLoop(4);
    b.iadd(1, 0, 1);
    b.endLoop();
    b.mov(2);
    return b.build();
}

} // namespace

TEST(CfgAnalysis, RpoStartsAtEntry)
{
    Kernel k = loopKernel();
    CfgInfo info = analyzeCfg(k);
    ASSERT_FALSE(info.rpo.empty());
    EXPECT_EQ(info.rpo.front(), k.entry());
    // All blocks reachable.
    EXPECT_EQ(info.rpo.size(), static_cast<size_t>(k.numBlocks()));
    for (BlockId b = 0; b < k.numBlocks(); b++)
        EXPECT_TRUE(info.reachable(b));
}

TEST(CfgAnalysis, RpoRespectsForwardEdges)
{
    Kernel k = loopKernel();
    CfgInfo info = analyzeCfg(k);
    // Forward (non-back) edges must go from lower to higher RPO index.
    for (const auto &bb : k.blocks) {
        for (BlockId s : bb.succs) {
            bool is_back = false;
            for (auto [t, h] : info.back_edges)
                if (t == bb.id && h == s)
                    is_back = true;
            if (!is_back) {
                EXPECT_LT(info.rpo_index[bb.id], info.rpo_index[s]);
            }
        }
    }
}

TEST(CfgAnalysis, EntryDominatesEverything)
{
    Kernel k = loopKernel();
    CfgInfo info = analyzeCfg(k);
    for (BlockId b = 0; b < k.numBlocks(); b++)
        EXPECT_TRUE(info.dominates(k.entry(), b));
}

TEST(CfgAnalysis, SimpleLoopBackEdge)
{
    Kernel k = loopKernel();
    CfgInfo info = analyzeCfg(k);
    ASSERT_EQ(info.back_edges.size(), 1u);
    auto [tail, head] = info.back_edges[0];
    // Builder makes the single-block loop: header == latch == block 1.
    EXPECT_EQ(tail, 1);
    EXPECT_EQ(head, 1);
    EXPECT_TRUE(info.reducible);
    ASSERT_EQ(info.loops.size(), 1u);
    EXPECT_EQ(info.loops[0].header, 1);
    EXPECT_EQ(info.loops[0].body.size(), 1u);
}

TEST(CfgAnalysis, NestedLoopsBodyContainment)
{
    KernelBuilder b("nested");
    b.beginLoop(2);
    b.mov(0);
    b.beginLoop(3);
    b.mov(1);
    b.endLoop();
    b.mov(2);
    b.endLoop();
    Kernel k = b.build();
    CfgInfo info = analyzeCfg(k);

    ASSERT_EQ(info.loops.size(), 2u);
    // Loops are sorted inner-first.
    const LoopInfo &inner = info.loops[0];
    const LoopInfo &outer = info.loops[1];
    EXPECT_LT(inner.body.size(), outer.body.size());
    // Inner body is a subset of the outer body.
    for (BlockId bb : inner.body) {
        EXPECT_NE(std::find(outer.body.begin(), outer.body.end(), bb),
                  outer.body.end());
    }
    // Outer loop header dominates the inner header.
    EXPECT_TRUE(info.dominates(outer.header, inner.header));
}

TEST(CfgAnalysis, DiamondDominators)
{
    KernelBuilder b("diamond");
    b.mov(0);
    b.beginIf(0.5, 0);
    b.mov(1);
    b.beginElse();
    b.mov(2);
    b.endIf();
    b.mov(3);
    Kernel k = b.build();
    CfgInfo info = analyzeCfg(k);

    BlockId cond = 0;
    BlockId then_b = k.block(cond).succs[0];
    BlockId else_b = k.block(cond).succs[1];
    BlockId join = k.block(then_b).succs[0];

    EXPECT_TRUE(info.dominates(cond, join));
    EXPECT_FALSE(info.dominates(then_b, join));
    EXPECT_FALSE(info.dominates(else_b, join));
    EXPECT_EQ(info.idom[join], cond);
    EXPECT_TRUE(info.back_edges.empty());
    EXPECT_TRUE(info.reducible);
}

TEST(CfgAnalysis, BuilderCfgsAreReducible)
{
    KernelBuilder b("big");
    b.mov(0);
    for (int i = 0; i < 3; i++) {
        b.beginLoop(4);
        b.beginIf(0.5, 0);
        b.mov(1);
        b.beginElse();
        b.mov(2);
        b.endIf();
    }
    for (int i = 0; i < 3; i++)
        b.endLoop();
    Kernel k = b.build();
    CfgInfo info = analyzeCfg(k);
    EXPECT_TRUE(info.reducible);
    EXPECT_EQ(info.loops.size(), 3u);
}

TEST(CfgAnalysis, InvalidAndOutOfRangeIdsAreHandled)
{
    // reachable()/dominates() must reject INVALID_BLOCK and
    // out-of-range ids instead of indexing out of bounds — the
    // static verifier probes possibly-corrupt CFGs through them.
    KernelBuilder b("diamond");
    b.beginIf(0.5, 0);
    b.mov(1);
    b.beginElse();
    b.mov(2);
    b.endIf();
    Kernel k = b.build();
    CfgInfo info = analyzeCfg(k);
    const BlockId n = static_cast<BlockId>(k.numBlocks());

    EXPECT_FALSE(info.reachable(INVALID_BLOCK));
    EXPECT_FALSE(info.reachable(-5));
    EXPECT_FALSE(info.reachable(n));
    EXPECT_FALSE(info.reachable(n + 100));
    EXPECT_TRUE(info.reachable(k.entry()));

    EXPECT_FALSE(info.dominates(INVALID_BLOCK, k.entry()));
    EXPECT_FALSE(info.dominates(k.entry(), INVALID_BLOCK));
    EXPECT_FALSE(info.dominates(n, k.entry()));
    EXPECT_FALSE(info.dominates(k.entry(), n + 7));
    EXPECT_TRUE(info.dominates(k.entry(), k.entry()));
}

TEST(CfgAnalysis, UnreachableBlocksNeitherDominateNorAreDominated)
{
    // Hand-build a CFG with an unreachable block: entry -> exit,
    // plus an orphan that also branches to the exit.
    Kernel k;
    k.name = "orphan";
    k.num_regs = 1;
    k.blocks.resize(3);
    for (int i = 0; i < 3; i++)
        k.blocks[i].id = i;
    k.blocks[0].instrs.push_back(Instruction::branch(INVALID_REG));
    k.blocks[0].succs = {2};
    k.blocks[1].instrs.push_back(Instruction::branch(INVALID_REG));
    k.blocks[1].succs = {2};
    k.blocks[2].instrs.push_back(Instruction::exit());
    k.blocks[2].preds = {0, 1};

    CfgInfo info = analyzeCfg(k);
    EXPECT_TRUE(info.reachable(0));
    EXPECT_FALSE(info.reachable(1));
    EXPECT_TRUE(info.reachable(2));
    EXPECT_FALSE(info.dominates(1, 2));
    EXPECT_FALSE(info.dominates(0, 1));
    EXPECT_FALSE(info.dominates(1, 1));
}
