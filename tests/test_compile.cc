/**
 * @file
 * Tests for per-design workload compilation.
 */

#include <gtest/gtest.h>

#include "core/compile.hh"
#include "isa/kernel_builder.hh"

using namespace ltrf;

namespace
{

Kernel
sampleKernel()
{
    KernelBuilder b("sample");
    b.mov(0).mov(1);
    b.beginLoop(6);
    b.load(2, 0, 0);
    b.ffma(3, 2, 1, 3);
    b.endLoop();
    b.store(3, 0, 0);
    return b.build();
}

} // namespace

TEST(Compile, PrefetchDesignsGetIntervalsAndPrefetches)
{
    for (RfDesign d : {RfDesign::LTRF, RfDesign::LTRF_PLUS}) {
        SimConfig cfg;
        cfg.design = d;
        CompiledWorkload cw = compileWorkload(sampleKernel(), cfg, 1);
        EXPECT_FALSE(cw.analysis.intervals.empty());
        EXPECT_GT(cw.code_size.num_prefetch_ops, 0);
        EXPECT_FALSE(cw.strand_semantics);
        // Every block is mapped to an interval.
        for (const auto &bb : cw.kernel().blocks)
            EXPECT_NE(cw.intervalOf(bb.id), UNKNOWN_INTERVAL);
    }
}

TEST(Compile, StrandDesignsUseStrandSemantics)
{
    for (RfDesign d : {RfDesign::LTRF_STRAND, RfDesign::SHRF}) {
        SimConfig cfg;
        cfg.design = d;
        CompiledWorkload cw = compileWorkload(sampleKernel(), cfg, 1);
        EXPECT_TRUE(cw.strand_semantics);
        EXPECT_FALSE(cw.analysis.intervals.empty());
    }
}

TEST(Compile, ShrfCachedSetsAreDefsWithinWorkingSet)
{
    SimConfig cfg;
    cfg.design = RfDesign::SHRF;
    CompiledWorkload cw = compileWorkload(sampleKernel(), cfg, 1);
    ASSERT_EQ(cw.shrf_cached.size(), cw.analysis.intervals.size());
    for (const auto &iv : cw.analysis.intervals) {
        const RegBitVec &cached = cw.shrf_cached[iv.id];
        EXPECT_TRUE(iv.working_set.contains(cached));
        // Cached regs must actually be defined inside the strand.
        RegBitVec defs;
        for (BlockId b : iv.blocks)
            for (const auto &in : cw.kernel().block(b).instrs)
                if (in.op != Opcode::PREFETCH && in.dst != INVALID_REG)
                    defs.set(in.dst);
        EXPECT_TRUE(defs.contains(cached));
    }
}

TEST(Compile, PlainDesignsKeepKernelUntouched)
{
    Kernel k = sampleKernel();
    int static_count = k.staticInstrCount();
    for (RfDesign d : {RfDesign::BL, RfDesign::RFC, RfDesign::IDEAL}) {
        SimConfig cfg;
        cfg.design = d;
        CompiledWorkload cw = compileWorkload(k, cfg, 1);
        EXPECT_TRUE(cw.analysis.intervals.empty());
        EXPECT_EQ(cw.kernel().staticInstrCountWithPrefetch(),
                  static_count);
    }
}

TEST(Compile, TracesPerWarpAndDeterministic)
{
    SimConfig cfg;
    cfg.design = RfDesign::LTRF;
    CompiledWorkload a = compileWorkload(sampleKernel(), cfg, 42);
    CompiledWorkload b = compileWorkload(sampleKernel(), cfg, 42);
    ASSERT_EQ(a.traces.size(),
              static_cast<size_t>(cfg.max_warps_per_sm));
    for (size_t w = 0; w < a.traces.size(); w++)
        EXPECT_EQ(a.traces[w].real_instrs, b.traces[w].real_instrs);
}

TEST(Compile, TraceCountSelectsAPrefixOfTheFullSet)
{
    // Warp w's trace depends only on (seed, w): asking for fewer
    // traces (what Gpu does for its resident warps) yields a prefix.
    SimConfig cfg;
    cfg.design = RfDesign::LTRF;
    CompiledWorkload all = compileWorkload(sampleKernel(), cfg, 42);
    CompiledWorkload some = compileWorkload(sampleKernel(), cfg, 42,
                                            DEFAULT_MAX_TRACE_INSTRS, 12);
    ASSERT_EQ(some.traces.size(), 12u);
    for (size_t w = 0; w < some.traces.size(); w++) {
        EXPECT_EQ(some.traces[w].path, all.traces[w].path);
        EXPECT_EQ(some.traces[w].real_instrs, all.traces[w].real_instrs);
    }
}

TEST(Compile, DeadOperandsAnnotatedForAllDesigns)
{
    SimConfig cfg;
    cfg.design = RfDesign::LTRF_PLUS;
    CompiledWorkload cw = compileWorkload(sampleKernel(), cfg, 1);
    bool any_dead = false;
    for (const auto &bb : cw.kernel().blocks)
        for (const auto &in : bb.instrs)
            for (bool d : in.src_dead)
                any_dead |= d;
    EXPECT_TRUE(any_dead);
}

TEST(Compile, IntervalWorkingSetsFitCachePartition)
{
    SimConfig cfg;
    cfg.design = RfDesign::LTRF;
    cfg.regs_per_interval = 8;
    cfg.rf_cache_bytes = static_cast<std::size_t>(8) *
                         cfg.num_active_warps * BYTES_PER_WARP_REG;
    CompiledWorkload cw = compileWorkload(sampleKernel(), cfg, 1);
    for (const auto &iv : cw.analysis.intervals)
        EXPECT_LE(iv.working_set.count(), 8);
}
