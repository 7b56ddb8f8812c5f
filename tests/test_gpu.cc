/**
 * @file
 * End-to-end simulator tests: occupancy model, determinism, design
 * orderings, and the paper's core latency-tolerance invariants.
 * These run a small configuration (1-2 SMs) to stay fast.
 */

#include <gtest/gtest.h>

#include "isa/kernel_builder.hh"
#include "sim/gpu.hh"
#include "workloads/workload.hh"

using namespace ltrf;

namespace
{

Kernel
computeKernel()
{
    // Compute-dominated kernel with a streaming load: sensitive to
    // RF latency, light on memory.
    KernelBuilder b("compute");
    MemStreamSpec ms;
    ms.working_set_lines = 16;
    int s = b.stream(ms);
    b.mov(0).mov(1);
    b.beginLoop(40);
    b.load(2, 0, s);
    for (int i = 0; i < 10; i++)
        b.ffma(3 + i % 6, 0, 1, 3 + i % 6);
    b.endLoop();
    b.store(3, 0, s);
    b.regDemand(64);
    return b.build();
}

SimConfig
smallConfig(RfDesign d, double mult = 1.0, int cap = 1)
{
    SimConfig cfg;
    cfg.num_sms = 1;
    cfg.design = d;
    cfg.mrf_latency_mult = mult;
    cfg.rf_capacity_mult = cap;
    return cfg;
}

} // namespace

TEST(Occupancy, LimitedByRegisterDemand)
{
    SimConfig cfg;
    KernelBuilder b("fat");
    b.mov(0);
    b.regDemand(128);
    Kernel k = b.build();
    // 2048 warp-registers / 128 regs per thread = 16 warps.
    EXPECT_EQ(Gpu::residentWarps(cfg, k), 16);
    cfg.rf_capacity_mult = 8;
    EXPECT_EQ(Gpu::residentWarps(cfg, k), 64);   // capped at 64
}

TEST(Occupancy, SmallKernelsReachFullOccupancy)
{
    SimConfig cfg;
    KernelBuilder b("thin");
    b.mov(0);
    b.regDemand(16);
    Kernel k = b.build();
    EXPECT_EQ(Gpu::residentWarps(cfg, k), cfg.max_warps_per_sm);
}

TEST(Gpu, RunsToCompletionAndCountsInstructions)
{
    Kernel k = computeKernel();
    SimResult r = simulate(smallConfig(RfDesign::BL), k, 7);
    EXPECT_GT(r.cycles, 0u);
    // Every warp executes its full trace.
    Gpu gpu(smallConfig(RfDesign::BL), k, 7);
    std::uint64_t expect = 0;
    int warps = Gpu::residentWarps(smallConfig(RfDesign::BL), k);
    for (int w = 0; w < warps; w++)
        expect += gpu.compiledWorkload().traces[w].real_instrs;
    EXPECT_EQ(r.instructions, expect);
}

TEST(Gpu, DeterministicAcrossRuns)
{
    Kernel k = computeKernel();
    SimResult a = simulate(smallConfig(RfDesign::LTRF), k, 3);
    SimResult b = simulate(smallConfig(RfDesign::LTRF), k, 3);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.main_accesses, b.main_accesses);
    EXPECT_EQ(a.prefetch_ops, b.prefetch_ops);
}

TEST(Gpu, BaselineLatencySensitivity)
{
    // BL slows down monotonically as the MRF latency multiplier
    // grows (the motivation of the whole paper).
    Kernel k = computeKernel();
    double prev = simulate(smallConfig(RfDesign::BL, 1.0), k).ipc;
    for (double m : {3.0, 6.0}) {
        double ipc = simulate(smallConfig(RfDesign::BL, m), k).ipc;
        EXPECT_LT(ipc, prev);
        prev = ipc;
    }
}

TEST(Gpu, LtrfToleratesLatencyBetterThanBl)
{
    Kernel k = computeKernel();
    double bl_1 = simulate(smallConfig(RfDesign::BL, 1.0), k).ipc;
    double bl_6 = simulate(smallConfig(RfDesign::BL, 6.0), k).ipc;
    double ltrf_1 = simulate(smallConfig(RfDesign::LTRF, 1.0), k).ipc;
    double ltrf_6 = simulate(smallConfig(RfDesign::LTRF, 6.0), k).ipc;
    // Relative degradation must be far smaller for LTRF.
    EXPECT_GT(ltrf_6 / ltrf_1, bl_6 / bl_1);
    EXPECT_GT(ltrf_6 / ltrf_1, 0.85);
}

TEST(Gpu, IdealBoundsLtrf)
{
    // Ideal has the same capacity but no latency: it upper-bounds
    // LTRF at high latency multipliers.
    Kernel k = computeKernel();
    SimConfig ltrf = smallConfig(RfDesign::LTRF, 6.0, 8);
    SimConfig ideal = smallConfig(RfDesign::IDEAL, 6.0, 8);
    EXPECT_LE(simulate(ltrf, k).ipc, simulate(ideal, k).ipc * 1.02);
}

TEST(Gpu, LtrfCutsMainRfAccesses)
{
    // Paper section 4.2: LTRF reduces main register file accesses
    // 4-6x by serving reads/writes from the cache.
    Kernel k = computeKernel();
    SimResult bl = simulate(smallConfig(RfDesign::BL), k);
    SimResult ltrf = simulate(smallConfig(RfDesign::LTRF), k);
    EXPECT_LT(ltrf.main_accesses, bl.main_accesses);
    EXPECT_GT(static_cast<double>(bl.main_accesses) /
                      static_cast<double>(ltrf.main_accesses),
              2.0);
}

TEST(Gpu, LtrfPlusMovesFewerRegistersThanLtrf)
{
    Kernel k = computeKernel();
    SimResult ltrf = simulate(smallConfig(RfDesign::LTRF), k);
    SimResult plus = simulate(smallConfig(RfDesign::LTRF_PLUS), k);
    EXPECT_LT(plus.xfer_regs, ltrf.xfer_regs);
}

TEST(Gpu, PrefetchCountMatchesIntervalEntries)
{
    Kernel k = computeKernel();
    SimResult r = simulate(smallConfig(RfDesign::LTRF), k);
    EXPECT_GT(r.prefetch_ops, 0u);
    // Strand semantics re-prefetch per loop iteration: many more.
    SimResult s = simulate(smallConfig(RfDesign::LTRF_STRAND), k);
    EXPECT_GT(s.prefetch_ops, r.prefetch_ops);
}

TEST(Gpu, MoreSmsMoreThroughput)
{
    Kernel k = computeKernel();
    SimConfig one = smallConfig(RfDesign::BL);
    SimConfig four = smallConfig(RfDesign::BL);
    four.num_sms = 4;
    SimResult r1 = simulate(one, k);
    SimResult r4 = simulate(four, k);
    EXPECT_GT(r4.ipc, r1.ipc * 2.0);
    EXPECT_EQ(r4.instructions, r1.instructions * 4);
}

TEST(Gpu, CapacityRaisesThroughputForFatKernels)
{
    // The register-sensitive premise: an 8x register file admits
    // more warps and hides memory latency better.
    KernelBuilder b("fatmem");
    MemStreamSpec ms;
    ms.working_set_lines = 32;
    int s = b.stream(ms);
    b.mov(0).mov(1);
    b.beginLoop(60);
    b.load(2, 0, s);
    for (int i = 0; i < 8; i++)
        b.ffma(3 + i, 0, 1, 3 + i);
    b.endLoop();
    b.regDemand(128);
    Kernel k = b.build();

    double base = simulate(smallConfig(RfDesign::IDEAL, 1.0, 1), k).ipc;
    double big = simulate(smallConfig(RfDesign::IDEAL, 1.0, 8), k).ipc;
    EXPECT_GT(big, base * 1.1);
}

/** Property sweep: every design completes and respects basic
 *  accounting invariants on every suite workload. */
class DesignWorkloadProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(DesignWorkloadProperty, AccountingInvariants)
{
    auto [di, wi] = GetParam();
    RfDesign d = static_cast<RfDesign>(di);
    const Workload &w = WorkloadSuite::all()[static_cast<size_t>(wi)];
    SimConfig cfg = smallConfig(d, 4.0);
    SimResult r = simulate(cfg, w.kernel, 11);

    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
    if (usesPrefetch(d) || d == RfDesign::SHRF)
        EXPECT_GT(r.prefetch_ops, 0u);
    else
        EXPECT_EQ(r.prefetch_ops, 0u);
    if (!usesRegCache(d))
        EXPECT_EQ(r.cache_accesses, 0u);
    if (d == RfDesign::BL || d == RfDesign::IDEAL)
        EXPECT_GT(r.main_accesses, r.instructions);  // >1 access/instr
}

INSTANTIATE_TEST_SUITE_P(
        Sweep, DesignWorkloadProperty,
        ::testing::Combine(::testing::Range(0, 7),
                           ::testing::Values(1, 3, 8, 12)));

TEST(Gpu, TracesOnlyForResidentWarps)
{
    // Gpu generates traces for the warps its SMs hold, not for every
    // warp context the SM could host.
    Kernel k = computeKernel();
    SimConfig cfg = smallConfig(RfDesign::BL);
    Gpu gpu(cfg, k, 1);
    EXPECT_EQ(gpu.compiledWorkload().traces.size(),
              static_cast<size_t>(Gpu::residentWarps(cfg, k)));
    EXPECT_LT(gpu.compiledWorkload().traces.size(),
              static_cast<size_t>(cfg.max_warps_per_sm));
}

TEST(GpuDeathTest, MaxCyclesBeyondTheScoreboardPanics)
{
    // The scoreboard holds 32-bit cycles, so a run may not be allowed
    // to go past UINT32_MAX.
    Gpu gpu(smallConfig(RfDesign::BL), computeKernel(), 1);
    EXPECT_DEATH(gpu.run(MAX_SCOREBOARD_CYCLE + 1), "32-bit scoreboard");
}
