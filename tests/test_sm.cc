/**
 * @file
 * SM pipeline tests: issue mechanics, scoreboarding, operand
 * collector pressure, and deactivation on misses.
 */

#include <gtest/gtest.h>

#include "isa/kernel_builder.hh"
#include "sim/gpu.hh"
#include "tech/rf_config.hh"
#include "workloads/workload.hh"

using namespace ltrf;

namespace
{

SimConfig
oneSm(RfDesign d = RfDesign::BL)
{
    SimConfig cfg;
    cfg.num_sms = 1;
    cfg.design = d;
    return cfg;
}

} // namespace

TEST(Sm, DependentChainBoundByExecLatency)
{
    // A strictly serial FFMA chain cannot beat one instruction per
    // exec-latency cycles per warp, no matter the warp count.
    KernelBuilder b("chain");
    b.mov(0);
    b.mov(1);
    for (int i = 0; i < 30; i++)
        b.ffma(1, 0, 0, 1);       // reads its own previous result
    b.regDemand(256);             // a single resident warp
    Kernel k = b.build();

    SimConfig cfg = oneSm();
    SimResult r = simulate(cfg, k, 1);
    // 31 instructions, each waiting ~exec latency on the previous.
    EXPECT_GT(r.cycles, 30u * execLatency(Opcode::FFMA) * 8 / 10);
}

TEST(Sm, IndependentInstructionsPipeline)
{
    // Independent instructions from one warp issue back-to-back.
    KernelBuilder b("ilp");
    b.mov(0);
    for (int r = 1; r <= 8; r++)
        b.mov(r);
    for (int i = 0; i < 30; i++)
        b.ffma(1 + i % 8, 0, 0, 1 + i % 8);
    b.regDemand(256);
    Kernel k = b.build();

    SimConfig cfg = oneSm();
    SimResult dep_free = simulate(cfg, k, 1);
    // Far faster than the serial chain: at least 3 instrs per
    // exec-latency window. The 9 seeding movs are independent and
    // issue one per cycle on top of that.
    EXPECT_LT(dep_free.cycles, 9u + 30u * execLatency(Opcode::FFMA));
}

TEST(Sm, CollectorPressureThrottlesSlowRf)
{
    // With a slow MRF, collectors are held longer; fewer collectors
    // must reduce throughput.
    KernelBuilder b("pressure");
    b.mov(0).mov(1);
    b.beginLoop(50);
    for (int i = 0; i < 6; i++)
        b.ffma(2 + i, 0, 1, 2 + i);
    b.endLoop();
    Kernel k = b.build();

    SimConfig few = oneSm();
    few.mrf_latency_mult = 6.0;
    few.num_operand_collectors = 4;
    SimConfig many = oneSm();
    many.mrf_latency_mult = 6.0;
    many.num_operand_collectors = 16;
    EXPECT_LT(simulate(few, k).ipc, simulate(many, k).ipc);
}

TEST(Sm, L1MissDeactivatesAndReturns)
{
    // A kernel whose loads always miss forces warp switching; the
    // run must still complete with all instructions executed.
    KernelBuilder b("missy");
    MemStreamSpec ms;
    ms.working_set_lines = 4096;
    int s = b.stream(ms);
    b.mov(0);
    b.beginLoop(20);
    b.load(1, 0, s);
    b.iadd(0, 0, 1);   // does not depend on the load
    b.endLoop();
    Kernel k = b.build();

    SimConfig cfg = oneSm();
    Gpu gpu(cfg, k, 1);
    SimResult r = gpu.run();
    EXPECT_GT(gpu.sm(0).pipeStats().deactivations, 0u);
    EXPECT_EQ(r.instructions,
              static_cast<std::uint64_t>(
                      Gpu::residentWarps(cfg, k)) *
                      gpu.compiledWorkload().traces[0].real_instrs);
}

TEST(Sm, LoadConsumerWaitsForData)
{
    // The instruction reading a loaded register cannot issue before
    // the memory completion: cycles reflect at least one L1 latency
    // per iteration.
    KernelBuilder b("consume");
    MemStreamSpec ms;
    ms.working_set_lines = 2;  // hits after warmup
    int s = b.stream(ms);
    b.mov(0);
    b.beginLoop(20);
    b.load(1, 0, s);
    b.iadd(2, 1, 1);           // depends on the load
    b.endLoop();
    b.regDemand(256);          // single warp: no overlap
    Kernel k = b.build();

    SimConfig cfg = oneSm();
    SimResult r = simulate(cfg, k, 1);
    EXPECT_GT(r.cycles, 18u * cfg.l1d_hit_latency);
}

TEST(Sm, PrefetchBlocksOnlyTheIssuingWarp)
{
    // With several warps, one warp's PREFETCH stall is overlapped:
    // total cycles grow far less than the summed prefetch stalls.
    KernelBuilder b("overlap");
    MemStreamSpec ms;
    ms.working_set_lines = 16;
    int s = b.stream(ms);
    b.mov(0).mov(1);
    b.beginLoop(30);
    b.load(2, 0, s);
    for (int i = 0; i < 10; i++)
        b.ffma(3 + i % 10, 0, 1, 3 + i % 10);
    b.endLoop();
    b.regDemand(32);           // full occupancy
    Kernel k = b.build();

    SimConfig cfg = oneSm(RfDesign::LTRF);
    cfg.mrf_latency_mult = 6.0;
    SimResult r = simulate(cfg, k, 1);
    EXPECT_GT(r.prefetch_ops, 0u);
    EXPECT_GT(r.prefetch_stall_cycles, 0u);

    // Overlap check: with the full active pool, LTRF at 6x latency
    // stays close to the no-latency Ideal despite its warp-level
    // prefetch stalls.
    SimConfig ideal = oneSm(RfDesign::IDEAL);
    ideal.mrf_latency_mult = 6.0;
    SimResult ri = simulate(ideal, k, 1);
    EXPECT_GT(r.ipc, ri.ipc * 0.75);
}

TEST(Sm, ParkedCollectorStallsCutFullDecodes)
{
    // backprop under BL on the slow configuration #6 register file is
    // collector-bound: most issue attempts find every operand
    // collector busy. Re-decoding the head instruction on every
    // attempt cost 6.93 full decodes per issued slot here; a warp
    // parked on its collector stall re-checks only the collectors, so
    // full decodes stay near one per slot.
    SimConfig cfg = oneSm();
    applyRfConfig(cfg, rfConfig(6));
    Gpu gpu(cfg, WorkloadSuite::byName("backprop").kernel, 2018);
    SimResult r = gpu.run();
    const Sm::PipeStats &p = gpu.sm(0).pipeStats();
    ASSERT_GT(p.issued_slots, 0u);
    const double decodes_per_slot = static_cast<double>(p.full_decodes) /
                                    static_cast<double>(p.issued_slots);
    EXPECT_LT(decodes_per_slot, 6.93);
    EXPECT_LT(decodes_per_slot, 1.1);
    EXPECT_GT(p.parked_restalls, p.issued_slots);

    // The counters account for every step and slot: one step per
    // stepped cycle, and the used slots are the instructions plus
    // the triggered PREFETCHes (none under BL).
    EXPECT_GE(p.steps, 1u);
    EXPECT_LE(p.steps, r.cycles);
    EXPECT_EQ(p.issued_slots, r.instructions);
    EXPECT_GT(p.deactivations, 0u);
}

TEST(Sm, ScoreboardSentinelStaysZero)
{
    // The issue check reads reg_ready[INVALID_REG] for absent
    // operands: a sentinel slot before each scoreboard row that must
    // read 0 for the whole run, so nothing may ever write it.
    for (const char *name : {"bfs", "nw"}) {
        for (RfDesign d : {RfDesign::BL, RfDesign::LTRF_PLUS}) {
            Gpu gpu(oneSm(d), WorkloadSuite::byName(name).kernel, 2018);
            SimResult r = gpu.run();
            ASSERT_GT(r.instructions, 0u);
            const std::vector<Warp> &warps = gpu.sm(0).residentWarps();
            ASSERT_FALSE(warps.empty());
            for (const Warp &w : warps) {
                EXPECT_TRUE(w.finished());
                EXPECT_EQ(w.reg_ready[INVALID_REG], 0u)
                        << name << " warp " << w.id;
            }
        }
    }
}
