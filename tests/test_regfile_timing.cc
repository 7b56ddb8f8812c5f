/**
 * @file
 * Tests for the banked register file timing models (MainRegFile and
 * RegCache). The components keep no access counters of their own:
 * the designs count every access in RfStats, so the access-count
 * checks drive a design through makeRegFileSystem.
 */

#include <gtest/gtest.h>

#include "core/main_regfile.hh"
#include "core/reg_cache.hh"
#include "core/regfile_system.hh"
#include "isa/kernel_builder.hh"

using namespace ltrf;

namespace
{

/** One-interval loop kernel compiled for @p design, and its RF. */
struct Rig
{
    explicit Rig(RfDesign design)
    {
        KernelBuilder b("k");
        b.mov(0).mov(1);
        b.beginLoop(4);
        b.ffma(2, 0, 1, 2);
        b.endLoop();
        b.store(2, 0, 0);
        cfg.num_sms = 1;
        cfg.design = design;
        cfg.validate();
        cw = compileWorkload(b.build(), cfg, 1);
        rf = makeRegFileSystem(cfg, cw, 4);
    }

    SimConfig cfg;
    CompiledWorkload cw;
    std::unique_ptr<RegFileSystem> rf;
};

} // namespace

TEST(MainRegFile, LatencyAndPipelining)
{
    MainRegFile mrf(16, 10);
    // First access to a bank returns after the latency.
    EXPECT_EQ(mrf.access(0, 0, 100), 110u);
    // A different bank is independent.
    EXPECT_EQ(mrf.access(0, 1, 100), 110u);
    // Same bank next cycle: pipelined, one new access per cycle.
    EXPECT_EQ(mrf.access(0, 16, 101), 111u);
    EXPECT_EQ(mrf.conflictCycles(), 0u);
}

TEST(MainRegFile, SameCycleBankConflictSerializes)
{
    MainRegFile mrf(16, 4);
    Cycle a = mrf.access(0, 0, 50);
    Cycle b = mrf.access(0, 16, 50);  // same bank (0+16)%16 == 0
    EXPECT_EQ(a, 54u);
    EXPECT_EQ(b, 55u);               // started one cycle later
    EXPECT_GT(mrf.conflictCycles(), 0u);
}

TEST(MainRegFile, BankInterleavingByWarpAndReg)
{
    MainRegFile mrf(16, 2);
    // Consecutive registers of one warp land in consecutive banks.
    for (int r = 0; r < 16; r++)
        EXPECT_EQ(mrf.bankOf(0, static_cast<RegId>(r)), r);
    // Different warps shift the mapping.
    EXPECT_EQ(mrf.bankOf(1, 0), 1);
    EXPECT_EQ(mrf.bankOf(5, 11), 0);
}

TEST(MainRegFile, FastmodBankOfMatchesModulo)
{
    // bankOf computes (w + r) % banks without a division; it must
    // agree with the plain remainder for every bank count, not only
    // for powers of two.
    for (int banks = 1; banks <= 1024; banks++) {
        MainRegFile mrf(banks, 1);
        for (WarpId w = 0; w < 64; w++) {
            for (int r = 0; r < MAX_ARCH_REGS; r++) {
                const int want = (w + r) % banks;
                const int got = mrf.bankOf(w, static_cast<RegId>(r));
                if (got != want) {
                    ADD_FAILURE() << "banks " << banks << " w " << w
                                  << " r " << r << ": " << got
                                  << " != " << want;
                    return;
                }
            }
        }
    }
}

TEST(MainRegFile, ResultWriteCountsWithoutBlocking)
{
    // BL writes every result to the MRF: the write is counted for
    // the power model but does not occupy the bank, so a read of the
    // same bank at the same cycle is unaffected.
    Rig rig(RfDesign::BL);
    Instruction def = Instruction::alu(Opcode::MOV, 0);
    rig.rf->writeResult(0, def, 0, true);
    EXPECT_EQ(rig.rf->rfStats().main_accesses.value(), 1u);
    Instruction use = Instruction::alu(Opcode::MOV, 1, 0);
    EXPECT_EQ(rig.rf->readOperands(0, use, 0),
              static_cast<Cycle>(rig.cfg.mrfLatency() +
                                 rig.cfg.operand_xbar_latency));
    EXPECT_EQ(rig.rf->rfStats().main_accesses.value(), 2u);
    EXPECT_EQ(rig.rf->bankConflictCycles(), 0u);
}

TEST(RegCache, FastPipelinedAccess)
{
    RegCache cache(16, 1);
    EXPECT_EQ(cache.access(3, 10), 11u);
    EXPECT_EQ(cache.access(3, 11), 12u);
    // Same bank, same cycle: second access slips one cycle.
    Cycle a = cache.access(5, 20);
    Cycle b = cache.access(5, 20);
    EXPECT_EQ(a, 21u);
    EXPECT_EQ(b, 22u);
}

TEST(RegCache, AccessCounting)
{
    // Under LTRF a read of a resident register and a result write
    // each count one cache access; the write does not occupy the
    // bank, so the next read of it is not delayed.
    Rig rig(RfDesign::LTRF);
    rig.rf->activate(0, 0);
    BlockId header = rig.cw.analysis.intervals[0].header;
    const Instruction &pf =
            rig.cw.analysis.kernel.block(header).instrs.front();
    Cycle t = rig.rf->prefetch(0, header, pf, 0);
    const std::uint64_t before = rig.rf->rfStats().cache_accesses.value();

    Instruction in = Instruction::alu(Opcode::MOV, 2, 0);
    const Cycle lat = static_cast<Cycle>(rig.cfg.wcb_latency +
                                         rig.cfg.cache_latency +
                                         rig.cfg.operand_xbar_latency);
    EXPECT_EQ(rig.rf->readOperands(0, in, t), t + lat);
    rig.rf->writeResult(0, in, t + 5, true);
    EXPECT_EQ(rig.rf->rfStats().cache_accesses.value(), before + 2);
    EXPECT_EQ(rig.rf->readOperands(0, in, t + 1), t + 1 + lat);
}

TEST(RegCacheDeath, BadBankPanics)
{
    RegCache cache(8, 1);
    EXPECT_DEATH(cache.access(8, 0), "bad cache bank");
}

/** Property: under random traffic, per-bank issue times are strictly
 *  increasing (one access per cycle per bank). */
class MrfProperty : public ::testing::TestWithParam<int>
{};

TEST_P(MrfProperty, BankIssueTimesMonotonic)
{
    MainRegFile mrf(16, 3 + GetParam() % 5);
    std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
    Cycle now = 0;
    std::vector<Cycle> last_done(16, 0);
    for (int i = 0; i < 200; i++) {
        seed = seed * 6364136223846793005ull + 1;
        WarpId w = static_cast<WarpId>(seed % 8);
        RegId r = static_cast<RegId>((seed >> 8) % 32);
        now += seed % 3;
        Cycle done = mrf.access(w, r, now);
        int bank = mrf.bankOf(w, r);
        EXPECT_GT(done, last_done[bank]);
        EXPECT_GE(done, now + mrf.latency());
        last_done[bank] = done;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MrfProperty, ::testing::Range(0, 8));
