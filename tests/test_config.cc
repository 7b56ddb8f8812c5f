/**
 * @file
 * Tests for the simulated-system configuration (Table 3 defaults and
 * derived quantities).
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/config.hh"

using namespace ltrf;

TEST(SimConfig, Table3Defaults)
{
    SimConfig cfg;
    // 256KB register file = 2048 warp-wide registers = 65536 thread
    // registers (Table 3 counts 32-bit registers).
    EXPECT_EQ(cfg.numMrfRegs(), 2048);
    // 16KB register cache = 128 warp-wide registers = 4096 32-bit.
    EXPECT_EQ(cfg.numCacheRegs(), 128);
    EXPECT_EQ(cfg.num_active_warps, 8);
    EXPECT_EQ(cfg.regs_per_interval, 16);
    EXPECT_EQ(cfg.max_warps_per_sm, 64);
    // 128 cache registers / 8 active warps = 16 per warp, matching
    // the interval size.
    EXPECT_EQ(cfg.cacheRegsPerWarp(), 16);
    cfg.validate();
}

TEST(SimConfig, CapacityMultiplier)
{
    SimConfig cfg;
    cfg.rf_capacity_mult = 8;
    EXPECT_EQ(cfg.numMrfRegs(), 16384);  // 2MB
}

TEST(SimConfig, LatencyMultiplierRounds)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.mrfLatency(), cfg.base_mrf_latency);
    cfg.mrf_latency_mult = 6.3;
    EXPECT_EQ(cfg.mrfLatency(),
              static_cast<int>(std::lround(cfg.base_mrf_latency * 6.3)));
    cfg.mrf_latency_mult = 1.0;
    cfg.base_mrf_latency = 1;
    EXPECT_GE(cfg.mrfLatency(), 1);
}

TEST(SimConfigDeathTest, ValidateRejectsNonFiniteLatencyMultipliers)
{
    SimConfig cfg;
    cfg.mrf_latency_mult = std::numeric_limits<double>::infinity();
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "must be finite");
    cfg.mrf_latency_mult = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "must be finite");
    // Finite but far beyond lround()'s range.
    cfg.mrf_latency_mult = 1e300;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "exceeds the 1024-cycle cap");
}

TEST(SimConfigDeathTest, ValidateCapsTheEffectiveLatency)
{
    SimConfig cfg;
    cfg.mrf_latency_mult = MAX_MRF_LATENCY / cfg.base_mrf_latency;
    cfg.validate();    // exactly at the cap
    EXPECT_EQ(cfg.mrfLatency(), MAX_MRF_LATENCY);
    cfg.mrf_latency_mult = 1e6;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "exceeds the 1024-cycle cap");
}

TEST(SimConfig, DesignPredicates)
{
    EXPECT_FALSE(usesRegCache(RfDesign::BL));
    EXPECT_FALSE(usesRegCache(RfDesign::IDEAL));
    EXPECT_TRUE(usesRegCache(RfDesign::RFC));
    EXPECT_TRUE(usesRegCache(RfDesign::LTRF));
    EXPECT_TRUE(usesRegCache(RfDesign::LTRF_PLUS));
    EXPECT_TRUE(usesRegCache(RfDesign::SHRF));

    EXPECT_TRUE(usesPrefetch(RfDesign::LTRF));
    EXPECT_TRUE(usesPrefetch(RfDesign::LTRF_PLUS));
    EXPECT_TRUE(usesPrefetch(RfDesign::LTRF_STRAND));
    EXPECT_FALSE(usesPrefetch(RfDesign::RFC));
    EXPECT_FALSE(usesPrefetch(RfDesign::BL));
}

TEST(SimConfig, DesignNames)
{
    EXPECT_STREQ(rfDesignName(RfDesign::BL), "BL");
    EXPECT_STREQ(rfDesignName(RfDesign::LTRF_PLUS), "LTRF+");
    EXPECT_STREQ(rfDesignName(RfDesign::LTRF_STRAND), "LTRF(strand)");
    EXPECT_STREQ(rfDesignName(RfDesign::IDEAL), "Ideal");
}
