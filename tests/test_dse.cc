/**
 * @file
 * Tests for the design-space exploration subsystem: space
 * enumeration/sampling/neighborhoods, the Pareto frontier, and the
 * explorer's determinism guarantees (same seed + any --jobs value
 * -> byte-identical serialized results), including the Table 2
 * grid-reproduction property the CLI acceptance check relies on.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "dse/explorer.hh"
#include "dse/pareto.hh"
#include "dse/space.hh"

using namespace ltrf;
using namespace ltrf::dse;

namespace
{

/** A 4-point space that evaluates in ~a second. */
DesignSpace
microSpace()
{
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM, CellTech::TFET_SRAM};
    s.banks = {1, 8};
    s.bank_sizes = {1};
    s.networks = {};    // auto
    s.cache_kbs = {16};
    s.policies = {PrefetchPolicy::INTERVAL};
    s.warps = {8};
    return s;
}

ExploreOptions
microOptions()
{
    ExploreOptions opt;
    opt.workloads = {"bfs", "btree"};
    opt.num_sms = 1;
    opt.seed = 2018;
    return opt;
}

} // namespace

// ----- Design space -----

TEST(DesignSpace, DefaultsSizeAndDistinctEnumeration)
{
    DesignSpace s = DesignSpace::defaults();
    s.validate();
    EXPECT_EQ(s.size(), 4u * 4 * 4 * 3 * 1 * 3);

    DesignSpace micro = microSpace();
    EXPECT_EQ(micro.size(), 4u);
    std::set<std::string> keys;
    for (const DesignPoint &p : micro.enumerate())
        keys.insert(p.key());
    EXPECT_EQ(keys.size(), 4u);
}

TEST(DesignSpace, PointAtDecodesLexicographically)
{
    DesignSpace s = microSpace();
    // warps is the fastest axis; with one value each for the minor
    // axes, index order is (hp,b1), (hp,b8), (tfet,b1), (tfet,b8).
    EXPECT_EQ(s.pointAt(0).tech, CellTech::HP_SRAM);
    EXPECT_EQ(s.pointAt(0).banks_mult, 1);
    EXPECT_EQ(s.pointAt(0).network, NetworkKind::CROSSBAR);
    EXPECT_EQ(s.pointAt(1).banks_mult, 8);
    EXPECT_EQ(s.pointAt(1).network, NetworkKind::FLAT_BUTTERFLY);
    EXPECT_EQ(s.pointAt(2).tech, CellTech::TFET_SRAM);
    EXPECT_EQ(s.enumerate(3).size(), 3u);
}

TEST(DesignSpace, SamplingIsSeededAndInBounds)
{
    DesignSpace s = DesignSpace::defaults();
    Rng a(7), b(7);
    for (int i = 0; i < 32; i++) {
        DesignPoint pa = s.sample(a);
        DesignPoint pb = s.sample(b);
        EXPECT_EQ(pa.key(), pb.key());
    }
}

TEST(DesignSpace, NeighborsStepOneAxis)
{
    DesignSpace s = DesignSpace::defaults();
    DesignPoint p = s.pointAt(0);    // every axis at its minimum
    std::vector<DesignPoint> n = s.neighbors(p);
    // One step up each of tech, banks, bank size, cache, warps
    // (policy axis has a single value; network is auto).
    EXPECT_EQ(n.size(), 5u);
    for (const DesignPoint &q : n)
        EXPECT_NE(q.key(), p.key());

    // Auto-network retargets when the bank count steps.
    DesignPoint banks_up;
    bool found = false;
    for (const DesignPoint &q : n)
        if (q.banks_mult == 2) {
            banks_up = q;
            found = true;
        }
    ASSERT_TRUE(found);
    EXPECT_EQ(banks_up.network, NetworkKind::FLAT_BUTTERFLY);
}

TEST(DesignSpace, ConfigForFollowsFigureMethodology)
{
    DesignPoint p;
    p.tech = CellTech::TFET_SRAM;
    p.banks_mult = 8;
    p.bank_size_mult = 1;
    p.network = NetworkKind::FLAT_BUTTERFLY;
    p.cache_kb = 32;
    p.policy = PrefetchPolicy::INTERVAL_PLUS;
    p.active_warps = 16;

    SimConfig cfg = configFor(p, 2);
    EXPECT_EQ(cfg.num_sms, 2);
    EXPECT_EQ(cfg.design, RfDesign::LTRF_PLUS);
    EXPECT_EQ(cfg.rf_capacity_mult, 8);
    EXPECT_EQ(cfg.num_mrf_banks, 128);
    EXPECT_DOUBLE_EQ(cfg.mrf_latency_mult, 5.3);
    EXPECT_EQ(cfg.rf_cache_bytes, 32u * 1024);
    EXPECT_EQ(cfg.num_active_warps, 16);
    // The point carries its interval budget; in auto-interval
    // spaces finalize() pins it to the per-warp cache partition
    // (Figures 12/13), and configFor honors whatever the point says
    // — the axes are decoupled.
    EXPECT_EQ(cfg.regs_per_interval, cfg.cacheRegsPerWarp());
    p.regs_per_interval = 8;
    EXPECT_EQ(configFor(p, 2).regs_per_interval, 8);
}

TEST(DesignSpace, SimKeyCollapsesEquivalentConfigs)
{
    // At 1x banks the two networks model identical latency, so the
    // points simulate identically and must share a sim key.
    DesignPoint a, b;
    a.network = NetworkKind::CROSSBAR;
    b.network = NetworkKind::FLAT_BUTTERFLY;
    EXPECT_EQ(simKey(configFor(a, 2)), simKey(configFor(b, 2)));

    DesignPoint c = a;
    c.cache_kb = 32;
    EXPECT_NE(simKey(configFor(a, 2)), simKey(configFor(c, 2)));
}

TEST(DesignSpaceDeathTest, ValidateRejectsBadAxes)
{
    DesignSpace s = DesignSpace::defaults();
    s.banks = {3};
    EXPECT_EXIT(s.validate(), ::testing::ExitedWithCode(1),
                "power of two");

    DesignSpace s2 = DesignSpace::defaults();
    s2.cache_kbs = {9};    // 72 regs, not divisible by 16 warps
    EXPECT_EXIT(s2.validate(), ::testing::ExitedWithCode(1),
                "not divisible");

    // Auto interval lengths below the compiler's 4-register floor:
    // each flag is in range alone, but 8KB over 32 warps (and 16KB
    // over 64) leaves a 2-register partition. A usage error, not an
    // interval-formation assertion abort.
    for (auto [kb, warps] : {std::pair{8, 32}, std::pair{16, 64}}) {
        DesignSpace s3 = DesignSpace::defaults();
        s3.cache_kbs = {kb};
        s3.warps = {warps};
        s3.intervals = {};
        EXPECT_EXIT(s3.validate(), ::testing::ExitedWithCode(1),
                    "registers per interval 2 out of range");
    }
}

// ----- Pareto frontier -----

TEST(Pareto, DominanceDefinition)
{
    Objectives a{1.2, 0.8, 1.0};
    Objectives worse{1.1, 0.9, 1.0};
    Objectives tradeoff{1.3, 1.5, 1.0};
    EXPECT_TRUE(dominates(a, worse));
    EXPECT_FALSE(dominates(worse, a));
    EXPECT_FALSE(dominates(a, tradeoff));
    EXPECT_FALSE(dominates(tradeoff, a));
    // Equal objectives: neither dominates.
    EXPECT_FALSE(dominates(a, a));
}

TEST(Pareto, InsertEvictsDominatedMembers)
{
    ParetoFrontier f;
    EXPECT_TRUE(f.insert(0, {1.0, 1.0, 1.0}));
    EXPECT_TRUE(f.insert(1, {1.2, 1.2, 1.0}));    // tradeoff: joins
    EXPECT_EQ(f.size(), 2u);
    // Dominates both: evicts both.
    EXPECT_TRUE(f.insert(2, {1.3, 0.9, 0.9}));
    EXPECT_EQ(f.size(), 1u);
    EXPECT_EQ(f.members()[0].point_index, 2);
    // Dominated: rejected.
    EXPECT_FALSE(f.insert(3, {1.2, 1.0, 1.0}));
    EXPECT_EQ(f.size(), 1u);
}

TEST(Pareto, MembersOrderedByIpcThenIndex)
{
    ParetoFrontier f;
    f.insert(0, {1.0, 0.5, 1.0});
    f.insert(1, {1.4, 0.9, 1.0});
    f.insert(2, {1.2, 0.7, 1.0});
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f.members()[0].point_index, 1);
    EXPECT_EQ(f.members()[1].point_index, 2);
    EXPECT_EQ(f.members()[2].point_index, 0);
}

// ----- Explorer -----

TEST(Explorer, RandomSearchIsDeterministicAcrossJobs)
{
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::RANDOM;
    opt.budget = 8;    // > space size: collects all 4 points

    opt.jobs = 1;
    DseResult serial = explore(microSpace(), opt);
    opt.jobs = 8;
    DseResult parallel = explore(microSpace(), opt);

    EXPECT_EQ(serial.evaluated.size(), 4u);
    // The strong property the CI smoke step relies on:
    // byte-identical serialized output regardless of the job count.
    EXPECT_EQ(serial.toJson().dump(2), parallel.toJson().dump(2));
    EXPECT_EQ(serial.toCsv(), parallel.toCsv());
    EXPECT_FALSE(serial.frontier.empty());
}

TEST(Explorer, GridRestrictedToTable2AxesReproducesPublishedRows)
{
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM, CellTech::LSTP_SRAM,
               CellTech::TFET_SRAM, CellTech::DWM};
    s.banks = {1, 8};
    s.bank_sizes = {1, 8};
    s.networks = {};    // auto: the paper's pairing
    s.cache_kbs = {16};
    s.policies = {PrefetchPolicy::INTERVAL};
    s.warps = {8};

    ExploreOptions opt = microOptions();
    opt.workloads = {"bfs"};
    opt.strategy = Strategy::GRID;

    DseResult res = explore(s, opt);
    EXPECT_EQ(res.evaluated.size(), 16u);

    // Exactly the seven published rows appear, each with its model
    // scalars bit-identical to Table 2.
    std::set<int> ids;
    for (const PointResult &pr : res.evaluated) {
        if (pr.model.id == 0)
            continue;
        ids.insert(pr.model.id);
        const RfConfig &pub = rfConfig(pr.model.id);
        EXPECT_EQ(pr.model.capacity, pub.capacity);
        EXPECT_EQ(pr.model.area, pub.area);
        EXPECT_EQ(pr.model.power, pub.power);
        EXPECT_EQ(pr.model.latency, pub.latency);
    }
    EXPECT_EQ(ids, (std::set<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(Explorer, RandomBudgetIsEvaluatedInFullOverBothNetworks)
{
    // With both networks enumerated every bank organization appears
    // twice, once per network. Every claimed point is evaluated, so
    // a budget covering the whole doubled space evaluates all of it,
    // identically at any job count.
    DesignSpace s = microSpace();
    s.techs = {CellTech::HP_SRAM, CellTech::TFET_SRAM,
               CellTech::DWM};
    s.banks = {1, 2, 4, 8};
    s.networks = {NetworkKind::FLAT_BUTTERFLY,
                  NetworkKind::CROSSBAR};
    ASSERT_EQ(s.size(), 24u);

    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::RANDOM;
    opt.budget = 24;
    opt.jobs = 1;
    const DseResult serial = explore(s, opt);
    opt.jobs = 4;
    const DseResult parallel = explore(s, opt);
    EXPECT_EQ(serial.evaluated.size(), 24u);
    EXPECT_EQ(serial.toJson().dump(), parallel.toJson().dump());
}

TEST(Explorer, GridWalksTheWholeSpace)
{
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::GRID;
    DseResult res = explore(microSpace(), opt);
    EXPECT_EQ(res.evaluated.size(), 4u);
    // Frontier membership flags agree with the frontier list.
    std::size_t flagged = 0;
    for (const PointResult &pr : res.evaluated)
        flagged += pr.on_frontier ? 1 : 0;
    EXPECT_EQ(flagged, res.frontier.size());
}

TEST(ExplorerDeathTest, RandomWithoutBudgetIsFatal)
{
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::RANDOM;
    opt.budget = 0;
    EXPECT_EXIT(explore(microSpace(), opt),
                ::testing::ExitedWithCode(1), "budget");
}

// ----- Streaming enumeration (PointCursor) -----

TEST(PointCursor, YieldsExactlyThePointAtOrder)
{
    const DesignSpace s = DesignSpace::defaults();
    PointCursor cur(s, 0, s.size());
    DesignPoint p;
    std::uint64_t i = 0;
    while (cur.next(p)) {
        ASSERT_EQ(p, s.pointAt(i)) << "index " << i;
        i++;
    }
    EXPECT_EQ(i, s.size());
    EXPECT_FALSE(cur.next(p)) << "exhausted cursors stay exhausted";
}

TEST(PointCursor, StripesMatchTheShardMath)
{
    const DesignSpace s = DesignSpace::defaults();
    // An interior stripe starting mid-odometer.
    const std::uint64_t lo = 123, n = 77;
    PointCursor cur(s, lo, n);
    EXPECT_EQ(cur.index(), lo);
    DesignPoint p;
    for (std::uint64_t i = 0; i < n; i++) {
        ASSERT_TRUE(cur.next(p));
        ASSERT_EQ(p, s.pointAt(lo + i));
    }
    EXPECT_FALSE(cur.next(p));

    // Count clamps to the space end; a start past the end is empty
    // (the "shard past the end" case).
    PointCursor tail(s, s.size() - 3, 1000);
    std::uint64_t got = 0;
    while (tail.next(p))
        got++;
    EXPECT_EQ(got, 3u);
    PointCursor past(s, s.size() + 5, 10);
    EXPECT_FALSE(past.next(p));
    PointCursor empty(s, 0, 0);
    EXPECT_FALSE(empty.next(p));
}

namespace
{

/** A >10^6-point space (streaming-admission scale; never simulated). */
DesignSpace
megaSpace()
{
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM, CellTech::LSTP_SRAM,
               CellTech::TFET_SRAM, CellTech::DWM};
    s.banks = {1, 2, 4, 8};
    s.bank_sizes = {1, 2, 4, 8};
    s.networks = {NetworkKind::CROSSBAR, NetworkKind::FLAT_BUTTERFLY};
    s.cache_kbs = {8, 16, 32};
    s.policies = {PrefetchPolicy::NONE,     PrefetchPolicy::HW_CACHE,
                  PrefetchPolicy::SW_CACHE, PrefetchPolicy::STRAND,
                  PrefetchPolicy::INTERVAL,
                  PrefetchPolicy::INTERVAL_PLUS};
    s.warps = {2, 4, 6, 8, 16};
    s.intervals = {4, 8, 16, 32, 64};
    s.collectors = {2, 4, 8, 16};
    s.dram_service = {1, 2, 3, 4, 5};
    return s;
}

} // namespace

TEST(PointCursor, StreamsAMillionPointSpaceWithoutMaterializing)
{
    const DesignSpace s = megaSpace();
    ASSERT_GE(s.size(), 1'000'000u);

    // Walk the whole space one point at a time — the enumerate()
    // formulation would materialize s.size() DesignPoints up front.
    // Spot-check the odometer against the mixed-radix decode at
    // scattered indices.
    PointCursor cur(s, 0, s.size());
    DesignPoint p;
    std::uint64_t i = 0;
    while (cur.next(p)) {
        if (i % 99991 == 0) {
            ASSERT_EQ(p, s.pointAt(i)) << "index " << i;
        }
        i++;
    }
    EXPECT_EQ(i, s.size());

    // A deep stripe seeks directly instead of skipping.
    const std::uint64_t lo = s.size() - 7;
    PointCursor tail(s, lo, 7);
    for (std::uint64_t k = 0; k < 7; k++) {
        ASSERT_TRUE(tail.next(p));
        ASSERT_EQ(p, s.pointAt(lo + k));
    }
}

TEST(DesignSpace, EnumerateMatchesCursorAndSurvivesHugeLimits)
{
    const DesignSpace s = DesignSpace::defaults();
    const std::vector<DesignPoint> all = s.enumerate();
    ASSERT_EQ(all.size(), s.size());
    for (std::size_t i = 0; i < all.size(); i++)
        ASSERT_EQ(all[i], s.pointAt(i));

    EXPECT_EQ(s.enumerate(5).size(), 5u);
    // A limit far beyond the space (or beyond addressable memory)
    // clamps instead of driving a multi-GB reserve().
    const std::vector<DesignPoint> huge =
            s.enumerate(UINT64_MAX);
    EXPECT_EQ(huge.size(), s.size());
    EXPECT_EQ(huge.front(), all.front());
    EXPECT_EQ(huge.back(), all.back());
}
