/**
 * @file
 * Round-trip tests for frontier persistence: a DseResult report
 * parses back into the exact same points and objectives
 * (ParetoFrontier -> JSON -> parse -> ParetoFrontier is lossless),
 * resuming a finished search reproduces the saved frontier without
 * simulating anything, and malformed or mismatched reports are
 * rejected.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "dse/explorer.hh"
#include "dse/frontier_io.hh"
#include "harness/emit.hh"
#include "harness/json.hh"

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

/** One finished grid search over the micro space, cached: every
 *  test round-trips the same report. */
const DseResult &
gridResult()
{
    static const DseResult res = [] {
        ExploreOptions opt = microOptions();
        opt.strategy = Strategy::GRID;
        return explore(microSpace(), opt);
    }();
    return res;
}

} // namespace

TEST(FrontierIo, ReportParsesBackLossless)
{
    const DseResult &res = gridResult();
    const FrontierSeed seed = parseDseReport(res.toJson());

    ASSERT_EQ(seed.points.size(), res.evaluated.size());
    ASSERT_EQ(seed.workloads, res.workloads);
    EXPECT_EQ(seed.strategy, "grid");
    EXPECT_EQ(seed.seed, res.seed);
    EXPECT_EQ(seed.num_sms, res.num_sms);
    for (std::size_t i = 0; i < seed.points.size(); i++) {
        const SeedPoint &sp = seed.points[i];
        const PointResult &pr = res.evaluated[i];
        EXPECT_EQ(sp.point.key(), pr.point.key());
        EXPECT_EQ(sp.point, pr.point);
        // Bit-exact: the writer's %.17g numbers round-trip doubles.
        EXPECT_EQ(sp.obj.ipc, pr.obj.ipc);
        EXPECT_EQ(sp.obj.energy, pr.obj.energy);
        EXPECT_EQ(sp.obj.area, pr.obj.area);
        EXPECT_EQ(sp.on_frontier, pr.on_frontier);
    }
}

TEST(FrontierIo, RebuiltFrontierMatchesOriginal)
{
    const DseResult &res = gridResult();
    const FrontierSeed seed = parseDseReport(res.toJson());

    // Re-offer every parsed point in evaluation order: the frontier
    // that emerges must be the one the report recorded, member for
    // member.
    ParetoFrontier rebuilt;
    for (std::size_t i = 0; i < seed.points.size(); i++)
        rebuilt.insert(static_cast<int>(i), seed.points[i].obj);
    ASSERT_EQ(rebuilt.size(), res.frontier.size());
    for (std::size_t k = 0; k < rebuilt.size(); k++) {
        EXPECT_EQ(rebuilt.members()[k].point_index, res.frontier[k]);
        const Objectives &a = rebuilt.members()[k].obj;
        const Objectives &b =
                res.evaluated[static_cast<std::size_t>(
                                      res.frontier[k])]
                        .obj;
        EXPECT_EQ(a.ipc, b.ipc);
        EXPECT_EQ(a.energy, b.energy);
        EXPECT_EQ(a.area, b.area);
    }
}

TEST(FrontierIo, FileRoundTrip)
{
    const DseResult &res = gridResult();
    const std::string path =
            testing::TempDir() + "/ltrf_frontier_io_roundtrip.json";
    harness::writeTextFile(path,
                           res.toJson().dump(2) + "\n");
    const FrontierSeed seed = loadFrontierFile(path);
    std::remove(path.c_str());

    ASSERT_EQ(seed.points.size(), res.evaluated.size());
    for (std::size_t i = 0; i < seed.points.size(); i++) {
        EXPECT_EQ(seed.points[i].point, res.evaluated[i].point);
        EXPECT_EQ(seed.points[i].obj.ipc, res.evaluated[i].obj.ipc);
    }
}

TEST(FrontierIo, ResumingAFinishedSearchReproducesTheFrontier)
{
    const DseResult &res = gridResult();
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::EVOLVE;
    opt.generations = 0;    // pure replay
    opt.resume = parseDseReport(res.toJson());

    const DseResult replay = explore(microSpace(), opt);

    // Nothing simulated — not even baselines.
    EXPECT_EQ(replay.sim_cells, 0u);
    EXPECT_EQ(replay.resumed, res.evaluated.size());
    ASSERT_EQ(replay.evaluated.size(), res.evaluated.size());
    for (const PointResult &pr : replay.evaluated)
        EXPECT_TRUE(pr.resumed);

    // The saved frontier comes back identically, keys and order.
    ASSERT_EQ(replay.frontier.size(), res.frontier.size());
    for (std::size_t k = 0; k < replay.frontier.size(); k++)
        EXPECT_EQ(replay.evaluated[static_cast<std::size_t>(
                                           replay.frontier[k])]
                          .point.key(),
                  res.evaluated[static_cast<std::size_t>(
                                        res.frontier[k])]
                          .point.key());

    // And the replayed report's hypervolume matches the original's.
    ASSERT_FALSE(replay.progress.empty());
    EXPECT_EQ(replay.hv, res.hv);
}

TEST(FrontierIo, OutOfSpaceResumedPointsDoNotExhaustSampling)
{
    // Resume a 6-point report into a different 6-point space that
    // shares only the two c16 HP points: the four unseen in-space
    // points must still be sampled and evaluated — resumed keys
    // from the wider space must not count toward the exhaustion
    // test.
    DesignSpace wide = microSpace();
    wide.techs = {CellTech::HP_SRAM, CellTech::TFET_SRAM,
                  CellTech::DWM};
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::GRID;
    const DseResult saved = explore(wide, opt);

    DesignSpace narrow = microSpace();
    narrow.techs = {CellTech::HP_SRAM};
    narrow.cache_kbs = {8, 16, 32};
    ASSERT_EQ(narrow.size(), 6u);

    ExploreOptions resume_opt = microOptions();
    resume_opt.strategy = Strategy::RANDOM;
    resume_opt.budget = 4;
    resume_opt.resume = parseDseReport(saved.toJson());
    const DseResult res = explore(narrow, resume_opt);

    std::size_t fresh = 0;
    for (const PointResult &pr : res.evaluated)
        if (!pr.resumed) {
            fresh++;
            EXPECT_TRUE(narrow.contains(pr.point));
        }
    EXPECT_EQ(fresh, 4u);
    EXPECT_EQ(res.resumed, 6u);
}

TEST(FrontierIo, ResumedPointsAreNotReevaluated)
{
    const DseResult &res = gridResult();
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::RANDOM;
    opt.budget = 8;    // > space size
    opt.resume = parseDseReport(res.toJson());

    // Every point of the 4-point space is in the resume seed, so
    // random sampling finds nothing new to run.
    const DseResult again = explore(microSpace(), opt);
    EXPECT_EQ(again.evaluated.size(), 4u);
    EXPECT_EQ(again.sim_cells, 0u);
    for (const PointResult &pr : again.evaluated)
        EXPECT_TRUE(pr.resumed);
}

TEST(FrontierIo, LegacySevenAxisKeysResumeIntoTheWidenedSpace)
{
    // A pre-widening (schema v2) report carries 7-segment keys; the
    // missing registry axes take their auto derivation (interval =
    // the per-warp cache partition, exactly what v2 simulated) or
    // the DesignPoint default.
    const harness::Json root = harness::Json::parse(
            "{\"schema\": \"ltrf.dse.v2\", "
            "\"strategy\": \"grid\", "
            "\"workloads\": [\"bfs\", \"btree\"], "
            "\"num_sms\": 1, \"seed\": \"2018\", "
            "\"points\": ["
            "{\"key\": \"hp/b1/z1/xbar/c16/interval/w8\", "
            "\"ipc\": 1.0, \"energy\": 0.8, \"total_area\": 1.0, "
            "\"frontier\": true}, "
            "{\"key\": \"tfet/b8/z1/fbfly/c16/interval/w8\", "
            "\"ipc\": 1.1, \"energy\": 0.9, \"total_area\": 1.2, "
            "\"frontier\": true}], "
            "\"frontier\": [\"a\", \"b\"]}");
    const FrontierSeed seed = parseDseReport(root);
    ASSERT_EQ(seed.points.size(), 2u);
    const DesignPoint &p = seed.points[0].point;
    EXPECT_EQ(p.regs_per_interval, 16);    // 16KB / 8 warps
    EXPECT_EQ(p.num_operand_collectors, 8);
    EXPECT_EQ(p.dram_service_cycles, 1);
    EXPECT_EQ(p.key(), "hp/b1/z1/xbar/c16/interval/w8/i16/o8/d1");

    // And it replays cleanly into the widened 10-axis space.
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::EVOLVE;
    opt.generations = 0;
    opt.resume = seed;
    const DseResult replay = explore(microSpace(), opt);
    EXPECT_EQ(replay.sim_cells, 0u);
    EXPECT_EQ(replay.resumed, 2u);
    for (const PointResult &pr : replay.evaluated)
        EXPECT_TRUE(microSpace().contains(pr.point))
                << pr.point.key();
}

TEST(FrontierIo, LegacyV3ReportsResumeWithoutRungCounters)
{
    // A pre-rung (schema v3) report: full 10-axis keys, no
    // rungs/rung_screened/rung_promoted arrays. Resume ignores the
    // missing counters and replays the points untouched.
    const harness::Json root = harness::Json::parse(
            "{\"schema\": \"ltrf.dse.v3\", "
            "\"strategy\": \"random\", "
            "\"workloads\": [\"bfs\", \"btree\"], "
            "\"num_sms\": 1, \"seed\": \"2018\", "
            "\"points\": ["
            "{\"key\": \"hp/b1/z1/xbar/c16/interval/w8/i16/o8/d1\", "
            "\"ipc\": 1.0, \"energy\": 0.8, \"total_area\": 1.0, "
            "\"frontier\": true}], "
            "\"frontier\": [\"a\"]}");
    const FrontierSeed seed = parseDseReport(root);
    ASSERT_EQ(seed.points.size(), 1u);

    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::EVOLVE;
    opt.generations = 0;
    opt.resume = seed;
    const DseResult replay = explore(microSpace(), opt);
    EXPECT_EQ(replay.sim_cells, 0u);
    EXPECT_EQ(replay.resumed, 1u);
    // The re-serialized report carries the current schema.
    EXPECT_NE(replay.toJson().dump().find("ltrf.dse.v5"),
              std::string::npos);
}

TEST(FrontierIo, V4ReportsStillResume)
{
    // A v4 report still carries the model-dominance heuristic's two
    // echo keys that v5 dropped; resume never read them, so the
    // points replay untouched.
    const harness::Json root = harness::Json::parse(
            "{\"schema\": \"ltrf.dse.v4\", "
            "\"strategy\": \"random\", \"prune\": true, "
            "\"workloads\": [\"bfs\", \"btree\"], "
            "\"num_sms\": 1, \"seed\": \"2018\", "
            "\"counters\": {\"evaluated\": 1, \"pruned\": 3}, "
            "\"points\": ["
            "{\"key\": \"hp/b1/z1/xbar/c16/interval/w8/i16/o8/d1\", "
            "\"ipc\": 1.0, \"energy\": 0.8, \"total_area\": 1.0, "
            "\"frontier\": true}], "
            "\"frontier\": [\"a\"]}");
    const FrontierSeed seed = parseDseReport(root);
    ASSERT_EQ(seed.points.size(), 1u);
    EXPECT_EQ(seed.points[0].point.key(),
              "hp/b1/z1/xbar/c16/interval/w8/i16/o8/d1");

    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::EVOLVE;
    opt.generations = 0;
    opt.resume = seed;
    const DseResult replay = explore(microSpace(), opt);
    EXPECT_EQ(replay.sim_cells, 0u);
    EXPECT_EQ(replay.resumed, 1u);
    EXPECT_EQ(replay.evaluated[0].obj.ipc, 1.0);
}

TEST(FrontierIoDeathTest, RejectsUnknownSchema)
{
    harness::Json j = harness::Json::object();
    j.set("schema", "ltrf.sweep.v1");
    EXPECT_EXIT(parseDseReport(j), testing::ExitedWithCode(1),
                "not an ltrf_dse report");
}

TEST(FrontierIoDeathTest, RejectsInconsistentFrontierViews)
{
    DseResult res = gridResult();    // copy
    ASSERT_FALSE(res.frontier.empty());
    res.evaluated[static_cast<std::size_t>(res.frontier[0])]
            .on_frontier = false;
    EXPECT_EXIT(parseDseReport(res.toJson()),
                testing::ExitedWithCode(1), "inconsistent");
}

TEST(FrontierIoDeathTest, RejectsMismatchedWorkloadSuite)
{
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::EVOLVE;
    opt.generations = 0;
    opt.resume = parseDseReport(gridResult().toJson());
    opt.workloads = {"bfs"};    // saved report used {bfs, btree}
    EXPECT_EXIT(explore(microSpace(), opt),
                testing::ExitedWithCode(1),
                "different workload suite");
}

TEST(FrontierIoDeathTest, RejectsMismatchedSmCount)
{
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::EVOLVE;
    opt.generations = 0;
    opt.resume = parseDseReport(gridResult().toJson());
    opt.num_sms = 2;    // saved report ran at 1 SM
    EXPECT_EXIT(explore(microSpace(), opt),
                testing::ExitedWithCode(1), "measured at 1 SMs");
}

TEST(FrontierIoDeathTest, RejectsMismatchedWorkloadSeed)
{
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::EVOLVE;
    opt.generations = 0;
    opt.resume = parseDseReport(gridResult().toJson());
    opt.seed = 7;    // saved report used seed 2018
    EXPECT_EXIT(explore(microSpace(), opt),
                testing::ExitedWithCode(1), "workload seed 2018");
}

TEST(FrontierIoDeathTest, RejectsMalformedPointKeys)
{
    harness::Json j = gridResult().toJson();
    // Rebuild with a corrupted key: parse the dumped text so we can
    // edit a nested value without mutating the cached result.
    harness::Json root = harness::Json::parse(j.dump());
    harness::Json pts = harness::Json::array();
    harness::Json bad = harness::Json::object();
    bad.set("key", "tfet/b8/z1");    // truncated
    bad.set("ipc", 1.0);
    bad.set("energy", 1.0);
    bad.set("total_area", 1.0);
    pts.push(std::move(bad));
    root.set("points", std::move(pts));
    root.set("frontier", harness::Json::array());
    EXPECT_EXIT(parseDseReport(root), testing::ExitedWithCode(1),
                "malformed design point key");
}

TEST(FrontierIoDeathTest, RejectsNonFiniteObjectives)
{
    // 1e999 overflows strtod to +Inf during parse; resumed
    // objectives bypass evaluation, so the parser must reject it.
    const harness::Json root = harness::Json::parse(
            "{\"schema\": \"ltrf.dse.v2\", \"points\": "
            "[{\"key\": \"hp/b1/z1/xbar/c16/interval/w8\", "
            "\"ipc\": 1e999, \"energy\": 1.0, "
            "\"total_area\": 1.0}]}");
    EXPECT_EXIT(parseDseReport(root), testing::ExitedWithCode(1),
                "non-finite objectives");
}

TEST(FrontierIoDeathTest, RejectsMalformedSavedSeed)
{
    harness::Json root = harness::Json::parse(
            gridResult().toJson().dump());
    root.set("seed", "20x18");
    EXPECT_EXIT(parseDseReport(root), testing::ExitedWithCode(1),
                "malformed seed");
}

TEST(FrontierIoDeathTest, RejectsOutOfRangeAxisValues)
{
    // A hand-edited key with a non-power-of-two bank count must die
    // with a clean fatal() at parse time, not an ltrf_assert panic
    // deep inside the RF model during resume seeding.
    harness::Json root = harness::Json::parse(
            gridResult().toJson().dump());
    harness::Json pts = harness::Json::array();
    harness::Json bad = harness::Json::object();
    bad.set("key", "hp/b3/z1/xbar/c16/interval/w8");
    bad.set("ipc", 1.0);
    bad.set("energy", 1.0);
    bad.set("total_area", 1.0);
    pts.push(std::move(bad));
    root.set("points", std::move(pts));
    root.set("frontier", harness::Json::array());
    EXPECT_EXIT(parseDseReport(root), testing::ExitedWithCode(1),
                "power of two");
}
