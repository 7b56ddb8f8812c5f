/**
 * @file
 * Observability-layer tests: the issue-slot accounting invariant
 * (instructions + prefetch slots + stalls == cycles x issue_width,
 * per SM and in aggregate), trace-sink JSON validity and bounding,
 * warn-once dedup, and the SimResult fields the report emits.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/json.hh"
#include "harness/result_set.hh"
#include "obs/stall.hh"
#include "obs/trace_sink.hh"
#include "sim/gpu.hh"
#include "workloads/workload.hh"

using namespace ltrf;

namespace
{

SimConfig
obsConfig(RfDesign d, bool skip_ahead)
{
    SimConfig cfg;
    cfg.num_sms = 2;
    cfg.design = d;
    cfg.mrf_latency_mult = 4.0;
    cfg.skip_ahead = skip_ahead;
    cfg.collect_stall_stats = true;
    return cfg;
}

} // namespace

/** Every design x fast-forward mode satisfies the slot account. */
class StallAccounting
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{};

TEST_P(StallAccounting, BreakdownSumsToIssueSlots)
{
    auto [di, skip] = GetParam();
    const RfDesign d = static_cast<RfDesign>(di);
    const Workload &w = WorkloadSuite::byName("bfs");
    SimResult r = simulate(obsConfig(d, skip), w.kernel, 11);

    ASSERT_TRUE(r.stall_collected);
    ASSERT_EQ(r.sm_stall.size(), 2u);
    const SimConfig cfg = obsConfig(d, skip);
    const std::uint64_t per_sm_slots =
            r.cycles * static_cast<std::uint64_t>(cfg.issue_width);
    obs::StallBreakdown sum;
    for (const obs::StallBreakdown &b : r.sm_stall) {
        EXPECT_EQ(b.issue_slots, per_sm_slots);
        EXPECT_EQ(b.accountedSlots(), b.issue_slots)
                << "per-SM slot account out of balance";
        sum += b;
    }
    EXPECT_EQ(r.stall_total.issue_slots, sum.issue_slots);
    EXPECT_EQ(r.stall_total.accountedSlots(),
              r.stall_total.issue_slots);
    EXPECT_EQ(r.stall_total.instructions, r.instructions);

    // LTRF and strand semantics always consume slots on triggered
    // prefetches; LTRF+ may skip every transfer on a light workload,
    // so only the non-prefetch designs get the exact-zero check.
    if (d == RfDesign::LTRF || d == RfDesign::LTRF_STRAND) {
        EXPECT_GT(r.stall_total.prefetch_slots, 0u);
    } else if (!usesPrefetch(d)) {
        EXPECT_EQ(r.stall_total.prefetch_slots, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
        Sweep, StallAccounting,
        ::testing::Combine(::testing::Range(0, 7),
                           ::testing::Bool()));

TEST(StallAccounting, CollectionDoesNotPerturbTheSimulation)
{
    const Workload &w = WorkloadSuite::byName("btree");
    SimConfig on = obsConfig(RfDesign::LTRF, true);
    SimConfig off = on;
    off.collect_stall_stats = false;
    SimResult a = simulate(on, w.kernel, 3);
    SimResult b = simulate(off, w.kernel, 3);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.main_accesses, b.main_accesses);
    EXPECT_EQ(a.prefetch_stall_cycles, b.prefetch_stall_cycles);
    EXPECT_FALSE(b.stall_collected);
    EXPECT_TRUE(b.stats_lines.empty());
    EXPECT_TRUE(b.sm_stall.empty());
}

TEST(StallAccounting, StatsLinesMatchTheBreakdown)
{
    const Workload &w = WorkloadSuite::byName("bfs");
    SimResult r = simulate(obsConfig(RfDesign::LTRF, true), w.kernel, 5);
    ASSERT_FALSE(r.stats_lines.empty());
    auto value = [&](const std::string &name) {
        for (const StatLine &l : r.stats_lines)
            if (l.name == name)
                return l.value;
        ADD_FAILURE() << "missing stat line " << name;
        return std::uint64_t{0};
    };
    for (int s = 0; s < 2; s++) {
        const std::string p = "sm" + std::to_string(s);
        const obs::StallBreakdown &b =
                r.sm_stall[static_cast<std::size_t>(s)];
        EXPECT_EQ(value(p + ".issue_slots"), b.issue_slots);
        EXPECT_EQ(value(p + ".instructions"), b.instructions);
        EXPECT_EQ(value(p + ".prefetch_slots"), b.prefetch_slots);
        std::uint64_t stall_sum = 0;
        for (int c = 0; c < obs::NUM_STALL_CAUSES; c++)
            stall_sum += value(p + ".stall." +
                               obs::stallCauseName(static_cast<
                                               obs::StallCause>(c)));
        EXPECT_EQ(stall_sum, b.stallSlots());
    }
}

TEST(TraceSink, EmitsParseableTraceEventJson)
{
    obs::TraceSink sink;
    sink.processName(0, "proc \"zero\"");    // exercises escaping
    sink.threadName(0, 1, "lane");
    sink.complete("span", 0, 1, 10, 5);
    sink.instant("mark", 0, 1, 12);
    sink.counter("depth", 0, 13, 3);
    const harness::Json j = harness::Json::parse(sink.toJsonText());
    const harness::Json &ev = j.at("traceEvents");
    ASSERT_EQ(ev.size(), 5u);
    EXPECT_EQ(j.at("otherData").numberOr("dropped_events", -1), 0.0);
    // Spans carry their duration; instants their scope.
    bool saw_span = false;
    for (std::size_t i = 0; i < ev.size(); i++) {
        const harness::Json &e = ev.at(i);
        if (e.at("ph").asString() == "X") {
            EXPECT_EQ(e.numberOr("dur", -1), 5.0);
            EXPECT_EQ(e.at("name").asString(), "span");
            saw_span = true;
        }
    }
    EXPECT_TRUE(saw_span);
}

TEST(TraceSink, BoundsEventCountAndCountsDrops)
{
    obs::TraceSink sink(2);
    sink.complete("a", 0, 0, 0, 1);
    sink.complete("b", 0, 0, 1, 1);
    sink.complete("c", 0, 0, 2, 1);    // past the cap: dropped
    sink.processName(0, "p");          // metadata is never dropped
    EXPECT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink.droppedCount(), 1u);
    const harness::Json j = harness::Json::parse(sink.toJsonText());
    EXPECT_EQ(j.at("otherData").numberOr("dropped_events", -1), 1.0);
    EXPECT_EQ(j.at("traceEvents").size(), 3u);    // 2 events + meta
}

TEST(TraceSink, WorkerTidIsStablePerThread)
{
    obs::TraceSink sink;
    const int a = sink.workerTid();
    EXPECT_EQ(sink.workerTid(), a);
}

TEST(TraceSink, SimulationTimelineLoads)
{
    obs::TraceSink sink;
    SimConfig cfg = obsConfig(RfDesign::LTRF, true);
    cfg.trace = &sink;
    const Workload &w = WorkloadSuite::byName("bfs");
    simulate(cfg, w.kernel, 2);
    EXPECT_GT(sink.size(), 0u);
    const harness::Json j = harness::Json::parse(sink.toJsonText());
    EXPECT_GT(j.at("traceEvents").size(), 0u);
}

TEST(Log, WarnOnceDedupsPerCallSite)
{
    detail::resetWarnOnce();
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 3; i++)
        ltrf_warn_once("repeated warning %d", 7);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("repeated warning 7"), std::string::npos);
    EXPECT_EQ(err.find("repeated warning 7"),
              err.rfind("repeated warning 7"))
            << "warn-once printed more than once:\n"
            << err;
    detail::resetWarnOnce();
}

TEST(ResultSet, ReportCarriesTheSurfacedSimResultFields)
{
    // The fields the observability issue surfaces (prefetch stall
    // cycles, WCB accesses, transferred registers) ride in the
    // report cells; cross-check the emitted JSON against the raw
    // SimResult.
    const Workload &w = WorkloadSuite::byName("bfs");
    SimConfig cfg;
    cfg.num_sms = 2;
    cfg.design = RfDesign::LTRF;
    cfg.mrf_latency_mult = 4.0;
    SimResult r = simulate(cfg, w.kernel, 11);
    EXPECT_GT(r.prefetch_stall_cycles, 0u);
    EXPECT_GT(r.xfer_regs, 0u);

    harness::ResultRow row;
    row.cell.workload = w.name;
    row.cell.config = cfg;
    row.cell.design = cfg.design;
    row.result = r;
    harness::ResultSet rs;
    rs.add(row);
    const harness::Json cell = rs.toJson().at("cells").at(0);
    EXPECT_EQ(cell.numberOr("prefetch_stall_cycles", -1),
              static_cast<double>(r.prefetch_stall_cycles));
    EXPECT_EQ(cell.numberOr("wcb_accesses", -1),
              static_cast<double>(r.wcb_accesses));
    EXPECT_EQ(cell.numberOr("xfer_regs", -1),
              static_cast<double>(r.xfer_regs));
}
