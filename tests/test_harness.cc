/**
 * @file
 * Tests for the experiment-runner subsystem: sweep-spec expansion,
 * thread-pool determinism (identical results for 1 and 8 jobs),
 * JSON round-tripping, and baseline normalization against the
 * 256KB-baseline rule bench_util.hh documents.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "harness/emit.hh"
#include "harness/json.hh"
#include "harness/runner.hh"

using namespace ltrf;
using namespace ltrf::harness;

namespace
{

/** A 2-workload x 2-design micro-sweep that runs in ~a second. */
SweepSpec
microSpec()
{
    SweepSpec spec;
    spec.workloads = {"bfs", "btree"};
    spec.designs = {RfDesign::BL, RfDesign::LTRF};
    spec.rf_cfg_ids = {6};
    spec.num_sms = 1;
    spec.seed = bench::BENCH_SEED;
    return spec;
}

} // namespace

// ----- Sweep expansion -----

TEST(SweepSpec, ExpansionOrderAndCount)
{
    SweepSpec spec;
    spec.workloads = {"bfs", "btree"};
    spec.designs = {RfDesign::BL, RfDesign::LTRF};
    spec.rf_cfg_ids = {0, 6};
    spec.num_sms = 2;

    std::vector<SweepCell> cells = expandSweep(spec);
    ASSERT_EQ(cells.size(), 8u);

    // Workload-major, then design, then configuration.
    EXPECT_EQ(cells[0].workload, "bfs");
    EXPECT_EQ(cells[0].design, RfDesign::BL);
    EXPECT_EQ(cells[0].rf_cfg_id, 0);
    EXPECT_EQ(cells[1].rf_cfg_id, 6);
    EXPECT_EQ(cells[2].design, RfDesign::LTRF);
    EXPECT_EQ(cells[4].workload, "btree");
    for (size_t i = 0; i < cells.size(); i++)
        EXPECT_EQ(cells[i].index, static_cast<int>(i));
}

TEST(SweepSpec, ConfigMaterialization)
{
    SweepSpec spec;
    spec.workloads = {"bfs"};
    spec.designs = {RfDesign::LTRF};
    spec.rf_cfg_ids = {6};
    spec.num_sms = 2;
    spec.num_active_warps = 4;

    std::vector<SweepCell> cells = expandSweep(spec);
    ASSERT_EQ(cells.size(), 1u);
    const SimConfig &cfg = cells[0].config;
    EXPECT_EQ(cfg.design, RfDesign::LTRF);
    EXPECT_EQ(cfg.num_sms, 2);
    EXPECT_EQ(cfg.num_active_warps, 4);
    // Table 2 row applied: capacity, latency, and bank count.
    const RfConfig &rc = rfConfig(6);
    EXPECT_EQ(cfg.rf_capacity_mult, static_cast<int>(rc.capacity));
    EXPECT_DOUBLE_EQ(cfg.mrf_latency_mult, rc.latency);
    EXPECT_EQ(cfg.num_mrf_banks, 16 * rc.banks_mult);
}

TEST(SweepSpec, LatencyAxisOverridesConfig)
{
    SweepSpec spec;
    spec.workloads = {"bfs"};
    spec.designs = {RfDesign::BL};
    spec.latency_mults = {1.0, 3.5};

    std::vector<SweepCell> cells = expandSweep(spec);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_DOUBLE_EQ(cells[0].config.mrf_latency_mult, 1.0);
    EXPECT_DOUBLE_EQ(cells[1].config.mrf_latency_mult, 3.5);
    EXPECT_DOUBLE_EQ(cells[1].latency_mult, 3.5);
}

TEST(SweepSpecDeathTest, UnknownWorkloadIsFatal)
{
    SweepSpec spec;
    spec.workloads = {"no-such-workload"};
    spec.designs = {RfDesign::BL};
    EXPECT_EXIT(expandSweep(spec), ::testing::ExitedWithCode(1),
                "no-such-workload");
}

TEST(SweepSpec, Selectors)
{
    EXPECT_EQ(resolveWorkloads("all").size(),
              WorkloadSuite::all().size());
    EXPECT_EQ(resolveWorkloads("sensitive").size(),
              WorkloadSuite::sensitive().size());
    EXPECT_EQ(resolveWorkloads("bfs,btree").size(), 2u);
    EXPECT_EQ(parseRfDesign("ltrf+"), RfDesign::LTRF_PLUS);
    EXPECT_EQ(parseRfDesign("LTRF-plus"), RfDesign::LTRF_PLUS);
    EXPECT_EQ(parseRfDesign("Ideal"), RfDesign::IDEAL);
    EXPECT_EQ(resolveDesigns("all").size(), 7u);
}

// ----- Thread-pool determinism -----

TEST(ExperimentRunner, SameResultsForOneAndEightJobs)
{
    std::vector<SweepCell> cells = expandSweep(microSpec());

    const SimConfig base = baselineConfigFor(microSpec());
    ExperimentRunner serial(1);
    ResultSet rs1 = serial.run(cells, &base);

    ExperimentRunner parallel(8);
    ResultSet rs8 = parallel.run(cells, &base);

    ASSERT_EQ(rs1.size(), rs8.size());
    for (size_t i = 0; i < rs1.size(); i++) {
        EXPECT_EQ(rs1.rows()[i].cell.workload,
                  rs8.rows()[i].cell.workload);
        EXPECT_EQ(rs1.rows()[i].result.cycles,
                  rs8.rows()[i].result.cycles);
        EXPECT_EQ(rs1.rows()[i].result.instructions,
                  rs8.rows()[i].result.instructions);
    }
    // The strong form the CI smoke test relies on: byte-identical
    // serialized output regardless of the job count.
    EXPECT_EQ(rs1.dumpJson(), rs8.dumpJson());
}

// ----- The streaming (submit/drain) work-stealing pool -----

TEST(ExperimentRunner, SubmitDrainRunsEverySubmittedTask)
{
    for (int jobs : {1, 2, 4}) {
        ExperimentRunner runner(jobs);
        std::vector<int> slots(64, 0);
        for (std::size_t i = 0; i < slots.size(); i++)
            runner.submit([&slots, i] {
                slots[i] = static_cast<int>(i) + 1;
            });
        runner.drain();
        for (std::size_t i = 0; i < slots.size(); i++)
            EXPECT_EQ(slots[i], static_cast<int>(i) + 1)
                    << "slot " << i << " at " << jobs << " jobs";
        // drain() is idempotent and the pool accepts more work
        // afterwards.
        runner.drain();
        bool late = false;
        runner.submit([&late] { late = true; });
        runner.drain();
        EXPECT_TRUE(late);
    }
}

/**
 * The pipeline stress case from the DSE engine, reduced to the
 * scheduling layer it actually exercises: one artificially slow
 * cell in a batch must not serialize the cells of the next batch.
 * With 2 workers, one chews the slow cell while the other steals
 * and finishes every fast cell submitted after it — so all fast
 * completions land strictly before the slow one. Under the old
 * batch-barrier scheduling the second batch could not even start
 * until the slow cell finished.
 */
TEST(ExperimentRunner, StragglerDoesNotSerializeLaterSubmissions)
{
    using Clock = std::chrono::steady_clock;
    ExperimentRunner runner(2);

    Clock::time_point slow_done;
    std::vector<Clock::time_point> fast_done(4);

    // Batch 1: the straggler.
    runner.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        slow_done = Clock::now();
    });
    // Batch 2, admitted while batch 1 is still in flight.
    for (std::size_t i = 0; i < fast_done.size(); i++)
        runner.submit([&fast_done, i] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            fast_done[i] = Clock::now();
        });
    runner.drain();

    for (std::size_t i = 0; i < fast_done.size(); i++)
        EXPECT_LT(fast_done[i], slow_done)
                << "fast task " << i << " was serialized behind "
                << "the straggler";
}

/**
 * Wall-clock makespan: the same task set finishes measurably
 * earlier on the streaming pool than under batch barriers. The
 * sleep schedule is chosen so the gap dwarfs scheduler noise: the
 * barrier schedule has a guaranteed >= 450ms floor (the 300ms
 * straggler's batch, then three 50ms rounds of the remaining
 * batches on 2 workers), while the pipelined schedule hides all
 * six 50ms tasks (300ms of work for the second worker) behind the
 * straggler for a ~300ms makespan — 150ms of slack before the
 * comparison could flip.
 */
TEST(ExperimentRunner, PipelineBeatsBatchBarrierMakespan)
{
    using Clock = std::chrono::steady_clock;
    auto slow = [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
    };
    auto fast = [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    };

    ExperimentRunner barrier(2);
    const Clock::time_point b0 = Clock::now();
    barrier.runTasks({slow, fast});
    barrier.runTasks({fast, fast});
    barrier.runTasks({fast, fast});
    barrier.runTasks({fast});
    const auto barrier_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::now() - b0);

    ExperimentRunner pipelined(2);
    const Clock::time_point p0 = Clock::now();
    pipelined.submit(slow);
    for (int i = 0; i < 6; i++)
        pipelined.submit(fast);
    pipelined.drain();
    const auto pipeline_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::now() - p0);

    EXPECT_GE(barrier_ms.count(), 450);
    EXPECT_LT(pipeline_ms.count(), barrier_ms.count());
}

/**
 * run() feeds the same streaming pool as submit(): its cells and the
 * per-workload baselines are queued together, so with 2 jobs at
 * least two tasks are in flight at once and the pool's high-water
 * marks (which `ltrf_run --stats` reports) count them.
 */
TEST(ExperimentRunner, RunFeedsTheStreamingPool)
{
    const std::vector<SweepCell> cells = expandSweep(microSpec());
    ASSERT_GE(cells.size(), 4u);
    ExperimentRunner runner(2);
    runner.run(cells);
    EXPECT_GE(runner.inFlightHighWater(), 2u);
    EXPECT_GE(runner.queueHighWater(), 1u);
}

TEST(BenchUtilDeathTest, JobsFlagRejectsOutOfRangeCounts)
{
    // Counts outside int range are usage errors: a narrowing parse
    // would turn 2^32 + 1 into 1 and 2^31 into a negative count.
    auto jobs = [](const char *value) {
        const char *argv[] = {"harness", "--jobs", value};
        return bench::jobsFromArgs(3, const_cast<char **>(argv));
    };
    EXPECT_EQ(jobs("3"), 3);
    EXPECT_EQ(jobs("0"), 0);
    EXPECT_EXIT(jobs("4294967297"), ::testing::ExitedWithCode(1),
                "bad --jobs value");
    EXPECT_EXIT(jobs("2147483648"), ::testing::ExitedWithCode(1),
                "bad --jobs value");
    EXPECT_EXIT(jobs("-1"), ::testing::ExitedWithCode(1),
                "bad --jobs value");
}

// ----- JSON -----

TEST(Json, DumpFormatting)
{
    Json j = Json::object();
    j.set("int", 42);
    j.set("big", std::uint64_t{123456789012345ull});
    j.set("frac", 0.25);
    j.set("text", "a\"b\\c\n");
    j.set("flag", true);
    j.set("none", Json());
    EXPECT_EQ(j.dump(),
              "{\"int\":42,\"big\":123456789012345,\"frac\":0.25,"
              "\"text\":\"a\\\"b\\\\c\\n\",\"flag\":true,"
              "\"none\":null}");
}

TEST(Json, ParseRoundTrip)
{
    const char *text = "{\"a\":[1,2.5,-3],\"b\":{\"c\":\"x\"},"
                       "\"d\":false,\"e\":null}";
    Json j = Json::parse(text);
    EXPECT_EQ(j.at("a").size(), 3u);
    EXPECT_DOUBLE_EQ(j.at("a").at(1).asDouble(), 2.5);
    EXPECT_EQ(j.at("b").at("c").asString(), "x");
    EXPECT_EQ(j.dump(), text);
    EXPECT_TRUE(Json::parse(j.dump()) == j);
}

TEST(Json, PreservesInsertionOrder)
{
    Json j = Json::object();
    j.set("zebra", 1);
    j.set("alpha", 2);
    EXPECT_EQ(j.dump(), "{\"zebra\":1,\"alpha\":2}");
}

TEST(JsonDeathTest, MalformedInputIsFatal)
{
    EXPECT_EXIT(Json::parse("{\"a\":}"), ::testing::ExitedWithCode(1),
                "JSON parse error");
}

TEST(ResultSet, JsonRoundTrip)
{
    std::vector<SweepCell> cells = expandSweep(microSpec());
    ExperimentRunner runner(2);
    const SimConfig base = baselineConfigFor(microSpec());
    ResultSet rs = runner.run(cells, &base);

    ResultSet back = ResultSet::fromJson(Json::parse(rs.dumpJson()));
    ASSERT_EQ(back.size(), rs.size());
    for (size_t i = 0; i < rs.size(); i++) {
        const ResultRow &a = rs.rows()[i];
        const ResultRow &b = back.rows()[i];
        EXPECT_EQ(a.cell.workload, b.cell.workload);
        EXPECT_EQ(a.cell.design, b.cell.design);
        EXPECT_EQ(a.cell.rf_cfg_id, b.cell.rf_cfg_id);
        EXPECT_EQ(a.result.cycles, b.result.cycles);
        EXPECT_EQ(a.result.instructions, b.result.instructions);
        EXPECT_EQ(a.result.ipc, b.result.ipc);
        EXPECT_EQ(a.result.main_accesses, b.result.main_accesses);
        EXPECT_EQ(a.baseline_ipc, b.baseline_ipc);
    }
    // And the re-serialization is byte-identical.
    EXPECT_EQ(back.dumpJson(), rs.dumpJson());

    // The loaded cells carry a re-materialized SimConfig matching
    // what was simulated (Table 2 row re-applied).
    const SimConfig &cfg = back.rows()[1].cell.config;
    EXPECT_EQ(cfg.rf_capacity_mult, static_cast<int>(rfConfig(6).capacity));
    EXPECT_DOUBLE_EQ(cfg.mrf_latency_mult, rfConfig(6).latency);
}

TEST(ResultSet, CsvMirrorsJsonCells)
{
    std::vector<SweepCell> cells = expandSweep(microSpec());
    ExperimentRunner runner(2);
    const SimConfig base = baselineConfigFor(microSpec());
    ResultSet rs = runner.run(cells, &base);

    std::string csv = rs.toCsv();
    // Header + one line per cell.
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, rs.size() + 1);
    EXPECT_EQ(csv.rfind("workload,design,rf_config", 0), 0u);
    // First data row carries the first cell's grid key, and numbers
    // use the JSON writer's formatting.
    std::size_t nl = csv.find('\n');
    std::string row2 = csv.substr(nl + 1, csv.find('\n', nl + 1) - nl - 1);
    EXPECT_EQ(row2.rfind("bfs,BL,6,", 0), 0u);
    EXPECT_NE(row2.find(jsonNumberText(rs.rows()[0].result.ipc)),
              std::string::npos);
}

/** Minimal RFC 4180 field splitter for the round-trip check. */
std::vector<std::string>
splitCsvRow(const std::string &row)
{
    std::vector<std::string> fields;
    std::string cur;
    bool quoted = false;
    for (std::size_t i = 0; i < row.size(); i++) {
        const char c = row[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < row.size() && row[i + 1] == '"') {
                    cur += '"';
                    i++;
                } else {
                    quoted = false;
                }
            } else {
                cur += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    fields.push_back(cur);
    return fields;
}

TEST(ResultSet, CsvQuotesCommaAndQuoteBearingFields)
{
    // A workload tagged with a comma, a double quote, and a
    // newline-free tag with both: without RFC 4180 quoting these
    // shear the row into extra columns.
    const std::string tricky = "bfs,variant \"hot\"";
    ResultRow row;
    row.cell.workload = tricky;
    row.cell.tag = "a,b";
    ResultSet rs;
    rs.add(row);

    const std::string csv = rs.toCsv();
    const std::size_t nl = csv.find('\n');
    const std::string header = csv.substr(0, nl);
    const std::string data =
            csv.substr(nl + 1, csv.find('\n', nl + 1) - nl - 1);

    const std::vector<std::string> cols = splitCsvRow(header);
    const std::vector<std::string> fields = splitCsvRow(data);
    // The row still has exactly one field per column...
    ASSERT_EQ(fields.size(), cols.size());
    // ...and the tricky strings round-trip through the quoting.
    EXPECT_EQ(fields[0], tricky);
    EXPECT_EQ(fields[4], "a,b");
    // The raw text is quoted per RFC 4180: embedded quotes doubled.
    EXPECT_NE(csv.find("\"bfs,variant \"\"hot\"\"\""),
              std::string::npos);
    // Plain fields stay unquoted.
    EXPECT_EQ(csvField("plain"), "plain");
    EXPECT_EQ(csvField("with space"), "with space");
}

TEST(OutputFormat, ParseAndName)
{
    OutputFormat f = OutputFormat::JSON;
    EXPECT_TRUE(parseOutputFormat("csv", f));
    EXPECT_EQ(f, OutputFormat::CSV);
    EXPECT_TRUE(parseOutputFormat("JSON", f));
    EXPECT_EQ(f, OutputFormat::JSON);
    EXPECT_FALSE(parseOutputFormat("xml", f));
    EXPECT_EQ(f, OutputFormat::JSON);    // untouched on failure
    EXPECT_STREQ(outputFormatName(OutputFormat::CSV), "csv");
}

TEST(ResultSet, SeedSurvivesJsonExactly)
{
    // Seeds ride through JSON as strings: a double would round
    // anything above 2^53.
    ResultSet rs;
    ResultRow row;
    row.cell.workload = "bfs";
    row.cell.design = RfDesign::BL;
    row.cell.seed = 18446744073709551615ull; // 2^64 - 1
    rs.add(row);
    ResultSet back = ResultSet::fromJson(Json::parse(rs.dumpJson()));
    EXPECT_EQ(back.rows()[0].cell.seed, 18446744073709551615ull);
}

// ----- Baseline normalization -----

TEST(ExperimentRunner, NormalizationMatchesBenchUtilBaselineRule)
{
    // bench_util.hh documents the normalization baseline: the BL
    // design on the unmodified 256KB register file.
    const SimConfig &base_cfg = bench::baselineConfig();
    EXPECT_EQ(base_cfg.design, RfDesign::BL);
    EXPECT_EQ(base_cfg.rf_bytes, 256u * 1024u);
    EXPECT_EQ(base_cfg.rf_capacity_mult, 1);

    // run() normalizes each row against exactly that simulation,
    // under the cell's seed.
    std::vector<SweepCell> cells = expandSweep(microSpec());
    ExperimentRunner runner(2);
    const ResultSet rs = runner.run(cells, &base_cfg);
    for (const ResultRow &row : rs.rows()) {
        const Workload &w = WorkloadSuite::byName(row.cell.workload);
        EXPECT_DOUBLE_EQ(row.baseline_ipc,
                         simulate(base_cfg, w.kernel,
                                  bench::BENCH_SEED).ipc);
    }
}

TEST(ResultSet, NormalizationAndGeomean)
{
    std::vector<SweepCell> cells = expandSweep(microSpec());
    ExperimentRunner runner(2);
    const SimConfig base = baselineConfigFor(microSpec());
    ResultSet rs = runner.run(cells, &base);

    // Each row's normalized IPC is its IPC over its workload's
    // baseline IPC.
    for (const ResultRow &row : rs.rows()) {
        ASSERT_TRUE(row.normalized());
        const Workload &w = WorkloadSuite::byName(row.cell.workload);
        const double base_ipc =
                simulate(base, w.kernel, bench::BENCH_SEED).ipc;
        EXPECT_DOUBLE_EQ(row.baseline_ipc, base_ipc);
        EXPECT_DOUBLE_EQ(row.normalizedIpc(),
                         row.result.ipc / base_ipc);
    }

    // Geomean helper agrees with the bench_util definition.
    std::vector<double> ltrf =
            rs.normalizedByDesign(RfDesign::LTRF, 6);
    EXPECT_EQ(ltrf.size(), 2u);
    EXPECT_DOUBLE_EQ(rs.geomeanNormalized(RfDesign::LTRF, 6),
                     bench::geomean(ltrf));

    // BL on configuration #6 pays 5.3x latency with no cache: it
    // must not beat its own baseline.
    EXPECT_LT(rs.geomeanNormalized(RfDesign::BL, 6), 1.0);
}

TEST(ResultSet, GeomeanOfKnownValues)
{
    EXPECT_DOUBLE_EQ(ResultSet::geomean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(ResultSet::mean({2.0, 8.0}), 5.0);
    EXPECT_DOUBLE_EQ(ResultSet::geomean({}), 0.0);
}

TEST(ResultSet, FindTagged)
{
    ResultSet rs;
    ResultRow row;
    row.cell.workload = "bfs";
    row.cell.tag = "variant-a";
    row.result.ipc = 1.5;
    rs.add(row);
    EXPECT_DOUBLE_EQ(rs.findTagged("bfs", "variant-a").result.ipc, 1.5);
}
