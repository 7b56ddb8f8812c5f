/**
 * @file
 * Golden sim-stat oracle: every SimResult field and every flattened
 * stat line, with the stall account on, for the full simulation
 * matrix (14 workloads x 7 designs at 1 SM, tests/sim_matrix.hh),
 * against tests/golden/sim_stats.txt.
 *
 * The stat tree holds the per-cause stall slots, the stepped-cycle
 * and collector-wait distributions, and the scheduler events, so a
 * simulator rewrite that keeps IPC and cycles but moves one stall
 * slot from one cause to another, or steps one extra cycle, fails
 * here. A deliberate model change regenerates the file:
 *
 *   LTRF_SIM_GOLDEN_OUT=tests/golden/sim_stats.txt build/test_sim_golden
 *
 * writes the actual lines to that path (the test still compares).
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "sim_matrix.hh"

using namespace ltrf;

namespace
{

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; i++) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void
    value(T v)
    {
        bytes(&v, sizeof(v));
    }

    void
    str(const std::string &s)
    {
        bytes(s.data(), s.size());
        value(s.size());
    }

    void
    stalls(const obs::StallBreakdown &b)
    {
        value(b.issue_slots);
        value(b.instructions);
        value(b.prefetch_slots);
        for (std::uint64_t s : b.stalls)
            value(s);
        value(b.bank_conflict_cycles);
    }
};

/** One golden line: readable headline numbers plus a full digest. */
std::string
goldenLine(const SimResult &r)
{
    Fnv f;
    f.str(r.workload);
    f.value(static_cast<int>(r.design));
    f.value(r.cycles);
    f.value(r.instructions);
    f.value(r.ipc);
    f.value(r.resident_warps);
    for (std::uint64_t v :
         {r.main_accesses, r.cache_accesses, r.wcb_accesses, r.xfer_regs,
          r.prefetch_ops, r.writeback_regs, r.prefetch_stall_cycles})
        f.value(v);
    f.value(r.cache_hit_rate);
    f.value(r.l1d_hit_rate);
    f.value(r.activity.main_accesses_per_cycle);
    f.value(r.activity.cache_accesses_per_cycle);
    f.value(r.activity.wcb_accesses_per_cycle);
    f.value(r.activity.xfer_regs_per_cycle);
    f.value(r.stall_collected);
    f.stalls(r.stall_total);
    f.value(r.sm_stall.size());
    for (const obs::StallBreakdown &b : r.sm_stall)
        f.stalls(b);
    f.value(r.stats_lines.size());
    for (const StatLine &l : r.stats_lines) {
        f.str(l.name);
        f.value(l.value);
    }

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s %s cycles=%" PRIu64 " instructions=%" PRIu64
                  " stat_lines=%zu digest=0x%016" PRIx64,
                  r.workload.c_str(), rfDesignName(r.design),
                  static_cast<std::uint64_t>(r.cycles), r.instructions,
                  r.stats_lines.size(), f.h);
    return buf;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> out;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            out.push_back(line);
    return out;
}

} // namespace

TEST(SimGolden, EveryResultFieldAndStatLineMatchesGolden)
{
    std::vector<std::string> actual(WorkloadSuite::all().size() *
                                    test::NUM_MATRIX_DESIGNS);
    test::forEachMatrixCell(
            [&](const Workload &w, RfDesign d, std::size_t slot) {
                SimConfig cfg = test::matrixConfig(d);
                cfg.collect_stall_stats = true;
                actual[slot] =
                        goldenLine(simulate(cfg, w.kernel,
                                            test::MATRIX_SEED));
            });

    if (const char *out = std::getenv("LTRF_SIM_GOLDEN_OUT")) {
        std::ofstream f(out);
        f << "# 14 workloads x 7 designs, 1 SM, rf-config 6, seed 2018, "
             "stall stats on (test_sim_golden.cc)\n";
        for (const std::string &l : actual)
            f << l << '\n';
    }

    std::vector<std::string> golden =
            readLines(std::string(LTRF_GOLDEN_DIR) + "/sim_stats.txt");
    ASSERT_EQ(golden.size(), actual.size())
            << "tests/golden/sim_stats.txt is missing or stale";
    for (std::size_t i = 0; i < actual.size(); i++)
        EXPECT_EQ(actual[i], golden[i]);
}
