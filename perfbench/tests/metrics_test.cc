/**
 * @file
 * The benchmark's metric math on hand-computed fixtures.
 */

#include <gtest/gtest.h>

#include "metrics.hh"

using namespace perfbench;

TEST(Median, OddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({7}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// Expected cut points from Python 3:
//   statistics.quantiles([1..10], n=4)        -> [2.75, 5.5, 8.25]
//   statistics.quantiles([1, 2, 3, 4], n=4)   -> [1.25, 2.5, 3.75]
//   statistics.quantiles([5, 1], n=4)         -> [0.0, 3.0, 6.0]
//   statistics.quantiles([10, 20, 30], n=4)   -> [10.0, 20.0, 30.0]
TEST(Quartiles, MatchPythonExclusiveMethod)
{
    Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q2, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);

    q = quartiles({1, 2, 3, 4});
    EXPECT_DOUBLE_EQ(q.q1, 1.25);
    EXPECT_DOUBLE_EQ(q.q2, 2.5);
    EXPECT_DOUBLE_EQ(q.q3, 3.75);

    q = quartiles({5, 1});
    EXPECT_DOUBLE_EQ(q.q1, 0.0);
    EXPECT_DOUBLE_EQ(q.q2, 3.0);
    EXPECT_DOUBLE_EQ(q.q3, 6.0);

    q = quartiles({30, 10, 20});
    EXPECT_DOUBLE_EQ(q.q1, 10.0);
    EXPECT_DOUBLE_EQ(q.q2, 20.0);
    EXPECT_DOUBLE_EQ(q.q3, 30.0);
}

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; i--)
        v.push_back(i);
    return v;
}

// p80 by nearest rank: rank = ceil(0.8 n).
TEST(NearestRank, P80RankAndTail)
{
    // 56 samples: rank 45, 11 beyond.
    Percentile p = nearestRank(iota(56), 4, 5);
    EXPECT_EQ(p.rank, 45u);
    EXPECT_EQ(p.beyond, 11u);
    EXPECT_DOUBLE_EQ(p.value, 45.0);
    EXPECT_GE(p.beyond, MIN_BEYOND);

    // 81 dse-grid cells: rank 65, 16 beyond.
    p = nearestRank(iota(81), 4, 5);
    EXPECT_EQ(p.rank, 65u);
    EXPECT_EQ(p.beyond, 16u);

    // 50 samples is the smallest count that leaves exactly 10.
    p = nearestRank(iota(50), 4, 5);
    EXPECT_EQ(p.rank, 40u);
    EXPECT_EQ(p.beyond, 10u);
    p = nearestRank(iota(49), 4, 5);
    EXPECT_EQ(p.rank, 40u);
    EXPECT_EQ(p.beyond, 9u);
    EXPECT_LT(p.beyond, MIN_BEYOND);

    // p50 of 4 by nearest rank is the 2nd value.
    p = nearestRank({40, 10, 30, 20}, 1, 2);
    EXPECT_EQ(p.rank, 2u);
    EXPECT_DOUBLE_EQ(p.value, 20.0);

    p = nearestRank({}, 4, 5);
    EXPECT_EQ(p.rank, 0u);
}

TEST(SpanAlgebra, SelfTimeIsSpanMinusUnionOfChildren)
{
    // Parent [0, 100). Children [10, 30) and [20, 50) overlap: union
    // [10, 50) = 40. Child [90, 120) is clipped to [90, 100) = 10.
    // Child [200, 300) lies outside. Self time = 100 - 50 = 50.
    const Interval parent{0, 100};
    const std::vector<Interval> kids = {
            {20, 50}, {10, 30}, {90, 120}, {200, 300}};
    EXPECT_DOUBLE_EQ(unionLength(kids, parent), 50.0);
    EXPECT_DOUBLE_EQ(selfTime(parent, kids), 50.0);

    // No children: all self. Children covering everything: none.
    EXPECT_DOUBLE_EQ(selfTime(parent, {}), 100.0);
    EXPECT_DOUBLE_EQ(selfTime(parent, {{0, 60}, {60, 100}}), 0.0);
    // Adjacent and nested children merge without double counting.
    EXPECT_DOUBLE_EQ(selfTime(parent, {{0, 40}, {10, 20}, {40, 70}}),
                     30.0);
    // Empty or inverted spans count for nothing.
    EXPECT_DOUBLE_EQ(selfTime(parent, {{50, 50}, {60, 55}}), 100.0);
}

TEST(PoolRatios, BusyFracAndConcurrencySlowdown)
{
    // 4 workers over a 10 s makespan with 36 s of summed cell spans.
    EXPECT_DOUBLE_EQ(poolBusyFrac(36.0, 4, 10.0), 0.9);
    EXPECT_DOUBLE_EQ(poolBusyFrac(5.0, 1, 5.0), 1.0);
    EXPECT_DOUBLE_EQ(poolBusyFrac(5.0, 0, 5.0), 0.0);
    EXPECT_DOUBLE_EQ(poolBusyFrac(5.0, 4, 0.0), 0.0);

    // A measured example: 18.0 s summed at 4 workers against
    // 12.0 s at one worker is a 1.5x per-cell slowdown.
    EXPECT_DOUBLE_EQ(concurrencySlowdown(18.0, 12.0), 1.5);
    EXPECT_DOUBLE_EQ(concurrencySlowdown(18.0, 0.0), 0.0);
}
