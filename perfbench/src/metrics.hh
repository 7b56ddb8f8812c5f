/**
 * @file
 * The benchmark's own metric math: order statistics, span algebra,
 * and pool ratios. Pure functions over plain numbers so the unit
 * tests can pin each one on hand-computed fixtures.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstddef>
#include <vector>

namespace perfbench
{

/** Median as Python's statistics.median(): mean of the middle two
 *  for an even count. 0 for an empty input. */
double median(std::vector<double> v);

/** The three cut points Python's statistics.quantiles(v, n=4)
 *  returns (the default "exclusive" method). Needs >= 2 values. */
struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/**
 * Nearest-rank percentile: the value at 1-based rank
 * ceil(num/den * n) of the sorted samples, and how many samples lie
 * beyond it. A tail percentile is only reported when at least
 * MIN_BEYOND samples lie beyond its rank.
 */
struct Percentile
{
    double value = 0.0;
    std::size_t rank = 0;     ///< 1-based rank in the sorted samples
    std::size_t beyond = 0;   ///< samples strictly after the rank
};
constexpr std::size_t MIN_BEYOND = 10;
Percentile nearestRank(std::vector<double> v, unsigned num, unsigned den);

/** A half-open time interval [start, end), in any one unit. */
struct Interval
{
    double start = 0.0;
    double end = 0.0;
};

/** Length of the union of @p spans, each clipped to @p within. */
double unionLength(std::vector<Interval> spans, Interval within);

/** A span's self time: its length minus the part of it that the
 *  union of its child spans covers. */
double selfTime(Interval parent, const std::vector<Interval> &children);

/** Busy share of a pool: summed cell span lengths over
 *  workers x makespan. */
double poolBusyFrac(double summed_spans, int workers, double makespan);

/** Summed cell span lengths at N workers over the same grid's at one
 *  worker: how much each cell slows down when cells run together. */
double concurrencySlowdown(double summed_at_n, double summed_at_1);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
