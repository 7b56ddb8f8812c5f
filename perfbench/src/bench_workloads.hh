/**
 * @file
 * The two benchmark workloads. Each runs for the requested time
 * (untraced) or once with every library call timed as a span
 * (traced), checks the outputs, and fills a Result.
 */

#ifndef PERFBENCH_BENCH_WORKLOADS_HH
#define PERFBENCH_BENCH_WORKLOADS_HH

#include "bench.hh"

namespace perfbench
{

/**
 * Median host seconds of a cold WorkloadSuite::all() — the suite
 * construction every run pays once. The suite is memoized per
 * process, so each sample runs in a forked child that has not built
 * it yet. Call before any thread starts and before the suite is
 * built in this process.
 */
double coldSuiteBuildSeconds(int samples);

/** Cold GRID explore() of the 8-point space into a fresh store. */
Result runDseGrid(const Options &opt, double suite_build_s);

/** Repeated warm explore() of the same grid against a filled store. */
Result runDseWarm(const Options &opt, double suite_build_s);

} // namespace perfbench

#endif // PERFBENCH_BENCH_WORKLOADS_HH
