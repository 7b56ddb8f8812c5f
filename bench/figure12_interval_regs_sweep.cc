/**
 * @file
 * Reproduces paper Figure 12: LTRF IPC versus main register file
 * latency for 8, 16, and 32 registers per register-interval. The
 * register file cache is sized as 8 active warps x N registers, so
 * this is the paper's first way of varying the cache size.
 *
 * Paper findings: N=8 degrades markedly (intervals get short, so
 * PREFETCHes are frequent and hard to hide); N=32 is not necessarily
 * better than 16 (more MRF bank conflicts per prefetch).
 *
 * All 7 latencies x 3 interval sizes x 14 workloads run as one
 * ExperimentRunner batch; --jobs N bounds the worker count.
 */

#include "bench_util.hh"
#include "harness/runner.hh"

using namespace ltrf;
using namespace ltrf::bench;

namespace
{

const std::vector<int> INTERVAL_REGS = {8, 16, 32};

std::string
tagFor(int n)
{
    // Built via += : `"n" + std::to_string(n)` trips GCC 12's
    // -Wrestrict false positive (PR105651).
    std::string tag = "n";
    tag += std::to_string(n);
    return tag;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::SweepSpec spec = suiteSpec();
    spec.designs = {RfDesign::LTRF};
    for (double m = 1.0; m <= 7.001; m += 1.0)
        spec.latency_mults.push_back(m);

    // One tagged copy of the latency sweep per interval size, with
    // the cache sized to 8 active warps x N registers.
    std::vector<harness::SweepCell> cells;
    for (int n : INTERVAL_REGS) {
        for (harness::SweepCell c : harness::expandSweep(spec)) {
            c.tag = tagFor(n);
            c.config.regs_per_interval = n;
            c.config.rf_cache_bytes =
                    static_cast<std::size_t>(n) *
                    c.config.num_active_warps * BYTES_PER_WARP_REG;
            c.index = static_cast<int>(cells.size());
            cells.push_back(std::move(c));
        }
    }

    harness::ExperimentRunner runner(jobsFromArgs(argc, argv));
    harness::ResultSet rs = runner.run(cells, &baselineConfig());

    std::printf("Figure 12: LTRF normalized IPC vs MRF latency and "
                "registers per interval\n\n");
    std::printf("%-8s %12s %12s %12s\n", "latency", "8 regs", "16 regs",
                "32 regs");

    for (double m = 1.0; m <= 7.001; m += 1.0) {
        std::printf("%-7.0fx", m);
        for (int n : INTERVAL_REGS) {
            std::vector<double> vals;
            for (const Workload &w : WorkloadSuite::all()) {
                // Tags disambiguate the interval-size copies; the
                // latency axis is part of the grid key.
                for (const harness::ResultRow &row : rs.rows())
                    if (row.cell.workload == w.name &&
                        row.cell.tag == tagFor(n) &&
                        row.cell.latency_mult == m)
                        vals.push_back(row.normalizedIpc());
            }
            std::printf(" %12.3f", geomean(vals));
        }
        std::printf("\n");
    }

    std::printf("\nPaper reference: 8 regs collapses as latency grows; "
                "16 is the sweet spot; 32\nis not uniformly better "
                "(section 6.4).\n");
    return 0;
}
