/**
 * @file
 * Reproduces paper Figure 13: LTRF IPC versus main register file
 * latency for 4, 8, and 16 active warps, holding the per-warp cache
 * partition constant (the paper's second way of varying the cache
 * size).
 *
 * Paper findings: going from 4 to 8 active warps buys 36.9% at the
 * slowest MRF (more warps to overlap prefetches with); beyond 8 the
 * returns vanish, so LTRF's default does not sacrifice performance.
 *
 * All 7 latencies x 3 warp counts x 14 workloads run as one
 * ExperimentRunner batch; --jobs N bounds the worker count.
 */

#include "bench_util.hh"
#include "harness/runner.hh"

using namespace ltrf;
using namespace ltrf::bench;

namespace
{

const std::vector<int> ACTIVE_WARPS = {4, 8, 16};

std::string
tagFor(int aw)
{
    // Built via += : `"aw" + std::to_string(aw)` trips GCC 12's
    // -Wrestrict false positive (PR105651).
    std::string tag = "aw";
    tag += std::to_string(aw);
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

    // One tagged copy of the latency sweep per active-warp count,
    // with the cache scaled to keep the per-warp partition constant.
    std::vector<harness::SweepCell> cells;
    for (int aw : ACTIVE_WARPS) {
        for (harness::SweepCell c : harness::expandSweep(spec)) {
            c.tag = tagFor(aw);
            c.config.num_active_warps = aw;
            c.config.rf_cache_bytes =
                    static_cast<std::size_t>(
                            c.config.regs_per_interval) *
                    aw * BYTES_PER_WARP_REG;
            c.index = static_cast<int>(cells.size());
            cells.push_back(std::move(c));
        }
    }

    harness::ExperimentRunner runner(jobsFromArgs(argc, argv));
    harness::ResultSet rs = runner.run(cells, &baselineConfig());

    std::printf("Figure 13: LTRF normalized IPC vs MRF latency and "
                "active warp count\n\n");
    std::printf("%-8s %12s %12s %12s\n", "latency", "4 warps", "8 warps",
                "16 warps");

    for (double m = 1.0; m <= 7.001; m += 1.0) {
        std::printf("%-7.0fx", m);
        for (int aw : ACTIVE_WARPS) {
            std::vector<double> vals;
            for (const Workload &w : WorkloadSuite::all()) {
                for (const harness::ResultRow &row : rs.rows())
                    if (row.cell.workload == w.name &&
                        row.cell.tag == tagFor(aw) &&
                        row.cell.latency_mult == m)
                        vals.push_back(row.normalizedIpc());
            }
            std::printf(" %12.3f", geomean(vals));
        }
        std::printf("\n");
    }

    std::printf("\nPaper reference: 4->8 active warps improves the "
                "slowest-MRF point by 36.9%%;\n8->16 changes little "
                "(section 6.4).\n");
    return 0;
}
