/**
 * @file
 * Reproduces paper Figure 14: normalized IPC versus main register
 * file latency for BL, RFC, SHRF [20], LTRF with strand-based
 * prefetch placement, and LTRF with register-intervals — the
 * experiment separating LTRF's gains from prior software-managed
 * hierarchies (section 6.6).
 *
 * All 5 designs x 7 latencies x 14 workloads run as one
 * ExperimentRunner batch; --jobs N bounds the worker count.
 */

#include "bench_util.hh"
#include "harness/runner.hh"

using namespace ltrf;
using namespace ltrf::bench;

int
main(int argc, char **argv)
{
    const std::vector<RfDesign> designs = {
            RfDesign::BL, RfDesign::RFC, RfDesign::SHRF,
            RfDesign::LTRF_STRAND, RfDesign::LTRF};

    harness::SweepSpec spec = suiteSpec();
    spec.designs = designs;
    for (double m = 1.0; m <= 7.001; m += 1.0)
        spec.latency_mults.push_back(m);

    harness::ExperimentRunner runner(jobsFromArgs(argc, argv));
    harness::ResultSet rs =
            runner.run(harness::expandSweep(spec), &baselineConfig());

    std::printf("Figure 14: normalized IPC vs MRF access latency\n\n");
    std::printf("%-8s", "latency");
    for (RfDesign d : designs)
        std::printf(" %14s", rfDesignName(d));
    std::printf("\n");

    for (double m = 1.0; m <= 7.001; m += 1.0) {
        std::printf("%-7.0fx", m);
        for (RfDesign d : designs)
            std::printf(" %14.3f", rs.geomeanNormalized(d, 0, m));
        std::printf("\n");
    }

    std::printf("\nPaper reference: SHRF tracks RFC (~2x tolerance); "
                "LTRF(strand) reaches ~3x;\nLTRF(register-interval) "
                "~5.3x — interval-based placement is what matters.\n");
    return 0;
}
