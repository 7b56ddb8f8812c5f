/**
 * @file
 * Reproduces paper Figure 3: the performance effect of an 8x register
 * file built in TFET-SRAM, with real latency (5.3x) versus an "Ideal
 * TFET-SRAM" that keeps the baseline latency. Both normalized to the
 * 256KB baseline. This is the motivation experiment: capacity helps,
 * but only if the latency is not exposed.
 *
 * All cells run on the ExperimentRunner thread pool; --jobs N bounds
 * the worker count (default: hardware concurrency).
 */

#include "bench_util.hh"
#include "harness/runner.hh"

using namespace ltrf;
using namespace ltrf::bench;

int
main(int argc, char **argv)
{
    harness::SweepSpec spec = suiteSpec();
    spec.designs = {RfDesign::IDEAL, RfDesign::BL};
    spec.rf_cfg_ids = {6};

    harness::ExperimentRunner runner(jobsFromArgs(argc, argv));
    harness::ResultSet rs =
            runner.run(harness::expandSweep(spec), &baselineConfig());

    std::printf("Figure 3: 8x register file, ideal vs real TFET-SRAM "
                "latency (normalized IPC)\n\n");
    printHeader({"Ideal TFET", "TFET-SRAM"});

    std::vector<double> ideal_s, real_s, ideal_i, real_i;
    for (const Workload &w : WorkloadSuite::all()) {
        double ideal = rs.find(w.name, RfDesign::IDEAL, 6).normalizedIpc();
        double real = rs.find(w.name, RfDesign::BL, 6).normalizedIpc();
        printRow(w.name + (w.register_sensitive ? " [S]" : " [I]"),
                 {ideal, real});
        (w.register_sensitive ? ideal_s : ideal_i).push_back(ideal);
        (w.register_sensitive ? real_s : real_i).push_back(real);
    }
    printRow("GEOMEAN [S]", {geomean(ideal_s), geomean(real_s)});
    printRow("GEOMEAN [I]", {geomean(ideal_i), geomean(real_i)});

    std::printf("\nPaper reference: Ideal TFET improves register-"
                "sensitive workloads by 10-95%%\n(37%% avg); with real "
                "latency much of the gain is lost (section 2.2).\n");
    return 0;
}
