/**
 * @file
 * Reproduces paper Figure 9: IPC of BL, RFC, LTRF, LTRF+, and Ideal
 * with the main register file built as Table 2 configuration #6
 * (TFET, 8x capacity, 5.3x latency) and #7 (DWM, 8x capacity, 6.3x
 * latency), normalized to the baseline architecture of configuration
 * #1 with 16KB extra register file capacity.
 *
 * Run with --config to also dump the simulated system configuration
 * (paper Table 3). All (workload, design, configuration) cells run
 * on the ExperimentRunner thread pool; --jobs N bounds the worker
 * count (default: hardware concurrency).
 */

#include <cstring>

#include "bench_util.hh"
#include "harness/runner.hh"

using namespace ltrf;
using namespace ltrf::bench;

namespace
{

void
printTable3()
{
    SimConfig cfg;
    std::printf("Table 3: simulated system configuration\n");
    std::printf("  SMs (paper / harness)        24 / %d\n", BENCH_SMS);
    std::printf("  Warps per SM                 %d\n",
                cfg.max_warps_per_sm);
    std::printf("  Register file per SM         %zu KB (%d registers)\n",
                cfg.rf_bytes / 1024, cfg.numMrfRegs() * WARP_WIDTH);
    std::printf("  Register file cache per SM   %zu KB (%d registers)\n",
                cfg.rf_cache_bytes / 1024, cfg.numCacheRegs() * WARP_WIDTH);
    std::printf("  Active warps                 %d\n",
                cfg.num_active_warps);
    std::printf("  Registers per interval       %d\n",
                cfg.regs_per_interval);
    std::printf("  L1D / L1I / LLC              %zuKB / %zuKB / %zuMB\n",
                cfg.l1d_bytes / 1024, cfg.l1i_bytes / 1024,
                cfg.llc_bytes / (1024 * 1024));
    std::printf("  Scheduler                    two-level\n\n");
}

const std::vector<RfDesign> DESIGNS = {
        RfDesign::BL, RfDesign::RFC, RfDesign::LTRF,
        RfDesign::LTRF_PLUS, RfDesign::IDEAL};

void
printConfig(const harness::ResultSet &rs, int rf_cfg_id)
{
    std::printf("Figure 9(%s): normalized IPC, main register file = "
                "configuration #%d (%s, %.1fx capacity, %.1fx latency)\n",
                rf_cfg_id == 6 ? "a" : "b", rf_cfg_id,
                cellTechName(rfConfig(rf_cfg_id).tech),
                rfConfig(rf_cfg_id).capacity,
                rfConfig(rf_cfg_id).latency);

    std::vector<std::string> names;
    for (RfDesign d : DESIGNS)
        names.push_back(rfDesignName(d));
    printHeader(names);

    for (const Workload &w : WorkloadSuite::all()) {
        std::vector<double> row;
        for (RfDesign d : DESIGNS)
            row.push_back(rs.find(w.name, d, rf_cfg_id).normalizedIpc());
        printRow(w.name + (w.register_sensitive ? " [S]" : " [I]"), row);
    }

    std::vector<double> means;
    for (RfDesign d : DESIGNS)
        means.push_back(rs.geomeanNormalized(d, rf_cfg_id));
    printRow("GEOMEAN", means);
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool stalls = false;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--config") == 0)
            printTable3();
        if (std::strcmp(argv[i], "--stalls") == 0)
            stalls = true;
    }

    harness::SweepSpec spec = suiteSpec();
    spec.designs = DESIGNS;
    spec.rf_cfg_ids = {6, 7};

    std::vector<harness::SweepCell> cells = harness::expandSweep(spec);
    if (stalls)
        for (harness::SweepCell &c : cells)
            c.config.collect_stall_stats = true;

    harness::ExperimentRunner runner(jobsFromArgs(argc, argv));
    harness::ResultSet rs = runner.run(cells, &baselineConfig());

    printConfig(rs, 6);
    printConfig(rs, 7);

    // --stalls: where the issue slots went, per design (the latency
    // story behind the IPC table — BL drowns in scoreboard stalls at
    // high MRF latency, LTRF converts them into prefetch overlap).
    if (stalls) {
        printStallTable(rs, DESIGNS, 6);
        printStallTable(rs, DESIGNS, 7);
    }

    std::printf("Paper reference: LTRF ~= Ideal on #6 (+32%% mean IPC); "
                "LTRF/LTRF+ +28%%/+31%% on #7;\nRFC loses ~14%% when the "
                "register file is enlarged 8x with real latencies.\n");
    return 0;
}
