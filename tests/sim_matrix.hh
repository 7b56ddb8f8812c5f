/**
 * @file
 * The full simulation matrix shared by the simulator oracle tests:
 * every suite workload under every register file design, at one SM
 * on Table 2 configuration #6 (the benchmarked high-capacity RF),
 * seed 2018. Cells run on the repository's ExperimentRunner pool;
 * each writes a preassigned slot, so results are in matrix order.
 */

#ifndef LTRF_TESTS_SIM_MATRIX_HH
#define LTRF_TESTS_SIM_MATRIX_HH

#include <algorithm>
#include <functional>
#include <iterator>
#include <thread>
#include <vector>

#include "harness/runner.hh"
#include "sim/gpu.hh"
#include "tech/rf_config.hh"
#include "workloads/workload.hh"

namespace ltrf::test
{

constexpr std::uint64_t MATRIX_SEED = 2018;

constexpr RfDesign MATRIX_DESIGNS[] = {
        RfDesign::BL,          RfDesign::RFC,  RfDesign::SHRF,
        RfDesign::LTRF_STRAND, RfDesign::LTRF, RfDesign::LTRF_PLUS,
        RfDesign::IDEAL};

constexpr std::size_t NUM_MATRIX_DESIGNS = std::size(MATRIX_DESIGNS);

/** One matrix cell's configuration. */
inline SimConfig
matrixConfig(RfDesign d)
{
    SimConfig cfg;
    applyRfConfig(cfg, rfConfig(6));
    cfg.design = d;
    cfg.num_sms = 1;
    return cfg;
}

/**
 * Call @p cell(workload, design, slot) for every matrix cell on a
 * small pool; slot = workload index * NUM_MATRIX_DESIGNS + design
 * index. @return the number of cells.
 */
inline std::size_t
forEachMatrixCell(
        const std::function<void(const Workload &, RfDesign, std::size_t)>
                &cell)
{
    const std::vector<Workload> &suite = WorkloadSuite::all();
    std::vector<std::function<void()>> tasks;
    for (std::size_t w = 0; w < suite.size(); w++)
        for (std::size_t d = 0; d < NUM_MATRIX_DESIGNS; d++)
            tasks.push_back([&, w, d] {
                cell(suite[w], MATRIX_DESIGNS[d],
                     w * NUM_MATRIX_DESIGNS + d);
            });
    int jobs = static_cast<int>(
            std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    harness::ExperimentRunner(jobs).runTasks(tasks);
    return tasks.size();
}

} // namespace ltrf::test

#endif // LTRF_TESTS_SIM_MATRIX_HH
