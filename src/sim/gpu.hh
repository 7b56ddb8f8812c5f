/**
 * @file
 * Whole-GPU driver: occupancy model, per-SM instantiation around a
 * shared memory hierarchy, the global cycle loop (with idle-period
 * skipping), and result aggregation.
 */

#ifndef LTRF_SIM_GPU_HH
#define LTRF_SIM_GPU_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/compile.hh"
#include "obs/stall.hh"
#include "sim/sm.hh"

namespace ltrf
{

/** Aggregated results of one simulation run. */
struct SimResult
{
    std::string workload;
    RfDesign design = RfDesign::BL;
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    /** Warps the occupancy model admitted per SM. */
    int resident_warps = 0;

    // Register file activity (aggregated over SMs).
    std::uint64_t main_accesses = 0;
    std::uint64_t cache_accesses = 0;
    std::uint64_t wcb_accesses = 0;
    std::uint64_t xfer_regs = 0;
    std::uint64_t prefetch_ops = 0;
    std::uint64_t writeback_regs = 0;
    std::uint64_t prefetch_stall_cycles = 0;
    double cache_hit_rate = 0.0;    ///< RFC/SHRF read hit rate
    double l1d_hit_rate = 0.0;

    /** Per-SM register file activity rates (power model input). */
    RfActivity activity;

    // ----- Observability (populated iff collect_stall_stats) -----
    /** True when the run collected the issue-slot stall account. */
    bool stall_collected = false;
    /** Aggregate breakdown over all SMs. */
    obs::StallBreakdown stall_total;
    /** Per-SM breakdowns, in SM id order. */
    std::vector<obs::StallBreakdown> sm_stall;
    /** Flattened hierarchical stat tree ("sm0.stall.scoreboard"). */
    std::vector<StatLine> stats_lines;
};

/**
 * One GPU simulation: compiles the kernel for the configured design,
 * instantiates SMs, and runs to completion.
 */
class Gpu
{
  public:
    /**
     * @param cfg    validated configuration (design, latencies, ...)
     * @param kernel the workload kernel (uncompiled)
     * @param seed   workload seed for traces and branch outcomes
     */
    Gpu(const SimConfig &cfg, const Kernel &kernel, std::uint64_t seed);

    /**
     * Run to completion (or @p max_cycles, at most UINT32_MAX: the
     * scoreboard holds 32-bit cycles) and aggregate results.
     */
    SimResult run(Cycle max_cycles = 500'000'000);

    /**
     * Occupancy model: warps resident per SM, limited by main
     * register file capacity over per-thread register demand
     * (sections 2.1-2.2).
     */
    static int residentWarps(const SimConfig &cfg, const Kernel &kernel);

    const CompiledWorkload &compiledWorkload() const { return compiled; }
    const MemSystem &memSystem() const { return *mem; }
    const Sm &sm(int i) const { return *sms[i]; }

  private:
    SimConfig config;
    CompiledWorkload compiled;
    std::unique_ptr<MemSystem> mem;
    std::vector<std::unique_ptr<Sm>> sms;
    std::string workload_name;
};

/** Convenience: construct a Gpu and run it. */
SimResult simulate(const SimConfig &cfg, const Kernel &kernel,
                   std::uint64_t seed = 1);

} // namespace ltrf

#endif // LTRF_SIM_GPU_HH
