/**
 * @file
 * Simulated system configuration (paper Table 3) plus the design
 * knobs the evaluation sweeps (register file design, main register
 * file latency multiplier, capacity multiplier, interval size, and
 * active warp count).
 */

#ifndef LTRF_COMMON_CONFIG_HH
#define LTRF_COMMON_CONFIG_HH

#include <algorithm>
#include <cmath>
#include <string>

#include "common/types.hh"

namespace ltrf
{

namespace obs
{
class TraceSink;
}

/**
 * Largest effective main RF latency (cycles, after the multiplier)
 * SimConfig::validate() accepts: 512x the baseline's 2 cycles. At the
 * cap the slowest suite kernel (lavaMD on BL at one SM and one
 * active warp) runs ~180M cycles, well inside Gpu::run()'s default
 * cycle limit; the DSE's analytic model stays below 8x.
 */
constexpr int MAX_MRF_LATENCY = 1024;

/**
 * The register file system designs evaluated in the paper.
 *
 * BL          - conventional non-cached register file (baseline).
 * RFC         - hardware register file cache, Gebhart et al. [19].
 * SHRF        - software-managed hierarchical RF with strands [20].
 * LTRF_STRAND - LTRF prefetching at strand boundaries (section 6.6).
 * LTRF        - LTRF with register-intervals (the contribution).
 * LTRF_PLUS   - operand-liveness-aware LTRF (section 3.2).
 * IDEAL       - any capacity with no latency overhead.
 */
enum class RfDesign
{
    BL,
    RFC,
    SHRF,
    LTRF_STRAND,
    LTRF,
    LTRF_PLUS,
    IDEAL,
};

/** @return a short printable name, e.g. "LTRF+". */
const char *rfDesignName(RfDesign d);

/** @return true for designs that use the register file cache. */
inline bool
usesRegCache(RfDesign d)
{
    return d != RfDesign::BL && d != RfDesign::IDEAL;
}

/** @return true for designs that prefetch at compiler-chosen points. */
inline bool
usesPrefetch(RfDesign d)
{
    return d == RfDesign::LTRF_STRAND || d == RfDesign::LTRF ||
           d == RfDesign::LTRF_PLUS;
}

/**
 * Full simulated-system configuration.
 *
 * Defaults follow paper Table 3 (NVIDIA Maxwell-like), with the one
 * practical difference that benches may scale down num_sms; DRAM
 * bandwidth is scaled with the SM count so per-SM pressure matches.
 */
struct SimConfig
{
    // ----- Chip organization (Table 3) -----
    int num_sms = 8;                ///< paper: 24; benches scale DRAM with it
    int max_warps_per_sm = 64;      ///< resident warp contexts
    int num_active_warps = 8;       ///< two-level scheduler active pool

    // ----- Register file organization -----
    /** Baseline main register file bytes per SM (256KB). */
    std::size_t rf_bytes = 256 * 1024;
    /** Capacity multiplier for enlarged designs (8x in the paper). */
    int rf_capacity_mult = 1;
    /** Register file cache bytes per SM (16KB). */
    std::size_t rf_cache_bytes = 16 * 1024;
    /** Number of main register file banks. */
    int num_mrf_banks = 16;
    /** Maximum registers allowed in a register-interval (= cache banks). */
    int regs_per_interval = 16;

    // ----- Latencies (core cycles) -----
    /** Baseline main RF access latency (operand collectors hold it). */
    int base_mrf_latency = 2;
    /** Main RF latency multiplier (Table 2 column "Latency"). */
    double mrf_latency_mult = 1.0;
    /** Register file cache bank access latency. */
    int cache_latency = 1;
    /** Operand crossbar / arbitration overhead added to a collection. */
    int operand_xbar_latency = 1;
    /** MRF-to-cache prefetch crossbar transfer latency (1/4-width). */
    int prefetch_xbar_latency = 4;
    /** Extra cycle to consult the Warp Control Block (section 4.3). */
    int wcb_latency = 1;

    // ----- Pipeline -----
    int issue_width = 2;            ///< instructions issued per SM cycle
    int num_operand_collectors = 8; ///< concurrent operand collections

    // ----- Memory hierarchy (Table 3) -----
    std::size_t l1d_bytes = 16 * 1024;
    int l1d_assoc = 4;
    /** Table 3 L1I organization, echoed for completeness:
     *  instruction fetch is not simulated (traces drive the SMs), so
     *  these two knobs deliberately reach no model. Every other
     *  memory knob below is consumed by MemSystem/DramParams. */
    std::size_t l1i_bytes = 2 * 1024;
    int l1i_assoc = 4;
    std::size_t llc_bytes = 2 * 1024 * 1024;
    int llc_assoc = 8;
    int line_bytes = 128;
    int l1d_hit_latency = 28;       ///< core cycles to return an L1D hit
    /**
     * Additional cycles for an LLC hit. Microbenchmarked Maxwell L2
     * latency is ~190-200 core cycles, which is also what makes the
     * occupancy gains of larger register files (Figure 3) match the
     * paper: the two-level scheduler needs enough resident warps to
     * cover this latency.
     */
    int llc_latency = 200;
    int dram_latency = 200;         ///< DRAM bank access latency
    /**
     * 8 GDDR5 channels x 16 banks per device. Bank-level parallelism
     * matters: with too few banks, synchronized warp waves convoy
     * behind 200-cycle row misses and memory latency balloons.
     */
    int num_dram_banks = 128;
    /**
     * DRAM data-bus cycles occupied per 128B line at the paper's
     * full 24-SM chip (bandwidth scale; `ltrf_dse` sweeps it as the
     * DRAM-bandwidth axis). MemSystem rescales it with num_sms so
     * the per-SM bandwidth share stays constant when benches
     * simulate fewer SMs; DramParams::service_cycles carries the
     * rescaled per-line bus time and shares this default.
     */
    int dram_service_cycles = 1;

    // ----- Design selection -----
    RfDesign design = RfDesign::BL;

    // ----- Simulator execution (not a hardware parameter) -----
    /**
     * Event-driven fast-forward: the global cycle loop jumps to the
     * next cycle at which any SM can make progress (warp ready,
     * activation or memory wait expiring) instead of stepping every
     * cycle. Observationally pure: simulated results are
     * bit-identical with it on or off (tests/test_fast_forward.cc
     * asserts this); off is the slow per-cycle-polling reference
     * mode. Deliberately not part of the DSE simKey — it cannot
     * change what a design point measures.
     */
    bool skip_ahead = true;

    /**
     * Collect per-cause issue-slot stall attribution (src/obs/):
     * every slot accounted to issued / prefetch / a StallCause.
     * Observationally pure — the attribution only reads decisions
     * the pipeline already made — and off by default so the hot
     * issue loop pays one predictable branch. Deliberately not part
     * of the DSE simKey — it cannot change what a design point
     * measures.
     */
    bool collect_stall_stats = false;

    /**
     * Run the static kernel-IR verifier (src/compiler/verify.hh)
     * over the compiled artifact before simulating; any diagnostic
     * is fatal. Observationally pure — verification only reads the
     * compiled kernel — so it is deliberately not part of the DSE
     * simKey. Default on (tests/CI catch broken kernels at the
     * door); `ltrf_bench` turns it off on its hot path.
     */
    bool verify_kernels = true;

    /**
     * Per-warp timeline trace sink (`ltrf_run --trace`); null means
     * tracing off. Borrowed, not owned; shared by concurrent cells
     * (the sink is thread-safe). Not part of the DSE simKey.
     */
    obs::TraceSink *trace = nullptr;

    /**
     * Base of the trace pid namespace for this simulation: SM @c s
     * appears as pid trace_pid_base + s, so multiple cells sharing
     * one sink get disjoint process groups.
     */
    int trace_pid_base = 0;

    // ----- Derived quantities -----

    /** Main RF capacity in warp-wide registers (with multiplier). */
    int
    numMrfRegs() const
    {
        return static_cast<int>(rf_bytes * rf_capacity_mult /
                                BYTES_PER_WARP_REG);
    }

    /** Register cache capacity in warp-wide registers. */
    int
    numCacheRegs() const
    {
        return static_cast<int>(rf_cache_bytes / BYTES_PER_WARP_REG);
    }

    /** Effective (multiplied) main RF bank access latency in cycles. */
    int
    mrfLatency() const
    {
        return std::max(1, static_cast<int>(
                std::lround(base_mrf_latency * mrf_latency_mult)));
    }

    /** Registers of cache space dedicated to one active warp. */
    int
    cacheRegsPerWarp() const
    {
        return numCacheRegs() / num_active_warps;
    }

    /**
     * Per-line DRAM bus occupancy after rescaling
     * dram_service_cycles (defined at the paper's 24-SM chip) to
     * the simulated SM count, keeping the per-SM bandwidth share
     * constant (see DESIGN.md). Integer quantization means nearby
     * knob values can coincide; simKey() uses this effective value,
     * so such design points share one simulation.
     */
    int
    effectiveDramServiceCycles() const
    {
        return std::max(1, dram_service_cycles * 24 / (num_sms * 2));
    }

    /** Sanity-check the configuration; calls fatal() on user error. */
    void validate() const;
};

} // namespace ltrf

#endif // LTRF_COMMON_CONFIG_HH
