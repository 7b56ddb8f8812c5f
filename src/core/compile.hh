/**
 * @file
 * Per-design kernel compilation: interval/strand formation, PREFETCH
 * insertion, dead-operand annotation, SHRF register classification,
 * and per-warp trace generation.
 *
 * Different register file designs consume different compiled
 * artifacts (paper section 5): LTRF/LTRF+ need register-intervals,
 * LTRF(strand) and SHRF need strands, and BL/RFC/Ideal run the
 * unmodified kernel. This module produces the right artifact for the
 * design selected in the configuration.
 */

#ifndef LTRF_CORE_COMPILE_HH
#define LTRF_CORE_COMPILE_HH

#include <vector>

#include "common/config.hh"
#include "compiler/prefetch_insert.hh"
#include "compiler/register_interval.hh"
#include "compiler/trace_gen.hh"

namespace ltrf
{

/** A kernel compiled for one register file design. */
struct CompiledWorkload
{
    RfDesign design = RfDesign::BL;
    /**
     * Formation result; for designs without prefetching this wraps
     * the unmodified kernel with an empty interval list.
     */
    IntervalAnalysis analysis;
    /** Strand dynamics: re-prefetch when a header is re-entered. */
    bool strand_semantics = false;
    /**
     * SHRF [20]: per-interval set of compiler-cache-allocated
     * registers (strand-local temporaries: neither live-in nor
     * live-out of the strand). Accesses to these hit the register
     * file cache; everything else goes to the main register file.
     */
    std::vector<RegBitVec> shrf_cached;
    /** Code-size accounting (prefetch designs only). */
    PrefetchCodeSize code_size;
    /** Per-warp dynamic traces, warp w's at index w. */
    std::vector<WarpTrace> traces;

    const Kernel &kernel() const { return analysis.kernel; }

    /** Interval of block @p b, or UNKNOWN_INTERVAL. */
    IntervalId
    intervalOf(BlockId b) const
    {
        return analysis.block_interval.empty()
                       ? UNKNOWN_INTERVAL
                       : analysis.block_interval[b];
    }
};

/**
 * The static half of compilation: formation, PREFETCH insertion,
 * SHRF classification, and dead-operand annotation for the design in
 * @p cfg — everything except trace generation (the result's `traces`
 * is left empty). This is what the static verifier inspects; the
 * `--verify-only` CLI mode uses it to check the whole suite without
 * paying for per-warp traces.
 */
CompiledWorkload compileWorkloadStatic(const Kernel &kernel,
                                       const SimConfig &cfg);

/**
 * Compile @p kernel for the design in @p cfg and generate
 * per-warp traces seeded from @p seed.
 *
 * @param max_trace_instrs safety cap per warp trace
 * @param num_traces       traces for warps [0, num_traces); 0 means
 *                         all max_warps_per_sm. Warp w's trace
 *                         depends only on (seed, w), so a shorter
 *                         list is a prefix of the full one.
 */
CompiledWorkload compileWorkload(const Kernel &kernel, const SimConfig &cfg,
                                 std::uint64_t seed,
                                 std::uint64_t max_trace_instrs =
                                         DEFAULT_MAX_TRACE_INSTRS,
                                 int num_traces = 0);

} // namespace ltrf

#endif // LTRF_CORE_COMPILE_HH
