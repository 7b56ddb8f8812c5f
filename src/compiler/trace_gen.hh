/**
 * @file
 * Deterministic per-warp dynamic trace generation.
 *
 * A timing simulator needs each warp's dynamic instruction stream.
 * Branch outcomes come from the kernel's declared branch profiles
 * (loop trip counts with per-warp jitter, conditional probabilities),
 * all drawn from a per-warp seeded RNG so traces are reproducible.
 */

#ifndef LTRF_COMPILER_TRACE_GEN_HH
#define LTRF_COMPILER_TRACE_GEN_HH

#include <cstdint>
#include <vector>

#include "compiler/register_interval.hh"
#include "isa/kernel.hh"

namespace ltrf
{

/** Reference to one static instruction. */
struct TraceRef
{
    BlockId bb;
    std::uint32_t idx;
};

/** One warp's dynamic instruction stream. */
struct WarpTrace
{
    /** Every dynamic instruction, in execution order. */
    std::vector<TraceRef> refs;
    /**
     * The non-empty blocks control visits, in execution order: every
     * visit runs its block from the first instruction to the last,
     * so `refs` is this path flattened (cut short when truncated).
     * The simulator fetches through it (see Warp).
     */
    std::vector<BlockId> path;
    /** Dynamic instructions excluding PREFETCH operations. */
    std::uint64_t real_instrs = 0;
    /** True if the max_instrs safety cap cut the walk short. */
    bool truncated = false;
};

/** Default safety cap on one warp trace's length. */
constexpr std::uint64_t DEFAULT_MAX_TRACE_INSTRS = 1u << 20;

/**
 * Walk @p kernel's CFG from the entry, resolving branches with the
 * per-warp @p seed, until EXIT or @p max_instrs instructions.
 */
WarpTrace generateTrace(const Kernel &kernel, std::uint64_t seed,
                        std::uint64_t max_instrs = DEFAULT_MAX_TRACE_INSTRS);

/** Aggregate interval-length statistics (paper Table 4). */
struct IntervalLengthStats
{
    double avg = 0.0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t segments = 0;

    /** Merge another sample set into this one. */
    void merge(const IntervalLengthStats &o);
};

/**
 * Real register-interval length: dynamic (non-PREFETCH) instructions
 * executed between PREFETCH events. A PREFETCH event occurs when
 * control enters a block of a different interval, or — when
 * @p reprefetch_on_backedge is set (strand semantics) — when control
 * re-enters the current interval's header from inside.
 */
IntervalLengthStats realIntervalLengths(const IntervalAnalysis &analysis,
                                        const WarpTrace &trace,
                                        bool reprefetch_on_backedge = false);

/**
 * Optimal register-interval length: the longest runs of consecutive
 * dynamic instructions whose cumulative register set stays within
 * @p max_regs, computed greedily over the execution trace with no
 * control-flow constraints (paper section 6.5).
 */
IntervalLengthStats optimalIntervalLengths(const Kernel &kernel,
                                           const WarpTrace &trace,
                                           int max_regs);

} // namespace ltrf

#endif // LTRF_COMPILER_TRACE_GEN_HH
