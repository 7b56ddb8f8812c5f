/**
 * @file
 * Streaming multiprocessor cycle model.
 *
 * Per cycle: the two-level scheduler refills the active pool, then
 * up to issue_width instructions issue from ready active warps in
 * round-robin order. Each issued instruction occupies an operand
 * collector until its source operands are collected through the
 * register file system (which models WCB lookups, cache/MRF bank
 * contention, and crossbars), then executes on its functional-unit
 * latency. Global memory accesses walk the real cache hierarchy;
 * an L1D miss deactivates the warp until the data returns (the
 * latency-hiding the whole paper builds on).
 *
 * The per-cycle path is built for event-driven stepping. step() makes
 * one pass over the active pool: it issues in round-robin order and,
 * in the same pass, folds every pool warp's wake time into the SM's
 * next event, which it returns; Gpu::run() steps the SM again only
 * then. The scheduler is ticked only when a transition or a pool fill
 * is due. Warps fetch along their trace's block path and park on
 * collector stalls (see warp.hh). A failed collector search caches
 * the earliest busy-until and its collector, so while the collectors
 * stay busy a parked warp re-stalls in O(1), and the first issue
 * after they free needs no search. The scoreboard is 32-bit, which
 * is why a run is capped at UINT32_MAX cycles.
 */

#ifndef LTRF_SIM_SM_HH
#define LTRF_SIM_SM_HH

#include <memory>
#include <vector>

#include "core/regfile_system.hh"
#include "mem/mem_system.hh"
#include "obs/stall.hh"
#include "sim/scheduler.hh"
#include "sim/warp.hh"

namespace ltrf
{

/** One streaming multiprocessor. */
class Sm
{
  public:
    /**
     * @param sm_id          index within the GPU
     * @param cfg            system configuration
     * @param cw             compiled workload (shared, read-only)
     * @param mem            shared memory hierarchy
     * @param resident_warps warps admitted by the occupancy model
     */
    Sm(int sm_id, const SimConfig &cfg, const CompiledWorkload &cw,
       MemSystem &mem, int resident_warps);

    /**
     * Advance one cycle at global time @p now. @return the earliest
     * future cycle at which stepping can make progress (NEVER once
     * every warp has finished); stepping earlier changes nothing.
     */
    Cycle step(Cycle now);

    /** @return true once every resident warp has finished. */
    bool
    done() const
    {
        return sched.finishedCount() ==
               static_cast<int>(warps.size());
    }

    /** Dynamic (non-PREFETCH) instructions issued so far. */
    std::uint64_t instructionsIssued() const;

    const RegFileSystem &rf() const { return *regfile; }

    /**
     * Deterministic work counters: what the pipeline did, not what
     * the modelled GPU did. They do not vary from run to run, so
     * they measure simulator cost where wall time is too noisy.
     */
    struct PipeStats
    {
        std::uint64_t steps = 0;           ///< step() calls
        /** Issue attempts that decoded the head from scratch
         *  (PREFETCH skip, scoreboard, EXIT checks). */
        std::uint64_t full_decodes = 0;
        /** Retries of a parked warp that stalled again in O(1). */
        std::uint64_t parked_restalls = 0;
        /** Issue slots used (instructions incl. EXIT, and
         *  triggered PREFETCHes). */
        std::uint64_t issued_slots = 0;
        std::uint64_t deactivations = 0;   ///< long-latency swap-outs
    };

    const PipeStats &pipeStats() const { return pipe; }

    /**
     * Close the stall account once the run is over: derives the
     * DRAIN remainder against @p total_cycles (panics if the live
     * attribution over-counted), backfills the derived counters into
     * the stat tree, and returns this SM's breakdown. Only
     * meaningful when collect_stall_stats was on.
     */
    obs::StallBreakdown finalizeStallStats(Cycle total_cycles);

    /** Flatten this SM's stat tree ("smN.stall.scoreboard", ...). */
    void
    flattenStats(std::vector<StatLine> &out) const
    {
        stat_root.flatten(out);
    }

    const StatGroup &statGroup() const { return stat_root; }

  private:
    /**
     * The SM's next event after a step at @p now: @p pool_next, the
     * earliest wake time over the warps still in the pool, combined
     * with the scheduler's pending transitions and pool fills.
     */
    Cycle addSchedulerEvents(Cycle now, Cycle pool_next) const;

    /** Try to issue one instruction from @p w; true if a slot used. */
    bool tryIssue(Warp &w, Cycle now);

    /** Every collector is busy: park @p w until the earliest frees. */
    void
    collectorStall(Warp &w, Cycle now)
    {
        pipe.parked_restalls += w.parked ? 1 : 0;
        w.parked = true;
        w.ready_at = coll_min;
        w.last_stall = obs::StallCause::COLLECTOR;
        if (collect || trace)
            observeCollectorStall(w, now);
    }

    /** collector_wait sample and trace event of a collector stall. */
    void observeCollectorStall(const Warp &w, Cycle now);

    /**
     * Find an operand collector free at @p now, or -1 — in which
     * case coll_min holds the earliest cycle one frees.
     */
    int freeCollector(Cycle now);

    /** Generate the cache-line address for a memory instruction. */
    std::uint64_t lineFor(Warp &w, const Instruction &in);

    int id;
    const SimConfig &config;
    const CompiledWorkload &compiled;
    MemSystem &mem;
    std::unique_ptr<RegFileSystem> regfile;
    /** SoA backing store for all warps' scoreboard/stream state;
     *  must be constructed before (and outlive) `warps`. */
    WarpStateArena arena;
    std::vector<Warp> warps;
    TwoLevelScheduler sched;
    std::vector<Cycle> collectors;  ///< busy-until per operand collector
    /** Lower bound on the collectors' busy-until, exact while it is
     *  above the current cycle (see freeCollector). */
    Cycle coll_min = 0;
    /** The collector holding coll_min after a failed search, until
     *  an issue takes it; -1 = unknown. */
    int coll_argmin = -1;
    /** Reused snapshot of the active pool (deactivations mutate the
     *  pool mid-issue); hoisted here so step() never allocates. */
    std::vector<WarpId> pool_scratch;
    PipeStats pipe;

    // ----- Observability (src/obs/) -----
    /** Attribute the fast-forwarded gap before a step at @p now. */
    void accountGap(Cycle now);

    bool collect;            ///< config.collect_stall_stats, cached
    obs::TraceSink *trace;   ///< null = per-warp tracing off
    int trace_pid;           ///< trace_pid_base + sm id
    /** Failure causes seen this cycle, in RR arbitration order;
     *  unused issue slots are attributed round-robin over them. */
    std::vector<obs::StallCause> fail_scratch;
    /** Cycle of the previous step (NEVER before the first). */
    Cycle prev_step = NEVER;

    // Live stall counters (DRAIN derived in finalizeStallStats).
    Counter stall_counters[obs::NUM_STALL_CAUSES];
    // Derived slot counters, backfilled at finalize.
    Counter stat_issue_slots;
    Counter stat_instructions;
    Counter stat_prefetch_slots;
    Counter stat_bank_conflicts;
    Distribution issue_per_cycle;   ///< issued per stepped cycle
    Distribution collector_wait;    ///< collector-stall defer length
    Distribution mem_stall;         ///< load-miss deactivation latency

    StatGroup stat_root;            ///< "smN"
    StatGroup stall_group;          ///< "smN.stall"
    StatGroup rf_group;             ///< "smN.rf"
    StatGroup sched_group;          ///< "smN.sched"
};

} // namespace ltrf

#endif // LTRF_SIM_SM_HH
