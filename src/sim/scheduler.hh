/**
 * @file
 * Two-level warp scheduler (paper section 3.2, after [19, 53]).
 *
 * A fixed-size active pool issues in round-robin; warps hitting a
 * long-latency operation are deactivated into the inactive pool and
 * replaced by a ready inactive warp. Activation may itself take time
 * (LTRF refetches the warp's register working set), which the
 * scheduler tracks through the ACTIVATING state.
 *
 * The scheduler is event-gated: it tracks the earliest cycle any
 * ACTIVATING or INACTIVE_WAIT warp can change state, so tick() only
 * walks the waiting warps on cycles where a promotion is actually
 * due instead of polling every resident warp every cycle. The walk
 * visits the waiting warps (a bit mask over warp ids) in warp-id
 * order, so promotion order — and with it every downstream result —
 * is bit-identical to the polling implementation. The SM calls
 * tick() only when tickDue() says a promotion or a pool fill is
 * pending.
 *
 * The inactive-ready queue is a FIFO over warp ids in which each warp
 * appears at most once: an AllocUnit whose free queue is the ready
 * queue (activation allocates its head, a resolved wait releases the
 * warp to its tail).
 */

#ifndef LTRF_SIM_SCHEDULER_HH
#define LTRF_SIM_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "core/alloc_unit.hh"
#include "core/regfile_system.hh"
#include "sim/warp.hh"

namespace ltrf
{

/** Active/inactive pool manager for one SM. */
class TwoLevelScheduler
{
  public:
    /**
     * @param num_active active pool size (Table 3: 8)
     * @param warps      all resident warps (owned by the SM)
     */
    TwoLevelScheduler(int num_active, std::vector<Warp> &warps);

    /**
     * Promote finished activations and expired waits, then fill free
     * active slots from the inactive-ready queue (activating through
     * @p rf, which may impose a refetch delay).
     */
    void tick(Cycle now, RegFileSystem &rf);

    /** @return true if tick() at @p now would change anything. */
    bool
    tickDue(Cycle now) const
    {
        return next_transition <= now ||
               (poolHasRoom() && ready_queue.freeCount() > 0);
    }

    /** The active pool has a free slot. */
    bool
    poolHasRoom() const
    {
        return static_cast<int>(active.size()) < num_active_slots;
    }

    /** Deactivate @p w until @p until (long-latency stall). */
    void deactivate(Warp &w, Cycle until, RegFileSystem &rf, Cycle now);

    /** Retire @p w (reached EXIT); frees its active slot. */
    void finish(Warp &w, RegFileSystem &rf, Cycle now);

    /** Warps currently in the active pool, in slot order. */
    const std::vector<WarpId> &activePool() const { return active; }

    /**
     * Round-robin start index, advanced by the SM after each issue.
     * Always below the pool size while the pool is non-empty (pool
     * removals re-wrap it and fills only grow the pool).
     */
    int rrIndex() const { return rr; }
    void
    advanceRr()
    {
        rr = rr + 1 < static_cast<int>(active.size()) ? rr + 1 : 0;
    }

    int finishedCount() const { return num_finished; }

    /** Warps in INACTIVE_READY (== the ready queue's occupancy). */
    int readyCount() const { return ready_queue.freeCount(); }

    /** Warps in INACTIVE_WAIT. */
    int waitCount() const { return num_wait; }

    /**
     * Earliest wait_until over all ACTIVATING and INACTIVE_WAIT
     * warps (NEVER if none): the next cycle tick() can promote.
     */
    Cycle nextTransition() const { return next_transition; }

    /** Register scheduler event counters into @p g (obs layer). */
    void
    registerStats(StatGroup &g)
    {
        g.add("activations", &stat_activations);
        g.add("slow_activations", &stat_slow_activations);
        g.add("deactivations", &stat_deactivations);
        g.add("finishes", &stat_finishes);
    }

  private:
    void removeActive(WarpId id);

    void
    setWaiting(WarpId id)
    {
        waiting[static_cast<std::size_t>(id) / 64] |=
                std::uint64_t{1} << (id % 64);
    }

    int num_active_slots;
    std::vector<Warp> &warps;
    std::vector<WarpId> active;
    AllocUnit ready_queue;          ///< free queue = INACTIVE_READY
    /** Bit per warp id: ACTIVATING or INACTIVE_WAIT. */
    std::vector<std::uint64_t> waiting;
    int rr = 0;
    int num_finished = 0;
    int num_wait = 0;               ///< INACTIVE_WAIT population
    /** Min wait_until over ACTIVATING + INACTIVE_WAIT warps. */
    Cycle next_transition = NEVER;

    // Event counters (rare events, so unconditionally maintained).
    Counter stat_activations;       ///< warps entering the active pool
    Counter stat_slow_activations;  ///< activations with refetch delay
    Counter stat_deactivations;     ///< long-latency swap-outs
    Counter stat_finishes;          ///< warps reaching EXIT
};

} // namespace ltrf

#endif // LTRF_SIM_SCHEDULER_HH
