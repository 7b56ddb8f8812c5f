/**
 * @file
 * Banked main register file timing model.
 *
 * Banks accept one access per cycle (pipelined) and return data after
 * the access latency; concurrent accesses to the same bank serialize
 * by one cycle each. The performance cost of a slow register file
 * does not come from bank bandwidth but from occupancy upstream: the
 * issuing instruction holds an operand collector for the full read
 * latency (see Sm), which is exactly how GPGPU-Sim's operand
 * collection exposes register file latency. Registers of a warp are
 * interleaved across banks by (warp + register) so that bulk
 * prefetches spread across all banks.
 */

#ifndef LTRF_CORE_MAIN_REGFILE_HH
#define LTRF_CORE_MAIN_REGFILE_HH

#include <algorithm>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace ltrf
{

/** Timing model of the banked main register file of one SM. */
class MainRegFile
{
  public:
    /**
     * @param num_banks number of banks (Table 3: 16)
     * @param latency   non-pipelined bank access latency in cycles
     */
    MainRegFile(int num_banks, int latency);

    /**
     * Access register @p r of warp @p w starting no earlier than
     * @p now. The bank accepts one access per cycle.
     * @return the cycle the data is available.
     */
    Cycle
    access(WarpId w, RegId r, Cycle now)
    {
        Cycle &busy = banks[static_cast<std::size_t>(bankOf(w, r))];
        Cycle start = std::max(now, busy);
        if (start > now)
            stat_conflicts += start - now;
        busy = start + 1;   // pipelined: one new access per cycle
        stat_accesses++;
        return start + static_cast<Cycle>(access_latency);
    }

    /**
     * Record a result write that retires at some future completion
     * time. Writes go through dedicated write ports and must never
     * delay the in-order read stream that is being scheduled at the
     * current cycle, so only the access count (for the power model)
     * is updated.
     */
    void
    recordWrite(WarpId w, RegId r)
    {
        (void)w;
        (void)r;
        stat_accesses++;
    }

    /** Bank mapping: registers interleave by warp and register id. */
    int
    bankOf(WarpId w, RegId r) const
    {
        return static_cast<int>((w + r) % static_cast<int>(banks.size()));
    }

    int numBanks() const { return static_cast<int>(banks.size()); }
    int latency() const { return access_latency; }

    std::uint64_t accesses() const { return stat_accesses.value(); }
    std::uint64_t conflictCycles() const { return stat_conflicts.value(); }

  private:
    std::vector<Cycle> banks;   ///< busy-until per bank
    int access_latency;

    StatGroup stat_group;
    Counter stat_accesses;
    Counter stat_conflicts;     ///< cycles spent waiting on busy banks
};

} // namespace ltrf

#endif // LTRF_CORE_MAIN_REGFILE_HH
