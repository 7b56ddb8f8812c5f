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
 *
 * Result writes go through dedicated write ports and never delay the
 * read stream, so they have no timing model here; the register file
 * designs count them for the power model (RfStats).
 */

#ifndef LTRF_CORE_MAIN_REGFILE_HH
#define LTRF_CORE_MAIN_REGFILE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
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
        return claim(w, r, now, conflict_cycles) +
               static_cast<Cycle>(access_latency);
    }

    /**
     * Access every register of @p regs of warp @p w at @p now, in
     * ascending register order (a bulk transfer). @return the cycle
     * the last data is available, or @p now if @p regs is empty.
     */
    Cycle
    accessAll(WarpId w, const RegBitVec &regs, Cycle now)
    {
        Cycle latest = now;         // latest claim start
        std::uint64_t waited = 0;   // local: no reload per bank store
        bool any = false;
        regs.forEach([&](RegId r) {
            latest = std::max(latest, claim(w, r, now, waited));
            any = true;
        });
        conflict_cycles += waited;
        return any ? latest + static_cast<Cycle>(access_latency) : now;
    }

    /**
     * Bank mapping: registers interleave by warp and register id,
     * (w + r) % banks. The remainder is Lemire's fastmod: with
     * M = floor((2^64 - 1) / d) + 1, n % d is the high 64 bits of
     * (M * n mod 2^64) * d, exact for every 32-bit n and d, so no
     * integer division runs on the read path.
     */
    int
    bankOf(WarpId w, RegId r) const
    {
        const auto n = static_cast<std::uint32_t>(w + r);
        const std::uint64_t low = bank_magic * n;
        return static_cast<int>(
                (static_cast<unsigned __int128>(low) * num_banks) >> 64);
    }

    int numBanks() const { return static_cast<int>(num_banks); }
    int latency() const { return access_latency; }

    /** Cycles reads spent waiting on busy banks. */
    std::uint64_t conflictCycles() const { return conflict_cycles; }

  private:
    /**
     * Claim the bank of (@p w, @p r) for one cycle at or after
     * @p now, adding the wait to @p waited. @return the start cycle.
     */
    Cycle
    claim(WarpId w, RegId r, Cycle now, std::uint64_t &waited)
    {
        Cycle &busy = banks[static_cast<std::size_t>(bankOf(w, r))];
        const Cycle start = std::max(now, busy);
        waited += start - now;
        busy = start + 1;   // pipelined: one new access per cycle
        return start;
    }

    std::vector<Cycle> banks;   ///< busy-until per bank
    std::uint64_t num_banks;
    std::uint64_t bank_magic;   ///< fastmod multiplier for num_banks
    int access_latency;
    std::uint64_t conflict_cycles = 0;
};

} // namespace ltrf

#endif // LTRF_CORE_MAIN_REGFILE_HH
