/**
 * @file
 * Register file cache bank timing model.
 *
 * The cache has #Registers_per_Interval banks, each hosting one
 * register slot per active warp (paper Figure 5). Banks are fast and
 * pipelined: an access occupies its bank for one cycle and returns
 * data after the (short) cache latency. Which register lives in
 * which bank is the Warp Control Block's business; this class only
 * models bank occupancy and latency. Writes use separate ports and
 * are counted by the register file designs (RfStats).
 */

#ifndef LTRF_CORE_REG_CACHE_HH
#define LTRF_CORE_REG_CACHE_HH

#include <algorithm>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace ltrf
{

/** Timing model of the register file cache banks of one SM. */
class RegCache
{
  public:
    /**
     * @param num_banks cache banks (= registers per interval)
     * @param latency   access latency in cycles
     */
    RegCache(int num_banks, int latency);

    /**
     * Access @p bank no earlier than @p now; the bank is occupied
     * for one cycle (pipelined). @return data-ready cycle.
     */
    Cycle
    access(int bank, Cycle now)
    {
        ltrf_assert(bank >= 0 && bank < numBanks(), "bad cache bank %d",
                    bank);
        Cycle &busy = banks[static_cast<std::size_t>(bank)];
        Cycle start = std::max(now, busy);
        busy = start + 1;   // pipelined: one-cycle bank occupancy
        return start + static_cast<Cycle>(access_latency);
    }

    int numBanks() const { return static_cast<int>(banks.size()); }

  private:
    std::vector<Cycle> banks;   ///< next-free cycle per bank
    int access_latency;
};

} // namespace ltrf

#endif // LTRF_CORE_REG_CACHE_HH
