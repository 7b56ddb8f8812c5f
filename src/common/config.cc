#include "common/config.hh"

#include <cmath>

#include "common/log.hh"

namespace ltrf
{

const char *
rfDesignName(RfDesign d)
{
    switch (d) {
      case RfDesign::BL:          return "BL";
      case RfDesign::RFC:         return "RFC";
      case RfDesign::SHRF:        return "SHRF";
      case RfDesign::LTRF_STRAND: return "LTRF(strand)";
      case RfDesign::LTRF:        return "LTRF";
      case RfDesign::LTRF_PLUS:   return "LTRF+";
      case RfDesign::IDEAL:       return "Ideal";
    }
    return "?";
}

void
SimConfig::validate() const
{
    if (num_sms < 1)
        ltrf_fatal("num_sms must be >= 1 (got %d)", num_sms);
    if (num_active_warps < 1 || num_active_warps > max_warps_per_sm)
        ltrf_fatal("num_active_warps %d out of range [1, %d]",
                   num_active_warps, max_warps_per_sm);
    if (numCacheRegs() % num_active_warps != 0)
        ltrf_fatal("register cache (%d regs) not divisible by %d "
                   "active warps", numCacheRegs(), num_active_warps);
    if (regs_per_interval > cacheRegsPerWarp())
        ltrf_fatal("regs_per_interval %d exceeds per-warp cache space %d",
                   regs_per_interval, cacheRegsPerWarp());
    if (regs_per_interval < 1 || regs_per_interval > MAX_ARCH_REGS)
        ltrf_fatal("regs_per_interval %d out of range", regs_per_interval);
    if (num_mrf_banks < 1)
        ltrf_fatal("num_mrf_banks must be >= 1");
    if (!std::isfinite(mrf_latency_mult) || mrf_latency_mult < 1.0)
        ltrf_fatal("mrf_latency_mult %g must be finite and >= 1.0",
                   mrf_latency_mult);
    // Checked on the product, before mrfLatency() rounds it: lround()
    // of an out-of-range double is undefined.
    if (base_mrf_latency * mrf_latency_mult > MAX_MRF_LATENCY)
        ltrf_fatal("main RF latency %g cycles (%d x %g) exceeds the "
                   "%d-cycle cap", base_mrf_latency * mrf_latency_mult,
                   base_mrf_latency, mrf_latency_mult, MAX_MRF_LATENCY);
    if (issue_width < 1 || num_operand_collectors < issue_width)
        ltrf_fatal("need at least issue_width operand collectors");
    if (num_dram_banks < 1)
        ltrf_fatal("num_dram_banks must be >= 1");
    if (dram_service_cycles < 1)
        ltrf_fatal("dram_service_cycles must be >= 1 (got %d)",
                   dram_service_cycles);
}

} // namespace ltrf
