#include "core/main_regfile.hh"

#include "common/log.hh"

namespace ltrf
{

MainRegFile::MainRegFile(int num_banks, int latency)
    : banks(static_cast<size_t>(num_banks), 0), access_latency(latency),
      stat_group("mrf")
{
    ltrf_assert(num_banks >= 1, "need at least one MRF bank");
    ltrf_assert(latency >= 1, "MRF latency must be >= 1 cycle");
    stat_group.add("accesses", &stat_accesses);
    stat_group.add("conflict_cycles", &stat_conflicts);
}

} // namespace ltrf
