#include "core/reg_cache.hh"

namespace ltrf
{

RegCache::RegCache(int num_banks, int latency)
    : banks(static_cast<size_t>(num_banks > 0 ? num_banks : 0), 0),
      access_latency(latency)
{
    ltrf_assert(num_banks >= 1, "need at least one cache bank");
    ltrf_assert(latency >= 1, "cache latency must be >= 1 cycle");
}

} // namespace ltrf
