#include "core/main_regfile.hh"

#include "common/log.hh"

namespace ltrf
{

MainRegFile::MainRegFile(int num_banks_, int latency)
    : banks(static_cast<size_t>(num_banks_ > 0 ? num_banks_ : 0), 0),
      num_banks(static_cast<std::uint64_t>(num_banks_ > 0 ? num_banks_ : 1)),
      bank_magic(UINT64_MAX / num_banks + 1), access_latency(latency)
{
    ltrf_assert(num_banks_ >= 1, "need at least one MRF bank");
    ltrf_assert(latency >= 1, "MRF latency must be >= 1 cycle");
}

} // namespace ltrf
