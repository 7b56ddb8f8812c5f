#include "core/alloc_unit.hh"

#include <algorithm>

#include "common/log.hh"

namespace ltrf
{

AllocUnit::AllocUnit(int n)
    : ring(static_cast<size_t>(n > 0 ? n : 0)),
      allocated(static_cast<size_t>(n > 0 ? (n + 63) / 64 : 0), 0)
{
    ltrf_assert(n >= 1, "allocation unit needs at least one entry");
    reset();
}

void
AllocUnit::reset()
{
    for (size_t i = 0; i < ring.size(); i++)
        ring[i] = static_cast<int>(i);
    std::fill(allocated.begin(), allocated.end(), 0);
    head = 0;
    num_free = capacity();
}

} // namespace ltrf
