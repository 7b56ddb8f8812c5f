#include "core/alloc_unit.hh"

#include "common/log.hh"

namespace ltrf
{

AllocUnit::AllocUnit(int n)
    : ring(static_cast<size_t>(n > 0 ? n : 0)),
      allocated(static_cast<size_t>(n > 0 ? n : 0), 0)
{
    ltrf_assert(n >= 1, "allocation unit needs at least one entry");
    reset();
}

int
AllocUnit::allocate()
{
    ltrf_assert(num_free > 0, "allocation unit exhausted");
    int id = ring[static_cast<size_t>(head)];
    if (++head == capacity())
        head = 0;
    num_free--;
    allocated[static_cast<size_t>(id)] = 1;
    return id;
}

void
AllocUnit::release(int id)
{
    ltrf_assert(id >= 0 && id < capacity(), "release of bad id %d", id);
    ltrf_assert(allocated[static_cast<size_t>(id)],
                "double release of id %d", id);
    allocated[static_cast<size_t>(id)] = 0;
    int tail = head + num_free;
    if (tail >= capacity())
        tail -= capacity();
    ring[static_cast<size_t>(tail)] = id;
    num_free++;
}

bool
AllocUnit::isAllocated(int id) const
{
    ltrf_assert(id >= 0 && id < capacity(), "query of bad id %d", id);
    return allocated[static_cast<size_t>(id)];
}

void
AllocUnit::reset()
{
    for (size_t i = 0; i < ring.size(); i++) {
        ring[i] = static_cast<int>(i);
        allocated[i] = 0;
    }
    head = 0;
    num_free = capacity();
}

} // namespace ltrf
