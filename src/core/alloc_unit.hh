/**
 * @file
 * Address Allocation Unit (paper Figure 8).
 *
 * Two hardware queues track free and allocated identifiers: the
 * unused queue supplies the next free register-cache bank (or warp
 * offset) on allocation, and deallocated entries return to it. One
 * instance per warp manages cache-bank slots; a global instance
 * manages warp-offset addresses.
 *
 * The unused queue holds each identifier at most once, so it is a
 * fixed ring of n slots: allocate pops the head, release appends at
 * the tail, and nothing allocates after construction.
 */

#ifndef LTRF_CORE_ALLOC_UNIT_HH
#define LTRF_CORE_ALLOC_UNIT_HH

#include <vector>

#include "common/types.hh"

namespace ltrf
{

/** FIFO allocator over identifiers [0, n). */
class AllocUnit
{
  public:
    explicit AllocUnit(int n);

    /** Pop the head of the unused queue; panics if empty. */
    int allocate();

    /** Return @p id to the unused queue; panics on double free. */
    void release(int id);

    int freeCount() const { return num_free; }
    int capacity() const { return static_cast<int>(ring.size()); }
    bool isAllocated(int id) const;

    /** Release everything (warp teardown). */
    void reset();

  private:
    std::vector<int> ring;        ///< unused queue, from ring[head]
    std::vector<char> allocated;
    int head = 0;
    int num_free = 0;
};

} // namespace ltrf

#endif // LTRF_CORE_ALLOC_UNIT_HH
