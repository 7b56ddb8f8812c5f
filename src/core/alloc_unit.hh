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

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace ltrf
{

/** FIFO allocator over identifiers [0, n). */
class AllocUnit
{
  public:
    explicit AllocUnit(int n);

    /** Pop the head of the unused queue; panics if empty. */
    int
    allocate()
    {
        int id;
        allocate(&id, 1);
        return id;
    }

    /** Pop the next @p n ids into @p out, in queue order. */
    void
    allocate(int *out, int n)
    {
        ltrf_assert(n <= num_free, "allocation unit exhausted");
        for (int i = 0; i < n; i++) {
            const int id = ring[static_cast<std::size_t>(head)];
            if (++head == capacity())
                head = 0;
            setAllocated(id, true);
            out[i] = id;
        }
        num_free -= n;
    }

    /** Return @p id to the unused queue; panics on double free. */
    void release(int id) { release(&id, 1); }

    /** Return @p ids[0, n) to the unused queue, in that order. */
    void
    release(const int *ids, int n)
    {
        int tail = head + num_free;
        for (int i = 0; i < n; i++) {
            const int id = ids[i];
            ltrf_assert(id >= 0 && id < capacity(), "release of bad id %d",
                        id);
            ltrf_assert(isAllocated(id), "double release of id %d", id);
            setAllocated(id, false);
            if (tail >= capacity())
                tail -= capacity();
            ring[static_cast<std::size_t>(tail++)] = id;
        }
        num_free += n;
    }

    int freeCount() const { return num_free; }
    int capacity() const { return static_cast<int>(ring.size()); }

    bool
    isAllocated(int id) const
    {
        ltrf_assert(id >= 0 && id < capacity(), "query of bad id %d", id);
        return (allocated[static_cast<std::size_t>(id) / 64] >> (id % 64)) &
               1;
    }

    /** Release everything (warp teardown). */
    void reset();

  private:
    void
    setAllocated(int id, bool on)
    {
        std::uint64_t &word = allocated[static_cast<std::size_t>(id) / 64];
        const std::uint64_t bit = std::uint64_t{1} << (id % 64);
        word = on ? word | bit : word & ~bit;
    }

    std::vector<int> ring;        ///< unused queue, from ring[head]
    /** Bit per id: allocated. Whole words, not bytes, so updating it
     *  does not force the compiler to reload the queue state. */
    std::vector<std::uint64_t> allocated;
    int head = 0;
    int num_free = 0;
};

} // namespace ltrf

#endif // LTRF_CORE_ALLOC_UNIT_HH
