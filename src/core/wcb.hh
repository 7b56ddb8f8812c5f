/**
 * @file
 * Warp Control Block (paper Figure 7).
 *
 * Per-warp metadata controlling register prefetching and locating
 * architectural registers inside the register file cache: a 256-entry
 * register-cache address table (bank number per architectural
 * register, with a valid bit), the warp-offset address, the
 * working-set bit-vector, and — for LTRF+ — the liveness bit-vector.
 */

#ifndef LTRF_CORE_WCB_HH
#define LTRF_CORE_WCB_HH

#include <array>

#include "common/bitvec.hh"
#include "common/types.hh"

namespace ltrf
{

/** One warp's control block. */
class Wcb
{
  public:
    Wcb() { reset(); }

    /** Map register @p r to cache bank @p bank and mark it resident. */
    void
    setEntry(RegId r, int bank)
    {
        bank_of[r] = static_cast<std::int8_t>(bank);
        resident_set.set(r);
    }

    /** Drop register @p r's mapping. @return the bank it occupied. */
    int
    clearEntry(RegId r)
    {
        ltrf_assert(resident_set.test(r), "clearing non-resident r%d", r);
        resident_set.clear(r);
        return bank_of[r];
    }

    /** @return the cache bank holding register @p r. */
    int
    bank(RegId r) const
    {
        ltrf_assert(resident_set.test(r), "lookup of non-resident r%d", r);
        return bank_of[r];
    }

    bool resident(RegId r) const { return resident_set.test(r); }
    const RegBitVec &residentSet() const { return resident_set; }

    // ----- Working-set bit-vector (valid bits) -----

    void setWorkingSet(const RegBitVec &ws) { working_set = ws; }
    const RegBitVec &workingSet() const { return working_set; }

    // ----- Liveness bit-vector (LTRF+) -----

    void markLive(RegId r) { liveness.set(r); }
    void markDead(RegId r) { liveness.clear(r); }
    bool live(RegId r) const { return liveness.test(r); }
    const RegBitVec &livenessSet() const { return liveness; }

    // ----- Warp-offset address -----

    void setWarpOffset(int off) { warp_offset = off; }
    int warpOffset() const { return warp_offset; }

    /** Clear all state (warp start: everything dead, nothing cached). */
    void
    reset()
    {
        bank_of.fill(-1);
        resident_set.reset();
        working_set.reset();
        liveness.reset();
        warp_offset = -1;
    }

    /**
     * Storage cost in bits for one warp (paper section 4.3):
     * 256 x 5-bit table entries (4-bit bank + valid), 3-bit warp
     * offset, 256-bit working-set and liveness vectors. For 64 warps
     * this totals 114880 bits per SM.
     */
    static constexpr int
    bitsPerWarp()
    {
        return MAX_ARCH_REGS * 5 + 3 + MAX_ARCH_REGS + MAX_ARCH_REGS;
    }

  private:
    // Operand reads test resident_set and then read bank_of[r]; with
    // the valid bits first, a low register's bit and bank share a
    // cache line.
    RegBitVec resident_set;
    std::array<std::int8_t, MAX_ARCH_REGS> bank_of;
    RegBitVec working_set;
    RegBitVec liveness;
    int warp_offset = -1;
};

} // namespace ltrf

#endif // LTRF_CORE_WCB_HH
