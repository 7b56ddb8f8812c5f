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

    /**
     * Map the registers of @p regs (none resident) to @p banks, the
     * i-th register in ascending order to banks[i].
     */
    void
    setEntries(const RegBitVec &regs, const int *banks)
    {
        ltrf_assert(!resident_set.intersects(regs),
                    "mapping an already resident register");
        regs.forEach([&](RegId r) {
            bank_of[r] = static_cast<std::uint8_t>(*banks++);
        });
        resident_set |= regs;
    }

    /**
     * Drop the mappings of @p regs (all resident), writing the bank
     * of the i-th register in ascending order to @p banks[i].
     * @return the number of registers dropped.
     */
    int
    clearEntries(const RegBitVec &regs, int *banks)
    {
        ltrf_assert(resident_set.contains(regs),
                    "clearing a non-resident register");
        int n = 0;
        regs.forEach([&](RegId r) { banks[n++] = bank_of[r]; });
        resident_set -= regs;
        return n;
    }

    /** @return the bank holding register @p r, or -1 if not resident. */
    int
    lookup(RegId r) const
    {
        return resident_set.test(r) ? int{bank_of[r]} : -1;
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
        bank_of.fill(0);    // meaningless until resident
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
    // Unsigned: a bank id reaches 255 with 256 registers per interval
    // (the most SimConfig::validate admits).
    std::array<std::uint8_t, MAX_ARCH_REGS> bank_of;
    RegBitVec working_set;
    RegBitVec liveness;
    int warp_offset = -1;
};

} // namespace ltrf

#endif // LTRF_CORE_WCB_HH
