#include "core/regfile_system.hh"

#include <algorithm>
#include <vector>

#include "common/log.hh"
#include "core/alloc_unit.hh"
#include "core/main_regfile.hh"
#include "core/reg_cache.hh"
#include "core/wcb.hh"

namespace ltrf
{

namespace
{

/**
 * BL and Ideal: every operand access goes to the banked main
 * register file; Ideal simply keeps the baseline latency.
 */
class BaselineRf final : public RegFileSystem
{
  public:
    BaselineRf(const SimConfig &cfg, const CompiledWorkload &cw,
               bool ideal)
        : RegFileSystem(cfg, cw),
          mrf(cfg.num_mrf_banks,
              ideal ? cfg.base_mrf_latency : cfg.mrfLatency())
    {}

    Cycle
    readOperands(WarpId w, const Instruction &in, Cycle now) override
    {
        Cycle ready = now;
        for (RegId s : in.srcs) {
            if (s == INVALID_REG)
                continue;
            ready = std::max(ready, mrf.access(w, s, now));
            stats.main_accesses++;
        }
        return ready + config.operand_xbar_latency;
    }

    void
    writeResult(WarpId w, const Instruction &in, Cycle when,
                bool warp_active) override
    {
        (void)when;
        (void)warp_active;
        if (!in.hasDst())
            return;
        mrf.recordWrite(w, in.dst);
        stats.main_accesses++;
    }

    std::uint64_t
    bankConflictCycles() const override
    {
        return mrf.conflictCycles();
    }

  private:
    MainRegFile mrf;
};

/**
 * RFC: a demand-filled register cache shared by all resident warps,
 * approximating the hardware register file cache of [19]. Entries
 * are keyed by (warp, register) and placed by a multiplicative hash,
 * so concurrent warps displace each other's registers — reproducing
 * the thrashing behind the paper's low measured hit rates (Figure 4).
 */
class RfcRf final : public RegFileSystem
{
  public:
    RfcRf(const SimConfig &cfg, const CompiledWorkload &cw)
        : RegFileSystem(cfg, cw), mrf(cfg.num_mrf_banks, cfg.mrfLatency()),
          cache(cfg.regs_per_interval, cfg.cache_latency),
          slots(static_cast<size_t>(cfg.numCacheRegs()))
    {}

    Cycle
    readOperands(WarpId w, const Instruction &in, Cycle now) override
    {
        Cycle ready = now;
        for (RegId s : in.srcs) {
            if (s == INVALID_REG)
                continue;
            Slot &slot = slotFor(w, s);
            if (slot.valid && slot.key == keyOf(w, s)) {
                stats.cache_hits++;
                stats.cache_accesses++;
                ready = std::max(ready,
                                 cache.access(bankOf(w, s), now));
            } else {
                stats.cache_misses++;
                Cycle fill = mrf.access(w, s, now);
                stats.main_accesses++;
                install(slot, w, s, /*dirty=*/false);
                stats.cache_accesses++;   // fill write
                ready = std::max(ready, fill);
            }
        }
        return ready + config.operand_xbar_latency;
    }

    void
    writeResult(WarpId w, const Instruction &in, Cycle when,
                bool warp_active) override
    {
        (void)when;
        if (!in.hasDst())
            return;
        if (!warp_active) {
            // Late load return: the warp's cached state may be gone;
            // results land in the main register file.
            mrf.recordWrite(w, in.dst);
            stats.main_accesses++;
            return;
        }
        Slot &slot = slotFor(w, in.dst);
        install(slot, w, in.dst, /*dirty=*/true);
        cache.recordWrite();
        stats.cache_accesses++;
    }

    std::uint64_t
    bankConflictCycles() const override
    {
        return mrf.conflictCycles();
    }

  private:
    struct Slot
    {
        std::uint32_t key = 0;
        bool valid = false;
        bool dirty = false;
    };

    static std::uint32_t
    keyOf(WarpId w, RegId r)
    {
        return static_cast<std::uint32_t>(w) * MAX_ARCH_REGS +
               static_cast<std::uint32_t>(r);
    }

    Slot &
    slotFor(WarpId w, RegId r)
    {
        std::uint32_t h = keyOf(w, r) * 2654435761u;
        return slots[h % slots.size()];
    }

    int
    bankOf(WarpId w, RegId r) const
    {
        return static_cast<int>((w + r) % cache.numBanks());
    }

  public:
    void
    deactivate(WarpId w, Cycle now) override
    {
        (void)now;
        // The two-level scheduler of [19] flushes a swapped-out
        // warp's cache entries: dirty ones write back to the MRF,
        // and the slots are freed for the incoming warp. This is
        // the displacement that caps the achievable hit rate
        // (paper section 2.3, reason 1).
        for (Slot &slot : slots) {
            if (!slot.valid ||
                static_cast<WarpId>(slot.key / MAX_ARCH_REGS) != w)
                continue;
            if (slot.dirty) {
                mrf.recordWrite(w, static_cast<RegId>(slot.key %
                                                      MAX_ARCH_REGS));
                stats.main_accesses++;
                stats.writeback_regs++;
            }
            slot.valid = false;
        }
    }

  private:

    void
    install(Slot &slot, WarpId w, RegId r, bool dirty)
    {
        if (slot.valid && slot.key != keyOf(w, r) && slot.dirty) {
            // Evicted dirty victim: write it back to the MRF
            // (background traffic on the write ports).
            WarpId vw = static_cast<WarpId>(slot.key / MAX_ARCH_REGS);
            RegId vr = static_cast<RegId>(slot.key % MAX_ARCH_REGS);
            mrf.recordWrite(vw, vr);
            stats.main_accesses++;
            stats.writeback_regs++;
        }
        bool same = slot.valid && slot.key == keyOf(w, r);
        slot.key = keyOf(w, r);
        slot.valid = true;
        slot.dirty = dirty || (same && slot.dirty);
    }

    MainRegFile mrf;
    RegCache cache;
    std::vector<Slot> slots;
};

/**
 * The prefetch-based designs: LTRF, LTRF+, LTRF(strand), and SHRF.
 *
 * A Warp Control Block per warp maps architectural registers to
 * cache banks; an Address Allocation Unit per warp hands out bank
 * slots; PREFETCH operations bulk-move region working sets between
 * the main register file and the cache, holding MRF banks busy and
 * paying the narrow-crossbar transfer latency, while other active
 * warps keep executing.
 */
class PrefetchRf final : public RegFileSystem
{
  public:
    PrefetchRf(const SimConfig &cfg, const CompiledWorkload &cw,
               int resident_warps)
        : RegFileSystem(cfg, cw),
          mrf(cfg.num_mrf_banks, cfg.mrfLatency()),
          cache(cfg.regs_per_interval, cfg.cache_latency),
          warp_offsets(cfg.num_active_warps)
    {
        warps.reserve(static_cast<size_t>(resident_warps));
        for (int w = 0; w < resident_warps; w++)
            warps.emplace_back(cfg.regs_per_interval);
    }

    Cycle
    readOperands(WarpId w, const Instruction &in, Cycle now) override
    {
        WarpRf &wrf = warps[w];
        Cycle ready = now;
        const Cycle lookup_done = now + config.wcb_latency;
        for (int i = 0; i < 3; i++) {
            RegId s = in.srcs[i];
            if (s == INVALID_REG)
                continue;
            stats.wcb_accesses++;
            if (!wrf.wcb.resident(s)) {
                // Only SHRF reads non-cache-allocated registers from
                // the main register file; for LTRF the working set
                // guarantee makes this a simulator bug.
                ltrf_assert(compiled.design == RfDesign::SHRF,
                            "%s: warp %d read non-resident r%d",
                            rfDesignName(compiled.design), w, s);
                stats.cache_misses++;
                ready = std::max(ready, mrf.access(w, s, lookup_done));
                stats.main_accesses++;
            } else {
                int bank = wrf.wcb.bank(s);
                if (compiled.design == RfDesign::SHRF)
                    stats.cache_hits++;
                stats.cache_accesses++;
                ready = std::max(ready, cache.access(bank, lookup_done));
            }
            if (isPlus() && in.src_dead[i])
                wrf.wcb.markDead(s);
        }
        return ready + config.operand_xbar_latency;
    }

    void
    writeResult(WarpId w, const Instruction &in, Cycle when,
                bool warp_active) override
    {
        if (!in.hasDst())
            return;
        (void)when;
        WarpRf &wrf = warps[w];
        if (isPlus())
            wrf.wcb.markLive(in.dst);
        if (warp_active && wrf.wcb.resident(in.dst)) {
            cache.recordWrite();
            stats.cache_accesses++;
        } else {
            // Inactive warp (late load return) or, under SHRF, a
            // register the compiler left in the main register file.
            mrf.recordWrite(w, in.dst);
            stats.main_accesses++;
        }
    }

    Cycle
    prefetch(WarpId w, BlockId bb, const Instruction &in,
             Cycle now) override
    {
        WarpRf &wrf = warps[w];
        IntervalId itv = compiled.intervalOf(bb);
        ltrf_assert(itv != UNKNOWN_INTERVAL, "PREFETCH outside interval");

        bool entered = itv != wrf.cur_interval;
        // Strand semantics: re-executing the header's PREFETCH via a
        // back edge re-triggers the operation (strands end at
        // backward branches, section 6.6).
        bool reenter = compiled.strand_semantics && !entered &&
                       compiled.analysis.intervals[itv].header == bb;
        if (!entered && !reenter)
            return now;    // all valid bits already set: free

        stats.prefetch_ops++;
        const RegBitVec &target =
                compiled.design == RfDesign::SHRF
                        ? compiled.shrf_cached[itv]
                        : in.prefetch_mask;

        Cycle done = swapTo(wrf, w, target, now,
                            /*writeback_all=*/!isPlus());
        wrf.wcb.setWorkingSet(target);
        wrf.cur_interval = itv;
        stats.prefetch_stall_cycles += done - now;
        return done;
    }

    Cycle
    activate(WarpId w, Cycle now) override
    {
        WarpRf &wrf = warps[w];
        ltrf_assert(wrf.warp_offset < 0, "warp %d already active", w);
        wrf.warp_offset = warp_offsets.allocate();
        wrf.wcb.setWarpOffset(wrf.warp_offset);

        // Refetch the working set recorded at deactivation. SHRF's
        // cache-allocated registers are strand-local temporaries and
        // need allocation only; LTRF refetches everything, LTRF+
        // only live registers.
        RegBitVec target = wrf.wcb.workingSet();
        return swapTo(wrf, w, target, now, /*writeback_all=*/false);
    }

    void
    deactivate(WarpId w, Cycle /*now*/) override
    {
        WarpRf &wrf = warps[w];
        ltrf_assert(wrf.warp_offset >= 0, "warp %d not active", w);

        // Write back the register working set (LTRF: all of it;
        // LTRF+: live registers only; SHRF: nothing, temporaries are
        // dead at strand boundaries) and release all cache slots.
        RegBitVec wb = wrf.wcb.residentSet();
        if (compiled.design == RfDesign::SHRF)
            wb.reset();
        else if (isPlus())
            wb &= wrf.wcb.livenessSet();
        wb.forEach([&](RegId r) {
            // Background write-port traffic: counted for energy but
            // not allowed to delay the foreground read path.
            mrf.recordWrite(w, r);
            stats.main_accesses++;
            stats.writeback_regs++;
            stats.xfer_regs++;
        });
        RegBitVec resident = wrf.wcb.residentSet();
        resident.forEach([&](RegId r) {
            wrf.bank_alloc.release(wrf.wcb.clearEntry(r));
        });
        warp_offsets.release(wrf.warp_offset);
        wrf.warp_offset = -1;
        wrf.wcb.setWarpOffset(-1);
    }

    std::uint64_t
    bankConflictCycles() const override
    {
        return mrf.conflictCycles();
    }

  private:
    struct WarpRf
    {
        explicit WarpRf(int banks) : bank_alloc(banks) {}

        Wcb wcb;
        AllocUnit bank_alloc;
        IntervalId cur_interval = UNKNOWN_INTERVAL;
        int warp_offset = -1;
    };

    bool isPlus() const { return compiled.design == RfDesign::LTRF_PLUS; }

    /**
     * Move the warp's cached register set to @p target: write back
     * evicted registers, allocate banks for new ones, and fetch data
     * from the MRF (liveness-filtered for LTRF+, none for SHRF whose
     * cached registers are dead at region entry). @return completion.
     */
    Cycle
    swapTo(WarpRf &wrf, WarpId w, const RegBitVec &target, Cycle now,
           bool writeback_all)
    {
        const RegBitVec resident = wrf.wcb.residentSet();
        RegBitVec evict = resident - target;
        RegBitVec incoming = target - resident;

        RegBitVec wb = evict;
        if (compiled.design == RfDesign::SHRF)
            wb.reset();
        else if (!writeback_all || isPlus())
            wb &= wrf.wcb.livenessSet();

        RegBitVec fetch = incoming;
        if (compiled.design == RfDesign::SHRF)
            fetch.reset();   // temporaries: allocate space only
        else if (isPlus())
            fetch &= wrf.wcb.livenessSet();

        Cycle done = now;
        wb.forEach([&](RegId r) {
            // Evicted registers drain through the MRF write ports in
            // the background; the warp only waits for the fetches.
            mrf.recordWrite(w, r);
            stats.main_accesses++;
            stats.writeback_regs++;
            stats.xfer_regs++;
        });
        evict.forEach([&](RegId r) {
            wrf.bank_alloc.release(wrf.wcb.clearEntry(r));
        });
        incoming.forEach([&](RegId r) {
            wrf.wcb.setEntry(r, wrf.bank_alloc.allocate());
        });
        fetch.forEach([&](RegId r) {
            done = std::max(done, mrf.access(w, r, now));
            stats.main_accesses++;
            stats.xfer_regs++;
        });
        if (done != now)
            done += config.prefetch_xbar_latency;
        return done;
    }

    MainRegFile mrf;
    RegCache cache;
    AllocUnit warp_offsets;
    std::vector<WarpRf> warps;
};

} // namespace

std::unique_ptr<RegFileSystem>
makeRegFileSystem(const SimConfig &cfg, const CompiledWorkload &cw,
                  int resident_warps)
{
    ltrf_assert(cw.design == cfg.design,
                "workload compiled for %s but config selects %s",
                rfDesignName(cw.design), rfDesignName(cfg.design));
    switch (cfg.design) {
      case RfDesign::BL:
        return std::make_unique<BaselineRf>(cfg, cw, /*ideal=*/false);
      case RfDesign::IDEAL:
        return std::make_unique<BaselineRf>(cfg, cw, /*ideal=*/true);
      case RfDesign::RFC:
        return std::make_unique<RfcRf>(cfg, cw);
      case RfDesign::SHRF:
      case RfDesign::LTRF_STRAND:
      case RfDesign::LTRF:
      case RfDesign::LTRF_PLUS:
        return std::make_unique<PrefetchRf>(cfg, cw, resident_warps);
    }
    ltrf_panic("unknown register file design");
}

} // namespace ltrf
