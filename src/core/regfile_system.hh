/**
 * @file
 * Register file system designs (paper section 5, "Comparison
 * Points"): the RegFileSystem the SM pipeline drives, a factory, and
 * the per-design activity statistics the power model consumes.
 *
 * The designs are plain classes with no virtual members.
 * RegFileSystem holds the configured one in a std::variant and
 * dispatches with a switch on the alternative, so every call is
 * direct and the hot ones (operand reads, result writes, the
 * PREFETCH check) are defined here to inline into the issue loop.
 * The designs count all register file activity in RfStats; the bank
 * models they drive (MainRegFile, RegCache) keep timing state only,
 * plus the MRF's bank-conflict cycles.
 *
 * Designs:
 *  - BL: conventional non-cached register file; every operand read
 *    and result write accesses the banked main register file.
 *  - Ideal: BL with the baseline access latency regardless of the
 *    configured latency multiplier (any capacity, no latency cost).
 *  - RFC: hardware register file cache in the spirit of Gebhart et
 *    al. [19]: demand-filled, shared among resident warps, so warps
 *    displace each other's registers (the thrashing the paper
 *    diagnoses in section 2.3).
 *  - SHRF: software-managed hierarchy [20]: the compiler allocates
 *    strand-local temporaries to the cache; long-lived registers
 *    keep reading the main register file.
 *  - LTRF / LTRF(strand): software PREFETCH of the region working
 *    set at region entry; all in-region accesses hit the cache.
 *  - LTRF+: LTRF plus the liveness bit-vector: dead registers are
 *    neither written back nor refetched.
 */

#ifndef LTRF_CORE_REGFILE_SYSTEM_HH
#define LTRF_CORE_REGFILE_SYSTEM_HH

#include <algorithm>
#include <memory>
#include <variant>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "core/alloc_unit.hh"
#include "core/compile.hh"
#include "core/main_regfile.hh"
#include "core/reg_cache.hh"
#include "core/wcb.hh"
#include "tech/energy_model.hh"

namespace ltrf
{

/** Event counters shared by all designs; inputs to rfPower(). */
struct RfStats
{
    Counter main_accesses;      ///< MRF bank accesses (all causes)
    Counter cache_accesses;     ///< register cache bank accesses
    Counter cache_hits;         ///< RFC/SHRF: reads served by cache
    Counter cache_misses;       ///< RFC/SHRF: reads that went to MRF
    Counter wcb_accesses;       ///< WCB lookups
    Counter xfer_regs;          ///< regs moved MRF<->cache
    Counter prefetch_ops;       ///< triggered PREFETCH operations
    Counter writeback_regs;     ///< regs written back to the MRF
    Counter prefetch_stall_cycles; ///< warp-cycles blocked on prefetch

    /** Register cache read hit rate (Figure 4). */
    double
    hitRate() const
    {
        std::uint64_t t = cache_hits.value() + cache_misses.value();
        return t == 0 ? 0.0
                      : static_cast<double>(cache_hits.value()) /
                                static_cast<double>(t);
    }

    /** Activity rates for the power model, given elapsed cycles. */
    RfActivity
    activity(Cycle cycles) const
    {
        RfActivity a;
        double c = static_cast<double>(cycles ? cycles : 1);
        a.main_accesses_per_cycle =
                static_cast<double>(main_accesses.value()) / c;
        a.cache_accesses_per_cycle =
                static_cast<double>(cache_accesses.value()) / c;
        a.wcb_accesses_per_cycle =
                static_cast<double>(wcb_accesses.value()) / c;
        a.xfer_regs_per_cycle =
                static_cast<double>(xfer_regs.value()) / c;
        return a;
    }
};

/**
 * What every design shares: the configuration, the activity
 * counters, the banked main register file, and the default (no-op)
 * scheduler hooks. A design that models a hook declares a member of
 * the same name, which hides the default: RegFileSystem calls the
 * hooks on the concrete design type, so no call is virtual.
 */
class RfDesignBase
{
  public:
    RfDesignBase(const SimConfig &cfg, const CompiledWorkload &cw,
                 int mrf_latency)
        : config(cfg), compiled(cw), mrf(cfg.num_mrf_banks, mrf_latency)
    {}

    Cycle
    prefetch(WarpId, BlockId, const Instruction &, Cycle now)
    {
        return now;
    }

    Cycle activate(WarpId, Cycle now) { return now; }
    void deactivate(WarpId, Cycle) {}

    const RfStats &rfStats() const { return stats; }
    std::uint64_t bankConflictCycles() const { return mrf.conflictCycles(); }

    /** Register the activity counters into @p g (obs layer). */
    void registerStats(StatGroup &g);

  protected:
    const SimConfig &config;
    const CompiledWorkload &compiled;
    RfStats stats;
    MainRegFile mrf;
};

/**
 * BL and Ideal: every operand access goes to the banked main
 * register file; Ideal simply keeps the baseline access latency.
 */
class BaselineRf : public RfDesignBase
{
  public:
    BaselineRf(const SimConfig &cfg, const CompiledWorkload &cw,
               bool ideal)
        : RfDesignBase(cfg, cw,
                       ideal ? cfg.base_mrf_latency : cfg.mrfLatency())
    {}

    Cycle
    readOperands(WarpId w, const Instruction &in, Cycle now)
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
    writeResult(WarpId, const Instruction &in, Cycle, bool)
    {
        if (in.hasDst())
            stats.main_accesses++;
    }
};

/**
 * RFC: a demand-filled register cache shared by all resident warps,
 * approximating the hardware register file cache of [19]. Entries
 * are keyed by (warp, register) and placed by a multiplicative hash,
 * so concurrent warps displace each other's registers — reproducing
 * the thrashing behind the paper's low measured hit rates (Figure 4).
 */
class RfcRf : public RfDesignBase
{
  public:
    RfcRf(const SimConfig &cfg, const CompiledWorkload &cw);

    Cycle
    readOperands(WarpId w, const Instruction &in, Cycle now)
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
    writeResult(WarpId w, const Instruction &in, Cycle, bool warp_active)
    {
        if (!in.hasDst())
            return;
        if (!warp_active) {
            // Late load return: the warp's cached state may be gone;
            // results land in the main register file.
            stats.main_accesses++;
            return;
        }
        install(slotFor(w, in.dst), w, in.dst, /*dirty=*/true);
        stats.cache_accesses++;
    }

    /** Flush the swapped-out warp's entries (see regfile_system.cc). */
    void deactivate(WarpId w, Cycle now);

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

    void
    install(Slot &slot, WarpId w, RegId r, bool dirty)
    {
        if (slot.valid && slot.key != keyOf(w, r) && slot.dirty) {
            // Evicted dirty victim: written back to the MRF
            // (background traffic on the write ports).
            stats.main_accesses++;
            stats.writeback_regs++;
        }
        bool same = slot.valid && slot.key == keyOf(w, r);
        slot.key = keyOf(w, r);
        slot.valid = true;
        slot.dirty = dirty || (same && slot.dirty);
    }

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
class PrefetchRf : public RfDesignBase
{
  public:
    PrefetchRf(const SimConfig &cfg, const CompiledWorkload &cw,
               int resident_warps);

    Cycle
    readOperands(WarpId w, const Instruction &in, Cycle now)
    {
        WarpRf &wrf = warps[static_cast<std::size_t>(w)];
        Cycle ready = now;
        const Cycle lookup_done = now + config.wcb_latency;
        // Counted in locals and added once: the bank models' stores
        // would otherwise force a counter reload per operand.
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        for (int i = 0; i < 3; i++) {
            RegId s = in.srcs[i];
            if (s == INVALID_REG)
                continue;
            lookups++;
            const int bank = wrf.wcb.lookup(s);
            if (bank >= 0) {
                hits++;
                ready = std::max(ready, cache.access(bank, lookup_done));
            } else {
                ready = std::max(ready, readMain(w, s, lookup_done));
            }
            if (plus && in.src_dead[i])
                wrf.wcb.markDead(s);
        }
        stats.wcb_accesses += lookups;
        stats.cache_accesses += hits;
        if (shrf)
            stats.cache_hits += hits;
        return ready + config.operand_xbar_latency;
    }

    void
    writeResult(WarpId w, const Instruction &in, Cycle, bool warp_active)
    {
        if (!in.hasDst())
            return;
        WarpRf &wrf = warps[static_cast<std::size_t>(w)];
        if (plus)
            wrf.wcb.markLive(in.dst);
        // An inactive warp (late load return) or, under SHRF, a
        // register the compiler left in the main register file
        // writes the MRF.
        if (warp_active && wrf.wcb.resident(in.dst))
            stats.cache_accesses++;
        else
            stats.main_accesses++;
    }

    Cycle
    prefetch(WarpId w, BlockId bb, const Instruction &in, Cycle now)
    {
        WarpRf &wrf = warps[static_cast<std::size_t>(w)];
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
        return enterInterval(wrf, w, itv, in, now);
    }

    Cycle activate(WarpId w, Cycle now);
    void deactivate(WarpId w, Cycle now);

  private:
    struct WarpRf
    {
        explicit WarpRf(int banks) : bank_alloc(banks) {}

        Wcb wcb;
        AllocUnit bank_alloc;
        IntervalId cur_interval = UNKNOWN_INTERVAL;
        int warp_offset = -1;
    };

    /**
     * Read non-resident register @p s from the MRF. Only SHRF does
     * this; for the LTRF designs the working-set guarantee makes it
     * a simulator bug.
     */
    Cycle readMain(WarpId w, RegId s, Cycle when);

    /** A triggered PREFETCH: swap in interval @p itv's working set. */
    Cycle enterInterval(WarpRf &wrf, WarpId w, IntervalId itv,
                        const Instruction &in, Cycle now);

    Cycle swapTo(WarpRf &wrf, WarpId w, const RegBitVec &target,
                 Cycle now, bool writeback_all);

    /** Count @p n registers written back to the MRF. */
    void
    countWritebacks(std::uint64_t n)
    {
        stats.main_accesses += n;
        stats.writeback_regs += n;
        stats.xfer_regs += n;
    }

    const bool plus;   ///< LTRF+: liveness filters every transfer
    const bool shrf;   ///< SHRF: cached registers are temporaries
    RegCache cache;
    AllocUnit warp_offsets;
    std::vector<WarpRf> warps;
};

/**
 * The register file system of one SM, the object the pipeline
 * drives. It holds the design @p cfg.design selects as one
 * alternative of a std::variant and dispatches every call with a
 * switch on the alternative, so the design's hot members (operand
 * reads, result writes, the PREFETCH check) inline into the caller.
 */
class RegFileSystem
{
    using Design = std::variant<BaselineRf, RfcRf, PrefetchRf>;

    /** Build the alternative @p cfg.design selects, in place. */
    static Design makeDesign(const SimConfig &cfg,
                             const CompiledWorkload &cw,
                             int resident_warps);

    /** Call @p fn on @p v's active alternative. */
    template <typename V, typename Fn>
    static decltype(auto)
    visit(V &v, Fn &&fn)
    {
        switch (v.index()) {
          case 0:
            return fn(*std::get_if<0>(&v));
          case 1:
            return fn(*std::get_if<1>(&v));
          default:
            return fn(*std::get_if<2>(&v));
        }
    }

  public:
    /** @param resident_warps warps the occupancy model admits per SM. */
    RegFileSystem(const SimConfig &cfg, const CompiledWorkload &cw,
                  int resident_warps);

    RegFileSystem(const RegFileSystem &) = delete;
    RegFileSystem &operator=(const RegFileSystem &) = delete;

    /**
     * Collect all source operands of @p in for warp @p w starting at
     * @p now. Models WCB lookups, cache/MRF bank contention, and the
     * operand crossbar. @return the cycle all operands are ready.
     */
    Cycle
    readOperands(WarpId w, const Instruction &in, Cycle now)
    {
        return visit(impl, [&](auto &d) {
            return d.readOperands(w, in, now);
        });
    }

    /**
     * Write @p in's destination register at cycle @p when.
     * @p warp_active is false when a load completes after its warp
     * was deactivated; the result then goes to the main register
     * file, where the inactive warp's live state resides.
     */
    void
    writeResult(WarpId w, const Instruction &in, Cycle when,
                bool warp_active)
    {
        visit(impl, [&](auto &d) {
            d.writeResult(w, in, when, warp_active);
        });
    }

    /**
     * Execute a PREFETCH operation in block @p bb. No-op (returns
     * @p now) when the warp is already in the target region with all
     * valid bits set. @return the cycle the warp may resume.
     */
    Cycle
    prefetch(WarpId w, BlockId bb, const Instruction &in, Cycle now)
    {
        return visit(impl, [&](auto &d) {
            return d.prefetch(w, bb, in, now);
        });
    }

    /**
     * The two-level scheduler activated warp @p w. @return the cycle
     * the warp may start issuing (after any register refetch).
     */
    Cycle
    activate(WarpId w, Cycle now)
    {
        return visit(impl, [&](auto &d) { return d.activate(w, now); });
    }

    /** The two-level scheduler deactivated warp @p w. */
    void
    deactivate(WarpId w, Cycle now)
    {
        visit(impl, [&](auto &d) { d.deactivate(w, now); });
    }

    const RfStats &
    rfStats() const
    {
        return visit(impl, [](const RfDesignBase &d) -> const RfStats & {
            return d.rfStats();
        });
    }

    /**
     * Total cycles operand reads spent waiting on busy MRF banks, for
     * the stall-attribution breakdown. An auxiliary latency metric:
     * conflicts lengthen collections (occupying collectors longer),
     * they do not themselves consume issue slots.
     */
    std::uint64_t
    bankConflictCycles() const
    {
        return visit(impl, [](const RfDesignBase &d) {
            return d.bankConflictCycles();
        });
    }

    /** Register the shared activity counters into @p g (obs layer). */
    void
    registerStats(StatGroup &g)
    {
        visit(impl, [&](RfDesignBase &d) { d.registerStats(g); });
    }

  private:
    Design impl;
};

/**
 * Build the register file system selected by @p cfg.design.
 * @param resident_warps warps the occupancy model admits per SM.
 */
std::unique_ptr<RegFileSystem>
makeRegFileSystem(const SimConfig &cfg, const CompiledWorkload &cw,
                  int resident_warps);

} // namespace ltrf

#endif // LTRF_CORE_REGFILE_SYSTEM_HH
