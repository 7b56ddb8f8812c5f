#include "core/regfile_system.hh"

namespace ltrf
{

void
RfDesignBase::registerStats(StatGroup &g)
{
    g.add("main_accesses", &stats.main_accesses);
    g.add("cache_accesses", &stats.cache_accesses);
    g.add("cache_hits", &stats.cache_hits);
    g.add("cache_misses", &stats.cache_misses);
    g.add("wcb_accesses", &stats.wcb_accesses);
    g.add("xfer_regs", &stats.xfer_regs);
    g.add("prefetch_ops", &stats.prefetch_ops);
    g.add("writeback_regs", &stats.writeback_regs);
    g.add("prefetch_stall_cycles", &stats.prefetch_stall_cycles);
}

RfcRf::RfcRf(const SimConfig &cfg, const CompiledWorkload &cw)
    : RfDesignBase(cfg, cw, cfg.mrfLatency()),
      cache(cfg.regs_per_interval, cfg.cache_latency),
      slots(static_cast<size_t>(cfg.numCacheRegs()))
{}

void
RfcRf::deactivate(WarpId w, Cycle /*now*/)
{
    // The two-level scheduler of [19] flushes a swapped-out warp's
    // cache entries: dirty ones write back to the MRF, and the slots
    // are freed for the incoming warp. This is the displacement that
    // caps the achievable hit rate (paper section 2.3, reason 1).
    for (Slot &slot : slots) {
        if (!slot.valid ||
            static_cast<WarpId>(slot.key / MAX_ARCH_REGS) != w)
            continue;
        if (slot.dirty) {
            stats.main_accesses++;
            stats.writeback_regs++;
        }
        slot.valid = false;
    }
}

PrefetchRf::PrefetchRf(const SimConfig &cfg, const CompiledWorkload &cw,
                       int resident_warps)
    : RfDesignBase(cfg, cw, cfg.mrfLatency()),
      plus(cw.design == RfDesign::LTRF_PLUS),
      shrf(cw.design == RfDesign::SHRF),
      cache(cfg.regs_per_interval, cfg.cache_latency),
      warp_offsets(cfg.num_active_warps)
{
    ltrf_assert(cfg.regs_per_interval <= MAX_ARCH_REGS,
                "%d cache banks do not fit the WCB's 8-bit bank ids",
                cfg.regs_per_interval);
    warps.reserve(static_cast<size_t>(resident_warps));
    for (int w = 0; w < resident_warps; w++)
        warps.emplace_back(cfg.regs_per_interval);
}

Cycle
PrefetchRf::readMain(WarpId w, RegId s, Cycle when)
{
    ltrf_assert(shrf, "%s: warp %d read non-resident r%d",
                rfDesignName(compiled.design), w, s);
    stats.cache_misses++;
    stats.main_accesses++;
    return mrf.access(w, s, when);
}

Cycle
PrefetchRf::enterInterval(WarpRf &wrf, WarpId w, IntervalId itv,
                          const Instruction &in, Cycle now)
{
    stats.prefetch_ops++;
    const RegBitVec &target =
            shrf ? compiled.shrf_cached[itv] : in.prefetch_mask;
    Cycle done = swapTo(wrf, w, target, now, /*writeback_all=*/!plus);
    wrf.wcb.setWorkingSet(target);
    wrf.cur_interval = itv;
    stats.prefetch_stall_cycles += done - now;
    return done;
}

Cycle
PrefetchRf::activate(WarpId w, Cycle now)
{
    WarpRf &wrf = warps[static_cast<std::size_t>(w)];
    ltrf_assert(wrf.warp_offset < 0, "warp %d already active", w);
    wrf.warp_offset = warp_offsets.allocate();
    wrf.wcb.setWarpOffset(wrf.warp_offset);

    // Refetch the working set recorded at deactivation. SHRF's
    // cache-allocated registers are strand-local temporaries and
    // need allocation only; LTRF refetches everything, LTRF+ only
    // live registers.
    RegBitVec target = wrf.wcb.workingSet();
    return swapTo(wrf, w, target, now, /*writeback_all=*/false);
}

void
PrefetchRf::deactivate(WarpId w, Cycle /*now*/)
{
    WarpRf &wrf = warps[static_cast<std::size_t>(w)];
    ltrf_assert(wrf.warp_offset >= 0, "warp %d not active", w);

    // Write back the register working set (LTRF: all of it; LTRF+:
    // live registers only; SHRF: nothing, temporaries are dead at
    // strand boundaries) and release all cache slots. Write-backs
    // are background write-port traffic: counted for energy but
    // never delaying the foreground read path.
    const RegBitVec resident = wrf.wcb.residentSet();
    if (!shrf)
        countWritebacks(static_cast<std::uint64_t>(
                plus ? (resident & wrf.wcb.livenessSet()).count()
                     : resident.count()));
    int banks[MAX_ARCH_REGS];
    wrf.bank_alloc.release(banks, wrf.wcb.clearEntries(resident, banks));
    warp_offsets.release(wrf.warp_offset);
    wrf.warp_offset = -1;
    wrf.wcb.setWarpOffset(-1);
}

/**
 * Move the warp's cached register set to @p target: write back
 * evicted registers, allocate banks for new ones, and fetch data from
 * the MRF (liveness-filtered for LTRF+, none for SHRF whose cached
 * registers are dead at region entry). Transfers that only count are
 * popcounts; the bank releases and allocations walk registers in
 * ascending order, because the FIFO allocation order decides which
 * cache bank each register lands in. @return completion.
 */
Cycle
PrefetchRf::swapTo(WarpRf &wrf, WarpId w, const RegBitVec &target,
                   Cycle now, bool writeback_all)
{
    const RegBitVec evict = wrf.wcb.residentSet() - target;
    const RegBitVec incoming = target - wrf.wcb.residentSet();
    const RegBitVec &live = wrf.wcb.livenessSet();

    // Evicted registers drain through the MRF write ports in the
    // background; the warp only waits for the fetches.
    if (!shrf)
        countWritebacks(static_cast<std::uint64_t>(
                writeback_all && !plus ? evict.count()
                                       : (evict & live).count()));
    int banks[MAX_ARCH_REGS];
    wrf.bank_alloc.release(banks, wrf.wcb.clearEntries(evict, banks));
    wrf.bank_alloc.allocate(banks, incoming.count());
    wrf.wcb.setEntries(incoming, banks);
    if (shrf)
        return now;   // temporaries: allocate space only

    const RegBitVec fetch = plus ? incoming & live : incoming;
    Cycle done = mrf.accessAll(w, fetch, now);
    const auto fetched = static_cast<std::uint64_t>(fetch.count());
    stats.main_accesses += fetched;
    stats.xfer_regs += fetched;
    if (done != now)
        done += config.prefetch_xbar_latency;
    return done;
}

RegFileSystem::Design
RegFileSystem::makeDesign(const SimConfig &cfg, const CompiledWorkload &cw,
                          int resident_warps)
{
    ltrf_assert(cw.design == cfg.design,
                "workload compiled for %s but config selects %s",
                rfDesignName(cw.design), rfDesignName(cfg.design));
    switch (cfg.design) {
      case RfDesign::BL:
        return Design(std::in_place_type<BaselineRf>, cfg, cw,
                      /*ideal=*/false);
      case RfDesign::IDEAL:
        return Design(std::in_place_type<BaselineRf>, cfg, cw,
                      /*ideal=*/true);
      case RfDesign::RFC:
        return Design(std::in_place_type<RfcRf>, cfg, cw);
      case RfDesign::SHRF:
      case RfDesign::LTRF_STRAND:
      case RfDesign::LTRF:
      case RfDesign::LTRF_PLUS:
        return Design(std::in_place_type<PrefetchRf>, cfg, cw,
                      resident_warps);
    }
    ltrf_panic("unknown register file design");
}

RegFileSystem::RegFileSystem(const SimConfig &cfg,
                             const CompiledWorkload &cw, int resident_warps)
    : impl(makeDesign(cfg, cw, resident_warps))
{}

std::unique_ptr<RegFileSystem>
makeRegFileSystem(const SimConfig &cfg, const CompiledWorkload &cw,
                  int resident_warps)
{
    return std::make_unique<RegFileSystem>(cfg, cw, resident_warps);
}

} // namespace ltrf
