#include "sim/gpu.hh"

#include <algorithm>

#include "common/log.hh"
#include "compiler/verify.hh"

namespace ltrf
{

int
Gpu::residentWarps(const SimConfig &cfg, const Kernel &kernel)
{
    ltrf_assert(kernel.reg_demand >= 1, "kernel without register demand");
    int by_capacity = cfg.numMrfRegs() / kernel.reg_demand;
    // Thread blocks are allocated whole: round down to CTA
    // granularity (4 warps) as real occupancy calculations do.
    if (by_capacity >= 4)
        by_capacity -= by_capacity % 4;
    return std::clamp(by_capacity, 1, cfg.max_warps_per_sm);
}

Gpu::Gpu(const SimConfig &cfg, const Kernel &kernel, std::uint64_t seed)
    : config(cfg), workload_name(kernel.name)
{
    config.validate();
    // Only the resident warps' traces: the rest would never run.
    int resident = residentWarps(config, kernel);
    compiled = compileWorkload(kernel, config, seed,
                               DEFAULT_MAX_TRACE_INSTRS, resident);
    if (config.verify_kernels) {
        VerifyResult vr = verifyAnalysis(compiled.analysis,
                                         config.regs_per_interval);
        if (!vr.clean()) {
            ltrf_fatal("kernel '%s' failed static verification "
                       "(%zu diagnostics):\n%s",
                       workload_name.c_str(), vr.diags.size(),
                       vr.report().c_str());
        }
    }
    mem = std::make_unique<MemSystem>(config);
    for (int s = 0; s < config.num_sms; s++) {
        sms.push_back(std::make_unique<Sm>(s, config, compiled, *mem,
                                           resident));
    }
}

SimResult
Gpu::run(Cycle max_cycles)
{
    // Per-SM event scheduling: an SM is stepped only at cycles where
    // it can make progress; the global clock advances to the minimum
    // pending event so idle stretches (everything waiting on memory)
    // are skipped. With cfg.skip_ahead off, every live SM is stepped
    // every cycle instead — the slow reference mode the fast-forward
    // determinism test compares against. Each step returns the SM's
    // next event, so no second pass over the pool is needed.
    ltrf_assert(max_cycles <= MAX_SCOREBOARD_CYCLE,
                "max_cycles %llu exceeds the 32-bit scoreboard",
                static_cast<unsigned long long>(max_cycles));
    const bool skip = config.skip_ahead;
    Cycle cycle = 0;
    // wake[i] == NEVER exactly when SM i is done: step() returns
    // NEVER then and only then.
    std::vector<Cycle> wake(sms.size(), 0);
    while (cycle < max_cycles) {
        Cycle next = NEVER;
        for (size_t i = 0; i < sms.size(); i++) {
            if (skip ? wake[i] <= cycle : wake[i] != NEVER)
                wake[i] = sms[i]->step(cycle);
            next = std::min(next, wake[i]);
        }
        if (next == NEVER) {
            cycle++;    // the run ends one past its last step
            break;
        }
        cycle = skip ? std::max(next, cycle + 1) : cycle + 1;
    }
    ltrf_assert(cycle < max_cycles,
                "simulation of '%s' exceeded %llu cycles",
                workload_name.c_str(),
                static_cast<unsigned long long>(max_cycles));

    SimResult r;
    r.workload = workload_name;
    r.design = config.design;
    r.cycles = cycle;
    r.resident_warps = Gpu::residentWarps(
            config, compiled.kernel());

    std::uint64_t hits = 0, reads = 0;
    for (auto &sm : sms) {
        r.instructions += sm->instructionsIssued();
        const RfStats &s = sm->rf().rfStats();
        r.main_accesses += s.main_accesses.value();
        r.cache_accesses += s.cache_accesses.value();
        r.wcb_accesses += s.wcb_accesses.value();
        r.xfer_regs += s.xfer_regs.value();
        r.prefetch_ops += s.prefetch_ops.value();
        r.writeback_regs += s.writeback_regs.value();
        r.prefetch_stall_cycles += s.prefetch_stall_cycles.value();
        hits += s.cache_hits.value();
        reads += s.cache_hits.value() + s.cache_misses.value();
    }
    r.ipc = r.cycles == 0 ? 0.0
                          : static_cast<double>(r.instructions) /
                                    static_cast<double>(r.cycles);
    r.cache_hit_rate = reads == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                            static_cast<double>(reads);
    r.l1d_hit_rate = mem->l1dHitRate();

    if (config.collect_stall_stats) {
        r.stall_collected = true;
        for (auto &sm : sms) {
            r.sm_stall.push_back(sm->finalizeStallStats(r.cycles));
            r.stall_total += r.sm_stall.back();
        }
        for (auto &sm : sms)
            sm->flattenStats(r.stats_lines);
    }

    // Per-SM activity rates: totals divided by SM count and cycles.
    double denom = static_cast<double>(config.num_sms) *
                   static_cast<double>(r.cycles ? r.cycles : 1);
    r.activity.main_accesses_per_cycle =
            static_cast<double>(r.main_accesses) / denom;
    r.activity.cache_accesses_per_cycle =
            static_cast<double>(r.cache_accesses) / denom;
    r.activity.wcb_accesses_per_cycle =
            static_cast<double>(r.wcb_accesses) / denom;
    r.activity.xfer_regs_per_cycle =
            static_cast<double>(r.xfer_regs) / denom;
    return r;
}

SimResult
simulate(const SimConfig &cfg, const Kernel &kernel, std::uint64_t seed)
{
    Gpu gpu(cfg, kernel, seed);
    return gpu.run();
}

} // namespace ltrf
