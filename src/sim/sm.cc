#include "sim/sm.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "common/log.hh"
#include "common/rng.hh"
#include "obs/trace_sink.hh"

namespace ltrf
{

namespace
{

/**
 * Regions are placed at hashed base addresses so that concurrent
 * warps' streams spread uniformly over cache sets and DRAM banks
 * (consecutive or arithmetically related bases alias into the same
 * index bits and fake conflict misses). The odd multiplier keeps
 * bases misaligned with power-of-two set counts while leaving
 * REGION_SPAN lines of room for the stream itself.
 */
constexpr std::uint64_t REGION_SPAN = 32771;

std::uint64_t
regionBase(std::uint64_t region)
{
    return (mixSeeds(region, 0x517e0ull) % (1ull << 40)) * REGION_SPAN;
}

std::vector<Warp>
makeWarps(const CompiledWorkload &cw, int resident_warps,
          WarpStateArena &arena)
{
    std::vector<Warp> out;
    out.reserve(static_cast<size_t>(resident_warps));
    for (int w = 0; w < resident_warps; w++)
        out.emplace_back(w, cw.traces[w], cw.kernel(), arena);
    return out;
}

} // namespace

Sm::Sm(int sm_id, const SimConfig &cfg, const CompiledWorkload &cw,
       MemSystem &mem_, int resident_warps)
    : id(sm_id), config(cfg), compiled(cw), mem(mem_),
      regfile(cfg, cw, resident_warps),
      arena(resident_warps, cw.kernel().num_regs,
            static_cast<int>(cw.kernel().mem_streams.size())),
      warps(makeWarps(cw, resident_warps, arena)),
      sched(cfg.num_active_warps, warps),
      collectors(static_cast<size_t>(cfg.num_operand_collectors), 0),
      collect(cfg.collect_stall_stats), trace(cfg.trace),
      trace_pid(cfg.trace_pid_base + sm_id),
      stat_root("sm" + std::to_string(sm_id)), stall_group("stall"),
      rf_group("rf"), sched_group("sched")
{
    ltrf_assert(resident_warps >= 1 &&
                resident_warps <= cfg.max_warps_per_sm,
                "resident warp count %d out of range", resident_warps);
    ltrf_assert(static_cast<size_t>(resident_warps) <= cw.traces.size(),
                "not enough traces for %d resident warps",
                resident_warps);

    // Stat-tree registration (once per SM; dumping is opt-in).
    for (int c = 0; c < obs::NUM_STALL_CAUSES; c++)
        stall_group.add(obs::stallCauseName(
                                static_cast<obs::StallCause>(c)),
                        &stall_counters[c]);
    stat_root.add("issue_slots", &stat_issue_slots);
    stat_root.add("instructions", &stat_instructions);
    stat_root.add("prefetch_slots", &stat_prefetch_slots);
    stat_root.addDist("issue_per_cycle", &issue_per_cycle);
    stat_root.addDist("collector_wait", &collector_wait);
    stat_root.addDist("mem_stall", &mem_stall);
    stat_root.addChild(&stall_group);
    regfile.registerStats(rf_group);
    rf_group.add("bank_conflict_cycles", &stat_bank_conflicts);
    stat_root.addChild(&rf_group);
    sched.registerStats(sched_group);
    stat_root.addChild(&sched_group);

    if (trace)
        trace->processName(
                trace_pid,
                cw.kernel().name + "/" +
                        std::string(rfDesignName(cfg.design)) + " sm" +
                        std::to_string(sm_id));
}

int
Sm::freeCollector(Cycle now)
{
    // coll_min is a lower bound on every busy-until, exact whenever
    // it is above the current cycle: only a failed search raises it,
    // and no issue (the only writer of collectors) can happen before
    // the SM's time reaches it. So while it is ahead, every
    // collector is still busy and the answer is O(1). Once time
    // reaches it, the collector that failed search found earliest is
    // free, and it is handed out without a search.
    if (coll_min > now)
        return -1;
    if (coll_argmin >= 0)
        return std::exchange(coll_argmin, -1);
    Cycle earliest = NEVER;
    int arg = -1;
    for (std::size_t i = 0; i < collectors.size(); i++) {
        const Cycle c = collectors[i];
        if (c <= now)
            return static_cast<int>(i);
        // Any free collector is as good as another (a free busy-until
        // never matters again: the SM's time only moves forward).
        arg = c < earliest ? static_cast<int>(i) : arg;
        earliest = std::min(earliest, c);
    }
    coll_min = earliest;
    coll_argmin = arg;
    return -1;
}

std::uint64_t
Sm::lineFor(Warp &w, const Instruction &in)
{
    const MemStreamSpec &spec =
            compiled.kernel().mem_streams[in.mem_stream];
    std::uint64_t pos = w.stream_pos[in.mem_stream]++;
    std::uint64_t within =
            (pos % static_cast<std::uint64_t>(spec.working_set_lines)) *
            static_cast<std::uint64_t>(spec.stride_lines);
    // Shared streams use one region for all warps and SMs
    // (inter-warp reuse); private streams get disjoint regions.
    ltrf_assert(static_cast<std::uint64_t>(spec.working_set_lines) *
                static_cast<std::uint64_t>(spec.stride_lines) <=
                REGION_SPAN,
                "memory stream exceeds its region span");
    std::uint64_t region =
            static_cast<std::uint64_t>(in.mem_stream) * 4096 +
            (spec.shared_across_warps
                     ? 0
                     : 1 + static_cast<std::uint64_t>(id) * 64 +
                               static_cast<std::uint64_t>(w.id));
    return regionBase(region) + within;
}

void
Sm::observeCollectorStall(const Warp &w, Cycle now)
{
    if (collect)
        collector_wait.sample(coll_min - now);
    if (trace)
        trace->complete("stall:collector", trace_pid, w.id, now,
                        coll_min - now);
}

bool
Sm::tryIssue(Warp &w, Cycle now)
{
    // A parked warp already passed everything below up to the
    // collector check for this dynamic instruction (see warp.hh).
    if (!w.parked) {
        pipe.full_decodes++;
        // Skip no-op PREFETCHes for free; a triggered PREFETCH blocks
        // the warp until the working set arrives and consumes the
        // slot.
        while (!w.atEnd() && w.cur->op == Opcode::PREFETCH) {
            Cycle done = regfile.prefetch(w.id, w.bb, *w.cur, now);
            w.advance();
            if (done > now) {
                w.ready_at = done;
                w.last_stall = obs::StallCause::PREFETCH_WAIT;
                if (trace)
                    trace->complete("prefetch", trace_pid, w.id, now,
                                    done - now);
                return true;
            }
        }
        ltrf_assert(!w.atEnd(), "warp %d ran past its trace", w.id);

        const Instruction &in = *w.cur;
        // Scoreboard: all sources ready, destination write ordered.
        // An absent operand (INVALID_REG) reads the row's sentinel
        // slot, which is always 0 (see WarpStateArena).
        const ScoreboardCycle *sb = w.reg_ready;
        const ScoreboardCycle ops =
                std::max(std::max(sb[in.srcs[0]], sb[in.srcs[1]]),
                         std::max(sb[in.srcs[2]], sb[in.dst]));
        const Cycle dep = std::max<Cycle>(now, ops);
        if (dep > now) {
            w.ready_at = dep;
            w.last_stall = obs::StallCause::SCOREBOARD;
            if (trace)
                trace->complete("stall:scoreboard", trace_pid, w.id,
                                now, dep - now);
            return false;
        }

        if (in.op == Opcode::EXIT) {
            w.advance();
            w.issued++;
            sched.finish(w, regfile, now);
            return true;
        }
    }

    // Structural hazard: need a free operand collector. On a stall,
    // no issue can succeed before the earliest busy-until, so defer
    // the next attempt to that cycle — identical issue behaviour
    // (retries in between would all fail without touching state),
    // but the fast-forward can now skip the stalled stretch instead
    // of polling it.
    int c = freeCollector(now);
    if (c < 0) {
        collectorStall(w, now);
        return false;
    }

    const Instruction &in = *w.cur;
    Cycle ops_ready = regfile.readOperands(w.id, in, now);
    collectors[static_cast<std::size_t>(c)] = ops_ready;
    w.advance();
    w.issued++;
    if (trace)
        trace->complete("issue", trace_pid, w.id, now, ops_ready - now);

    if (isGlobalMem(in.op)) {
        MemAccessResult res = mem.accessGlobal(id, lineFor(w, in),
                                               isStore(in.op), ops_ready);
        if (isLoad(in.op)) {
            w.reg_ready[in.dst] = scoreboardCycle(res.done);
            if (!res.l1_hit) {
                // Long-latency miss: the two-level scheduler swaps
                // the warp out; the result lands in the MRF.
                regfile.writeResult(w.id, in, res.done, false);
                sched.deactivate(w, res.done, regfile, now);
                pipe.deactivations++;
                if (collect)
                    mem_stall.sample(res.done - ops_ready);
                if (trace)
                    trace->complete("memwait", trace_pid, w.id,
                                    ops_ready, res.done - ops_ready);
            } else {
                regfile.writeResult(w.id, in, res.done, true);
                w.ready_at = now + 1;
            }
        } else {
            // Stores retire through write buffers; the warp runs on.
            w.ready_at = now + 1;
        }
    } else {
        Cycle done = ops_ready + execLatency(in.op);
        if (in.hasDst()) {
            w.reg_ready[in.dst] = scoreboardCycle(done);
            regfile.writeResult(w.id, in, done, true);
        }
        w.ready_at = now + 1;
    }
    return true;
}

void
Sm::accountGap(Cycle now)
{
    // Attribute the fast-forwarded cycles since the previous step.
    // The pool has not been re-ticked yet, so it still holds exactly
    // the warps that were asleep across the gap; the slots go to the
    // cause of the warp whose wake time ends the gap (what the SM
    // was actually waiting for), or NO_READY_WARP on an empty pool.
    if (prev_step == NEVER) {
        prev_step = now;
        return;
    }
    Cycle gap = now - prev_step - 1;
    prev_step = now;
    if (gap == 0)
        return;
    obs::StallCause cause = obs::StallCause::NO_READY_WARP;
    Cycle best = NEVER;
    for (WarpId wid : sched.activePool()) {
        const Warp &w = warps[wid];
        Cycle t = w.state == WarpState::ACTIVE ? w.ready_at
                                               : w.wait_until;
        if (t < best) {
            best = t;
            cause = w.state == WarpState::ACTIVE
                            ? w.last_stall
                            : obs::StallCause::PREFETCH_WAIT;
        }
    }
    stall_counters[static_cast<int>(cause)] +=
            gap * static_cast<std::uint64_t>(config.issue_width);
}

Cycle
Sm::step(Cycle now)
{
    pipe.steps++;
    if (collect)
        accountGap(now);

    if (sched.tickDue(now))
        sched.tick(now, regfile);

    // Snapshot the pool: deactivations mutate it mid-loop. The
    // assignment reuses pool_scratch's capacity, so no allocation.
    pool_scratch = sched.activePool();
    const std::vector<WarpId> &pool = pool_scratch;
    if (pool.empty()) {
        if (collect) {
            stall_counters[static_cast<int>(
                    obs::StallCause::NO_READY_WARP)] +=
                    static_cast<std::uint64_t>(config.issue_width);
            issue_per_cycle.sample(0);
        }
        return addSchedulerEvents(now, NEVER);
    }
    const int width = config.issue_width;
    const Cycle soonest = now + 1;
    Cycle next = NEVER;
    int issued = 0;
    int n = static_cast<int>(pool.size());
    int start = sched.rrIndex();    // < n: see advanceRr()
    if (collect)
        fail_scratch.clear();
    // One pass: issue in RR order until the slots run out, and fold
    // every snapshot warp's wake time into the next event. A warp's
    // state changes only through its own issue attempt, so its wake
    // time is final once the pass has visited it; warps the attempt
    // deactivated or finished left the pool and are covered by the
    // scheduler's terms in addSchedulerEvents().
    for (int k = 0; k < n; k++) {
        // start + k < 2n, so a conditional subtract replaces the
        // modulo in this per-cycle loop.
        int idx = start + k;
        if (idx >= n)
            idx -= n;
        Warp &w = warps[pool[idx]];
        if (issued < width) {
            if (w.state != WarpState::ACTIVE || w.ready_at > now) {
                if (collect)
                    fail_scratch.push_back(
                            w.state == WarpState::ACTIVE
                                    ? w.last_stall
                                    : obs::StallCause::PREFETCH_WAIT);
            } else if (w.parked && coll_min > now) {
                // The O(1) re-stall, without the call.
                collectorStall(w, now);
                if (collect)
                    fail_scratch.push_back(w.last_stall);
            } else if (tryIssue(w, now)) {
                issued++;
            } else if (collect) {
                fail_scratch.push_back(w.last_stall);
            }
        }
        // Selects, not branches: the state mix is unpredictable.
        bool active = w.state == WarpState::ACTIVE;
        bool in_pool = active || w.state == WarpState::ACTIVATING;
        Cycle t = std::max(active ? w.ready_at : w.wait_until, soonest);
        next = std::min(next, in_pool ? t : NEVER);
        // Nothing can come sooner than next cycle, and once the
        // slots are used the rest of the pass would only fold.
        if (next == soonest && issued == width)
            break;
    }
    pipe.issued_slots += static_cast<std::uint64_t>(issued);
    if (issued > 0)
        sched.advanceRr();
    if (collect) {
        issue_per_cycle.sample(static_cast<std::uint64_t>(issued));
        // Unused slots round-robin over this cycle's failure causes
        // (NO_READY_WARP when every pool warp issued but the pool is
        // narrower than the issue width).
        int unused = width - issued;
        for (int i = 0; i < unused; i++) {
            obs::StallCause c =
                    fail_scratch.empty()
                            ? obs::StallCause::NO_READY_WARP
                            : fail_scratch[static_cast<std::size_t>(i) %
                                           fail_scratch.size()];
            stall_counters[static_cast<int>(c)]++;
        }
    }
    return addSchedulerEvents(now, next);
}

Cycle
Sm::addSchedulerEvents(Cycle now, Cycle pool_next) const
{
    // Equivalent to scanning every resident warp, but built from the
    // step's pass over the pool and the scheduler's incremental
    // bookkeeping: the active pool holds exactly the ACTIVE/
    // ACTIVATING warps (folded into @p pool_next), nextTransition()
    // bounds every ACTIVATING/INACTIVE_WAIT wait_until from below
    // (the ACTIVATING ones are already covered exactly by the pool),
    // and the ready queue holds exactly the INACTIVE_READY warps.
    if (done())
        return NEVER;
    const Cycle soonest = now + 1;
    Cycle e = pool_next;
    if (sched.waitCount() > 0)
        e = std::min(e, std::max(sched.nextTransition(), soonest));
    if (sched.readyCount() > 0 && sched.poolHasRoom())
        e = soonest;
    return e;
}

std::uint64_t
Sm::instructionsIssued() const
{
    std::uint64_t n = 0;
    for (const Warp &w : warps)
        n += w.issued;
    return n;
}

obs::StallBreakdown
Sm::finalizeStallStats(Cycle total_cycles)
{
    obs::StallBreakdown b;
    b.issue_slots = static_cast<std::uint64_t>(total_cycles) *
                    static_cast<std::uint64_t>(config.issue_width);
    b.instructions = instructionsIssued();
    // tryIssue() returns true (slot consumed) for triggered
    // PREFETCHes without bumping Warp::issued, so the difference is
    // exactly the slots PREFETCH occupied.
    ltrf_assert(pipe.issued_slots >= b.instructions,
                "issued slots below instruction count");
    b.prefetch_slots = pipe.issued_slots - b.instructions;
    for (int c = 0; c < obs::NUM_LIVE_STALL_CAUSES; c++)
        b.stalls[c] = stall_counters[c].value();
    std::uint64_t used = b.accountedSlots();
    // The real over-count check: live attribution must never claim
    // more slots than the run had. The remainder is DRAIN — cycles
    // after this SM finished while others kept the clock running.
    ltrf_assert(used <= b.issue_slots,
                "stall attribution over-counted: %llu of %llu slots",
                static_cast<unsigned long long>(used),
                static_cast<unsigned long long>(b.issue_slots));
    std::uint64_t drain = b.issue_slots - used;
    b.stalls[static_cast<int>(obs::StallCause::DRAIN)] = drain;
    stall_counters[static_cast<int>(obs::StallCause::DRAIN)] += drain;
    b.bank_conflict_cycles = regfile.bankConflictCycles();

    // Backfill the derived counters so the flattened tree is a
    // complete account too.
    stat_issue_slots += b.issue_slots;
    stat_instructions += b.instructions;
    stat_prefetch_slots += b.prefetch_slots;
    stat_bank_conflicts += b.bank_conflict_cycles;
    return b;
}

} // namespace ltrf
