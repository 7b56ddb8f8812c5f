#include "compiler/trace_gen.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"

namespace ltrf
{

WarpTrace
generateTrace(const Kernel &kernel, std::uint64_t seed,
              std::uint64_t max_instrs)
{
    WarpTrace trace;
    Rng rng(mixSeeds(seed, 0xA11CE));
    std::vector<std::uint32_t> loop_count(kernel.numBlocks(), 0);

    // Per-warp effective trip count for jittered loops.
    auto trip_for = [&](const BasicBlock &bb) {
        int trip = bb.branch.trip_count;
        int j = bb.branch.trip_jitter;
        if (j > 0) {
            auto span = static_cast<std::uint64_t>(2 * j + 1);
            trip += static_cast<int>(
                            mixSeeds(seed, 0x7121Bull + bb.id) % span) - j;
        }
        return std::max(1, trip);
    };

    BlockId cur = kernel.entry();
    while (true) {
        const BasicBlock &bb = kernel.block(cur);
        if (!bb.instrs.empty())
            trace.path.push_back(cur);
        for (std::uint32_t i = 0; i < bb.instrs.size(); i++) {
            trace.refs.push_back({cur, i});
            if (bb.instrs[i].op != Opcode::PREFETCH)
                trace.real_instrs++;
            if (trace.refs.size() >= max_instrs) {
                trace.truncated = true;
                return trace;
            }
        }

        if (bb.succs.empty())
            break;  // EXIT
        if (bb.succs.size() == 1) {
            cur = bb.succs[0];
            continue;
        }

        switch (bb.branch.kind) {
          case BranchProfile::Kind::LOOP: {
              loop_count[cur]++;
              if (static_cast<int>(loop_count[cur]) < trip_for(bb)) {
                  cur = bb.succs[0];  // back edge taken
              } else {
                  loop_count[cur] = 0;
                  cur = bb.succs[1];  // fall out of the loop
              }
              break;
          }
          case BranchProfile::Kind::COND:
            cur = rng.nextBool(bb.branch.taken_prob) ? bb.succs[0]
                                                     : bb.succs[1];
            break;
          case BranchProfile::Kind::NONE:
            ltrf_panic("two-successor block %d with NONE branch profile",
                       cur);
        }
    }
    return trace;
}

void
IntervalLengthStats::merge(const IntervalLengthStats &o)
{
    if (o.segments == 0)
        return;
    if (segments == 0) {
        *this = o;
        return;
    }
    double total = avg * static_cast<double>(segments) +
                   o.avg * static_cast<double>(o.segments);
    segments += o.segments;
    avg = total / static_cast<double>(segments);
    min = std::min(min, o.min);
    max = std::max(max, o.max);
}

namespace
{

struct SegmentAccum
{
    std::uint64_t len = 0;
    IntervalLengthStats stats;

    void
    close()
    {
        if (len == 0)
            return;
        if (stats.segments == 0) {
            stats.min = stats.max = len;
        } else {
            stats.min = std::min(stats.min, len);
            stats.max = std::max(stats.max, len);
        }
        stats.avg = (stats.avg * static_cast<double>(stats.segments) +
                     static_cast<double>(len)) /
                    static_cast<double>(stats.segments + 1);
        stats.segments++;
        len = 0;
    }
};

} // namespace

IntervalLengthStats
realIntervalLengths(const IntervalAnalysis &analysis, const WarpTrace &trace,
                    bool reprefetch_on_backedge)
{
    SegmentAccum acc;
    IntervalId cur_itv = UNKNOWN_INTERVAL;
    bool first = true;

    for (const TraceRef &ref : trace.refs) {
        IntervalId itv = analysis.block_interval[ref.bb];
        // idx == 0 marks a dynamic block entry (including a self-loop
        // re-entering its own header).
        if (ref.idx == 0) {
            bool entered = itv != cur_itv;
            // Strand semantics: re-entering the header of the current
            // region from inside (the only way in is a back edge)
            // re-triggers the prefetch.
            bool backedge_reentry =
                    reprefetch_on_backedge && !first && itv == cur_itv &&
                    ref.bb == analysis.intervals[itv].header;
            if (entered || backedge_reentry) {
                acc.close();
                cur_itv = itv;
            }
        }
        if (analysis.kernel.block(ref.bb).instrs[ref.idx].op !=
            Opcode::PREFETCH) {
            acc.len++;
        }
        first = false;
    }
    acc.close();
    return acc.stats;
}

IntervalLengthStats
optimalIntervalLengths(const Kernel &kernel, const WarpTrace &trace,
                       int max_regs)
{
    SegmentAccum acc;
    RegBitVec cur;

    for (const TraceRef &ref : trace.refs) {
        const Instruction &in = kernel.block(ref.bb).instrs[ref.idx];
        if (in.op == Opcode::PREFETCH)
            continue;
        RegBitVec next = cur;
        in.collectRegs(next);
        if (next.count() > max_regs) {
            acc.close();
            cur.reset();
            in.collectRegs(cur);
        } else {
            cur = std::move(next);
        }
        acc.len++;
    }
    acc.close();
    return acc.stats;
}

} // namespace ltrf
