/**
 * @file
 * Per-warp execution state.
 *
 * The scoreboard and address-generation arrays live in a WarpStateArena
 * (structure-of-arrays): one flat allocation per SM instead of two
 * heap vectors per warp, so the issue loop's scoreboard lookups walk
 * contiguous memory and warp construction costs no per-warp
 * allocations. The scoreboard holds 32-bit cycles: Gpu::run() caps a
 * run at UINT32_MAX cycles, and writes saturate (scoreboardCycle), so
 * a value past the cap still reads as "not ready" until the cap.
 *
 * Warp itself keeps only the hot scalars the scheduler and issue loop
 * touch every cycle. It fetches along its trace's block path: `cur`
 * points at the head instruction inside the current block's
 * instruction array and `block_end` one past that block, so advancing
 * is a pointer increment, plus one block lookup when a block ends.
 * A warp that found every operand collector busy is *parked* on its
 * head instruction: the PREFETCH skip, scoreboard, and EXIT checks
 * already passed for that dynamic instruction and cannot change
 * until it issues, so a retry only re-checks the collectors. Every
 * advance clears the mark (a loop revisits the same Instruction).
 */

#ifndef LTRF_SIM_WARP_HH
#define LTRF_SIM_WARP_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hh"
#include "compiler/trace_gen.hh"
#include "obs/stall.hh"

namespace ltrf
{

/** Scoreboard entry: the cycle a register's value lands. */
using ScoreboardCycle = std::uint32_t;

/** Largest cycle the scoreboard can hold (and Gpu::run's cap). */
constexpr Cycle MAX_SCOREBOARD_CYCLE =
        std::numeric_limits<ScoreboardCycle>::max();

/** Narrow @p c for the scoreboard, saturating at the cap. */
inline ScoreboardCycle
scoreboardCycle(Cycle c)
{
    return static_cast<ScoreboardCycle>(std::min(c, MAX_SCOREBOARD_CYCLE));
}

/**
 * Flat structure-of-arrays backing store for all resident warps'
 * scoreboard (reg_ready) and per-stream access counters. Owned by
 * the SM and constructed before its warps; Warp holds raw pointers
 * into it, so the arena must not move or resize while warps live.
 *
 * Each scoreboard row starts with one sentinel slot before register
 * 0, so reg_ready[INVALID_REG] (index -1) is a valid read that always
 * yields 0: the issue check reads all four operand slots without
 * testing for absent operands. Nothing may write the sentinel; only
 * instructions with a destination write the scoreboard.
 */
class WarpStateArena
{
  public:
    WarpStateArena(int num_warps, int num_regs, int num_streams)
        : row_(static_cast<std::size_t>(num_regs) + 1),
          num_streams_(num_streams),
          reg_ready_(static_cast<std::size_t>(num_warps) * row_, 0),
          stream_pos_(static_cast<std::size_t>(num_warps) *
                              static_cast<std::size_t>(num_streams),
                      0)
    {}

    /** Warp @p w's scoreboard: cycle each register's value lands. */
    ScoreboardCycle *
    regReady(WarpId w)
    {
        static_assert(INVALID_REG == -1, "the sentinel sits at index -1");
        return reg_ready_.data() + static_cast<std::size_t>(w) * row_ + 1;
    }

    /** Warp @p w's per-memory-stream access counters. */
    std::uint32_t *
    streamPos(WarpId w)
    {
        return stream_pos_.data() +
               static_cast<std::size_t>(w) *
                       static_cast<std::size_t>(num_streams_);
    }

  private:
    std::size_t row_;   ///< scoreboard row: sentinel + num_regs slots
    int num_streams_;
    std::vector<ScoreboardCycle> reg_ready_;
    std::vector<std::uint32_t> stream_pos_;
};

/** Two-level scheduler warp states (paper section 3.2). */
enum class WarpState : std::uint8_t
{
    INACTIVE_READY,   ///< in the inactive pool, eligible to activate
    ACTIVATING,       ///< activation (register refetch) in flight
    ACTIVE,           ///< in the active pool, may issue
    INACTIVE_WAIT,    ///< deactivated, waiting on a long-latency op
    FINISHED,         ///< reached EXIT
};

/** One warp's dynamic state in the SM pipeline. */
struct Warp
{
    /** @p kernel is the compiled kernel @p trace was generated on. */
    Warp(WarpId id_, const WarpTrace &trace, const Kernel &kernel_,
         WarpStateArena &arena)
        : id(id_), reg_ready(arena.regReady(id_)),
          stream_pos(arena.streamPos(id_)), path_next(trace.path.data()),
          path_end(trace.path.data() + trace.path.size()),
          kernel(&kernel_)
    {
        enterNextBlock();
    }

    // The issue loop's per-visit fields first, in one cache line.
    /** ACTIVE: earliest cycle the next issue attempt can succeed. */
    Cycle ready_at = 0;
    /** ACTIVATING / INACTIVE_WAIT: cycle the condition resolves. */
    Cycle wait_until = 0;
    WarpState state = WarpState::INACTIVE_READY;
    /** Why ready_at was last pushed into the future (stall
     *  attribution; written unconditionally — a 1-byte store — read
     *  only when collect_stall_stats is on). */
    obs::StallCause last_stall = obs::StallCause::SCOREBOARD;
    /** The head instruction failed on collectors only (see file). */
    bool parked = false;
    WarpId id;
    /** Head instruction: the next one to issue (valid unless atEnd). */
    const Instruction *cur = nullptr;
    /** One past the last instruction of the head's block. */
    const Instruction *block_end = nullptr;
    /** Scoreboard: cycle each architectural register's value lands
     *  (points into the SM's WarpStateArena; index INVALID_REG is
     *  the row's always-zero sentinel). */
    ScoreboardCycle *reg_ready;
    /** Per memory stream access counter (address generation). */
    std::uint32_t *stream_pos;
    /** Blocks still to run after the head's, and the path's end. */
    const BlockId *path_next;
    const BlockId *path_end;
    const Kernel *kernel;
    /** Dynamic (non-PREFETCH) instructions issued. */
    std::uint64_t issued = 0;
    /** Block of the head instruction. */
    BlockId bb = INVALID_BLOCK;

    bool finished() const { return state == WarpState::FINISHED; }
    bool atEnd() const { return cur == block_end; }

    /** Move the head to the next dynamic instruction. */
    void
    advance()
    {
        parked = false;
        if (++cur == block_end)
            enterNextBlock();
    }

  private:
    void
    enterNextBlock()
    {
        if (path_next == path_end)
            return;     // past the trace: cur == block_end
        bb = *path_next++;
        const std::vector<Instruction> &instrs = kernel->block(bb).instrs;
        cur = instrs.data();
        block_end = cur + instrs.size();
    }
};

} // namespace ltrf

#endif // LTRF_SIM_WARP_HH
