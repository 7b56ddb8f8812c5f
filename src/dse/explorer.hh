/**
 * @file
 * Design-space exploration driver.
 *
 * The explorer evaluates candidate DesignPoints across the workload
 * suite on the harness thread pool and maintains the
 * IPC/energy/area Pareto frontier incrementally. Five strategies:
 *
 *  - GRID:       walk the (restricted) space exhaustively in
 *                enumeration order, up to the budget.
 *  - RANDOM:     seeded uniform sampling of distinct points.
 *  - HILL_CLIMB: expand single-step neighborhoods of frontier
 *                members, with seeded random restarts when every
 *                frontier member has been expanded.
 *  - EVOLVE:     NSGA-II-style evolutionary search: binary
 *                tournament selection on (non-domination rank,
 *                crowding distance), axis-wise crossover, and
 *                mutation to a random single-step neighbor.
 *  - HALVING:    successive-halving multi-fidelity search: each
 *                generation screens a fresh candidate pool through a
 *                rung schedule of growing workload subsets,
 *                promoting the top promote_frac at every rung until
 *                the survivors reach the full suite (the default
 *                schedule is the classic two rungs: one screening
 *                subset, then everything). Only full-fidelity
 *                results enter the frontier; promotions reuse the
 *                screened (config, workload) cells, never
 *                re-simulating them.
 *
 * Cost controls: points whose simulated configuration is identical
 * (simKey) are simulated once and share results; RANDOM and
 * HILL_CLIMB additionally prune candidates whose analytic scalars
 * are dominated by an already-evaluated point with the same
 * cache/policy/warp axes (a monotonicity heuristic — disabled by
 * default for GRID so exhaustive walks really are exhaustive, and
 * for the generational strategies so population sizes mean what
 * they say). The heuristic's comparison set spans the network axis
 * (explicit `--networks` values, or the auto pairing's derived
 * values as the fallback); when the space pairs each bank count
 * with a single network the heuristic cannot fire, and enabling it
 * warns instead of silently pruning nothing (see pruneCanFire()).
 *
 * Analytics and persistence: the report carries the frontier's
 * hypervolume (per generation for the generational strategies) and
 * can be fed back via ExploreOptions::resume — saved points re-seed
 * the frontier without re-simulation and, for EVOLVE, form the
 * initial population.
 *
 * Determinism model: every strategy is a generator that hands
 * candidates to one admission path. Admission cuts them into
 * fixed-size batches, prunes each batch against everything admitted
 * before it, and submits the batch's missing (simKey, workload)
 * cells to a work-stealing pool; commits (cells awaited, objectives
 * folded, frontier updated) happen strictly in admission order. The
 * admission sequence depends only on (seed, options) — every
 * decision reads seeded RNG streams, analytic scalars, or results
 * that were themselves committed deterministically — so the
 * committed result, and its serialized form, is byte-identical for
 * any `--jobs` value, while a straggler cell never gates the cells
 * admitted after it (the next halving pool's screens run while a
 * previous rung's promotions finish).
 *
 * The pipeline commits its oldest batch whenever more than a fixed
 * number of batches wait, for every strategy, so peak memory is
 * bounded by that depth rather than by the candidate count (GRID
 * and RANDOM stream from a PointCursor and the sampling RNG without
 * materializing their candidate lists). A generation's progress
 * record is taken when the commit cursor reaches its last batch, so
 * it does not depend on when commits actually ran. With
 * ExploreOptions::cache_dir set, each admitted cell is additionally
 * served from / persisted to an on-disk content-addressed store,
 * replacing re-simulation across processes without touching the
 * report (a loaded cell folds bit-identically to a fresh one).
 */

#ifndef LTRF_DSE_EXPLORER_HH
#define LTRF_DSE_EXPLORER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "dse/frontier_io.hh"
#include "dse/hypervolume.hh"
#include "dse/pareto.hh"
#include "dse/space.hh"
#include "harness/emit.hh"
#include "harness/json.hh"

namespace ltrf::obs
{
class TraceSink;
}

namespace ltrf::dse
{

enum class Strategy
{
    GRID,
    RANDOM,
    HILL_CLIMB,
    EVOLVE,
    HALVING,
};

/** @return "grid", "random", "hill", "evolve", or "halving". */
const char *strategyName(Strategy s);

/** Parse a strategyName() token (case-insensitive). */
bool parseStrategy(const std::string &name, Strategy &out);

struct ExploreOptions
{
    Strategy strategy = Strategy::GRID;

    /**
     * Maximum distinct candidate points considered (screened points
     * count). 0 means "the whole space" for GRID, "bounded by
     * generations x population" for EVOLVE/HALVING, and is a user
     * error for RANDOM/HILL_CLIMB (an unbounded random walk is
     * never intended).
     */
    std::uint64_t budget = 0;

    /** Search seed: drives sampling, restarts, and workload traces. */
    std::uint64_t seed = 2018;

    /** Workload names; empty = the full 14-workload suite. */
    std::vector<std::string> workloads;

    int num_sms = 4;

    /** Worker threads (0 = hardware concurrency). Results do not
     *  depend on it. */
    int jobs = 0;

    /** -1 = per-strategy default (RANDOM/HILL on, others off);
     *  0/1 force. */
    int prune = -1;

    /**
     * Space partitioning for sharded exploration: restrict grid
     * enumeration and every sampling draw (random, hill restarts,
     * evolve init, halving pools) to the shard_index-th of
     * shard_count balanced index-range stripes of the enumeration
     * order. Neighbor expansion and offspring may still step
     * outside the stripe (they follow the frontier, not the
     * partition). Shard reports merge via resume: run the next
     * shard with --resume on the previous shard's report and the
     * already-evaluated points are skipped as seen.
     */
    int shard_index = 0;
    int shard_count = 1;

    // ----- Generational strategies (EVOLVE, HALVING) -----

    /** Generations after the initial population (EVOLVE) or
     *  screening rounds (HALVING). 0 with a resume seed replays the
     *  saved frontier without any new simulation. */
    int generations = 8;

    /** Population (EVOLVE) / per-generation candidate pool
     *  (HALVING) size. */
    int population = 16;

    /**
     * HALVING's screening subset: explicit workload names (must be
     * drawn from the active suite), or empty = the first
     * screen_count workloads of the active suite.
     */
    std::vector<std::string> screen_workloads;
    int screen_count = 2;

    /** HALVING's promotion fraction, applied at every rung:
     *  ceil(rung pool * promote_frac) candidates (at least one)
     *  advance to the next rung. Must lie in (0, 1); 0.5 is the
     *  classic top half. */
    double promote_frac = 0.5;

    /**
     * HALVING's rung schedule: per-rung workload counts (each rung
     * evaluates the first N workloads of the active suite; 0 means
     * "all"). Counts must be strictly increasing and the last rung
     * must be the full suite. Empty = the legacy two-rung schedule
     * [screen subset, all] built from screen_workloads /
     * screen_count; a non-empty schedule excludes explicit
     * screen_workloads names (the schedule defines every subset).
     */
    std::vector<int> rungs;

    /** Hypervolume reference point (see defaultHvRef()). */
    Objectives hv_ref = defaultHvRef();

    // ----- Observability -----
    //
    // Neither knob reaches the report: DseResult::toJson() stays
    // byte-identical with both on, off, or anything in between.

    /**
     * Wall-clock Chrome-trace sink for harness pool activity: one
     * lane per pool worker with a span for every simulated cell
     * (screens, promotions, baseline fills), instants for batch
     * commits and rung promotions, and an in-flight-cells counter
     * track. Null = off.
     */
    obs::TraceSink *trace = nullptr;

    /** Rate-limited (>= 1 s apart) stderr heartbeat of cells landed
     *  vs submitted, plus a final pool wall-time summary. */
    bool progress = false;

    /**
     * Directory of the persistent cell store (dse/cell_store);
     * empty = off. Every (simKey, workload) cell a worker would
     * simulate is first looked up on disk and stored after
     * simulating, so a repeated run — same space, workloads, SM
     * count, and seed — performs zero simulations. Entries are
     * addressed by content (simKey + workload + SM/seed context +
     * simulator version), so runs with different parameters share a
     * directory without mixing results, and a simulator upgrade
     * invalidates stale entries passively. Like trace/progress, the
     * store never reaches the report: DseResult::toJson() is
     * byte-identical with a cold store, a warm store, or none.
     */
    std::string cache_dir;

    /**
     * Saved points to resume from (frontier_io). All of them
     * re-seed the frontier with their saved objectives — no
     * re-simulation — and the in-space ones join EVOLVE's initial
     * population. The saved workload list, SM count, and workload
     * seed must match the active ones: objectives measured under
     * different simulation parameters do not compare.
     */
    FrontierSeed resume;
};

/** One evaluated design point. */
struct PointResult
{
    DesignPoint point;
    /** Generated RF scalars; id != 0 marks a published Table 2 row. */
    RfConfig model;
    Objectives obj;
    bool on_frontier = false;
    /** Carried over from a saved report, not simulated in this run. */
    bool resumed = false;
    /** Generation that evaluated the point (-1 outside EVOLVE /
     *  HALVING and for resumed points). */
    int gen = -1;
};

/** The outcome of an exploration. */
struct DseResult
{
    // Inputs, echoed for the report.
    Strategy strategy = Strategy::GRID;
    std::uint64_t budget = 0;
    std::uint64_t seed = 0;
    std::vector<std::string> workloads;
    int num_sms = 0;
    bool prune = false;
    std::uint64_t space_size = 0;
    int generations = 0;
    int population = 0;
    std::vector<std::string> screen_workloads;    ///< HALVING only
    double promote_frac = 0.5;                    ///< HALVING only
    /** Resolved per-rung workload counts (HALVING only; the last
     *  entry is the full suite). */
    std::vector<int> rungs;
    int shard_index = 0;
    int shard_count = 1;
    Objectives hv_ref;

    /** Evaluated points, in evaluation order (resumed seed first). */
    std::vector<PointResult> evaluated;
    /** Indices into evaluated, IPC-descending (frontier order). */
    std::vector<int> frontier;

    /** Frontier state after a generation (one entry, gen 0, for the
     *  non-generational strategies). */
    struct GenStat
    {
        int gen = 0;
        std::uint64_t evaluated = 0;    ///< cumulative full-fidelity
        std::uint64_t frontier_size = 0;
        double hypervolume = 0.0;
    };
    std::vector<GenStat> progress;

    /** Final frontier hypervolume against hv_ref. */
    double hv = 0.0;

    // Cost counters.
    std::uint64_t pruned = 0;       ///< candidates skipped by dominance
    std::uint64_t sim_reuse = 0;    ///< cells served from the sim cache
    std::uint64_t sim_cells = 0;    ///< (config, workload) cells simulated
    std::uint64_t screened = 0;     ///< points screened below full fidelity
    std::uint64_t resumed = 0;      ///< points seeded from --resume
    std::uint64_t restarts = 0;     ///< HILL_CLIMB seeded restarts

    // ----- Side channels (never serialized: toJson()/toCsv() stay
    // byte-identical whether the run had a cold cell store, a warm
    // one, or none at all). -----

    /** Persistent cell store traffic (zero when cache_dir is off).
     *  store_misses counts the cells this run actually simulated;
     *  sim_cells above keeps meaning "cells claimed" so the report
     *  counter cannot depend on the store's temperature. */
    std::uint64_t store_hits = 0;
    std::uint64_t store_misses = 0;
    std::uint64_t store_stores = 0;
    std::uint64_t store_errors = 0;
    /** Flattened obs stat tree ("cell_store.hits", ...) for
     *  `ltrf_dse --stats`; empty when cache_dir is off. */
    std::vector<StatLine> stats_lines;

    /** Points admitted to each rung, summed over generations
     *  (HALVING only; one entry per rung, the last being the
     *  full-fidelity entrants). */
    std::vector<std::uint64_t> rung_screened;
    /** Points promoted out of each rung (the last entry stays 0:
     *  full-fidelity survivors have nowhere further to go). */
    std::vector<std::uint64_t> rung_promoted;

    /** Deterministic report (schema ltrf.dse.v4: per-point axis
     *  maps keyed by the axis registry, shard echo, per-rung
     *  screened/promoted counters for HALVING). */
    harness::Json toJson() const;
    /** One row per evaluated point, frontier flag included, then a
     *  per-generation hypervolume table. */
    std::string toCsv() const;
    /** toJson().dump(2)+"\n" or toCsv() per @p format. */
    std::string dumpAs(harness::OutputFormat format) const;
};

/**
 * Run the exploration. fatal() on invalid spaces, unknown workload
 * names, a missing budget for RANDOM/HILL_CLIMB, bad generational
 * parameters, a malformed rung schedule, or a resume seed measured
 * on a different workload suite.
 */
DseResult explore(const DesignSpace &space, const ExploreOptions &opt);

/**
 * True when the model-dominance pruning heuristic can fire on
 * @p space at all. The analytic RF model is strictly monotone
 * within a technology (more capacity always costs more area and
 * power) and the four technologies form a latency/power Pareto
 * front by construction, so the heuristic's only dominance source
 * is two networks competing at one bank count — present exactly
 * when the network axis is an explicit list with both values. The
 * auto pairing (the fallback the prune context derives network
 * values from when `--networks` is not given) assigns each bank
 * count its dominant network, leaving nothing to prune; explore()
 * warns instead of silently pruning nothing in that case.
 */
bool pruneCanFire(const DesignSpace &space);

} // namespace ltrf::dse

#endif // LTRF_DSE_EXPLORER_HH
