#include "dse/explorer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "dse/cell_store.hh"
#include "harness/runner.hh"
#include "obs/trace_sink.hh"
#include "sim/gpu.hh"
#include "tech/energy_model.hh"
#include "workloads/workload.hh"

namespace ltrf::dse
{

using harness::Json;

namespace
{

/**
 * Candidates are admitted to the cell pipeline in fixed-size
 * batches: pruning decisions happen at admission boundaries and
 * frontier commits in admission order, so both depend on the
 * admission sequence alone — never on the job count or on which
 * cell finishes first. The batch size is a constant for the same
 * reason.
 */
constexpr std::size_t POINT_BATCH = 16;

/**
 * Admitted-but-uncommitted batches the pipeline tolerates before
 * committing the oldest. Deep enough that the pool never starves
 * (depth x POINT_BATCH cells in flight), fixed so a 10^7-point walk
 * holds 10^7 / POINT_BATCH tickets never.
 */
constexpr std::size_t MAX_STREAM_DEPTH = 64;

/** Trace lane of the admission thread's instants (batch commits,
 *  rung promotions), well clear of the pool worker ids. */
constexpr int EXPLORER_TID = 1000;

/**
 * Disjoint RNG stream tags, mixed with the search seed (mixSeeds)
 * plus a per-restart / per-generation index. Every random decision
 * sequence therefore depends only on (seed, purpose, index) — a
 * hill-climb restart or an evolutionary generation draws the same
 * values no matter how many samples earlier phases consumed.
 */
constexpr std::uint64_t STREAM_HILL_RESTART = 0x10000000ull;
constexpr std::uint64_t STREAM_EVOLVE_INIT = 0x20000000ull;
constexpr std::uint64_t STREAM_EVOLVE_GEN = 0x30000000ull;
constexpr std::uint64_t STREAM_HALVING_GEN = 0x40000000ull;

/** Chance that an offspring steps to a random neighbor. */
constexpr double MUTATION_P = 0.25;

/** Per-workload baseline measurements (BL on configuration #1). */
struct BaselineRow
{
    double ipc = 0.0;
    double main_rate = 0.0;
};

/** Analytic summary used by the model-dominance pruning heuristic. */
struct PruneEntry
{
    /** All non-model axis values (cache, policy, warps, interval,
     *  collectors, DRAM service), joined from the registry: only
     *  entries with identical contexts are comparable. */
    std::string context;
    int capacity;
    int banks_mult;
    double latency;
    double area;
    double power;
};

/**
 * Evaluates design points across workload subsets on a cell-level
 * pipeline, memoizing each simulated (simKey, workload) cell: a
 * point screened on a workload subset and later promoted to a
 * larger one only simulates the workloads it has not already run.
 *
 * The pipeline splits evaluation into begin() — claim the missing
 * cells and submit each one as an independent task on the harness
 * work-stealing pool — and collect() — block until a ticket's cells
 * have landed and fold them into objectives. Because admission and
 * collection are decoupled, the explorer can admit the next batch's
 * cells while a straggler from an earlier batch is still
 * simulating; because every cell simulation is a pure seeded
 * function of its configuration, the folded objectives are
 * bit-identical no matter which worker ran which cell when.
 */
class Evaluator
{
  public:
    /** The trace pid all harness pool activity lands on. */
    static constexpr int POOL_PID = 0;

    Evaluator(const ExploreOptions &opt,
              std::vector<std::string> workload_names)
        : runner(opt.jobs), names(std::move(workload_names)),
          num_sms(opt.num_sms), seed(opt.seed), trace(opt.trace),
          progress(opt.progress), t0(std::chrono::steady_clock::now())
    {
        if (trace)
            trace->processName(POOL_PID, "ltrf_dse harness pool");
        if (!opt.cache_dir.empty()) {
            // simKey() deliberately omits the SM count and the
            // workload seed (the in-memory cache lives inside one
            // run, where both are fixed); on disk they must join the
            // entry address or runs with different parameters would
            // poison each other.
            store = std::make_unique<CellStore>(
                    opt.cache_dir,
                    "sms=" + std::to_string(num_sms) +
                            "|seed=" + std::to_string(seed));
        }
    }

    /** Workers write into cache cells the fold reads; finish them
     *  before the cache goes away. */
    ~Evaluator() { runner.drain(); }

    /** One simulation cell: a (simKey, workload) result slot. */
    struct Cell
    {
        SimResult result;
        /** A ticket owns the simulation (submitted or finished);
         *  later tickets reuse instead of resubmitting. */
        bool claimed = false;
        /** result is valid. Guarded by mu. */
        bool done = false;
    };

    /**
     * A batch admitted to the pipeline: every missing cell has been
     * submitted; collect() folds once they land. Cells claimed by
     * earlier tickets that this batch also reads are listed too —
     * collect() must wait for them even though it did not submit
     * them.
     */
    struct Ticket
    {
        std::vector<DesignPoint> points;
        std::vector<std::size_t> wsel;
        std::vector<const Cell *> cells;
    };

    /**
     * Admit @p points (deduplicated by the caller) for evaluation
     * on the workloads selected by @p wsel (indices into the
     * suite): claim and submit every cell not already claimed, and
     * return the ticket collect() redeems. Baseline cells are
     * submitted lazily on the first non-empty admission — a resumed
     * search that evaluates nothing new (--resume with
     * --generations 0) must not simulate at all.
     */
    Ticket
    begin(std::vector<DesignPoint> points,
          std::vector<std::size_t> wsel)
    {
        Ticket t;
        t.points = std::move(points);
        t.wsel = std::move(wsel);
        if (t.points.empty())
            return t;
        ensureBaselines();
        for (const DesignPoint &p : t.points) {
            SimConfig cfg = configFor(p, num_sms);
            CacheRow &row = rowFor(simKey(cfg));
            for (std::size_t w : t.wsel) {
                Cell &cell = row.cells[w];
                t.cells.push_back(&cell);
                if (cell.claimed) {
                    sim_reuse++;
                    continue;
                }
                cell.claimed = true;
                sim_cells++;
                submitCell(cell, cfg, names[w]);
            }
        }
        // Folding normalizes against the baselines, so the ticket
        // waits on them like any other cell.
        for (const Cell &b : baseline_cells)
            t.cells.push_back(&b);
        return t;
    }

    /**
     * Block until every cell @p t reads has landed, then fold each
     * point's rows into an objective vector over the ticket's
     * workload subset.
     */
    std::vector<PointResult>
    collect(const Ticket &t)
    {
        if (t.points.empty())
            return {};
        {
            std::unique_lock<std::mutex> lk(mu);
            cell_done.wait(lk, [&] {
                for (const Cell *c : t.cells)
                    if (!c->done)
                        return false;
                return true;
            });
        }
        ensureBaselineRows();
        std::vector<PointResult> out;
        out.reserve(t.points.size());
        for (const DesignPoint &p : t.points)
            out.push_back(fold(p, t.wsel));
        return out;
    }

    std::uint64_t simCells() const { return sim_cells; }
    std::uint64_t simReuse() const { return sim_reuse; }

    /** Distinct simKey rows the cell cache ever created. */
    std::uint64_t rowInserts() const { return row_inserts; }

    /** Emit the end-of-run pool summary on stderr (--progress). */
    void
    informSummary()
    {
        // Per-cell wall times are only collected when the trace or
        // the progress heartbeat is on.
        std::vector<std::uint64_t> us;
        {
            std::lock_guard<std::mutex> lk(mu);
            us = cell_us;
        }
        std::sort(us.begin(), us.end());
        auto ms_at = [&](double q) {
            if (us.empty())
                return 0.0;
            const std::size_t i = std::min(
                    us.size() - 1,
                    static_cast<std::size_t>(
                            q * static_cast<double>(us.size())));
            return static_cast<double>(us[i]) / 1000.0;
        };
        ltrf_inform("pool: %llu cells simulated (%llu reused, %llu "
                    "cache rows), cell wall time p50 %.1f ms / p90 "
                    "%.1f ms / max %.1f ms, queue high-water %zu, "
                    "in-flight high-water %zu",
                    static_cast<unsigned long long>(sim_cells),
                    static_cast<unsigned long long>(sim_reuse),
                    static_cast<unsigned long long>(row_inserts),
                    ms_at(0.50), ms_at(0.90), ms_at(1.0),
                    runner.queueHighWater(),
                    runner.inFlightHighWater());
        if (store) {
            // Misses are the cells this run actually simulated; a
            // fully warm store reports "0 misses, 0 stores" (CI's
            // cache-reuse smoke greps this line).
            const CellStore::Counts c = store->counts();
            ltrf_inform("cell store: %llu hits, %llu misses, %llu "
                        "stores, %llu errors (%s)",
                        static_cast<unsigned long long>(c.hits),
                        static_cast<unsigned long long>(c.misses),
                        static_cast<unsigned long long>(c.stores),
                        static_cast<unsigned long long>(c.errors),
                        store->dir().c_str());
        }
    }

    /** The persistent cell store, or null when cache_dir is off. */
    const CellStore *cellStore() const { return store.get(); }

  private:
    struct CacheRow
    {
        /** One slot per suite workload; sized once at creation so
         *  cell addresses stay stable for in-flight tasks. */
        std::vector<Cell> cells;
    };

    CacheRow &
    rowFor(const std::string &key)
    {
        auto it = sim_cache.find(key);
        if (it == sim_cache.end()) {
            CacheRow row;
            row.cells.resize(names.size());
            it = sim_cache.emplace(key, std::move(row)).first;
            row_inserts++;
        }
        return it->second;
    }

    /** Microseconds on the observability clock: the trace's own
     *  epoch when tracing (so spans line up with the instants the
     *  explorer emits), this evaluator's otherwise. */
    std::uint64_t
    tickUs() const
    {
        if (trace)
            return trace->wallUs();
        return static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    }

    /** Submit @p cell's simulation; the task publishes its result
     *  under the evaluator lock and wakes any collector. @p kind
     *  labels the trace span ("sim" or "baseline"). */
    void
    submitCell(Cell &cell, const SimConfig &cfg,
               const std::string &workload,
               const char *kind = "sim")
    {
        const bool timing = trace || progress;
        if (trace) {
            cells_submitted++;
            trace->counter("cells in flight", POOL_PID, tickUs(),
                           cells_submitted - cells_landed);
        }
        runner.submit([this, &cell, cfg, workload, kind, timing] {
            const std::uint64_t start_us = timing ? tickUs() : 0;
            // Persistent store first: a hit replaces the whole
            // simulation. simulate() is a pure seeded function of
            // (cfg, kernel, seed) and the stored numbers round-trip
            // exactly, so a loaded cell folds bit-identically to a
            // fresh one — the committed report cannot tell them
            // apart.
            SimResult r;
            bool from_store = false;
            if (store) {
                const std::string skey = simKey(cfg);
                from_store = store->load(skey, workload, r);
                if (!from_store) {
                    r = simulate(cfg,
                                 WorkloadSuite::byName(workload).kernel,
                                 seed);
                    store->store(skey, workload, r);
                } else {
                    r.design = cfg.design;
                }
            } else {
                r = simulate(cfg, WorkloadSuite::byName(workload).kernel,
                             seed);
            }
            const std::uint64_t end_us = timing ? tickUs() : 0;
            if (trace) {
                const int tid = trace->workerTid();
                {
                    std::lock_guard<std::mutex> lk(mu);
                    if (named_tids.insert(tid).second)
                        trace->threadName(
                                POOL_PID, tid,
                                "worker " + std::to_string(tid));
                }
                trace->complete(
                        (std::string(kind) +
                         (from_store ? " [store hit] " : " ") +
                         workload)
                                .c_str(),
                        POOL_PID, tid, start_us, end_us - start_us);
            }
            bool beat = false;
            std::uint64_t landed = 0;
            {
                std::lock_guard<std::mutex> lk(mu);
                cell.result = std::move(r);
                cell.done = true;
                cells_landed++;
                landed = cells_landed;
                if (timing)
                    cell_us.push_back(end_us - start_us);
                if (progress && end_us >= next_beat_us) {
                    next_beat_us = end_us + 1'000'000;
                    beat = true;
                }
            }
            if (trace)
                trace->counter("cells in flight", POOL_PID, end_us,
                               cells_submitted >= landed
                                       ? cells_submitted - landed
                                       : 0);
            if (beat)
                ltrf_inform("progress: %llu/%llu cells landed "
                            "(%llu reused, %.1f s)",
                            static_cast<unsigned long long>(landed),
                            static_cast<unsigned long long>(
                                    sim_cells),
                            static_cast<unsigned long long>(
                                    sim_reuse),
                            static_cast<double>(end_us) / 1e6);
            cell_done.notify_all();
        });
    }

    void
    ensureBaselines()
    {
        if (!baseline_cells.empty())
            return;
        baseline_cells.resize(names.size());
        for (std::size_t w = 0; w < names.size(); w++) {
            SimConfig cfg;
            cfg.num_sms = num_sms;
            cfg.design = RfDesign::BL;
            baseline_cells[w].claimed = true;
            sim_cells++;
            submitCell(baseline_cells[w], cfg, names[w], "baseline");
        }
    }

    /** Derive the per-workload normalization rows once the baseline
     *  cells have landed (collect() waited on them already). */
    void
    ensureBaselineRows()
    {
        if (!baselines.empty())
            return;
        for (std::size_t w = 0; w < names.size(); w++) {
            const SimResult &r = baseline_cells[w].result;
            ltrf_assert(r.ipc > 0.0, "baseline IPC of %s is zero",
                        names[w].c_str());
            baselines.push_back(
                    {r.ipc, r.activity.main_accesses_per_cycle});
        }
    }

    /** Fold @p p's cached rows over @p wsel into objectives. */
    PointResult
    fold(const DesignPoint &p, const std::vector<std::size_t> &wsel)
    {
        PointResult pr;
        pr.point = p;
        pr.model = makeRfConfig(p.modelPoint());
        const bool cached_design =
                usesRegCache(policyDesign(p.policy));

        const CacheRow &row =
                sim_cache.at(simKey(configFor(p, num_sms)));
        std::vector<double> norm_ipc;
        double energy_sum = 0.0;
        for (std::size_t w : wsel) {
            const SimResult &r = row.cells[w].result;
            norm_ipc.push_back(r.ipc / baselines[w].ipc);
            // rfPower() is normalized so the baseline design on
            // configuration #1 at the baseline access rate is 1.0,
            // so the per-workload quotient is rfPower itself.
            energy_sum += rfPower(pr.model, r.activity, cached_design,
                                  baselines[w].main_rate);
        }
        pr.obj.ipc = harness::ResultSet::geomean(norm_ipc);
        pr.obj.energy =
                energy_sum / static_cast<double>(wsel.size());
        // The 256KB baseline array is area 1.0; a cache-based design
        // spends cache_kb more KB of HP-SRAM next to the cores.
        pr.obj.area =
                pr.model.area +
                (cached_design ? p.cache_kb / 256.0 : 0.0);
        return pr;
    }

    harness::ExperimentRunner runner;
    std::vector<std::string> names;
    /** Persistent cell store (null = off). Internally locked; the
     *  worker tasks use it without taking mu. */
    std::unique_ptr<CellStore> store;
    int num_sms;
    std::uint64_t seed;
    obs::TraceSink *trace;
    bool progress;
    std::chrono::steady_clock::time_point t0;
    std::vector<BaselineRow> baselines;
    std::vector<Cell> baseline_cells;
    std::map<std::string, CacheRow> sim_cache;
    std::mutex mu;
    std::condition_variable cell_done;
    // Admission happens on one thread but workers read the counters
    // for the heartbeat and the in-flight track, so they are atomic.
    std::atomic<std::uint64_t> sim_cells{0};
    std::atomic<std::uint64_t> sim_reuse{0};
    std::atomic<std::uint64_t> cells_submitted{0};
    std::atomic<std::uint64_t> cells_landed{0};
    std::uint64_t row_inserts = 0;    ///< admission thread only
    std::vector<std::uint64_t> cell_us;    ///< guarded by mu
    std::set<int> named_tids;              ///< guarded by mu
    std::uint64_t next_beat_us = 0;        ///< guarded by mu
};

/**
 * True if an already-evaluated entry makes simulating @p c
 * pointless: same non-model axes, at least as much capacity and
 * banking, no more latency, and no more area or power — under the
 * model's monotonicity, such an entry is at least as good on every
 * objective. A heuristic (activity-dependent power can in principle
 * reorder), so exhaustive grids leave it off.
 */
bool
modelDominated(const std::vector<PruneEntry> &entries,
               const PruneEntry &c)
{
    for (const PruneEntry &e : entries) {
        if (e.context != c.context)
            continue;
        if (e.capacity < c.capacity || e.banks_mult < c.banks_mult ||
            e.latency > c.latency || e.area > c.area ||
            e.power > c.power)
            continue;
        if (e.capacity > c.capacity || e.banks_mult > c.banks_mult ||
            e.latency < c.latency || e.area < c.area ||
            e.power < c.power)
            return true;
    }
    return false;
}

PruneEntry
pruneEntryFor(const DesignPoint &p)
{
    const RfConfig rc = makeRfConfig(p.modelPoint());
    PruneEntry e;
    for (const AxisDesc &a : axisRegistry())
        if (!a.model_axis)
            e.context += a.token(a.get(p)) + "/";
    e.capacity = p.banks_mult * p.bank_size_mult;
    e.banks_mult = p.banks_mult;
    e.latency = rc.latency;
    e.area = rc.area;
    e.power = rc.power;
    return e;
}

/**
 * The network values the prune context compares across: the space's
 * explicit `--networks` list, falling back to the distinct values
 * the auto pairing derives over the banks axis when the list is
 * empty. Pruning itself needs no network equality (the network
 * reaches the simulation only through the latency multiplier, and
 * the cost objectives only through area/power — all three are in
 * the dominance scalars), but this list determines whether any
 * dominated variant can exist at all: see pruneCanFire().
 */
std::vector<NetworkKind>
pruneNetworks(const DesignSpace &space)
{
    if (!space.networks.empty())
        return space.networks;
    std::vector<NetworkKind> fallback;
    for (int b : space.banks) {
        const NetworkKind n = defaultNetwork(b);
        if (std::find(fallback.begin(), fallback.end(), n) ==
            fallback.end())
            fallback.push_back(n);
    }
    return fallback;
}

// ----- NSGA-II machinery (EVOLVE selection, HALVING promotion) -----

/**
 * Non-domination rank per objective vector: 0 for the Pareto set,
 * 1 for the Pareto set of the remainder, and so on (repeated
 * peeling, O(n^2) per front — populations are tens of points).
 */
std::vector<int>
nonDominationRanks(const std::vector<Objectives> &objs)
{
    const std::size_t n = objs.size();
    std::vector<int> rank(n, -1);
    std::size_t assigned = 0;
    for (int r = 0; assigned < n; r++) {
        std::vector<std::size_t> front;
        for (std::size_t i = 0; i < n; i++) {
            if (rank[i] >= 0)
                continue;
            bool dom = false;
            for (std::size_t j = 0; j < n && !dom; j++)
                dom = j != i && rank[j] < 0 &&
                      dominates(objs[j], objs[i]);
            if (!dom)
                front.push_back(i);
        }
        for (std::size_t i : front)
            rank[i] = r;
        assigned += front.size();
    }
    return rank;
}

/**
 * NSGA-II crowding distance, computed per front: boundary points of
 * each objective get infinity, interior points accumulate the
 * normalized span of their neighbors. Sorts break ties on the index
 * so the result is deterministic.
 */
std::vector<double>
crowdingDistances(const std::vector<Objectives> &objs,
                  const std::vector<int> &rank)
{
    const std::size_t n = objs.size();
    std::vector<double> crowd(n, 0.0);
    const int max_rank =
            n ? *std::max_element(rank.begin(), rank.end()) : -1;
    auto axis = [](const Objectives &o, int a) {
        return a == 0 ? o.ipc : a == 1 ? o.energy : o.area;
    };
    for (int r = 0; r <= max_rank; r++) {
        std::vector<std::size_t> front;
        for (std::size_t i = 0; i < n; i++)
            if (rank[i] == r)
                front.push_back(i);
        for (int a = 0; a < 3; a++) {
            std::sort(front.begin(), front.end(),
                      [&](std::size_t x, std::size_t y) {
                          const double vx = axis(objs[x], a);
                          const double vy = axis(objs[y], a);
                          if (vx != vy)
                              return vx < vy;
                          return x < y;
                      });
            const double lo = axis(objs[front.front()], a);
            const double hi = axis(objs[front.back()], a);
            crowd[front.front()] =
                    std::numeric_limits<double>::infinity();
            crowd[front.back()] =
                    std::numeric_limits<double>::infinity();
            if (hi <= lo)
                continue;
            for (std::size_t k = 1; k + 1 < front.size(); k++)
                crowd[front[k]] += (axis(objs[front[k + 1]], a) -
                                    axis(objs[front[k - 1]], a)) /
                                   (hi - lo);
        }
    }
    return crowd;
}

/** NSGA-II total order: rank up, crowding down, index up. */
bool
nsgaBetter(std::size_t a, std::size_t b, const std::vector<int> &rank,
           const std::vector<double> &crowd)
{
    if (rank[a] != rank[b])
        return rank[a] < rank[b];
    if (crowd[a] != crowd[b])
        return crowd[a] > crowd[b];
    return a < b;
}

/**
 * Order 0..n-1 by NSGA-II preference over @p objs (used both for
 * EVOLVE's environmental selection and HALVING's promotion cut).
 */
std::vector<std::size_t>
nsgaOrder(const std::vector<Objectives> &objs)
{
    const std::vector<int> rank = nonDominationRanks(objs);
    const std::vector<double> crowd = crowdingDistances(objs, rank);
    std::vector<std::size_t> order(objs.size());
    for (std::size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return nsgaBetter(a, b, rank, crowd);
              });
    return order;
}

/** Registry-wise uniform crossover; auto axes (network pairing,
 *  derived interval length) are re-derived on the child. */
DesignPoint
crossover(const DesignPoint &a, const DesignPoint &b, Rng &rng,
          const DesignSpace &space)
{
    DesignPoint c;
    for (const AxisDesc &axis : axisRegistry())
        axis.set(c, rng.nextBool(0.5) ? axis.get(a) : axis.get(b));
    space.finalize(c);
    return c;
}

Json
pointToJson(const PointResult &pr)
{
    const DesignPoint &p = pr.point;
    Json j = Json::object();
    j.set("key", p.key());
    // The explicit axis map: one entry per registry axis, numeric
    // axes as numbers, token axes as their parseable CLI tokens.
    Json axes = Json::object();
    for (const AxisDesc &a : axisRegistry()) {
        if (a.numeric)
            axes.set(a.name, a.get(p));
        else
            axes.set(a.name, a.token(a.get(p)));
    }
    j.set("axes", std::move(axes));
    j.set("rf_config", pr.model.id);
    j.set("capacity", pr.model.capacity);
    j.set("area", pr.model.area);
    j.set("power", pr.model.power);
    j.set("latency", pr.model.latency);
    j.set("ipc", pr.obj.ipc);
    j.set("energy", pr.obj.energy);
    j.set("total_area", pr.obj.area);
    j.set("frontier", pr.on_frontier);
    j.set("resumed", pr.resumed);
    j.set("gen", pr.gen);
    return j;
}

} // namespace

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::GRID:       return "grid";
      case Strategy::RANDOM:     return "random";
      case Strategy::HILL_CLIMB: return "hill";
      case Strategy::EVOLVE:     return "evolve";
      case Strategy::HALVING:    return "halving";
    }
    return "?";
}

bool
parseStrategy(const std::string &name, Strategy &out)
{
    const std::string low = lowered(name);
    if (low == "grid") {
        out = Strategy::GRID;
        return true;
    }
    if (low == "random") {
        out = Strategy::RANDOM;
        return true;
    }
    if (low == "hill" || low == "hillclimb" || low == "hill-climb") {
        out = Strategy::HILL_CLIMB;
        return true;
    }
    if (low == "evolve" || low == "nsga" || low == "nsga2" ||
        low == "ea") {
        out = Strategy::EVOLVE;
        return true;
    }
    if (low == "halving" || low == "sh" ||
        low == "successive-halving") {
        out = Strategy::HALVING;
        return true;
    }
    return false;
}

bool
pruneCanFire(const DesignSpace &space)
{
    // Two networks competing at one bank count is the analytic
    // model's only dominance source (see the header comment). The
    // explicit axis crosses every listed value with every bank
    // count; the auto fallback pairs exactly one per bank count, so
    // only an explicit list with both values leaves anything to
    // prune.
    if (space.networks.empty())
        return false;
    std::vector<NetworkKind> distinct;
    for (NetworkKind n : space.networks)
        if (std::find(distinct.begin(), distinct.end(), n) ==
            distinct.end())
            distinct.push_back(n);
    return distinct.size() >= 2;
}

namespace
{

/** The validated shape of a run. */
struct RunShape
{
    /** The active workload suite. */
    std::vector<std::string> names;
    /** HALVING's rungs as workload index subsets, smallest first,
     *  each a subset of the next, the last the full suite. */
    std::vector<std::vector<std::size_t>> rung_sel;
};

/**
 * HALVING's fidelity levels. --rungs builds K prefix subsets of the
 * active suite; the default is the legacy two-rung schedule
 * [screening subset, all] with the subset from explicit names or
 * screen_count.
 */
std::vector<std::vector<std::size_t>>
rungSchedule(const ExploreOptions &opt,
             const std::vector<std::string> &names)
{
    auto prefix = [](std::size_t n) {
        std::vector<std::size_t> sel(n);
        for (std::size_t w = 0; w < n; w++)
            sel[w] = w;
        return sel;
    };
    std::vector<std::vector<std::size_t>> rungs;
    if (!opt.rungs.empty()) {
        if (!opt.screen_workloads.empty())
            ltrf_fatal("--rungs and an explicit --screen-workloads "
                       "list are mutually exclusive (the rung "
                       "schedule defines every screening subset)");
        if (opt.rungs.size() < 2)
            ltrf_fatal("--rungs needs at least two fidelity levels (a "
                       "screening rung and the full suite)");
        int prev = 0;
        for (std::size_t k = 0; k < opt.rungs.size(); k++) {
            int n = opt.rungs[k];
            if (n == 0)    // "all"
                n = static_cast<int>(names.size());
            if (n < 1 || n > static_cast<int>(names.size()))
                ltrf_fatal("rung %zu asks for %d workloads but the "
                           "active suite has %zu", k, opt.rungs[k],
                           names.size());
            if (n <= prev)
                ltrf_fatal("rung workload counts must be strictly "
                           "increasing (rung %zu: %d after %d)", k, n,
                           prev);
            prev = n;
            rungs.push_back(prefix(static_cast<std::size_t>(n)));
        }
        if (prev != static_cast<int>(names.size()))
            ltrf_fatal("the last rung must be the full suite (\"all\" "
                       "or %zu workloads); got %d", names.size(), prev);
        return rungs;
    }
    std::vector<std::size_t> screen;
    for (const std::string &s : opt.screen_workloads) {
        const auto it = std::find(names.begin(), names.end(), s);
        if (it == names.end())
            ltrf_fatal("screening workload \"%s\" is not in the active "
                       "suite", s.c_str());
        const auto w = static_cast<std::size_t>(it - names.begin());
        if (std::find(screen.begin(), screen.end(), w) != screen.end())
            ltrf_fatal("screening workload \"%s\" listed twice",
                       s.c_str());
        screen.push_back(w);
    }
    if (opt.screen_workloads.empty()) {
        if (opt.screen_count < 1)
            ltrf_fatal("--screen-workloads must name at least one "
                       "workload");
        screen = prefix(std::min(
                static_cast<std::size_t>(opt.screen_count),
                names.size()));
    }
    rungs.push_back(std::move(screen));
    rungs.push_back(prefix(names.size()));
    return rungs;
}

/** fatal() on any option the run cannot honor; the run's shape
 *  otherwise. */
RunShape
validateOptions(const DesignSpace &space, const ExploreOptions &opt)
{
    space.validate();
    if ((opt.strategy == Strategy::RANDOM ||
         opt.strategy == Strategy::HILL_CLIMB) &&
        opt.budget == 0)
        ltrf_fatal("--budget is required for the %s strategy (grid "
                   "alone may walk the whole space)",
                   strategyName(opt.strategy));
    if (opt.strategy == Strategy::EVOLVE ||
        opt.strategy == Strategy::HALVING) {
        if (opt.population < 2)
            ltrf_fatal("--population must be >= 2 (got %d)",
                       opt.population);
        if (opt.generations < 0)
            ltrf_fatal("--generations must be >= 0 (got %d)",
                       opt.generations);
    }
    if (!(opt.promote_frac > 0.0 && opt.promote_frac < 1.0))
        ltrf_fatal("--promote-frac must be in (0, 1) (got %g)",
                   opt.promote_frac);
    if (opt.shard_count < 1 || opt.shard_index < 0 ||
        opt.shard_index >= opt.shard_count)
        ltrf_fatal("--shard %d/%d out of range (need 0 <= index < "
                   "count)", opt.shard_index, opt.shard_count);

    RunShape shape;
    shape.names = opt.workloads;
    if (shape.names.empty())
        for (const Workload &w : WorkloadSuite::all())
            shape.names.push_back(w.name);
    else
        for (const std::string &n : shape.names)
            WorkloadSuite::byName(n);    // fatal(), listing names

    if (opt.strategy == Strategy::HALVING)
        shape.rung_sel = rungSchedule(opt, shape.names);
    else if (!opt.rungs.empty())
        ltrf_fatal("--rungs only applies to the halving strategy "
                   "(got --strategy %s)", strategyName(opt.strategy));

    // A resumed frontier's objectives were measured under the saved
    // report's simulation parameters; mixing suites, SM counts, or
    // workload seeds would compare incomparable numbers. (A field
    // absent from the report cannot be checked.)
    const FrontierSeed &rs = opt.resume;
    if (!rs.workloads.empty() && rs.workloads != shape.names)
        ltrf_fatal("--resume report was measured on a different "
                   "workload suite (saved {%s}, active {%s}; order "
                   "matters)", joined(rs.workloads).c_str(),
                   joined(shape.names).c_str());
    if (rs.has_num_sms && rs.num_sms != opt.num_sms)
        ltrf_fatal("--resume report was measured at %d SMs, not %d",
                   rs.num_sms, opt.num_sms);
    if (rs.has_seed && rs.seed != opt.seed)
        ltrf_fatal("--resume report used workload seed %llu, not %llu",
                   static_cast<unsigned long long>(rs.seed),
                   static_cast<unsigned long long>(opt.seed));
    return shape;
}

/**
 * The heuristic is enabled but structurally inactive on spaces whose
 * (possibly fallback-derived) network axis pairs each bank count
 * with a single network — say so instead of silently pruning
 * nothing, so a default (auto-network) run that forces --prune knows
 * why its pruned counter stays zero.
 */
void
warnInactivePrune(const DesignSpace &space)
{
    std::string nets;
    for (NetworkKind n : pruneNetworks(space))
        nets += std::string(nets.empty() ? "" : ", ") +
                networkToken(n);
    ltrf_warn_once("model-dominance pruning is enabled but cannot "
                   "fire: the %s network axis pairs each bank count "
                   "with a single network ({%s}), so the space holds "
                   "no model-dominated variants; pass --networks "
                   "xbar,fbfly to prune across the network axis",
                   space.networks.empty() ? "auto (fallback)"
                                          : "explicit",
                   nets.c_str());
}

/** The report's echo of the run's inputs. */
DseResult
reportHeader(const DesignSpace &space, const ExploreOptions &opt,
             const RunShape &shape)
{
    DseResult res;
    res.strategy = opt.strategy;
    res.budget = opt.budget;
    res.seed = opt.seed;
    res.workloads = shape.names;
    res.num_sms = opt.num_sms;
    res.prune = opt.prune < 0
                        ? (opt.strategy == Strategy::RANDOM ||
                           opt.strategy == Strategy::HILL_CLIMB)
                        : opt.prune > 0;
    res.space_size = space.size();
    if (opt.strategy == Strategy::EVOLVE ||
        opt.strategy == Strategy::HALVING) {
        res.generations = opt.generations;
        res.population = opt.population;
    }
    for (const std::vector<std::size_t> &sel : shape.rung_sel)
        res.rungs.push_back(static_cast<int>(sel.size()));
    if (!shape.rung_sel.empty())
        for (std::size_t w : shape.rung_sel.front())
            res.screen_workloads.push_back(shape.names[w]);
    res.promote_frac = opt.promote_frac;
    res.rung_screened.assign(res.rungs.size(), 0);
    res.rung_promoted.assign(res.rungs.size(), 0);
    res.shard_index = opt.shard_index;
    res.shard_count = opt.shard_count;
    res.hv_ref = opt.hv_ref;
    return res;
}

/**
 * The state every strategy shares — evaluator, frontier, the seen
 * set and stripe sampler, the budget counter — and the one admission
 * path into the frontier pipeline.
 *
 * Strategies hand candidates to admit(), which cuts them into
 * POINT_BATCH slices. Each slice is pruned against every earlier
 * admission (never against itself) and its missing cells are
 * submitted to the pool. Commits — cells awaited, objectives folded,
 * the frontier updated — happen strictly in admission order,
 * whenever more than MAX_STREAM_DEPTH batches wait and at sync(), so
 * the committed state sequence depends on the admission sequence
 * alone. mark() closes a generation: its progress record is taken
 * when the commit cursor reaches the generation's last batch.
 */
class Search
{
  public:
    Search(const DesignSpace &space, const ExploreOptions &opt,
           const RunShape &shape, DseResult &res)
        : space(space), opt(opt), res(res), ev(opt, shape.names),
          all_sel(shape.names.size())
    {
        for (std::size_t w = 0; w < all_sel.size(); w++)
            all_sel[w] = w;
        if (opt.trace)
            opt.trace->threadName(Evaluator::POOL_PID, EXPLORER_TID,
                                  "explorer");

        // The sampled stripe of the enumeration order: all of it
        // for an unsharded run, the shard_index-th of shard_count
        // balanced index ranges otherwise.
        const auto count = static_cast<std::uint64_t>(opt.shard_count);
        const auto idx = static_cast<std::uint64_t>(opt.shard_index);
        const std::uint64_t base = space.size() / count;
        const std::uint64_t rem = space.size() % count;
        stripe_lo = base * idx + std::min(idx, rem);
        stripe_size = base + (idx < rem ? 1 : 0);

        // Resumed points re-enter the frontier with their saved
        // objectives, without re-simulation or budget.
        for (const SeedPoint &sp : opt.resume.points) {
            if (!seen.insert(sp.point.key()).second)
                continue;
            if (inStripe(sp.point))
                in_stripe_seen++;
            PointResult pr;
            pr.point = sp.point;
            pr.model = makeRfConfig(sp.point.modelPoint());
            pr.obj = sp.obj;
            pr.resumed = true;
            prune_entries.push_back(pruneEntryFor(sp.point));
            resumed.push_back(add(std::move(pr)));
        }
        res.resumed = resumed.size();
    }

    const DesignSpace &space;
    const ExploreOptions &opt;
    DseResult &res;
    Evaluator ev;
    ParetoFrontier frontier;
    std::uint64_t stripe_lo = 0;
    std::uint64_t stripe_size = 0;
    std::vector<int> resumed;    ///< res.evaluated indices
    int gen = -1;                ///< stamped into PointResult::gen
    /** Distinct candidates offered (evaluated, pruned, or screened);
     *  the budget caps it. */
    std::uint64_t considered = 0;

    std::uint64_t
    budgetLeft() const
    {
        if (opt.budget == 0)
            return std::numeric_limits<std::uint64_t>::max();
        return opt.budget > considered ? opt.budget - considered : 0;
    }

    bool offered(const DesignPoint &p) const { return seen.count(p.key()); }

    const PointResult &
    at(int idx) const
    {
        return res.evaluated[static_cast<std::size_t>(idx)];
    }

    /**
     * Offer @p p: false if it was offered (or resumed) before;
     * otherwise it counts toward the budget, and toward stripe
     * exhaustion if it lies in this run's stripe (neighbors and
     * offspring may step outside it).
     */
    bool
    claim(const DesignPoint &p)
    {
        if (!seen.insert(p.key()).second)
            return false;
        if (inStripe(p))
            in_stripe_seen++;
        considered++;
        return true;
    }

    /** Hand up to @p want claimed, uniformly drawn points of this
     *  run's stripe to @p take, in draw order. */
    template <typename Take>
    void
    sample(Rng &rng, std::uint64_t want, Take &&take)
    {
        std::uint64_t got = 0;
        std::uint64_t attempts = 0;
        const std::uint64_t max_attempts = want * 64 + 1024;
        while (got < want && in_stripe_seen < stripe_size &&
               attempts++ < max_attempts) {
            const DesignPoint p = space.pointAt(
                    stripe_lo + rng.nextBounded(stripe_size));
            if (claim(p)) {
                got++;
                take(p);
            }
        }
    }

    /** Admit @p p to the frontier pipeline: the only way in. */
    void
    admit(const DesignPoint &p)
    {
        pending.push_back(p);
        if (pending.size() == POINT_BATCH)
            cut();
    }

    /** Close generation @p progress_gen (see the class comment). */
    void
    mark(int progress_gen)
    {
        cut();
        due.push_back({batches_admitted, progress_gen});
        takeProgress();
    }

    /** Commit everything admitted. */
    void
    sync()
    {
        cut();
        while (!pipeline.empty())
            commitOldest();
    }

    /** Commit everything, then fill the report's frontier flags and
     *  cost counters. */
    void
    finish()
    {
        sync();
        for (const ParetoFrontier::Member &m : frontier.members()) {
            res.frontier.push_back(m.point_index);
            res.evaluated[static_cast<std::size_t>(m.point_index)]
                    .on_frontier = true;
        }
        res.sim_reuse = ev.simReuse();
        res.sim_cells = ev.simCells();
        if (const CellStore *cs = ev.cellStore()) {
            const CellStore::Counts c = cs->counts();
            res.store_hits = c.hits;
            res.store_misses = c.misses;
            res.store_stores = c.stores;
            res.store_errors = c.errors;
            cs->stats().flatten(res.stats_lines);
        }
        res.hv = res.progress.empty() ? 0.0
                                      : res.progress.back().hypervolume;
        if (opt.progress)
            ev.informSummary();
    }

  private:
    /** An admitted batch, or a progress record due once `batches`
     *  batches have committed. */
    struct Batch
    {
        Evaluator::Ticket ticket;
        int gen;
    };
    struct Due
    {
        std::uint64_t batches;
        int gen;
    };

    bool
    inStripe(const DesignPoint &p) const
    {
        if (!space.contains(p))
            return false;
        const std::uint64_t idx = space.indexOf(p);
        return idx >= stripe_lo && idx < stripe_lo + stripe_size;
    }

    int
    add(PointResult pr)
    {
        const int idx = static_cast<int>(res.evaluated.size());
        frontier.insert(idx, pr.obj);
        res.evaluated.push_back(std::move(pr));
        return idx;
    }

    /** Push the pending slice, pruned against every earlier
     *  admission, then bound the pipeline depth. */
    void
    cut()
    {
        std::vector<DesignPoint> kept;
        for (const DesignPoint &p : pending) {
            if (res.prune &&
                modelDominated(prune_entries, pruneEntryFor(p)))
                res.pruned++;
            else
                kept.push_back(p);
        }
        pending.clear();
        for (const DesignPoint &p : kept)
            prune_entries.push_back(pruneEntryFor(p));
        if (!kept.empty()) {
            pipeline.push_back({ev.begin(std::move(kept), all_sel), gen});
            batches_admitted++;
        }
        while (pipeline.size() > MAX_STREAM_DEPTH)
            commitOldest();
    }

    void
    commitOldest()
    {
        Batch b = std::move(pipeline.front());
        pipeline.pop_front();
        batches_committed++;
        std::vector<PointResult> folded = ev.collect(b.ticket);
        for (PointResult &pr : folded) {
            pr.gen = b.gen;
            add(std::move(pr));
        }
        if (opt.trace)
            opt.trace->instant(("commit batch " +
                                std::to_string(batches_committed) +
                                " (+" + std::to_string(folded.size()) +
                                " points)")
                                       .c_str(),
                               Evaluator::POOL_PID, EXPLORER_TID,
                               opt.trace->wallUs());
        takeProgress();
    }

    void
    takeProgress()
    {
        while (!due.empty() && due.front().batches <= batches_committed) {
            DseResult::GenStat s;
            s.gen = due.front().gen;
            s.evaluated = res.evaluated.size();
            s.frontier_size = frontier.size();
            s.hypervolume =
                    hypervolume(frontier.objectives(), opt.hv_ref);
            res.progress.push_back(s);
            due.pop_front();
        }
    }

    std::vector<std::size_t> all_sel;
    std::vector<PruneEntry> prune_entries;
    /** Keys ever offered or resumed: no point is offered twice. */
    std::set<std::string> seen;
    std::uint64_t in_stripe_seen = 0;
    std::vector<DesignPoint> pending;
    std::deque<Batch> pipeline;
    std::deque<Due> due;
    std::uint64_t batches_admitted = 0;
    std::uint64_t batches_committed = 0;
};

/**
 * GRID: the stripe in enumeration order, skipping resumed points, up
 * to the budget — streamed from a cursor, so walking a 10^7-point
 * space never materializes the stripe. The walk only *checks* the
 * seen set: enumeration cannot yield a key twice and no later phase
 * reads the set, so claiming every key would grow it with the stripe
 * for nothing.
 */
void
searchGrid(Search &s)
{
    PointCursor cur(s.space, s.stripe_lo, s.stripe_size);
    for (DesignPoint p; s.budgetLeft() > 0 && cur.next(p);) {
        if (s.offered(p))
            continue;
        s.considered++;
        s.admit(p);
    }
    s.mark(0);
}

/** RANDOM: seeded uniform draws of distinct stripe points, each
 *  admitted as it is drawn. */
void
searchRandom(Search &s)
{
    Rng rng(s.opt.seed);
    s.sample(rng, s.opt.budget,
             [&](const DesignPoint &p) { s.admit(p); });
    s.mark(0);
}

/**
 * HILL_CLIMB: expand the best unexpanded frontier member's
 * single-step neighborhood; when every member is expanded, restart
 * from a seeded sample. Each restart draws from its own (seed,
 * restart index) stream, so restart K's sample cannot drift with how
 * many draws earlier restarts consumed.
 */
void
searchHill(Search &s)
{
    if (s.stripe_size > 0) {
        const DesignPoint start = s.space.pointAt(s.stripe_lo);
        if (s.claim(start))
            s.admit(start);
        s.sync();
    }
    std::set<std::string> expanded;
    while (s.budgetLeft() > 0) {
        // First in-space frontier member (best IPC) not yet
        // expanded. Resumed members outside the restricted space
        // still anchor the frontier, but expanding them would step
        // sideways out of the space the user asked for.
        std::optional<DesignPoint> pick;
        for (const ParetoFrontier::Member &m : s.frontier.members()) {
            const DesignPoint &p = s.at(m.point_index).point;
            if (!expanded.count(p.key()) && s.space.contains(p)) {
                pick = p;
                break;
            }
        }
        if (pick) {
            expanded.insert(pick->key());
            for (const DesignPoint &n : s.space.neighbors(*pick)) {
                if (s.budgetLeft() == 0)
                    break;
                if (s.claim(n))
                    s.admit(n);
            }
        } else {
            Rng rng(mixSeeds(s.opt.seed,
                             STREAM_HILL_RESTART + s.res.restarts));
            s.res.restarts++;
            bool drawn = false;
            s.sample(rng, 1, [&](const DesignPoint &p) {
                s.admit(p);
                drawn = true;
            });
            if (!drawn)
                break;    // space exhausted
        }
        s.sync();
    }
    s.mark(0);
}

/** Objective vectors of the res.evaluated entries @p idxs. */
std::vector<Objectives>
objectivesOf(const Search &s, const std::vector<int> &idxs)
{
    std::vector<Objectives> objs;
    objs.reserve(idxs.size());
    for (int i : idxs)
        objs.push_back(s.at(i).obj);
    return objs;
}

/**
 * EVOLVE: generation 0 is the in-space resumed points plus a random
 * top-up (a resume with --generations 0 is a pure replay and
 * evaluates nothing); each later generation breeds offspring by
 * tournament, crossover, and mutation, then keeps the NSGA-II best
 * of parents + offspring.
 */
void
searchEvolve(Search &s)
{
    const ExploreOptions &opt = s.opt;
    const auto pop_size = static_cast<std::size_t>(opt.population);
    // Committed points land at the end of res.evaluated.
    auto appendSince = [&](int first, std::vector<int> &to) {
        for (int i = first; i < static_cast<int>(s.res.evaluated.size());
             i++)
            to.push_back(i);
    };

    std::vector<int> population;
    for (int idx : s.resumed)
        if (s.space.contains(s.at(idx).point))
            population.push_back(idx);
    s.gen = 0;
    int first = static_cast<int>(s.res.evaluated.size());
    if (opt.generations > 0 || s.resumed.empty()) {
        Rng rng(mixSeeds(opt.seed, STREAM_EVOLVE_INIT));
        const std::uint64_t want = std::min<std::uint64_t>(
                s.budgetLeft(), population.size() < pop_size
                                        ? pop_size - population.size()
                                        : 0);
        s.sample(rng, want, [&](const DesignPoint &p) { s.admit(p); });
    }
    s.mark(0);
    s.sync();
    appendSince(first, population);

    for (int g = 1; g <= opt.generations; g++) {
        if (population.size() < 2 || s.budgetLeft() == 0)
            break;
        s.gen = g;
        first = static_cast<int>(s.res.evaluated.size());
        Rng rng(mixSeeds(opt.seed, STREAM_EVOLVE_GEN +
                                           static_cast<std::uint64_t>(g)));
        const std::vector<Objectives> objs =
                objectivesOf(s, population);
        const std::vector<int> rank = nonDominationRanks(objs);
        const std::vector<double> crowd = crowdingDistances(objs, rank);
        auto parent = [&]() -> const DesignPoint & {
            const std::size_t a = rng.nextBounded(population.size());
            const std::size_t b = rng.nextBounded(population.size());
            const std::size_t w = nsgaBetter(a, b, rank, crowd) ? a : b;
            return s.at(population[w]).point;
        };

        // Breed up to a population of distinct, unseen offspring
        // (bounded attempts: a tight space or a converged population
        // may have nothing new to offer).
        const std::uint64_t want =
                std::min<std::uint64_t>(s.budgetLeft(), pop_size);
        std::uint64_t bred = 0;
        std::uint64_t attempts = 0;
        const std::uint64_t max_attempts = want * 64 + 256;
        while (bred < want && attempts++ < max_attempts) {
            // The references stay valid: nothing commits before the
            // child is admitted.
            const DesignPoint &pa = parent();
            const DesignPoint &pb = parent();
            DesignPoint child = crossover(pa, pb, rng, s.space);
            if (rng.nextBool(MUTATION_P)) {
                const std::vector<DesignPoint> nb =
                        s.space.neighbors(child);
                if (!nb.empty())
                    child = nb[rng.nextBounded(nb.size())];
            }
            if (s.claim(child)) {
                s.admit(child);
                bred++;
            }
        }
        s.mark(g);
        if (bred == 0)
            break;
        s.sync();

        // Environmental selection over parents + offspring.
        std::vector<int> pool = population;
        appendSince(first, pool);
        const std::vector<std::size_t> order =
                nsgaOrder(objectivesOf(s, pool));
        population.clear();
        for (std::size_t k = 0; k < order.size() && k < pop_size; k++)
            population.push_back(pool[order[k]]);
    }
}

/**
 * HALVING: every generation's pool is sampled and its first-rung
 * screening submitted up front — sampling reads only the seen set
 * and the budget, never a result — so later generations' screens
 * run while earlier generations' promotions are in flight. Each
 * generation then cascades through the rung schedule: ranking rung
 * k waits only on rung k's cells, each promotion reuses every cell
 * screened below it, and the full-fidelity survivors are admitted to
 * the frontier pipeline.
 */
void
searchHalving(Search &s, const RunShape &shape)
{
    const ExploreOptions &opt = s.opt;
    DseResult &res = s.res;
    s.mark(0);

    struct Pool
    {
        std::vector<DesignPoint> points;
        Evaluator::Ticket screen;
    };
    std::vector<Pool> pools;
    for (int g = 0; g < opt.generations && s.budgetLeft() > 0; g++) {
        Rng rng(mixSeeds(opt.seed, STREAM_HALVING_GEN +
                                           static_cast<std::uint64_t>(g)));
        Pool pool;
        s.sample(rng,
                 std::min<std::uint64_t>(
                         s.budgetLeft(),
                         static_cast<std::uint64_t>(opt.population)),
                 [&](const DesignPoint &p) {
                     pool.points.push_back(p);
                 });
        if (pool.points.empty())
            break;    // space exhausted
        res.screened += pool.points.size();
        res.rung_screened[0] += pool.points.size();
        pool.screen = s.ev.begin(pool.points, shape.rung_sel[0]);
        pools.push_back(std::move(pool));
    }

    const std::size_t num_rungs = shape.rung_sel.size();
    for (std::size_t gi = 0; gi < pools.size(); gi++) {
        s.gen = static_cast<int>(gi) + 1;
        std::vector<DesignPoint> survivors = std::move(pools[gi].points);
        Evaluator::Ticket ticket = std::move(pools[gi].screen);
        for (std::size_t k = 0; k + 1 < num_rungs; k++) {
            const std::vector<PointResult> screened = s.ev.collect(ticket);
            std::vector<Objectives> objs;
            objs.reserve(screened.size());
            for (const PointResult &pr : screened)
                objs.push_back(pr.obj);
            const std::vector<std::size_t> order = nsgaOrder(objs);
            // At least one, at most all.
            const std::size_t promote = std::min(
                    survivors.size(),
                    std::max<std::size_t>(
                            1, static_cast<std::size_t>(std::ceil(
                                       static_cast<double>(
                                               survivors.size()) *
                                       opt.promote_frac))));
            std::vector<DesignPoint> next;
            next.reserve(promote);
            for (std::size_t j = 0; j < promote; j++)
                next.push_back(survivors[order[j]]);
            res.rung_promoted[k] += promote;
            if (opt.trace)
                opt.trace->instant(
                        ("gen " + std::to_string(s.gen) + " rung " +
                         std::to_string(k) + ": promote " +
                         std::to_string(promote) + "/" +
                         std::to_string(survivors.size()))
                                .c_str(),
                        Evaluator::POOL_PID, EXPLORER_TID,
                        opt.trace->wallUs());
            survivors = std::move(next);
            if (k + 2 < num_rungs) {
                // An intermediate screening rung: still below full
                // fidelity, so its points count as screened.
                res.screened += survivors.size();
                res.rung_screened[k + 1] += survivors.size();
                ticket = s.ev.begin(survivors, shape.rung_sel[k + 1]);
            }
        }
        res.rung_screened[num_rungs - 1] += survivors.size();
        for (const DesignPoint &p : survivors)
            s.admit(p);
        s.mark(s.gen);
    }
}

} // namespace

DseResult
explore(const DesignSpace &space, const ExploreOptions &opt)
{
    const RunShape shape = validateOptions(space, opt);
    DseResult res = reportHeader(space, opt, shape);
    if (res.prune && !pruneCanFire(space))
        warnInactivePrune(space);

    Search s(space, opt, shape, res);
    switch (opt.strategy) {
      case Strategy::GRID:       searchGrid(s); break;
      case Strategy::RANDOM:     searchRandom(s); break;
      case Strategy::HILL_CLIMB: searchHill(s); break;
      case Strategy::EVOLVE:     searchEvolve(s); break;
      case Strategy::HALVING:    searchHalving(s, shape); break;
    }
    s.finish();
    return res;
}

Json
DseResult::toJson() const
{
    Json root = Json::object();
    root.set("schema", "ltrf.dse.v4");
    root.set("strategy", strategyName(strategy));
    root.set("budget", budget);
    // As a string, like ResultSet seeds: doubles round above 2^53.
    root.set("seed", std::to_string(seed));
    root.set("num_sms", num_sms);
    root.set("prune", prune);
    root.set("space_size", space_size);
    root.set("shard_index", shard_index);
    root.set("shard_count", shard_count);
    root.set("generations", generations);
    root.set("population", population);
    if (!screen_workloads.empty()) {
        Json sw = Json::array();
        for (const std::string &w : screen_workloads)
            sw.push(w);
        root.set("screen_workloads", std::move(sw));
        root.set("promote_frac", promote_frac);
    }
    if (!rungs.empty()) {
        // The rung schedule and its per-rung counters (v4): how
        // many points entered each fidelity level and how many it
        // promoted, summed over generations.
        Json rc = Json::array();
        for (int n : rungs)
            rc.push(n);
        root.set("rungs", std::move(rc));
        Json rs = Json::array();
        for (std::uint64_t v : rung_screened)
            rs.push(v);
        root.set("rung_screened", std::move(rs));
        Json rp = Json::array();
        for (std::uint64_t v : rung_promoted)
            rp.push(v);
        root.set("rung_promoted", std::move(rp));
    }
    Json ref = Json::object();
    ref.set("ipc", hv_ref.ipc);
    ref.set("energy", hv_ref.energy);
    ref.set("area", hv_ref.area);
    root.set("hv_ref", std::move(ref));
    Json wl = Json::array();
    for (const std::string &w : workloads)
        wl.push(w);
    root.set("workloads", std::move(wl));

    Json counters = Json::object();
    counters.set("evaluated", std::uint64_t{evaluated.size()});
    counters.set("pruned", pruned);
    counters.set("sim_reuse", sim_reuse);
    counters.set("sim_cells", sim_cells);
    counters.set("screened", screened);
    counters.set("resumed", resumed);
    counters.set("restarts", restarts);
    root.set("counters", std::move(counters));

    root.set("hypervolume", hv);
    Json prog = Json::array();
    for (const GenStat &s : progress) {
        Json j = Json::object();
        j.set("gen", s.gen);
        j.set("evaluated", s.evaluated);
        j.set("frontier_size", s.frontier_size);
        j.set("hypervolume", s.hypervolume);
        prog.push(std::move(j));
    }
    root.set("progress", std::move(prog));

    Json pts = Json::array();
    for (const PointResult &pr : evaluated)
        pts.push(pointToJson(pr));
    root.set("points", std::move(pts));

    Json front = Json::array();
    for (int idx : frontier)
        front.push(evaluated[static_cast<std::size_t>(idx)]
                           .point.key());
    root.set("frontier", std::move(front));
    return root;
}

std::string
DseResult::toCsv() const
{
    // Header and rows walk pointToJson()'s keys (the nested axis
    // map flattens to one column per registry axis), so the column
    // set cannot drift from the JSON schema. String fields are
    // RFC 4180-quoted; number/bool texts never need it.
    auto cell = [](const Json &v) {
        return v.type() == Json::Type::STRING
                       ? harness::csvField(v.asString())
                       : v.dump();
    };
    std::string out;
    for (std::size_t i = 0; i < evaluated.size(); i++) {
        const Json j = pointToJson(evaluated[i]);
        if (i == 0) {
            bool first = true;
            for (const auto &[key, v] : j.items()) {
                if (v.type() == Json::Type::OBJECT) {
                    for (const auto &[name, av] : v.items()) {
                        (void)av;
                        if (!first)
                            out += ',';
                        first = false;
                        out += name;
                    }
                    continue;
                }
                if (!first)
                    out += ',';
                first = false;
                out += key;
            }
            out += '\n';
        }
        bool first = true;
        for (const auto &[key, v] : j.items()) {
            (void)key;
            if (v.type() == Json::Type::OBJECT) {
                for (const auto &[name, av] : v.items()) {
                    (void)name;
                    if (!first)
                        out += ',';
                    first = false;
                    out += cell(av);
                }
                continue;
            }
            if (!first)
                out += ',';
            first = false;
            out += cell(v);
        }
        out += '\n';
    }
    // The per-generation hypervolume table, as a second CSV block.
    if (!progress.empty()) {
        if (!out.empty())
            out += '\n';
        out += "gen,evaluated,frontier_size,hypervolume\n";
        for (const GenStat &s : progress) {
            out += std::to_string(s.gen);
            out += ',' + std::to_string(s.evaluated);
            out += ',' + std::to_string(s.frontier_size);
            out += ',' + harness::jsonNumberText(s.hypervolume);
            out += '\n';
        }
    }
    return out;
}

std::string
DseResult::dumpAs(harness::OutputFormat format) const
{
    return format == harness::OutputFormat::CSV
                   ? toCsv()
                   : toJson().dump(2) + "\n";
}

} // namespace ltrf::dse
