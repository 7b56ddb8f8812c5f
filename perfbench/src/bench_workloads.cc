#include "bench_workloads.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include <sys/wait.h>
#include <unistd.h>

#include "dse/cell_store.hh"
#include "dse/explorer.hh"
#include "harness/json.hh"
#include "metrics.hh"
#include "obs/trace_sink.hh"

namespace perfbench
{

using namespace ltrf;
namespace fs = std::filesystem;

namespace
{

template <typename... Args>
std::string
fmt(const char *f, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), f, args...);
    return buf;
}

/** Every run prints the same end-to-end metrics in the same order;
 *  peak_rss_mb and success_rate are added by the caller last. */
void
addEndToEnd(Result &r, double setup_s, double cells, double instrs,
            double busy_s, const std::vector<double> &latency_ms,
            const std::string &latency_what)
{
    r.add("setup_s", setup_s, "s");
    r.add("cells_per_s", cells / busy_s, "1/s");
    r.add("sim_instr_per_s", instrs / busy_s, "1/s");
    const Percentile p80 = nearestRank(latency_ms, 4, 5);
    const Quartiles q = quartiles(latency_ms);
    r.add("latency_ms_p50", median(latency_ms), "ms");
    r.add("latency_ms_p80", p80.value, "ms");
    r.note(fmt("latency: %zu samples (%s), quartiles %.3f / %.3f / "
               "%.3f ms; p80 is rank %zu with %zu beyond it",
               latency_ms.size(), latency_what.c_str(), q.q1, q.q2, q.q3,
               p80.rank, p80.beyond));
    r.check(p80.beyond >= MIN_BEYOND, 0,
            "p80 leaves fewer than 10 latency samples beyond it");
}

void
noteDigest(Result &r, std::uint64_t digest, std::uint64_t cycles,
           std::uint64_t instrs, std::size_t cells)
{
    r.note("sim_digest=" + hex64(digest) + " cells=" +
           std::to_string(cells) + " sim_cycles=" + std::to_string(cycles) +
           " sim_instructions=" + std::to_string(instrs));
}

/** Rows of the metric table that describe the DSE machinery; all 0
 *  on a workload that does not run it. */
struct DseLayers
{
    double pool_busy_frac = 0, concurrency_slowdown = 0, cell_ms_max = 0;
    double explorer_self_ms = 0, warm_us_per_cell = 0;
    double sim_cells = 0, sim_reuse = 0;
    double load_us = 0, store_us = 0;
    double hits = 0, misses = 0, stores = 0, errors = 0;

    void
    counters(const dse::DseResult &d)
    {
        sim_cells = static_cast<double>(d.sim_cells);
        sim_reuse = static_cast<double>(d.sim_reuse);
        hits = static_cast<double>(d.store_hits);
        misses = static_cast<double>(d.store_misses);
        stores = static_cast<double>(d.store_stores);
        errors = static_cast<double>(d.store_errors);
    }

    void
    emit(Result &r) const
    {
        r.add("harness.pool_busy_frac", pool_busy_frac, "frac");
        r.add("harness.concurrency_slowdown", concurrency_slowdown,
              "ratio");
        r.add("harness.cell_ms_max", cell_ms_max, "ms");
        r.add("dse.explorer_self_ms", explorer_self_ms, "ms");
        r.add("dse.warm_us_per_cell", warm_us_per_cell, "us");
        r.add("dse.sim_cells", sim_cells, "count");
        r.add("dse.sim_reuse", sim_reuse, "count");
        r.add("cell_store.load_us", load_us, "us");
        r.add("cell_store.store_us", store_us, "us");
        r.add("cell_store.hits", hits, "count");
        r.add("cell_store.misses", misses, "count");
        r.add("cell_store.stores", stores, "count");
        r.add("cell_store.errors", errors, "count");
    }
};

/** The traced result's rows, in BENCHMARK.json order. */
void
emitLayers(Result &r, double suite_build_s, const LayerTotals &lt,
           const DseLayers &dl, double trace_overhead)
{
    r.add("workloads.suite_build_ms", suite_build_s * 1e3, "ms");
    lt.emit(r);
    dl.emit(r);
    r.add("obs.trace_overhead_frac", trace_overhead, "frac");
}

bool
saneResult(const SimResult &r)
{
    return r.instructions > 0 && r.cycles > 0 &&
           r.ipc == static_cast<double>(r.instructions) /
                            static_cast<double>(r.cycles);
}

// ----- dse-grid / dse-warm -----

constexpr int DSE_SMS = 4;

/** hp,tfet x banks 1,2 x bank sizes 1,2 x 16 KB x 8 warps,
 *  interval policy; the other axes at the CLI defaults. */
dse::DesignSpace
gridSpace()
{
    dse::DesignSpace s = dse::DesignSpace::defaults();
    s.techs = {CellTech::HP_SRAM, CellTech::TFET_SRAM};
    s.banks = {1, 2};
    s.bank_sizes = {1, 2};
    s.cache_kbs = {16};
    s.policies = {dse::PrefetchPolicy::INTERVAL};
    s.warps = {8};
    return s;
}

std::vector<std::string>
sensitiveNames()
{
    std::vector<std::string> names;
    for (const Workload *w : WorkloadSuite::sensitive())
        names.push_back(w->name);
    return names;
}

dse::ExploreOptions
gridOptions(const Options &opt, const std::string &dir, int jobs,
            obs::TraceSink *sink)
{
    dse::ExploreOptions o;
    o.strategy = dse::Strategy::GRID;
    o.seed = opt.seed;
    o.workloads = sensitiveNames();
    o.num_sms = DSE_SMS;
    o.jobs = jobs;
    o.cache_dir = dir;
    o.trace = sink;
    return o;
}

/** One (config, workload) cell the grid simulates: the BL baselines
 *  first, then every point x workload. */
struct GridCell
{
    SimConfig cfg;
    const Workload *workload = nullptr;
    std::string sim_key;
};

std::vector<GridCell>
gridCells(const dse::DesignSpace &space)
{
    std::vector<GridCell> cells;
    SimConfig base;
    base.num_sms = DSE_SMS;
    base.design = RfDesign::BL;
    for (const Workload *w : WorkloadSuite::sensitive())
        cells.push_back({base, w, dse::simKey(base)});
    for (const dse::DesignPoint &p : space.enumerate()) {
        const SimConfig cfg = dse::configFor(p, DSE_SMS);
        for (const Workload *w : WorkloadSuite::sensitive())
            cells.push_back({cfg, w, dse::simKey(cfg)});
    }
    return cells;
}

/** The explorer's store context for the grid (see explorer.cc):
 *  SM count and workload seed join the entry address. */
std::string
storeContext(const Options &opt)
{
    return "sms=" + std::to_string(DSE_SMS) +
           "|seed=" + std::to_string(opt.seed);
}

/** Results of every grid cell read back from a store. */
struct StoredCells
{
    bool all_hit = true;
    std::vector<SimResult> results;
    std::vector<double> load_us;
    std::uint64_t digest = DIGEST_SEED;
    std::uint64_t instructions = 0, cycles = 0;
};

StoredCells
loadCells(const Options &opt, const std::string &dir,
          const std::vector<GridCell> &cells)
{
    StoredCells s;
    dse::CellStore store(dir, storeContext(opt));
    for (const GridCell &c : cells) {
        SimResult res;
        const double t = nowUs();
        const bool hit = store.load(c.sim_key, c.workload->name, res);
        s.load_us.push_back(nowUs() - t);
        res.design = c.cfg.design;
        s.all_hit = s.all_hit && hit && saneResult(res);
        s.digest = digestCombine(s.digest, cellFingerprint(res));
        s.instructions += res.instructions;
        s.cycles += res.cycles;
        s.results.push_back(std::move(res));
    }
    return s;
}

/** Median CellStore::store time (us) of @p s's results into a fresh
 *  store under @p dir. */
double
storeMedianUs(const Options &opt, const std::string &dir,
              const std::vector<GridCell> &cells, const StoredCells &s)
{
    fs::remove_all(dir);
    dse::CellStore store(dir, storeContext(opt));
    std::vector<double> us;
    for (std::size_t i = 0; i < cells.size(); i++) {
        const double t = nowUs();
        store.store(cells[i].sim_key, cells[i].workload->name,
                    s.results[i]);
        us.push_back(nowUs() - t);
    }
    fs::remove_all(dir);
    return median(us);
}

/** Cell spans the explorer's pool wrote to @p sink (us). */
std::vector<Interval>
poolSpans(const obs::TraceSink &sink)
{
    std::vector<Interval> spans;
    const harness::Json j = harness::Json::parse(sink.toJsonText());
    const harness::Json &ev = j.at("traceEvents");
    for (std::size_t i = 0; i < ev.size(); i++) {
        const harness::Json &e = ev.at(i);
        const std::string name = e.stringOr("name", "");
        if (e.stringOr("ph", "") != "X" || e.numberOr("pid", -1) != 0 ||
            (name.rfind("sim", 0) != 0 && name.rfind("baseline", 0) != 0))
            continue;
        const double ts = e.numberOr("ts", 0);
        spans.push_back({ts, ts + e.numberOr("dur", 0)});
    }
    return spans;
}

double
summed(const std::vector<Interval> &spans)
{
    double s = 0.0;
    for (const Interval &i : spans)
        s += i.end - i.start;
    return s;
}

/** One explore() call with its wall interval on the sink's clock (or
 *  the benchmark clock without a sink) and its report text. */
struct Explored
{
    dse::DseResult result;
    Interval wall_us;
    std::string report;
    std::vector<Interval> spans;
};

Explored
exploreOnce(const dse::DesignSpace &space, const dse::ExploreOptions &o)
{
    Explored x;
    const auto clock = [&] {
        return o.trace ? static_cast<double>(o.trace->wallUs()) : nowUs();
    };
    x.wall_us.start = clock();
    x.result = dse::explore(space, o);
    x.wall_us.end = clock();
    x.report = x.result.toJson().dump();
    if (o.trace)
        x.spans = poolSpans(*o.trace);
    return x;
}

double
wallMs(const Explored &x)
{
    return (x.wall_us.end - x.wall_us.start) / 1e3;
}

/** A cold explore into a fresh directory must simulate and store
 *  every distinct cell once. */
bool
coldCountsOk(const dse::DseResult &d, std::size_t cells)
{
    return d.sim_cells == cells && d.sim_reuse == 0 &&
           d.store_misses == cells && d.store_stores == cells &&
           d.store_hits == 0 && d.store_errors == 0;
}

/** A warm explore must serve every cell from the store. */
bool
warmCountsOk(const dse::DseResult &d, std::size_t cells)
{
    return d.sim_cells == cells && d.store_hits == cells &&
           d.store_misses == 0 && d.store_stores == 0 &&
           d.store_errors == 0;
}

Result
dseGridUntraced(const Options &opt, double suite_build_s)
{
    Result r;
    const dse::DesignSpace space = gridSpace();
    const std::vector<GridCell> cells = gridCells(space);
    const std::size_t n = cells.size();
    const std::string dir = opt.work + "/grid";

    std::vector<double> wall_ms, cell_ms;
    std::string first_report;
    StoredCells first;
    const double start = nowUs();
    for (int rep = 0; rep == 0 || secondsSince(start) < opt.seconds;
         rep++) {
        fs::remove_all(dir);
        // The pool's own span sink is the only per-cell clock the
        // explorer offers; it costs three events per cell (measured
        // as obs.trace_overhead_frac by the traced run).
        obs::TraceSink sink;
        const Explored x =
                exploreOnce(space, gridOptions(opt, dir, opt.workers,
                                               &sink));
        wall_ms.push_back(wallMs(x));
        for (const Interval &s : x.spans)
            cell_ms.push_back((s.end - s.start) / 1e3);

        const StoredCells sc = loadCells(opt, dir, cells);
        if (rep == 0) {
            first_report = x.report;
            first = sc;
        }
        r.check(coldCountsOk(x.result, n) && x.spans.size() == n &&
                        x.report == first_report && sc.all_hit &&
                        sc.digest == first.digest,
                n,
                "grid repetition " + std::to_string(rep) +
                        ": report, store traffic or stored cells "
                        "differ");
    }
    fs::remove_all(dir);

    const double busy_s = median(wall_ms) / 1e3;
    addEndToEnd(r, suite_build_s, static_cast<double>(n),
                static_cast<double>(first.instructions), busy_s, cell_ms,
                "pool cell spans, all repetitions");
    r.note("explore() repetitions: " + std::to_string(wall_ms.size()) +
           fmt(", median %.1f ms", median(wall_ms)) +
           ", workers: " + std::to_string(opt.workers));
    noteDigest(r, first.digest, first.cycles, first.instructions, n);
    return r;
}

Result
dseGridTraced(const Options &opt, double suite_build_s)
{
    Result r;
    SpanLog log;
    const dse::DesignSpace space = gridSpace();
    const std::vector<GridCell> cells = gridCells(space);
    const std::size_t n = cells.size();
    const std::string dir = opt.work + "/grid";
    const int EXPLORE = 0;
    log.label(EXPLORE, "explore()");

    // The first explore() in a process runs slower (thread and heap
    // start-up); keep it out of the comparisons below.
    fs::remove_all(dir);
    exploreOnce(space, gridOptions(opt, dir, opt.workers, nullptr));

    // Without any sink (the untraced reference), with the pool sink
    // at N workers, and at one worker: one report for all three.
    fs::remove_all(dir);
    const Explored plain =
            exploreOnce(space, gridOptions(opt, dir, opt.workers, nullptr));
    log.add("explore plain", EXPLORE, plain.wall_us.start,
            plain.wall_us.end);
    fs::remove_all(dir);
    obs::TraceSink sink_n;
    double t = nowUs();
    const Explored at_n =
            exploreOnce(space, gridOptions(opt, dir, opt.workers, &sink_n));
    log.add("explore N workers", EXPLORE, t, nowUs());
    const std::string one_dir = opt.work + "/grid1";
    fs::remove_all(one_dir);
    obs::TraceSink sink_1;
    t = nowUs();
    const Explored at_1 =
            exploreOnce(space, gridOptions(opt, one_dir, 1, &sink_1));
    log.add("explore 1 worker", EXPLORE, t, nowUs());
    fs::remove_all(one_dir);
    sink_n.write(opt.out + "/perfbench_pool_dse-grid.json");

    r.check(coldCountsOk(at_n.result, n) && coldCountsOk(at_1.result, n) &&
                    at_n.report == plain.report &&
                    at_1.report == plain.report &&
                    at_n.spans.size() == n && at_1.spans.size() == n,
            3 * n,
            "grid reports differ between no sink, N workers and one "
            "worker, or store traffic is off");

    DseLayers dl;
    dl.counters(at_n.result);
    dl.pool_busy_frac = poolBusyFrac(summed(at_n.spans), opt.workers,
                                     at_n.wall_us.end -
                                             at_n.wall_us.start);
    dl.concurrency_slowdown =
            concurrencySlowdown(summed(at_n.spans), summed(at_1.spans));
    for (const Interval &s : at_n.spans)
        dl.cell_ms_max = std::max(dl.cell_ms_max, (s.end - s.start) / 1e3);
    dl.explorer_self_ms = selfTime(at_n.wall_us, at_n.spans) / 1e3;

    // The store, one call at a time.
    const StoredCells sc = loadCells(opt, dir, cells);
    r.check(sc.all_hit, n, "a stored grid cell failed to load");
    dl.load_us = median(sc.load_us);
    dl.store_us = storeMedianUs(opt, opt.work + "/restore", cells, sc);
    fs::remove_all(dir);

    // Every cell once more, layer by layer, verification on as in
    // real ltrf_dse runs.
    LayerTotals lt;
    std::uint64_t stat_digest = DIGEST_SEED;
    double traced_ms = 0.0;
    for (std::size_t i = 0; i < n; i++) {
        const GridCell &c = cells[i];
        const int id = static_cast<int>(i) + 1;
        log.label(id, "cell " + std::to_string(i) + " " +
                              c.workload->name + " " + c.sim_key);
        t = nowUs();
        const CellLayers cl = runLayered(c.cfg, *c.workload, opt.seed,
                                         log, id);
        traced_ms += log.add("cell", id, t, nowUs());
        lt.add(cl, DSE_SMS);
        r.check(cellFingerprint(cl.result) ==
                                cellFingerprint(sc.results[i]) &&
                        cl.verify_clean && slotIdentityHolds(cl.result),
                1,
                c.workload->name + " " + c.sim_key +
                        ": layered result differs from the explored "
                        "cell, or verification / slot identity fails");
        stat_digest = digestCombine(stat_digest,
                                    statFingerprint(cl.result));
    }
    r.note(fmt("layered cells: %zu, %.1f ms summed", n, traced_ms));
    noteDigest(r, sc.digest, sc.cycles, sc.instructions, n);
    r.note("stat_digest=" + hex64(stat_digest));

    emitLayers(r, suite_build_s, lt, dl,
               wallMs(at_n) / wallMs(plain) - 1.0);
    log.write(opt.out + "/perfbench_trace_dse-grid.json");
    return r;
}

/**
 * Worker count of the warm explores. The report does not depend on
 * it, and a warm cell is a ~10 us store read: with several workers the
 * explore waits on thread wake-ups instead, and on a contended host
 * its p80 swung from 0.8 to 4 ms between runs, against 1.1-1.5 ms at
 * one worker. The pool at N workers is dse-grid's subject (and the
 * traced warm run still reports it).
 */
constexpr int WARM_JOBS = 1;

/**
 * Warm explores per timing round. A warm explore is ~1 ms, and a
 * shared host slows it up to 1.6x for stretches of a few hundred ms to
 * many seconds; latency sample i is the fastest i-th call over all
 * rounds, so every sample is drawn from the whole run.
 */
constexpr std::size_t WARM_SLOTS = 200;

/** Fill a fresh store at @p dir with one cold grid explore. */
Explored
fillStore(const Options &opt, const dse::DesignSpace &space,
          const std::string &dir)
{
    fs::remove_all(dir);
    return exploreOnce(space, gridOptions(opt, dir, opt.workers, nullptr));
}

Result
dseWarmUntraced(const Options &opt, double suite_build_s)
{
    Result r;
    const dse::DesignSpace space = gridSpace();
    const std::vector<GridCell> cells = gridCells(space);
    const std::size_t n = cells.size();

    // Set-up: fill the store several times, each into a fresh
    // directory, and keep the last one.
    constexpr int FILLS = 3;
    std::vector<double> fill_s;
    std::string ref_report, dir;
    for (int k = 0; k < FILLS; k++) {
        if (!dir.empty())
            fs::remove_all(dir);
        dir = opt.work + "/warm" + std::to_string(k);
        const Explored x = fillStore(opt, space, dir);
        fill_s.push_back(wallMs(x) / 1e3);
        if (k == 0)
            ref_report = x.report;
        r.check(coldCountsOk(x.result, n) && x.report == ref_report, n,
                "store fill " + std::to_string(k) +
                        ": report or store traffic differs");
    }
    const StoredCells sc = loadCells(opt, dir, cells);
    r.check(sc.all_hit, n, "a stored cell failed to load");

    std::vector<double> lat_ms(WARM_SLOTS, 0.0);
    const dse::ExploreOptions o = gridOptions(opt, dir, WARM_JOBS, nullptr);
    const double start = nowUs();
    int rounds = 0;
    for (; rounds < 3 || secondsSince(start) < opt.seconds; rounds++) {
        for (std::size_t i = 0; i < WARM_SLOTS; i++) {
            const Explored x = exploreOnce(space, o);
            lat_ms[i] = rounds ? std::min(lat_ms[i], wallMs(x)) : wallMs(x);
            r.check(warmCountsOk(x.result, n) && x.report == ref_report,
                    n,
                    "warm explore " + std::to_string(i) + " of round " +
                            std::to_string(rounds) +
                            ": report differs from the cold one or a "
                            "cell missed the store");
        }
    }
    fs::remove_all(dir);

    const double busy_s = median(lat_ms) / 1e3;
    addEndToEnd(r, suite_build_s + median(fill_s), static_cast<double>(n),
                static_cast<double>(sc.instructions), busy_s, lat_ms,
                "warm explore() calls, each the fastest of " +
                        std::to_string(rounds) + " rounds");
    r.note(fmt("store fills: %d, median %.3f s (in setup_s)", FILLS,
               median(fill_s)));
    r.note("sim_instr_per_s counts the simulated instructions of the "
           "cells each warm explore() serves from the store");
    noteDigest(r, sc.digest, sc.cycles, sc.instructions, n);
    return r;
}

Result
dseWarmTraced(const Options &opt, double suite_build_s)
{
    Result r;
    SpanLog log;
    const dse::DesignSpace space = gridSpace();
    const std::vector<GridCell> cells = gridCells(space);
    const std::size_t n = cells.size();
    const std::string dir = opt.work + "/warm";
    const int EXPLORE = 0;
    log.label(EXPLORE, "explore()");

    double t = nowUs();
    const Explored fill = fillStore(opt, space, dir);
    log.add("store fill", EXPLORE, t, nowUs());
    r.check(coldCountsOk(fill.result, n), n, "store fill traffic is off");

    // Per repetition: an untraced and a traced warm explore at the
    // untraced runs' worker count, then a traced one at N workers for
    // the pool figures. Per-repetition figures are medians.
    constexpr int REPS = 25;
    std::vector<double> plain_ms, traced_ms, self_ms, summed_1;
    std::vector<double> busy, max_ms, summed_n;
    dse::DseResult last;
    for (int rep = 0; rep < REPS; rep++) {
        const Explored p = exploreOnce(
                space, gridOptions(opt, dir, WARM_JOBS, nullptr));
        plain_ms.push_back(wallMs(p));

        obs::TraceSink sink_1;
        t = nowUs();
        const Explored one =
                exploreOnce(space, gridOptions(opt, dir, WARM_JOBS, &sink_1));
        log.add("warm explore", EXPLORE, t, nowUs());
        traced_ms.push_back(wallMs(one));
        self_ms.push_back(selfTime(one.wall_us, one.spans) / 1e3);
        summed_1.push_back(summed(one.spans));

        obs::TraceSink sink_n;
        t = nowUs();
        const Explored x = exploreOnce(
                space, gridOptions(opt, dir, opt.workers, &sink_n));
        log.add("warm explore N workers", EXPLORE, t, nowUs());
        busy.push_back(poolBusyFrac(summed(x.spans), opt.workers,
                                    x.wall_us.end - x.wall_us.start));
        double mx = 0.0;
        for (const Interval &s : x.spans)
            mx = std::max(mx, (s.end - s.start) / 1e3);
        max_ms.push_back(mx);
        summed_n.push_back(summed(x.spans));

        r.check(warmCountsOk(p.result, n) && warmCountsOk(x.result, n) &&
                        warmCountsOk(one.result, n) &&
                        p.report == fill.report &&
                        x.report == fill.report &&
                        one.report == fill.report,
                3 * n,
                "warm repetition " + std::to_string(rep) +
                        ": report differs from the cold one or a cell "
                        "missed the store");
        last = x.result;
    }

    DseLayers dl;
    dl.counters(last);
    dl.pool_busy_frac = median(busy);
    dl.concurrency_slowdown =
            concurrencySlowdown(median(summed_n), median(summed_1));
    dl.cell_ms_max = median(max_ms);
    dl.explorer_self_ms = median(self_ms);
    dl.warm_us_per_cell = median(plain_ms) * 1e3 / static_cast<double>(n);

    const StoredCells sc = loadCells(opt, dir, cells);
    r.check(sc.all_hit, n, "a stored cell failed to load");
    dl.load_us = median(sc.load_us);
    dl.store_us = storeMedianUs(opt, opt.work + "/restore", cells, sc);
    fs::remove_all(dir);

    noteDigest(r, sc.digest, sc.cycles, sc.instructions, n);
    emitLayers(r, suite_build_s, LayerTotals{}, dl,
               median(traced_ms) / median(plain_ms) - 1.0);
    log.write(opt.out + "/perfbench_trace_dse-warm.json");
    return r;
}

} // namespace

double
coldSuiteBuildSeconds(int samples)
{
    std::vector<double> s;
    for (int i = 0; i < samples; i++) {
        int fd[2];
        if (pipe(fd) != 0)
            break;
        const pid_t pid = fork();
        if (pid == 0) {
            close(fd[0]);
            const double t = nowUs();
            const std::size_t size = WorkloadSuite::all().size();
            double sec = (nowUs() - t) / 1e6;
            if (size != 14)
                sec = -1.0;
            const bool ok = write(fd[1], &sec, sizeof(sec)) ==
                            static_cast<ssize_t>(sizeof(sec));
            _exit(ok ? 0 : 1);
        }
        close(fd[1]);
        double sec = -1.0;
        const bool got = pid > 0 &&
                         read(fd[0], &sec, sizeof(sec)) ==
                                 static_cast<ssize_t>(sizeof(sec));
        close(fd[0]);
        int status = 0;
        if (pid > 0)
            waitpid(pid, &status, 0);
        if (got && sec > 0.0 && WIFEXITED(status) &&
            WEXITSTATUS(status) == 0)
            s.push_back(sec);
    }
    return s.empty() ? 0.0 : median(s);
}

Result
runDseGrid(const Options &opt, double suite_build_s)
{
    return opt.trace ? dseGridTraced(opt, suite_build_s)
                     : dseGridUntraced(opt, suite_build_s);
}

Result
runDseWarm(const Options &opt, double suite_build_s)
{
    return opt.trace ? dseWarmTraced(opt, suite_build_s)
                     : dseWarmUntraced(opt, suite_build_s);
}

} // namespace perfbench
