/**
 * @file
 * Shared pieces of the benchmark's workloads: run options,
 * the result a run prints, the benchmark's own span log, per-cell
 * output fingerprints, and the layered cell runner that times each
 * library call a simulation cell makes.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/gpu.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 2018;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for cell stores; removed at exit. */
    std::string work;
    /** Directory the traced run writes its span files to. */
    std::string out;
    int nproc = 1;
    /** DSE pool workers: min(4, nproc). */
    int workers = 1;
};

/** One named metric of a run. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run reports: metrics, output-check tallies, and the
 *  human-readable lines printed above the JSON result. */
struct Result
{
    std::vector<Metric> metrics;
    /** Cells attempted / cells that failed an output check. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False once any check failed, including run-level ones that
     *  cover no cell. */
    bool correct = true;
    std::vector<std::string> notes;

    void add(const std::string &name, double value, const char *unit);

    /** Count @p cells attempted; all of them fail when !ok. */
    void check(bool ok, std::uint64_t cells, const std::string &what);

    void note(const std::string &line) { notes.push_back(line); }
};

/** Microseconds on one monotonic clock shared by all spans. */
double nowUs();

/** Seconds since @p t0_us (a nowUs() reading). */
inline double
secondsSince(double t0_us)
{
    return (nowUs() - t0_us) / 1e6;
}

/**
 * The benchmark's own spans, one per library call, kept in memory
 * and written as a Chrome trace through obs::TraceSink at exit.
 * Spans of one cell share its id (the trace lane).
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int cell = 0;
        double start_us = 0.0;
        double end_us = 0.0;
    };

    /** Record a finished span and return its length in ms. */
    double add(const std::string &name, int cell, double start_us,
               double end_us);

    /** Label @p cell's lane in the written trace. */
    void label(int cell, const std::string &name);

    /** Write every span via obs::TraceSink to @p path. */
    void write(const std::string &path) const;

  private:
    std::vector<Span> spans;
    std::vector<std::pair<int, std::string>> labels;
};

/**
 * Fingerprint of every simulated statistic a cell returns that the
 * cell store also persists (cycles, instructions, IPC, occupancy, RF
 * and memory counters, activity rates): equal fingerprints mean the
 * simulated outcome is identical. Stall attribution, which only
 * traced runs collect, is fingerprinted separately.
 */
std::uint64_t cellFingerprint(const ltrf::SimResult &r);

/** Fingerprint of a traced cell's stall account and stat tree. */
std::uint64_t statFingerprint(const ltrf::SimResult &r);

/** Order-dependent digest over a sequence of cell fingerprints. */
std::uint64_t digestCombine(std::uint64_t digest, std::uint64_t fp);

/** The digest's start value. */
constexpr std::uint64_t DIGEST_SEED = 0xcbf29ce484222325ull;

/** "0x" + 16 hex digits. */
std::string hex64(std::uint64_t v);

/** The issue-slot identity, per SM: instructions + prefetch slots +
 *  all stall slots == issue slots. Needs collect_stall_stats. */
bool slotIdentityHolds(const ltrf::SimResult &r);

/** Host time of each library call one cell makes. */
struct CellLayers
{
    double static_ms = 0.0;     ///< compileWorkloadStatic
    double compile_ms = 0.0;    ///< compileWorkload (static + traces)
    double verify_ms = 0.0;     ///< verifyAnalysis
    double ctor_ms = 0.0;       ///< Gpu::Gpu (compiles again inside)
    double run_ms = 0.0;        ///< Gpu::run
    std::uint64_t trace_instrs = 0;
    bool verify_clean = true;
    ltrf::SimResult result;
};

/**
 * Run one cell through the library one call at a time, each call
 * timed as a span of cell @p id: compileWorkloadStatic,
 * compileWorkload, verifyAnalysis, Gpu::Gpu (with the in-constructor
 * verification off, since it was just timed on its own) and
 * Gpu::run, with the stall account collected.
 */
CellLayers runLayered(ltrf::SimConfig cfg, const ltrf::Workload &w,
                      std::uint64_t seed, SpanLog &log, int id);

/**
 * Per-layer aggregates over layered cells: the compiler, sim host
 * cost, sim step counts, and model statistics rows of the metric
 * table.
 */
class LayerTotals
{
  public:
    /** Real DSE cells verify, so verification counts toward the
     *  compiler's share of a cell. */
    void add(const CellLayers &c, int num_sms);

    /** Append the compiler/sim/core/mem metrics (all 0 if empty). */
    void emit(Result &out) const;

  private:
    std::uint64_t cells = 0;
    double static_ms = 0.0, trace_gen_ms = 0.0, verify_ms = 0.0;
    double construct_ms = 0.0, run_ms = 0.0;
    double path_ms = 0.0;       ///< what the real cell path pays
    double compiler_ms = 0.0;   ///< its compiler part
    std::uint64_t trace_instrs = 0;
    /** Gpu::run ns and instructions per design (BL, LTRF). */
    std::array<double, 2> design_run_ns{};
    std::array<std::uint64_t, 2> design_instrs{};
    std::uint64_t cycles = 0, sm_cycles = 0, instructions = 0;
    std::uint64_t stepped = 0, issued_stepped = 0, activations = 0;
    std::uint64_t issue_slots = 0;
    std::array<std::uint64_t, 5> stalls{};
    std::uint64_t main_accesses = 0, bank_conflicts = 0;
    std::uint64_t prefetch_ops = 0, cache_hits = 0, cache_reads = 0;
    std::uint64_t mem_stall_sum = 0, mem_stall_count = 0;
    double l1d_hit_sum = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
