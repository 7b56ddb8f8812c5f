/**
 * @file
 * `ltrf_run` — the experiment-sweep CLI driver.
 *
 * Exposes the harness SweepSpec on the command line so new
 * evaluation scenarios need a flag combination, not a new .cc main:
 *
 *   ltrf_run --workloads bfs,btree --designs BL,LTRF --rf-config 6 \
 *            --jobs 8 --json out.json
 *
 * Selector flags take comma-separated lists; --workloads also takes
 * the selectors "all", "sensitive", and "insensitive", and
 * --designs takes "all". Results print as a normalized-IPC table
 * per register file configuration and can be dumped as JSON ("-"
 * for stdout). JSON output is byte-identical for any --jobs value.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/log.hh"
#include "common/parse_num.hh"
#include "compiler/verify.hh"
#include "core/compile.hh"
#include "harness/runner.hh"
#include "obs/stats_json.hh"
#include "obs/trace_sink.hh"
#include "tech/rf_config.hh"
#include "workloads/workload.hh"

using namespace ltrf;
using namespace ltrf::harness;

namespace
{

constexpr const char *USAGE = R"(usage: ltrf_run [options]

Sweep selection:
  --workloads LIST   all | sensitive | insensitive | name,name,...
                     (default: all; see --list)
  --designs LIST     all | comma-separated register file designs:
                     BL, RFC, SHRF, LTRF-strand, LTRF, LTRF+, Ideal
                     (default: BL,RFC,LTRF,LTRF+,Ideal)
  --rf-config LIST   Table 2 configuration ids 1-7; 0 keeps the
                     baseline register file (default: 6)
  --latency-mult L   optional comma-separated main-RF latency
                     multipliers swept on top of each rf-config;
                     the resulting latency must stay within 1024
                     cycles (512x the 2-cycle baseline)
  --sms N            SMs to simulate (default: 4)
  --active-warps N   active-warp pool per SM, >= 1 (default:
                     Table 3)
  --seed S           workload seed (default: 2018)

Execution:
  --jobs N           worker threads; 0 = hardware concurrency
                     (default: 0)
  --no-normalize     skip the baseline runs and report raw IPC

Verification:
  --verify-only      compile each (workload, design) combination and
                     run the static kernel verifier instead of
                     simulating; prints a per-kernel PASS/FAIL table
                     plus diagnostics and exits 1 if any check fails
  --verify-skip LIST comma-separated check ids to skip: cfg, def-use,
                     interval, residency, dead-bit, capacity, prefetch

Output:
  --out PATH         write the ResultSet to PATH ("-" for stdout)
  --format F         json | csv (default: json)
  --json PATH        shorthand for --out PATH --format json
  --quiet            suppress the result table
  --list             list workloads and designs, then exit
  --help             show this message

Observability (separate files; the --out report is unaffected):
  --stats PATH       collect the per-cause issue-slot stall
                     attribution and dump the hierarchical stat tree
                     (per SM and aggregate) as JSON to PATH
  --trace PATH       record per-warp timeline spans (prefetches,
                     issues, stalls with cause; 1 cycle = 1 us) as
                     Chrome trace-event JSON to PATH
)";

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "ltrf_run: %s\n\n%s", msg.c_str(), USAGE);
    std::exit(2);
}

void
listTargets()
{
    std::printf("workloads (S = register-sensitive):\n");
    for (const Workload &w : WorkloadSuite::all())
        std::printf("  %-16s [%c]\n", w.name.c_str(),
                    w.register_sensitive ? 'S' : 'I');
    std::printf("\ndesigns:\n");
    for (RfDesign d : resolveDesigns("all"))
        std::printf("  %s\n", rfDesignName(d));
    std::printf("\nregister file configurations (Table 2):\n");
    for (const RfConfig &rc : rfConfigTable())
        std::printf("  #%d  %-9s %4.1fx capacity  %4.1fx latency\n",
                    rc.id, cellTechName(rc.tech), rc.capacity,
                    rc.latency);
}

struct Options
{
    SweepSpec spec;
    int jobs = 0;
    bool normalize = true;
    bool quiet = false;
    std::string out_path;
    OutputFormat format = OutputFormat::JSON;
    std::string stats_path;
    std::string trace_path;
    bool verify_only = false;
    VerifyOptions verify_opts;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    std::string workloads = "all";
    std::string designs = "BL,RFC,LTRF,LTRF+,Ideal";
    std::string rf_configs = "6";
    std::string latency_mults;

    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usageError(std::string(argv[i]) + " needs a value");
        return argv[++i];
    };
    // Checked whole-string parses (common/parse_num): out-of-range
    // values are usage errors, never silent wraps.
    auto intValue = [&](int &i) {
        std::string v = value(i);
        int n = 0;
        if (!parseInt(v, n))
            usageError("bad integer \"" + v + "\"");
        return n;
    };

    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--workloads") {
            workloads = value(i);
        } else if (a == "--designs") {
            designs = value(i);
        } else if (a == "--rf-config") {
            rf_configs = value(i);
        } else if (a == "--latency-mult") {
            latency_mults = value(i);
        } else if (a == "--sms") {
            opt.spec.num_sms = intValue(i);
        } else if (a == "--active-warps") {
            // SweepSpec reads 0 as "Table 3 default"; an explicit
            // value below 1 is a mistake, not that default.
            opt.spec.num_active_warps = intValue(i);
            if (opt.spec.num_active_warps < 1)
                usageError("--active-warps must be >= 1");
        } else if (a == "--seed") {
            std::string v = value(i);
            if (!parseUint64(v, opt.spec.seed))
                usageError("bad seed \"" + v + "\"");
        } else if (a == "--jobs") {
            opt.jobs = intValue(i);
            if (opt.jobs < 0)
                usageError("--jobs must be >= 0 (0 = hardware "
                           "concurrency)");
        } else if (a == "--no-normalize") {
            opt.normalize = false;
        } else if (a == "--out") {
            opt.out_path = value(i);
        } else if (a == "--format") {
            std::string v = value(i);
            if (!parseOutputFormat(v, opt.format))
                usageError("unknown format \"" + v +
                           "\" (expected json or csv)");
        } else if (a == "--json") {
            opt.out_path = value(i);
            opt.format = OutputFormat::JSON;
        } else if (a == "--verify-only") {
            opt.verify_only = true;
        } else if (a == "--verify-skip") {
            for (const std::string &s : splitList(value(i))) {
                VerifyCheck c;
                if (!parseVerifyCheck(s, c))
                    usageError("unknown verifier check \"" + s +
                               "\" (expected cfg, def-use, interval, "
                               "residency, dead-bit, capacity, or "
                               "prefetch)");
                opt.verify_opts.disable(c);
            }
        } else if (a == "--stats") {
            opt.stats_path = value(i);
        } else if (a == "--trace") {
            opt.trace_path = value(i);
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else if (a == "--list") {
            listTargets();
            std::exit(0);
        } else if (a == "--help" || a == "-h") {
            std::fputs(USAGE, stdout);
            std::exit(0);
        } else {
            usageError("unknown option \"" + a + "\"");
        }
    }

    opt.spec.workloads = resolveWorkloads(workloads);
    opt.spec.designs = resolveDesigns(designs);
    opt.spec.rf_cfg_ids.clear();
    for (const std::string &s : splitList(rf_configs)) {
        int id = 0;
        if (!parseInt(s, id))
            usageError("bad rf-config id \"" + s + "\"");
        opt.spec.rf_cfg_ids.push_back(id);
    }
    for (const std::string &s : splitList(latency_mults)) {
        double m = 0.0;
        if (!parseDouble(s, m) || m <= 0.0)
            usageError("bad latency multiplier \"" + s + "\"");
        opt.spec.latency_mults.push_back(m);
    }
    return opt;
}

/**
 * `--verify-only`: statically compile and verify every distinct
 * (workload, design, regs_per_interval) combination in the sweep —
 * no traces, no simulation. @return the process exit code: 0 when
 * every kernel verifies clean, 1 otherwise.
 */
int
runVerifyOnly(const Options &opt, const std::vector<SweepCell> &cells)
{
    struct Row
    {
        std::string workload;
        RfDesign design;
        VerifyResult res;
    };
    std::vector<Row> rows;
    std::set<std::tuple<std::string, int, int>> seen;
    for (const SweepCell &cell : cells) {
        // rf-config / latency axes do not change compilation; dedupe
        // to what the compiler actually sees.
        if (!seen.insert({cell.workload,
                          static_cast<int>(cell.config.design),
                          cell.config.regs_per_interval})
                     .second) {
            continue;
        }
        const Workload &w = WorkloadSuite::byName(cell.workload);
        CompiledWorkload cw = compileWorkloadStatic(w.kernel, cell.config);
        rows.push_back({cell.workload, cell.config.design,
                        verifyAnalysis(cw.analysis,
                                       cell.config.regs_per_interval,
                                       opt.verify_opts)});
    }

    int failed = 0;
    std::printf("%-16s %-12s %s\n", "workload", "design", "verdict");
    for (const Row &r : rows) {
        bool ok = r.res.clean();
        if (!ok)
            failed++;
        std::printf("%-16s %-12s %s\n", r.workload.c_str(),
                    rfDesignName(r.design), ok ? "PASS" : "FAIL");
        for (const VerifyDiag &d : r.res.diags)
            std::printf("    %s\n", d.toString().c_str());
        if (r.res.dropped > 0)
            std::printf("    ... and %d further diagnostics\n",
                        r.res.dropped);
    }
    std::printf("\n%zu/%zu kernel compilations verified clean\n",
                rows.size() - failed, rows.size());
    return failed > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::vector<SweepCell> cells = expandSweep(opt.spec);
    // Reject bad configurations here, on the main thread, before any
    // worker starts simulating.
    for (const SweepCell &c : cells)
        c.config.validate();

    if (opt.verify_only)
        return runVerifyOnly(opt, cells);

    // Observability rides on the cells' SimConfigs; the golden
    // ResultSet report is untouched either way.
    std::unique_ptr<obs::TraceSink> sink;
    if (!opt.trace_path.empty())
        sink = std::make_unique<obs::TraceSink>();
    if (sink || !opt.stats_path.empty()) {
        for (SweepCell &c : cells) {
            c.config.collect_stall_stats = !opt.stats_path.empty();
            c.config.trace = sink.get();
            // Disjoint pid ranges per cell: SM s of cell i shows up
            // as process i * num_sms + s.
            c.config.trace_pid_base = c.index * c.config.num_sms;
        }
    }

    ExperimentRunner runner(opt.jobs);
    const SimConfig baseline = baselineConfigFor(opt.spec);
    ResultSet rs =
            runner.run(cells, opt.normalize ? &baseline : nullptr);

    if (!opt.quiet) {
        std::vector<double> mults = opt.spec.latency_mults;
        if (mults.empty())
            mults.push_back(0.0);
        for (int id : opt.spec.rf_cfg_ids) {
            for (double m : mults) {
                if (id != 0) {
                    const RfConfig &rc = rfConfig(id);
                    std::printf("rf-config #%d (%s, %.1fx capacity, "
                                "%.1fx latency)",
                                id, cellTechName(rc.tech), rc.capacity,
                                rc.latency);
                } else {
                    std::printf("baseline register file");
                }
                if (m > 0.0)
                    std::printf(", latency x%.2f", m);
                std::printf(" — %s IPC, %zu workloads, %d jobs\n",
                            opt.normalize ? "normalized" : "raw",
                            opt.spec.workloads.size(), runner.jobs());
                rs.printTable(stdout, opt.spec.designs, id, m);
                std::printf("\n");
            }
        }
    }

    if (!opt.out_path.empty())
        rs.writeFile(opt.out_path, opt.format);

    if (!opt.stats_path.empty()) {
        obs::HarnessMetrics hm;
        hm.jobs = runner.jobs();
        hm.cells = cells.size();
        hm.queue_high_water = runner.queueHighWater();
        hm.in_flight_high_water = runner.inFlightHighWater();
        writeTextFile(opt.stats_path,
                      obs::runStatsToJson(rs, hm).dump(2) + "\n");
    }
    if (sink)
        sink->write(opt.trace_path);
    return 0;
}
