/**
 * @file
 * ltrf_perfbench: the repository benchmark's measuring program. It
 * drives ltrf_core from outside, as a client, and prints one workload's
 * metrics — human-readable lines, then one JSON line:
 *
 *   ltrf_perfbench --workload dse-grid|dse-warm
 *                  --seed N --seconds S --trace 0|1 --dir DIR
 *
 * --trace 0 measures the end-to-end metrics for S seconds; --trace 1
 * makes one traced run that times every library call and prints the
 * per-layer metrics. DIR receives span files; cell stores live in
 * DIR/work, which is removed before exit.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/parse_num.hh"
#include "bench_workloads.hh"
#include "harness/bench.hh"
#include "harness/json.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace perfbench;
using ltrf::harness::Json;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "ltrf_perfbench: %s\n"
                 "usage: ltrf_perfbench --workload "
                 "dse-grid|dse-warm --seed N --seconds S "
                 "--trace 0|1 --dir DIR\n",
                 why.c_str());
    std::exit(2);
}

int
nprocOnline()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    std::string dir;
    bool have_trace = false;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            if (!ltrf::parseUint64(v, opt.seed))
                usage("bad --seed \"" + v + "\"");
        } else if (a == "--seconds") {
            if (!ltrf::parseDouble(v, opt.seconds) || opt.seconds <= 0 ||
                opt.seconds > 600)
                usage("bad --seconds \"" + v + "\"");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("bad --trace \"" + v + "\"");
            opt.trace = v == "1";
            have_trace = true;
        } else if (a == "--dir") {
            dir = v;
        } else {
            usage("unknown option " + a);
        }
    }
    if (opt.workload != "dse-grid" && opt.workload != "dse-warm")
        usage("unknown --workload \"" + opt.workload + "\"");
    if (!have_trace || dir.empty())
        usage("--trace and --dir are required");
    opt.out = dir;
    opt.work = dir + "/work";
    opt.nproc = nprocOnline();
    opt.workers = std::min(4, opt.nproc);
    return opt;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;    // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    // Timings from a build with assertions or without optimisation
    // say nothing about the program users run: refuse to report.
    const Json machine = ltrf::harness::machineInfo();
    bool optimized = false;
#ifdef __OPTIMIZE__
    optimized = true;
#endif
    if (!machine.boolOr("assertions_off", false) || !optimized) {
        std::fprintf(stderr,
                     "ltrf_perfbench: refusing to measure a %s build "
                     "(assertions %s, optimisation %s)\n",
                     PERFBENCH_BUILD_TYPE,
                     machine.boolOr("assertions_off", false) ? "off"
                                                              : "on",
                     optimized ? "on" : "off");
        return 3;
    }

    // Before any thread exists: the set-up samples fork.
    const double suite_build_s = coldSuiteBuildSeconds(201);
    if (suite_build_s <= 0.0) {
        std::fprintf(stderr, "ltrf_perfbench: suite construction failed\n");
        return 1;
    }

    namespace fs = std::filesystem;
    fs::remove_all(opt.work);
    fs::create_directories(opt.work);
    Result r = opt.workload == "dse-grid" ? runDseGrid(opt, suite_build_s)
                                          : runDseWarm(opt, suite_build_s);
    fs::remove_all(opt.work);

    const double error_rate =
            r.attempted ? static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                        : 1.0;
    if (!opt.trace) {
        r.add("peak_rss_mb", peakRssMb(), "MB");
        r.add("success_rate", 1.0 - error_rate, "frac");
    }

    std::printf("perfbench %s: seed=%llu seconds=%g trace=%d workers=%d "
                "nproc=%d build=%s assertions=off compiler=\"%s\" "
                "host=%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.workers, opt.nproc,
                PERFBENCH_BUILD_TYPE,
                machine.stringOr("compiler", "unknown").c_str(),
                machine.stringOr("host", "unknown").c_str());
    for (const std::string &n : r.notes)
        std::printf("  %s\n", n.c_str());
    for (const Metric &m : r.metrics)
        std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-36s %16.6g frac (%llu of %llu cells failed a "
                "check)\n",
                "error_rate", error_rate,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));

    Json metrics = Json::object();
    for (const Metric &m : r.metrics) {
        Json v = Json::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        metrics.set(m.name, std::move(v));
    }
    Json out = Json::object();
    out.set("correct", r.correct && r.failed == 0 && r.attempted > 0);
    out.set("attempted", r.attempted);
    out.set("failed", r.failed);
    out.set("metrics", std::move(metrics));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
    return 0;
}
