/**
 * @file
 * Ablations of LTRF's design choices beyond the paper's explicit
 * sweeps: the narrow prefetch crossbar (section 4.2 argues a 4x
 * narrower, 4x slower crossbar is performance-neutral), the WCB
 * lookup cycle (section 4.3 argues it is negligible), pass 2 of the
 * interval formation algorithm (what merging loop nests buys), and
 * the LTRF+ liveness filter's effect on register traffic.
 *
 * All runs use configuration #7 (8x capacity, 6.3x latency), where
 * these choices matter most. Every simulation cell of every ablation
 * is batched into one ExperimentRunner invocation, so the wall clock
 * is bounded by the slowest cell, not the sum; --jobs N bounds the
 * worker count.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "core/compile.hh"
#include "harness/runner.hh"

using namespace ltrf;
using namespace ltrf::bench;

namespace
{

/** Cells for all workloads on @p design @ #7, tagged, with @p tweak. */
template <typename Fn>
void
appendTagged(std::vector<harness::SweepCell> &cells,
             const std::string &tag, RfDesign design, Fn tweak)
{
    harness::SweepSpec spec = suiteSpec();
    spec.designs = {design};
    spec.rf_cfg_ids = {7};
    for (harness::SweepCell c : harness::expandSweep(spec)) {
        c.tag = tag;
        tweak(c.config);
        c.index = static_cast<int>(cells.size());
        cells.push_back(std::move(c));
    }
}

/**
 * Map a tag whose tweak is a no-op (the sweep value equals the
 * SimConfig default) onto the shared untweaked-LTRF group, so the
 * identical configuration is simulated once instead of three times
 * (default crossbar, default WCB, and the traffic comparison).
 */
std::string
canonicalTag(const std::string &tag)
{
    SimConfig defaults;
    if (tag == "xbar" + std::to_string(defaults.prefetch_xbar_latency) ||
        tag == "wcb" + std::to_string(defaults.wcb_latency) ||
        tag == "traffic-ltrf")
        return "ltrf-default";
    return tag;
}

/** Geomean normalized IPC of the tag's cells across the suite. */
double
meanIpc(const harness::ResultSet &rs, const std::string &tag)
{
    std::vector<double> vals;
    for (const Workload &w : WorkloadSuite::all())
        vals.push_back(
                rs.findTagged(w.name, canonicalTag(tag)).normalizedIpc());
    return geomean(vals);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<int> xbar_lats = {1, 4, 8, 16};
    const std::vector<int> wcb_lats = {0, 1, 2, 4};

    std::vector<harness::SweepCell> cells;
    appendTagged(cells, "ltrf-default", RfDesign::LTRF,
                 [](SimConfig &) {});
    for (int lat : xbar_lats) {
        std::string tag = "xbar" + std::to_string(lat);
        if (canonicalTag(tag) == tag)
            appendTagged(cells, tag, RfDesign::LTRF,
                         [lat](SimConfig &cfg) {
                             cfg.prefetch_xbar_latency = lat;
                         });
    }
    for (int lat : wcb_lats) {
        std::string tag = "wcb" + std::to_string(lat);
        if (canonicalTag(tag) == tag)
            appendTagged(cells, tag, RfDesign::LTRF,
                         [lat](SimConfig &cfg) {
                             cfg.wcb_latency = lat;
                         });
    }
    appendTagged(cells, "traffic-plus", RfDesign::LTRF_PLUS,
                 [](SimConfig &) {});

    harness::ExperimentRunner runner(jobsFromArgs(argc, argv));
    harness::ResultSet rs = runner.run(cells, &baselineConfig());

    SimConfig base = designConfig(RfDesign::LTRF, 7);

    std::printf("LTRF design-choice ablations (config #7, geomean "
                "normalized IPC)\n\n");

    // ----- Prefetch crossbar width -----
    std::printf("Prefetch crossbar (section 4.2):\n");
    for (int lat : xbar_lats)
        std::printf("  %2d-cycle transfer (width 1/%d): %.3f\n", lat,
                    lat, meanIpc(rs, "xbar" + std::to_string(lat)));
    std::printf("  -> the 4x narrower crossbar costs almost nothing; "
                "the paper uses this to cut\n     crossbar area 4x.\n\n");

    // ----- WCB lookup latency -----
    std::printf("WCB lookup latency (section 4.3):\n");
    for (int lat : wcb_lats)
        std::printf("  %d cycle(s): %.3f\n", lat,
                    meanIpc(rs, "wcb" + std::to_string(lat)));
    std::printf("\n");

    // ----- Interval formation: pass 1 only vs pass 1+2 -----
    std::printf("Interval formation pass 2 (Figure 6's merging):\n");
    {
        std::uint64_t with_p2 = 0, without_p2 = 0;
        for (const Workload &w : WorkloadSuite::all()) {
            FormationOptions o;
            o.max_regs = base.regs_per_interval;
            with_p2 += formRegisterIntervals(w.kernel, o)
                               .intervals.size();
            o.enable_pass2 = false;
            without_p2 += formRegisterIntervals(w.kernel, o)
                                  .intervals.size();
        }
        std::printf("  intervals across the suite: %llu (pass 1 only) "
                    "-> %llu (with pass 2)\n",
                    static_cast<unsigned long long>(without_p2),
                    static_cast<unsigned long long>(with_p2));
        std::printf("  -> pass 2 merges loop nests into single "
                    "intervals, minimizing PREFETCHes.\n\n");
    }

    // ----- LTRF+ liveness filter: register traffic -----
    std::printf("LTRF+ liveness filter (register transfer volume, "
                "config #7):\n");
    {
        double ltrf_x = 0, plus_x = 0;
        for (const Workload &w : WorkloadSuite::all()) {
            ltrf_x += static_cast<double>(
                    rs.findTagged(w.name, canonicalTag("traffic-ltrf"))
                            .result.xfer_regs);
            plus_x += static_cast<double>(
                    rs.findTagged(w.name, "traffic-plus")
                            .result.xfer_regs);
        }
        std::printf("  registers moved MRF<->cache: LTRF %.2fM, LTRF+ "
                    "%.2fM (-%.0f%%)\n",
                    ltrf_x / 1e6, plus_x / 1e6,
                    (1 - plus_x / ltrf_x) * 100.0);
    }
    return 0;
}
