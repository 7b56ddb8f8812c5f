/**
 * @file
 * Frontier persistence: parse a saved `ltrf_dse` JSON report back
 * into design points + objectives so a search can resume from it.
 *
 * The report written by DseResult::toJson() is the save format —
 * there is no second serialization to drift from it. Every point in
 * the report (frontier members and dominated points alike) is
 * recovered: the frontier members re-seed the ParetoFrontier
 * byte-identically, and the full set gives generational strategies
 * their initial population. Objectives are recovered exactly (the
 * writer's %.17g numbers round-trip doubles), which the
 * resume-equivalence tests rely on.
 */

#ifndef LTRF_DSE_FRONTIER_IO_HH
#define LTRF_DSE_FRONTIER_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dse/pareto.hh"
#include "dse/space.hh"
#include "harness/json.hh"

namespace ltrf::dse
{

/** One point recovered from a saved report. */
struct SeedPoint
{
    DesignPoint point;
    Objectives obj;
    bool on_frontier = false;
};

/** A parsed report: the seed for a resumed exploration. */
struct FrontierSeed
{
    /** All evaluated points, in the original evaluation order. */
    std::vector<SeedPoint> points;
    /** The workload suite the objectives were measured on. */
    std::vector<std::string> workloads;
    /** Echoed report inputs; has_* distinguishes "saved as 0" from
     *  "absent from the report" for the resume-compatibility
     *  guards. */
    std::string strategy;
    std::uint64_t seed = 0;
    bool has_seed = false;
    int num_sms = 0;
    bool has_num_sms = false;

    bool empty() const { return points.empty(); }
};

/**
 * Parse a DseResult::toJson() report. fatal() on an unrecognized
 * schema or malformed point entries; accepts schema ltrf.dse.v1
 * (pre-resume reports), v2 (seven-axis keys; the widened-space
 * axes take their auto/default values), v3 (pre-rung reports —
 * the per-rung counters a resume ignores are simply absent), v4,
 * and v5 (v4 minus the model-dominance heuristic's echo keys,
 * which a resume never read).
 */
FrontierSeed parseDseReport(const harness::Json &root);

/** readTextFile() + Json::parse() + parseDseReport(). */
FrontierSeed loadFrontierFile(const std::string &path);

} // namespace ltrf::dse

#endif // LTRF_DSE_FRONTIER_IO_HH
