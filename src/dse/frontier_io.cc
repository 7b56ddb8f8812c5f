#include "dse/frontier_io.hh"

#include <cmath>
#include <cstdlib>

#include "common/log.hh"
#include "harness/emit.hh"

namespace ltrf::dse
{

using harness::Json;

namespace
{

/**
 * Rebuild a DesignPoint from its stable key by walking the axis
 * registry ("tech/bN/zN/net/cN/policy/wN/iN/oN/dN"). Legacy keys
 * from v1/v2 reports carry only the first NUM_LEGACY_AXES segments;
 * the missing axes take their auto derivation (interval = the
 * per-warp cache partition, exactly what those reports simulated)
 * or the DesignPoint default, so a saved 7-axis report resumes
 * cleanly into the widened space.
 */
DesignPoint
parsePoint(const std::string &key)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : key) {
        if (c == '/') {
            parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    parts.push_back(cur);
    if (parts.size() != NUM_AXES &&
        parts.size() != NUM_LEGACY_AXES)
        ltrf_fatal("malformed design point key \"%s\"", key.c_str());

    DesignPoint p;
    const auto &registry = axisRegistry();
    for (std::size_t i = 0; i < registry.size(); i++) {
        const AxisDesc &a = registry[i];
        if (i >= parts.size()) {
            if (a.derive)
                a.set(p, a.derive(p));
            continue;    // otherwise: the DesignPoint default
        }
        int v = 0;
        if (!a.parse(parts[i], v))
            ltrf_fatal("malformed %s axis \"%s\" in key \"%s\"",
                       a.name, parts[i].c_str(), key.c_str());
        // Resumed points flow straight into the RF model, whose
        // range checks are asserts (internal errors) — a
        // hand-edited report is a user error and must die with a
        // clean fatal() instead.
        a.check(v);
        a.set(p, v);
    }
    return p;
}

} // namespace

FrontierSeed
parseDseReport(const Json &root)
{
    const std::string schema = root.stringOr("schema", "(missing)");
    if (schema != "ltrf.dse.v1" && schema != "ltrf.dse.v2" &&
        schema != "ltrf.dse.v3" && schema != "ltrf.dse.v4" &&
        schema != "ltrf.dse.v5")
        ltrf_fatal("not an ltrf_dse report: schema \"%s\" (expected "
                   "ltrf.dse.v1 through v5)",
                   schema.c_str());

    FrontierSeed seed;
    seed.strategy = root.stringOr("strategy", "");
    if (root.contains("seed")) {
        const std::string &s = root.at("seed").asString();
        char *end = nullptr;
        seed.seed = std::strtoull(s.c_str(), &end, 10);
        if (s.empty() || end != s.c_str() + s.size())
            ltrf_fatal("malformed seed \"%s\" in saved report",
                       s.c_str());
        seed.has_seed = true;
    }
    if (root.contains("num_sms")) {
        seed.num_sms =
                static_cast<int>(root.at("num_sms").asInt());
        seed.has_num_sms = true;
    }
    if (root.contains("workloads"))
        for (std::size_t i = 0; i < root.at("workloads").size(); i++)
            seed.workloads.push_back(
                    root.at("workloads").at(i).asString());

    const Json &points = root.at("points");
    for (std::size_t i = 0; i < points.size(); i++) {
        const Json &j = points.at(i);
        SeedPoint sp;
        sp.point = parsePoint(j.at("key").asString());
        sp.obj.ipc = j.at("ipc").asDouble();
        sp.obj.energy = j.at("energy").asDouble();
        sp.obj.area = j.at("total_area").asDouble();
        // Resumed objectives bypass evaluation, so a hand-edited
        // non-finite value (1e999 parses to +Inf) would otherwise
        // poison the frontier and only die at serialization time.
        if (!std::isfinite(sp.obj.ipc) ||
            !std::isfinite(sp.obj.energy) ||
            !std::isfinite(sp.obj.area))
            ltrf_fatal("non-finite objectives for \"%s\" in saved "
                       "report", sp.point.key().c_str());
        sp.on_frontier = j.boolOr("frontier", false);
        seed.points.push_back(sp);
    }

    // Cross-check the frontier list against the per-point flags: a
    // hand-edited report whose two views disagree is not resumable.
    if (root.contains("frontier")) {
        std::size_t flagged = 0;
        for (const SeedPoint &sp : seed.points)
            flagged += sp.on_frontier ? 1 : 0;
        if (flagged != root.at("frontier").size())
            ltrf_fatal("saved report is inconsistent: %zu points "
                       "flagged frontier but %zu frontier keys",
                       flagged, root.at("frontier").size());
    }
    return seed;
}

FrontierSeed
loadFrontierFile(const std::string &path)
{
    return parseDseReport(
            Json::parse(harness::readTextFile(path)));
}

} // namespace ltrf::dse
