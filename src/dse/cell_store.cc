#include "dse/cell_store.hh"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/log.hh"
#include "harness/json.hh"

namespace ltrf::dse
{

namespace
{

/** Uniquifies temp names against sibling threads — process-wide,
 *  since two stores on one directory (concurrent shards in one
 *  process) would otherwise mint the same names. */
std::atomic<std::uint64_t> tmp_seq{0};

using harness::Json;

/**
 * Bump whenever a change can alter simulate()'s outputs for a fixed
 * (SimConfig, kernel, seed): timing model changes, new workload trace
 * generation, occupancy model tweaks, RNG stream reordering.
 */
constexpr int SIM_CONTENT_VERSION = 1;

/** Schema of the entry files themselves (not of the simulator). */
constexpr int CELL_SCHEMA = 1;

/** 64-bit FNV-1a over @p s, continuing from @p h. */
std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Extract object key @p k as a finite-typed number into @p v;
 * false if absent or not a number. The tolerant complement of
 * Json::at(), which is fatal on both failure modes.
 */
bool
getNum(const Json &j, const char *k, double &v)
{
    if (j.type() != Json::Type::OBJECT || !j.contains(k))
        return false;
    const Json &x = j.at(k);
    if (x.type() != Json::Type::NUMBER)
        return false;
    v = x.asDouble();
    return true;
}

bool
getStr(const Json &j, const char *k, std::string &v)
{
    if (j.type() != Json::Type::OBJECT || !j.contains(k))
        return false;
    const Json &x = j.at(k);
    if (x.type() != Json::Type::STRING)
        return false;
    v = x.asString();
    return true;
}

/** getNum() narrowed to a uint64 counter field. */
bool
getU64(const Json &j, const char *k, std::uint64_t &v)
{
    double d = 0.0;
    if (!getNum(j, k, d) || d < 0.0)
        return false;
    v = static_cast<std::uint64_t>(d);
    return true;
}

} // namespace

std::string
simVersionHash()
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a("ltrf-sim-v" + std::to_string(SIM_CONTENT_VERSION), h);
    // Struct-layout fingerprint: catches (some) forgotten bumps when
    // the config or result surface changes shape across rebuilds.
    h = fnv1a("|cfg=" + std::to_string(sizeof(SimConfig)) +
                      "|res=" + std::to_string(sizeof(SimResult)),
              h);
    return hex64(h);
}

CellStore::CellStore(std::string dir, std::string ctx, std::string ver)
    : root(std::move(dir)), context(std::move(ctx)),
      version(std::move(ver))
{
    std::error_code ec;
    std::filesystem::create_directories(root, ec);
    if (ec || !std::filesystem::is_directory(root)) {
        ltrf_fatal("--cache-dir %s: cannot create directory (%s)",
                   root.c_str(), ec.message().c_str());
    }
    group.add("hits", &hits_);
    group.add("misses", &misses_);
    group.add("stores", &stores_);
    group.add("errors", &errors_);
}

std::string
CellStore::entryPath(const std::string &sim_key,
                     const std::string &workload) const
{
    // Two FNV-1a streams over the same material with different seeds
    // give a 128-bit address; collisions are additionally caught by
    // the stored-key verification in load().
    const std::string material =
            version + "\x1f" + context + "\x1f" + sim_key + "\x1f" +
            workload;
    const std::uint64_t lo = fnv1a(material, 0xcbf29ce484222325ull);
    const std::uint64_t hi = fnv1a(material, 0x9ae16a3b2f90404full);
    return root + "/" + hex64(hi) + hex64(lo) + ".json";
}

bool
CellStore::load(const std::string &sim_key,
                const std::string &workload, SimResult &out)
{
    const std::string path = entryPath(sim_key, workload);

    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        // The common cold-cache case: nothing on disk yet.
        std::lock_guard<std::mutex> lk(mu);
        misses_++;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    const auto reject = [&](const char *why) {
        ltrf_warn_once("cell store: ignoring bad entry %s (%s); "
                       "re-simulating",
                       path.c_str(), why);
        std::lock_guard<std::mutex> lk(mu);
        errors_++;
        misses_++;
        return false;
    };

    Json j;
    if (!Json::tryParse(text, j))
        return reject("unparseable");
    if (j.type() != Json::Type::OBJECT ||
        j.numberOr("ltrf_cell_schema", 0) != CELL_SCHEMA) {
        return reject("unrecognized schema");
    }

    // Verify the stored key material: a 128-bit hash collision or a
    // hand-copied foreign entry must not smuggle in a wrong result.
    std::string v, c, k, w;
    if (!getStr(j, "sim_version", v) || !getStr(j, "context", c) ||
        !getStr(j, "sim_key", k) || !getStr(j, "workload", w)) {
        return reject("missing key fields");
    }
    if (v != version || c != context || k != sim_key || w != workload)
        return reject("key mismatch");

    if (!j.contains("result"))
        return reject("missing result");
    const Json &r = j.at("result");

    SimResult res;
    res.workload = workload;
    double warps = 0.0;
    const bool ok = getNum(r, "ipc", res.ipc) &&
                    getU64(r, "cycles", res.cycles) &&
                    getU64(r, "instructions", res.instructions) &&
                    getNum(r, "resident_warps", warps) &&
                    getU64(r, "main_accesses", res.main_accesses) &&
                    getU64(r, "cache_accesses", res.cache_accesses) &&
                    getU64(r, "wcb_accesses", res.wcb_accesses) &&
                    getU64(r, "xfer_regs", res.xfer_regs) &&
                    getU64(r, "prefetch_ops", res.prefetch_ops) &&
                    getU64(r, "writeback_regs", res.writeback_regs) &&
                    getU64(r, "prefetch_stall_cycles",
                           res.prefetch_stall_cycles) &&
                    getNum(r, "cache_hit_rate", res.cache_hit_rate) &&
                    getNum(r, "l1d_hit_rate", res.l1d_hit_rate) &&
                    getNum(r, "act_main",
                           res.activity.main_accesses_per_cycle) &&
                    getNum(r, "act_cache",
                           res.activity.cache_accesses_per_cycle) &&
                    getNum(r, "act_wcb",
                           res.activity.wcb_accesses_per_cycle) &&
                    getNum(r, "act_xfer",
                           res.activity.xfer_regs_per_cycle);
    if (!ok)
        return reject("incomplete result");
    res.resident_warps = static_cast<int>(warps);

    out = std::move(res);
    std::lock_guard<std::mutex> lk(mu);
    hits_++;
    return true;
}

void
CellStore::store(const std::string &sim_key,
                 const std::string &workload, const SimResult &r)
{
    Json res = Json::object();
    res.set("ipc", r.ipc);
    res.set("cycles", std::uint64_t(r.cycles));
    res.set("instructions", r.instructions);
    res.set("resident_warps", r.resident_warps);
    res.set("main_accesses", r.main_accesses);
    res.set("cache_accesses", r.cache_accesses);
    res.set("wcb_accesses", r.wcb_accesses);
    res.set("xfer_regs", r.xfer_regs);
    res.set("prefetch_ops", r.prefetch_ops);
    res.set("writeback_regs", r.writeback_regs);
    res.set("prefetch_stall_cycles", r.prefetch_stall_cycles);
    res.set("cache_hit_rate", r.cache_hit_rate);
    res.set("l1d_hit_rate", r.l1d_hit_rate);
    res.set("act_main", r.activity.main_accesses_per_cycle);
    res.set("act_cache", r.activity.cache_accesses_per_cycle);
    res.set("act_wcb", r.activity.wcb_accesses_per_cycle);
    res.set("act_xfer", r.activity.xfer_regs_per_cycle);

    Json j = Json::object();
    j.set("ltrf_cell_schema", CELL_SCHEMA);
    j.set("sim_version", version);
    j.set("context", context);
    j.set("sim_key", sim_key);
    j.set("workload", workload);
    j.set("result", std::move(res));
    const std::string text = j.dump(2) + "\n";

    // Atomic publish: write a thread-unique temp file in the same
    // directory, then rename over the final name. Readers either see
    // the old entry, no entry, or the complete new one — never a
    // torn write, even with concurrent shards on one cache dir.
    const std::string path = entryPath(sim_key, workload);
    const std::string tmp =
            path + ".tmp." +
            std::to_string(static_cast<unsigned long>(::getpid())) +
            "." + std::to_string(tmp_seq.fetch_add(1));

    const auto fail = [&](const char *what) {
        ltrf_warn_once("cell store: cannot %s %s; caching disabled "
                       "for affected cells",
                       what, tmp.c_str());
        std::remove(tmp.c_str());
        std::lock_guard<std::mutex> lk(mu);
        errors_++;
    };

    {
        std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
        if (!outf.is_open())
            return fail("create");
        outf << text;
        outf.flush();
        if (!outf.good())
            return fail("write");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return fail("publish");

    std::lock_guard<std::mutex> lk(mu);
    stores_++;
}

CellStore::Counts
CellStore::counts() const
{
    std::lock_guard<std::mutex> lk(mu);
    Counts c;
    c.hits = hits_.value();
    c.misses = misses_.value();
    c.stores = stores_.value();
    c.errors = errors_.value();
    return c;
}

} // namespace ltrf::dse
