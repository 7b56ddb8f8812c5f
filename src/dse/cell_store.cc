#include "dse/cell_store.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>
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
fnv1a(std::string_view s, std::uint64_t h)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
appendHex64(std::string &out, std::uint64_t v)
{
    static constexpr char DIGITS[] = "0123456789abcdef";
    char buf[16];
    for (int i = 15; i >= 0; i--, v >>= 4)
        buf[i] = DIGITS[v & 0xf];
    out.append(buf, sizeof(buf));
}

std::string
hex64(std::uint64_t v)
{
    std::string s;
    appendHex64(s, v);
    return s;
}

/** Entry files are ~700 bytes; one read of this size takes them whole. */
constexpr std::size_t READ_CHUNK = 4096;

enum class ReadStatus
{
    OK,
    ABSENT,    ///< no file at the path: a plain miss
    FAILED,    ///< present but unreadable: an error
};

/**
 * Read the whole file at @p path. A read that returns less than it
 * asked for has reached the end of a regular file, so an entry that
 * fits @p buf costs open, one read and close; a larger one goes on
 * in @p big. @p text views whichever holds the bytes.
 */
ReadStatus
readEntry(const std::string &path, char (&buf)[READ_CHUNK],
          std::string &big, std::string_view &text)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return errno == ENOENT ? ReadStatus::ABSENT : ReadStatus::FAILED;
    char *dst = buf;
    std::size_t len = 0, cap = READ_CHUNK;
    ssize_t got;
    while (true) {
        got = ::read(fd, dst + len, cap - len);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            break;
        len += static_cast<std::size_t>(got);
        if (len < cap)
            break;
        if (dst == buf)
            big.assign(buf, len);
        cap *= 2;
        big.resize(cap);
        dst = big.data();
    }
    ::close(fd);
    if (got < 0)
        return ReadStatus::FAILED;
    text = std::string_view(dst, len);
    return ReadStatus::OK;
}

/** Object key @p k of @p j if it is a string, else nullptr. */
const std::string *
getStr(const Json &j, std::string_view k)
{
    const Json *x = j.find(k);
    return x && x->type() == Json::Type::STRING ? &x->asString()
                                                : nullptr;
}

/**
 * Object key @p k of @p j as a finite, non-negative number into @p v
 * (IPC, hit and activity rates); false if it is absent or is not one.
 */
bool
getRate(const Json &j, std::string_view k, double &v)
{
    const Json *x = j.find(k);
    if (!x || x->type() != Json::Type::NUMBER)
        return false;
    const double d = x->asDouble();
    if (!std::isfinite(d) || d < 0.0)
        return false;
    v = d;
    return true;
}

/** getRate() narrowed to an integral counter of at most 2^53, the
 *  range a double holds exactly. */
bool
getU64(const Json &j, std::string_view k, std::uint64_t &v)
{
    double d = 0.0;
    if (!getRate(j, k, d) || d != std::floor(d) ||
        d > 9007199254740992.0)
        return false;
    v = static_cast<std::uint64_t>(d);
    return true;
}

/** getU64() narrowed to a warp count: at least 1, fits an int. */
bool
getWarps(const Json &j, std::string_view k, int &v)
{
    std::uint64_t n = 0;
    if (!getU64(j, k, n) || n < 1 ||
        n > static_cast<std::uint64_t>(INT_MAX))
        return false;
    v = static_cast<int>(n);
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
    const auto hash = [&](std::uint64_t h) {
        for (const std::string *part : {&version, &context, &sim_key}) {
            h = fnv1a(*part, h);
            h = fnv1a("\x1f", h);
        }
        return fnv1a(workload, h);
    };
    std::string path;
    path.reserve(root.size() + 1 + 32 + 5);
    path += root;
    path += '/';
    appendHex64(path, hash(0x9ae16a3b2f90404full));
    appendHex64(path, hash(0xcbf29ce484222325ull));
    path += ".json";
    return path;
}

bool
CellStore::load(const std::string &sim_key,
                const std::string &workload, SimResult &out)
{
    const std::string path = entryPath(sim_key, workload);

    const auto reject = [&](const char *why) {
        ltrf_warn_once("cell store: ignoring bad entry %s (%s); "
                       "re-simulating",
                       path.c_str(), why);
        std::lock_guard<std::mutex> lk(mu);
        errors_++;
        misses_++;
        return false;
    };

    char buf[READ_CHUNK];
    std::string big;
    std::string_view text;
    switch (readEntry(path, buf, big, text)) {
      case ReadStatus::ABSENT: {
        // The common cold-cache case: nothing on disk yet.
        std::lock_guard<std::mutex> lk(mu);
        misses_++;
        return false;
      }
      case ReadStatus::FAILED:
        return reject("unreadable");
      case ReadStatus::OK:
        break;
    }

    Json j;
    if (!Json::tryParse(text, j))
        return reject("unparseable");
    const Json *schema = j.find("ltrf_cell_schema");
    if (!schema || schema->type() != Json::Type::NUMBER ||
        schema->asDouble() != CELL_SCHEMA) {
        return reject("unrecognized schema");
    }

    // Verify the stored key material: a 128-bit hash collision or a
    // hand-copied foreign entry must not smuggle in a wrong result.
    const std::string *v = getStr(j, "sim_version");
    const std::string *c = getStr(j, "context");
    const std::string *k = getStr(j, "sim_key");
    const std::string *w = getStr(j, "workload");
    if (!v || !c || !k || !w)
        return reject("missing key fields");
    if (*v != version || *c != context || *k != sim_key ||
        *w != workload)
        return reject("key mismatch");

    const Json *r = j.find("result");
    if (!r)
        return reject("missing result");

    // A hit must carry values simulate() can produce: a field that
    // is absent, negative, non-finite, fractional where a count is
    // due, or past its type's range makes the entry a miss.
    SimResult res;
    res.workload = workload;
    const bool ok = getRate(*r, "ipc", res.ipc) &&
                    getU64(*r, "cycles", res.cycles) &&
                    getU64(*r, "instructions", res.instructions) &&
                    getWarps(*r, "resident_warps", res.resident_warps) &&
                    getU64(*r, "main_accesses", res.main_accesses) &&
                    getU64(*r, "cache_accesses", res.cache_accesses) &&
                    getU64(*r, "wcb_accesses", res.wcb_accesses) &&
                    getU64(*r, "xfer_regs", res.xfer_regs) &&
                    getU64(*r, "prefetch_ops", res.prefetch_ops) &&
                    getU64(*r, "writeback_regs", res.writeback_regs) &&
                    getU64(*r, "prefetch_stall_cycles",
                           res.prefetch_stall_cycles) &&
                    getRate(*r, "cache_hit_rate", res.cache_hit_rate) &&
                    getRate(*r, "l1d_hit_rate", res.l1d_hit_rate) &&
                    getRate(*r, "act_main",
                            res.activity.main_accesses_per_cycle) &&
                    getRate(*r, "act_cache",
                            res.activity.cache_accesses_per_cycle) &&
                    getRate(*r, "act_wcb",
                            res.activity.wcb_accesses_per_cycle) &&
                    getRate(*r, "act_xfer",
                            res.activity.xfer_regs_per_cycle);
    if (!ok)
        return reject("missing or out-of-range result field");

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
