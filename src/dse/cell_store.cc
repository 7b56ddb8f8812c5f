#include "dse/cell_store.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iterator>
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

/** Write @p v as 16 lower-case hex digits at @p out. */
void
writeHex64(char *out, std::uint64_t v)
{
    static constexpr char DIGITS[] = "0123456789abcdef";
    for (int i = 15; i >= 0; i--, v >>= 4)
        out[i] = DIGITS[v & 0xf];
}

std::string
hex64(std::uint64_t v)
{
    std::string s(16, '0');
    writeHex64(s.data(), v);
    return s;
}

/** The store's directory descriptor only anchors openat() and
 *  renameat(), so it needs no read permission on the directory. */
#ifdef O_PATH
constexpr int DIR_OPEN_FLAGS = O_PATH | O_DIRECTORY | O_CLOEXEC;
#else
constexpr int DIR_OPEN_FLAGS = O_RDONLY | O_DIRECTORY | O_CLOEXEC;
#endif

/** Entry files are ~700 bytes; one read of this size takes them whole. */
constexpr std::size_t READ_CHUNK = 4096;

enum class ReadStatus
{
    OK,
    ABSENT,    ///< no file at the path: a plain miss
    FAILED,    ///< present but unreadable: an error
};

/**
 * Read the whole file @p name in directory @p dir_fd. A read that
 * returns less than it asked for has reached the end of a regular
 * file, so an entry that fits @p buf costs open, one read and close;
 * a larger one goes on in @p big. @p text views whichever holds the
 * bytes.
 */
ReadStatus
readFile(int dir_fd, const char *name, char (&buf)[READ_CHUNK],
         std::string &big, std::string_view &text)
{
    const int fd = ::openat(dir_fd, name, O_RDONLY | O_CLOEXEC);
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

using harness::JsonLexer;

/** The members of an entry that load() checks. */
enum Member
{
    SCHEMA,
    VERSION,
    CONTEXT,
    SIM_KEY,
    WORKLOAD,
    RESULT,
    NUM_MEMBERS,
};

constexpr std::string_view MEMBER_NAMES[NUM_MEMBERS] = {
        "ltrf_cell_schema", "sim_version", "context",
        "sim_key",          "workload",    "result",
};

/** The members of an entry's "result" object. */
enum Field
{
    IPC,
    CYCLES,
    INSTRUCTIONS,
    RESIDENT_WARPS,
    MAIN_ACCESSES,
    CACHE_ACCESSES,
    WCB_ACCESSES,
    XFER_REGS,
    PREFETCH_OPS,
    WRITEBACK_REGS,
    PREFETCH_STALL_CYCLES,
    CACHE_HIT_RATE,
    L1D_HIT_RATE,
    ACT_MAIN,
    ACT_CACHE,
    ACT_WCB,
    ACT_XFER,
    NUM_FIELDS,
};

constexpr std::string_view FIELD_NAMES[NUM_FIELDS] = {
        "ipc",
        "cycles",
        "instructions",
        "resident_warps",
        "main_accesses",
        "cache_accesses",
        "wcb_accesses",
        "xfer_regs",
        "prefetch_ops",
        "writeback_regs",
        "prefetch_stall_cycles",
        "cache_hit_rate",
        "l1d_hit_rate",
        "act_main",
        "act_cache",
        "act_wcb",
        "act_xfer",
};

/**
 * Index of the name @p key spells among the @p n @p names, or -1.
 * store() writes members in table order, so @p hint (the index after
 * the previous member's) is tried first.
 */
int
memberIndex(const JsonLexer::Str &key, const std::string_view *names,
            int n, int hint)
{
    if (key.escaped) {
        for (int i = 0; i < n; i++)
            if (key.equals(names[i]))
                return i;
        return -1;
    }
    if (hint < n && key.raw == names[hint])
        return hint;
    for (int i = 0; i < n; i++)
        if (key.raw == names[i])
            return i;
    return -1;
}

/** A member that must be a number: its value, if it is one. */
struct Num
{
    double v = 0.0;
    bool ok = false;
};

Num
readNum(JsonLexer &lex)
{
    const JsonLexer::Kind k = lex.value();
    if (k == JsonLexer::Kind::NUMBER)
        return {lex.number(), true};
    lex.skip(k);
    return {};
}

/**
 * What one pass over an entry saw of the members load() checks, each
 * from its last occurrence: a repeated key wins last, as it does in a
 * parsed document.
 */
struct EntryFields
{
    Num schema;
    /** The key members' strings, where is_str says they are ones. */
    JsonLexer::Str str[NUM_MEMBERS];
    bool is_str[NUM_MEMBERS] = {};
    bool has_result = false;
    /** Members of "result"; none if it is not an object. */
    Num result[NUM_FIELDS];
};

/**
 * Walk @p text once into @p f. Every other member, nested or not, is
 * skipped with full validation, so this throws JsonLexer::Error
 * exactly when @p text is not one JSON value.
 */
void
scanEntry(std::string_view text, EntryFields &f)
{
    JsonLexer lex(text);
    const JsonLexer::Kind top = lex.value();
    if (top != JsonLexer::Kind::OBJECT) {
        lex.skip(top);
        lex.finish();
        return;
    }
    lex.beginObject();
    JsonLexer::Str key;
    int next = 0;
    while (lex.nextMember(key)) {
        const int m = memberIndex(key, MEMBER_NAMES, NUM_MEMBERS, next);
        next = m + 1;
        if (m == SCHEMA) {
            f.schema = readNum(lex);
        } else if (m == RESULT) {
            f.has_result = true;
            std::fill(std::begin(f.result), std::end(f.result), Num{});
            const JsonLexer::Kind k = lex.value();
            if (k != JsonLexer::Kind::OBJECT) {
                lex.skip(k);
                continue;
            }
            lex.beginObject();
            int hint = 0;
            while (lex.nextMember(key)) {
                const int i = memberIndex(key, FIELD_NAMES, NUM_FIELDS, hint);
                if (i < 0) {
                    lex.skipValue();
                } else {
                    f.result[i] = readNum(lex);
                    hint = i + 1;
                }
            }
        } else if (m >= 0) {
            const JsonLexer::Kind k = lex.value();
            f.is_str[m] = k == JsonLexer::Kind::STRING;
            if (f.is_str[m])
                f.str[m] = lex.string();
            else
                lex.skip(k);
        } else {
            lex.skipValue();
        }
    }
    lex.finish();
}

/**
 * @p n as a finite, non-negative number into @p v (IPC, hit and
 * activity rates); false if it is absent or is not one.
 */
bool
getRate(const Num &n, double &v)
{
    if (!n.ok || !std::isfinite(n.v) || n.v < 0.0)
        return false;
    v = n.v;
    return true;
}

/** getRate() narrowed to an integral counter of at most 2^53, the
 *  range a double holds exactly. */
bool
getU64(const Num &n, std::uint64_t &v)
{
    double d = 0.0;
    if (!getRate(n, d) || d != std::floor(d) || d > 9007199254740992.0)
        return false;
    v = static_cast<std::uint64_t>(d);
    return true;
}

/** getU64() narrowed to a warp count: at least 1, fits an int. */
bool
getWarps(const Num &n, int &v)
{
    std::uint64_t u = 0;
    if (!getU64(n, u) || u < 1 ||
        u > static_cast<std::uint64_t>(INT_MAX))
        return false;
    v = static_cast<int>(u);
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

/** Seeds of the two FNV-1a streams that make up an entry address. */
constexpr std::uint64_t ADDRESS_SEEDS[2] = {0x9ae16a3b2f90404full,
                                            0xcbf29ce484222325ull};

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
    // Entries are opened relative to this descriptor, so a lookup
    // does not resolve the directory's path again.
    dir_fd = ::open(root.c_str(), DIR_OPEN_FLAGS);
    if (dir_fd < 0) {
        ltrf_fatal("--cache-dir %s: cannot open directory (%s)",
                   root.c_str(), std::strerror(errno));
    }
    // Every address starts with the same version and context, so
    // both streams hash them once, here.
    for (int i = 0; i < 2; i++) {
        std::uint64_t h = ADDRESS_SEEDS[i];
        for (const std::string *part : {&version, &context}) {
            h = fnv1a(*part, h);
            h = fnv1a("\x1f", h);
        }
        prefix[i] = h;
    }
    group.add("hits", &hits_);
    group.add("misses", &misses_);
    group.add("stores", &stores_);
    group.add("errors", &errors_);
}

CellStore::~CellStore() { ::close(dir_fd); }

void
CellStore::entryName(const std::string &sim_key,
                     const std::string &workload,
                     char (&name)[NAME_SIZE]) const
{
    // Two FNV-1a streams over (version, context, sim_key, workload)
    // with different seeds give a 128-bit address; collisions are
    // additionally caught by the stored-key verification in load().
    for (int i = 0; i < 2; i++)
        writeHex64(name + 16 * i,
                   fnv1a(workload,
                         fnv1a("\x1f", fnv1a(sim_key, prefix[i]))));
    std::memcpy(name + 32, ".json", 6);
}

std::string
CellStore::entryPath(const std::string &sim_key,
                     const std::string &workload) const
{
    char name[NAME_SIZE];
    entryName(sim_key, workload, name);
    return root + '/' + name;
}

const char *
CellStore::parseEntry(std::string_view text, const std::string &sim_key,
                      const std::string &workload, SimResult &out) const
{
    EntryFields f;
    try {
        scanEntry(text, f);
    } catch (const JsonLexer::Error &) {
        return "unparseable";
    }
    if (!f.schema.ok || f.schema.v != CELL_SCHEMA)
        return "unrecognized schema";

    // Verify the stored key material: a 128-bit hash collision or a
    // hand-copied foreign entry must not smuggle in a wrong result.
    if (!f.is_str[VERSION] || !f.is_str[CONTEXT] || !f.is_str[SIM_KEY] ||
        !f.is_str[WORKLOAD])
        return "missing key fields";
    if (!f.str[VERSION].equals(version) ||
        !f.str[CONTEXT].equals(context) ||
        !f.str[SIM_KEY].equals(sim_key) ||
        !f.str[WORKLOAD].equals(workload))
        return "key mismatch";
    if (!f.has_result)
        return "missing result";

    // A hit must carry values simulate() can produce: a field that
    // is absent, negative, non-finite, fractional where a count is
    // due, or past its type's range makes the entry a miss.
    const Num *r = f.result;
    SimResult res;
    res.workload = workload;
    const bool ok =
            getRate(r[IPC], res.ipc) && getU64(r[CYCLES], res.cycles) &&
            getU64(r[INSTRUCTIONS], res.instructions) &&
            getWarps(r[RESIDENT_WARPS], res.resident_warps) &&
            getU64(r[MAIN_ACCESSES], res.main_accesses) &&
            getU64(r[CACHE_ACCESSES], res.cache_accesses) &&
            getU64(r[WCB_ACCESSES], res.wcb_accesses) &&
            getU64(r[XFER_REGS], res.xfer_regs) &&
            getU64(r[PREFETCH_OPS], res.prefetch_ops) &&
            getU64(r[WRITEBACK_REGS], res.writeback_regs) &&
            getU64(r[PREFETCH_STALL_CYCLES], res.prefetch_stall_cycles) &&
            getRate(r[CACHE_HIT_RATE], res.cache_hit_rate) &&
            getRate(r[L1D_HIT_RATE], res.l1d_hit_rate) &&
            getRate(r[ACT_MAIN], res.activity.main_accesses_per_cycle) &&
            getRate(r[ACT_CACHE], res.activity.cache_accesses_per_cycle) &&
            getRate(r[ACT_WCB], res.activity.wcb_accesses_per_cycle) &&
            getRate(r[ACT_XFER], res.activity.xfer_regs_per_cycle);
    if (!ok)
        return "missing or out-of-range result field";
    out = std::move(res);
    return nullptr;
}

bool
CellStore::load(const std::string &sim_key,
                const std::string &workload, SimResult &out)
{
    char name[NAME_SIZE];
    entryName(sim_key, workload, name);

    const auto reject = [&](const char *why) {
        ltrf_warn_once("cell store: ignoring bad entry %s/%s (%s); "
                       "re-simulating",
                       root.c_str(), name, why);
        std::lock_guard<std::mutex> lk(mu);
        errors_++;
        misses_++;
        return false;
    };

    char buf[READ_CHUNK];
    std::string big;
    std::string_view text;
    switch (readFile(dir_fd, name, buf, big, text)) {
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
    if (const char *why = parseEntry(text, sim_key, workload, out))
        return reject(why);
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
    char name[NAME_SIZE];
    entryName(sim_key, workload, name);
    const std::string tmp =
            name + (".tmp." +
                    std::to_string(static_cast<unsigned long>(::getpid())) +
                    "." + std::to_string(tmp_seq.fetch_add(1)));

    const auto fail = [&](const char *what) {
        ltrf_warn_once("cell store: cannot %s %s/%s; caching disabled "
                       "for affected cells",
                       what, root.c_str(), tmp.c_str());
        ::unlinkat(dir_fd, tmp.c_str(), 0);
        std::lock_guard<std::mutex> lk(mu);
        errors_++;
    };

    const int fd = ::openat(dir_fd, tmp.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0)
        return fail("create");
    std::size_t done = 0;
    while (done < text.size()) {
        const ssize_t n =
                ::write(fd, text.data() + done, text.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        done += static_cast<std::size_t>(n);
    }
    if (::close(fd) != 0 || done != text.size())
        return fail("write");
    if (::renameat(dir_fd, tmp.c_str(), dir_fd, name) != 0)
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
