/**
 * @file
 * Tests for the persistent content-addressed cell store
 * (dse/cell_store) and its explorer integration: exact result
 * round-trips, corruption-tolerant loads, sim-version invalidation,
 * concurrent writers on one directory, and the headline property —
 * a repeated exploration against a warm store simulates zero cells
 * and serializes a byte-identical report.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <climits>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dse/cell_store.hh"
#include "dse/explorer.hh"
#include "dse/space.hh"
#include "harness/json.hh"
#include "sim/gpu.hh"

using namespace ltrf;
using namespace ltrf::dse;

namespace
{

namespace fs = std::filesystem;

/** A fresh per-test directory under the system temp root. */
class CellStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = (fs::temp_directory_path() /
               ("ltrf_cell_store_" + std::to_string(::getpid()) +
                "_" +
                ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()))
                      .string();
        fs::remove_all(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

SimResult
sampleResult()
{
    SimResult r;
    r.workload = "bfs";
    r.cycles = 123456;
    r.instructions = 654321;
    r.ipc = 1.2345678901234567;
    r.resident_warps = 12;
    r.main_accesses = 1111;
    r.cache_accesses = 2222;
    r.wcb_accesses = 3333;
    r.xfer_regs = 4444;
    r.prefetch_ops = 555;
    r.writeback_regs = 666;
    r.prefetch_stall_cycles = 77;
    r.cache_hit_rate = 0.875;
    r.l1d_hit_rate = 0.662607015;
    r.activity.main_accesses_per_cycle = 3.217;
    r.activity.cache_accesses_per_cycle = 1.414213562373095;
    r.activity.wcb_accesses_per_cycle = 0.301029995663981;
    r.activity.xfer_regs_per_cycle = 0.0001;
    return r;
}

void
expectSame(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    // Exact equality on purpose: the JSON number codec round-trips
    // doubles bit-for-bit (%.17g), which is what lets a loaded cell
    // fold into a byte-identical report.
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.resident_warps, b.resident_warps);
    EXPECT_EQ(a.main_accesses, b.main_accesses);
    EXPECT_EQ(a.cache_accesses, b.cache_accesses);
    EXPECT_EQ(a.wcb_accesses, b.wcb_accesses);
    EXPECT_EQ(a.xfer_regs, b.xfer_regs);
    EXPECT_EQ(a.prefetch_ops, b.prefetch_ops);
    EXPECT_EQ(a.writeback_regs, b.writeback_regs);
    EXPECT_EQ(a.prefetch_stall_cycles, b.prefetch_stall_cycles);
    EXPECT_EQ(a.cache_hit_rate, b.cache_hit_rate);
    EXPECT_EQ(a.l1d_hit_rate, b.l1d_hit_rate);
    EXPECT_EQ(a.activity.main_accesses_per_cycle,
              b.activity.main_accesses_per_cycle);
    EXPECT_EQ(a.activity.cache_accesses_per_cycle,
              b.activity.cache_accesses_per_cycle);
    EXPECT_EQ(a.activity.wcb_accesses_per_cycle,
              b.activity.wcb_accesses_per_cycle);
    EXPECT_EQ(a.activity.xfer_regs_per_cycle,
              b.activity.xfer_regs_per_cycle);
}

constexpr const char *KEY = "tfet/b8/z1/fbfly/c16/interval/w8/i16/o8/d1";

} // namespace

TEST_F(CellStoreTest, RoundTripsEveryField)
{
    CellStore store(dir, "sms=2|seed=7");
    const SimResult in = sampleResult();

    SimResult out;
    EXPECT_FALSE(store.load(KEY, "bfs", out));    // cold: miss
    store.store(KEY, "bfs", in);
    ASSERT_TRUE(store.load(KEY, "bfs", out));
    expectSame(in, out);
    EXPECT_EQ(out.workload, "bfs");

    const CellStore::Counts c = store.counts();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.stores, 1u);
    EXPECT_EQ(c.errors, 0u);
}

TEST_F(CellStoreTest, DistinctCellsGetDistinctEntries)
{
    CellStore store(dir, "sms=2|seed=7");
    EXPECT_NE(store.entryPath(KEY, "bfs"), store.entryPath(KEY, "btree"));
    EXPECT_NE(store.entryPath(KEY, "bfs"),
              store.entryPath("hp/b1/z1/xbar/c16/interval/w8/i16/o8/d1",
                              "bfs"));

    SimResult a = sampleResult(), b = sampleResult();
    b.ipc = 9.75;
    store.store(KEY, "bfs", a);
    store.store(KEY, "btree", b);
    SimResult out;
    ASSERT_TRUE(store.load(KEY, "btree", out));
    EXPECT_EQ(out.ipc, 9.75);
    ASSERT_TRUE(store.load(KEY, "bfs", out));
    EXPECT_EQ(out.ipc, a.ipc);
}

TEST_F(CellStoreTest, CorruptedEntryIsAMissNotACrash)
{
    CellStore store(dir, "ctx");
    store.store(KEY, "bfs", sampleResult());
    const std::string path = store.entryPath(KEY, "bfs");

    {
        std::ofstream f(path, std::ios::trunc);
        f << "{ this is not json";
    }
    SimResult out;
    EXPECT_FALSE(store.load(KEY, "bfs", out));
    EXPECT_GE(store.counts().errors, 1u);

    // Re-simulating and re-storing repairs the entry.
    store.store(KEY, "bfs", sampleResult());
    EXPECT_TRUE(store.load(KEY, "bfs", out));
}

TEST_F(CellStoreTest, TruncatedEntryIsAMissNotACrash)
{
    CellStore store(dir, "ctx");
    store.store(KEY, "bfs", sampleResult());
    const std::string path = store.entryPath(KEY, "bfs");

    std::string text;
    {
        std::ifstream f(path);
        text.assign(std::istreambuf_iterator<char>(f),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_GT(text.size(), 40u);
    {
        // A torn write (which the atomic rename protocol prevents,
        // but a full disk or a copied file can still produce).
        std::ofstream f(path, std::ios::trunc);
        f << text.substr(0, text.size() / 2);
    }
    SimResult out;
    EXPECT_FALSE(store.load(KEY, "bfs", out));
    EXPECT_GE(store.counts().errors, 1u);
}

TEST_F(CellStoreTest, ValidJsonWithMissingFieldsIsAMiss)
{
    CellStore store(dir, "ctx");
    store.store(KEY, "bfs", sampleResult());
    {
        std::ofstream f(store.entryPath(KEY, "bfs"), std::ios::trunc);
        f << "{\"ltrf_cell_schema\": 1}\n";
    }
    SimResult out;
    EXPECT_FALSE(store.load(KEY, "bfs", out));
    EXPECT_GE(store.counts().errors, 1u);
}

namespace
{

std::string
readText(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
}

/** @p text with the number after "key": replaced by @p value. */
std::string
withField(std::string text, const std::string &key,
          const std::string &value)
{
    const std::string tag = "\"" + key + "\": ";
    const std::size_t at = text.find(tag);
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t from = at + tag.size();
    const std::size_t to = text.find_first_of(",\n", from);
    return text.replace(from, to - from, value);
}

} // namespace

TEST_F(CellStoreTest, OutOfRangeNumbersAreAMissNotAHit)
{
    CellStore store(dir, "ctx");
    store.store(KEY, "bfs", sampleResult());
    const std::string path = store.entryPath(KEY, "bfs");
    const std::string good = readText(path);

    // Each edit parses as JSON, but no simulation produces it.
    const std::vector<std::pair<std::string, std::string>> edits = {
            {"cycles", "1e999"},
            {"cycles", "-1"},
            {"cycles", "1.5"},
            {"instructions", "18014398509481984"},    // 2^54
            {"prefetch_ops", "1e300"},
            {"resident_warps", "1e12"},
            {"resident_warps", "0"},
            {"resident_warps", "2.5"},
            {"ipc", "1e999"},
            {"ipc", "-0.5"},
            {"l1d_hit_rate", "-1e999"},
            {"act_xfer", "-0.0001"},
    };
    std::uint64_t errors = 0;
    for (const auto &[key, value] : edits) {
        {
            std::ofstream f(path, std::ios::trunc);
            f << withField(good, key, value);
        }
        SimResult out;
        EXPECT_FALSE(store.load(KEY, "bfs", out))
                << key << ": " << value << " loaded as a hit";
        EXPECT_EQ(store.counts().errors, ++errors) << key << ": " << value;
    }
    // Both counter kinds edited at once, as a damaged entry would be.
    {
        std::ofstream f(path, std::ios::trunc);
        f << withField(withField(good, "cycles", "1e999"),
                       "resident_warps", "1e12");
    }
    SimResult out;
    EXPECT_FALSE(store.load(KEY, "bfs", out));
    EXPECT_EQ(store.counts().hits, 0u);

    // The largest exact counter and the untouched entry still load.
    {
        std::ofstream f(path, std::ios::trunc);
        f << withField(good, "cycles", "9007199254740992");
    }
    ASSERT_TRUE(store.load(KEY, "bfs", out));
    EXPECT_EQ(out.cycles, 9007199254740992ull);
    {
        std::ofstream f(path, std::ios::trunc);
        f << good;
    }
    ASSERT_TRUE(store.load(KEY, "bfs", out));
    expectSame(sampleResult(), out);
}

TEST_F(CellStoreTest, UnreadableEntryIsAnErrorNotACrash)
{
    CellStore store(dir, "ctx");
    SimResult out;

    // Absent: a plain miss.
    EXPECT_FALSE(store.load(KEY, "bfs", out));
    EXPECT_EQ(store.counts().misses, 1u);
    EXPECT_EQ(store.counts().errors, 0u);

    // Present but unreadable (read() fails with EISDIR): an error.
    fs::create_directories(store.entryPath(KEY, "bfs"));
    EXPECT_FALSE(store.load(KEY, "bfs", out));
    EXPECT_EQ(store.counts().misses, 2u);
    EXPECT_EQ(store.counts().errors, 1u);
    EXPECT_EQ(store.counts().hits, 0u);

    // A store cannot publish over the directory either; that too is
    // an error, and the run goes on uncached.
    store.store(KEY, "bfs", sampleResult());
    EXPECT_EQ(store.counts().errors, 2u);
    EXPECT_FALSE(store.load(KEY, "bfs", out));
}

TEST_F(CellStoreTest, EntryLargerThanOneReadStillLoads)
{
    // Entries are read in one sized read when they fit; one padded
    // past that size (whitespace is valid JSON) must still load.
    CellStore store(dir, "ctx");
    store.store(KEY, "bfs", sampleResult());
    const std::string path = store.entryPath(KEY, "bfs");
    const std::string good = readText(path);
    {
        std::ofstream f(path, std::ios::trunc);
        f << good << std::string(20000, ' ');
    }
    SimResult out;
    ASSERT_TRUE(store.load(KEY, "bfs", out));
    expectSame(sampleResult(), out);
}

TEST_F(CellStoreTest, SimVersionChangeInvalidatesPassively)
{
    // The version is part of the entry address: after a bump, old
    // entries are simply never found (no scan, no deletion).
    {
        CellStore v1(dir, "ctx", "version-one");
        v1.store(KEY, "bfs", sampleResult());
    }
    CellStore v2(dir, "ctx", "version-two");
    SimResult out;
    EXPECT_FALSE(v2.load(KEY, "bfs", out));
    EXPECT_EQ(v2.counts().errors, 0u) << "stale entries are plain "
                                          "misses, not errors";

    // A hand-copied foreign entry *at the right address* is caught
    // by the stored-key verification instead.
    CellStore v1b(dir, "ctx", "version-one");
    fs::copy_file(v1b.entryPath(KEY, "bfs"),
                  v2.entryPath(KEY, "bfs"),
                  fs::copy_options::overwrite_existing);
    EXPECT_FALSE(v2.load(KEY, "bfs", out));
    EXPECT_GE(v2.counts().errors, 1u);
}

TEST_F(CellStoreTest, ContextSeparatesRuns)
{
    // Same sim key + workload at different SM counts / seeds must
    // not share entries (simKey() does not encode either).
    CellStore sms2(dir, "sms=2|seed=7");
    CellStore sms4(dir, "sms=4|seed=7");
    sms2.store(KEY, "bfs", sampleResult());
    SimResult out;
    EXPECT_FALSE(sms4.load(KEY, "bfs", out));
    EXPECT_TRUE(sms2.load(KEY, "bfs", out));
}

TEST_F(CellStoreTest, ConcurrentWritersOnOneDirectory)
{
    // Shards of one exploration share a cache dir: concurrent
    // stores of the same and of distinct cells must never produce a
    // torn read. (With tsan/asan in CI this also proves the
    // counters' locking.)
    constexpr int THREADS = 8, ITERS = 25;
    CellStore store(dir, "ctx");
    std::vector<std::thread> ts;
    for (int t = 0; t < THREADS; t++) {
        ts.emplace_back([&store, t] {
            for (int i = 0; i < ITERS; i++) {
                SimResult r = sampleResult();
                r.ipc = 1.0 + t;    // per-thread payload
                const std::string wl =
                        "w" + std::to_string(i % 5);
                store.store(KEY, wl, r);
                SimResult out;
                if (store.load(KEY, wl, out)) {
                    // Whatever thread's store won, the entry is
                    // complete and self-consistent.
                    EXPECT_GE(out.ipc, 1.0);
                    EXPECT_LE(out.ipc, 1.0 + THREADS);
                    EXPECT_EQ(out.cycles, r.cycles);
                }
            }
        });
    }
    for (std::thread &t : ts)
        t.join();
    EXPECT_EQ(store.counts().errors, 0u);
}

// ----- Explorer integration -----

namespace
{

DesignSpace
microSpace()
{
    DesignSpace s;
    s.techs = {CellTech::HP_SRAM, CellTech::TFET_SRAM};
    s.banks = {1, 8};
    s.bank_sizes = {1};
    s.networks = {};    // auto
    s.cache_kbs = {16};
    s.policies = {PrefetchPolicy::INTERVAL};
    s.warps = {8};
    return s;
}

ExploreOptions
microOptions()
{
    ExploreOptions opt;
    opt.workloads = {"bfs", "btree"};
    opt.num_sms = 1;
    opt.seed = 2018;
    return opt;
}

} // namespace

TEST_F(CellStoreTest, SecondExplorationSimulatesNothing)
{
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::GRID;

    const DseResult plain = explore(microSpace(), opt);
    ASSERT_EQ(plain.store_hits + plain.store_misses, 0u)
            << "no cache dir, no store traffic";

    opt.cache_dir = dir;
    const DseResult cold = explore(microSpace(), opt);
    EXPECT_EQ(cold.store_hits, 0u);
    EXPECT_EQ(cold.store_misses, cold.sim_cells);
    EXPECT_EQ(cold.store_stores, cold.sim_cells);

    const DseResult warm = explore(microSpace(), opt);
    EXPECT_EQ(warm.store_misses, 0u) << "a warm store simulates "
                                        "zero cells";
    EXPECT_EQ(warm.store_stores, 0u);
    EXPECT_EQ(warm.store_hits, warm.sim_cells);

    // The headline determinism property: the report cannot tell a
    // cached run from a fresh one, byte for byte.
    const std::string golden = plain.toJson().dump(2);
    EXPECT_EQ(golden, cold.toJson().dump(2));
    EXPECT_EQ(golden, warm.toJson().dump(2));

    // The side-channel stat lines surface the store counters.
    ASSERT_FALSE(warm.stats_lines.empty());
    bool saw_hits = false;
    for (const StatLine &l : warm.stats_lines)
        if (l.name == "cell_store.hits") {
            saw_hits = true;
            EXPECT_EQ(l.value, warm.store_hits);
        }
    EXPECT_TRUE(saw_hits);
}

TEST_F(CellStoreTest, ExplorerCellsAreAddressedBySmsAndSeedContext)
{
    // Readers outside the explorer (the perfbench harness) rebuild
    // the store context as the literal "sms=N|seed=S" text and must
    // find every cell a cold exploration wrote: each point's
    // (simKey, workload) cell and each workload's BL baseline.
    ExploreOptions opt = microOptions();
    opt.strategy = Strategy::GRID;
    opt.cache_dir = dir;
    const DseResult cold = explore(microSpace(), opt);
    ASSERT_EQ(cold.store_stores, cold.sim_cells);

    CellStore store(dir, "sms=1|seed=2018");
    std::vector<SimConfig> cfgs;
    SimConfig baseline;
    baseline.num_sms = opt.num_sms;
    baseline.design = RfDesign::BL;
    cfgs.push_back(baseline);
    for (const DesignPoint &p : microSpace().enumerate())
        cfgs.push_back(configFor(p, opt.num_sms));
    for (const SimConfig &cfg : cfgs)
        for (const std::string &w : opt.workloads) {
            SimResult r;
            EXPECT_TRUE(store.load(simKey(cfg), w, r))
                    << simKey(cfg) << " / " << w;
        }
    EXPECT_EQ(store.counts().hits, cfgs.size() * opt.workloads.size());
}

TEST_F(CellStoreTest, ConcurrentShardsShareACacheDirectory)
{
    // Two GRID shards of one space explore concurrently into one
    // cache dir (the sharded-DSE workflow). Their stripes are
    // disjoint but the baseline cells collide — the atomic rename
    // protocol makes that race benign.
    ExploreOptions base = microOptions();
    base.strategy = Strategy::GRID;
    base.cache_dir = dir;
    base.shard_count = 2;

    DseResult shard_res[2];
    std::vector<std::thread> ts;
    for (int sh = 0; sh < 2; sh++) {
        ts.emplace_back([&, sh] {
            ExploreOptions o = base;
            o.shard_index = sh;
            shard_res[sh] = explore(microSpace(), o);
        });
    }
    for (std::thread &t : ts)
        t.join();
    EXPECT_EQ(shard_res[0].store_errors, 0u);
    EXPECT_EQ(shard_res[1].store_errors, 0u);
    EXPECT_EQ(shard_res[0].evaluated.size() +
                      shard_res[1].evaluated.size(),
              microSpace().size());

    // The union of the shards warmed every cell of the full space.
    ExploreOptions full = microOptions();
    full.strategy = Strategy::GRID;
    full.cache_dir = dir;
    const DseResult warm = explore(microSpace(), full);
    EXPECT_EQ(warm.store_misses, 0u);
    EXPECT_EQ(warm.store_hits, warm.sim_cells);
}

// ----- Entry addresses and the entry reader -----

TEST_F(CellStoreTest, EntryAddressesArePinned)
{
    // Hex captured from the store as it hashed the whole address per
    // call. Hashing the (version, context) prefix once must not move
    // any entry: a moved address silently orphans every store on disk.
    CellStore store(dir, "sms=4|seed=2018", "0123456789abcdef");
    EXPECT_EQ(store.entryPath(KEY, "bfs"),
              dir + "/28fdf25ec6a1c35a4497f588fcc4393c.json");
    EXPECT_EQ(store.entryPath("", ""),
              dir + "/6be5bb442a3be575c19e74921bd4be2b.json");
    CellStore bare(dir, "", "");
    EXPECT_EQ(bare.entryPath("hp/b1/z1/xbar/c16/interval/w8/i16/o8/d1",
                             "nw"),
              dir + "/9cce1cb4dc6185935c42920cbd6685a1.json");
    EXPECT_EQ(bare.entryPath("", ""),
              dir + "/27d1c9e52d5744668f3e7418d31fe7b4.json");
}

namespace
{

using harness::Json;

/**
 * The reference entry check: the store's load logic as it was before
 * the field-scanning reader, a JSON DOM (Json::tryParse) plus keyed
 * lookups. CellStore::parseEntry must agree with it on every input.
 */
const std::string *
refStr(const Json &j, std::string_view k)
{
    const Json *x = j.find(k);
    return x && x->type() == Json::Type::STRING ? &x->asString()
                                                : nullptr;
}

bool
refRate(const Json &j, std::string_view k, double &v)
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

bool
refU64(const Json &j, std::string_view k, std::uint64_t &v)
{
    double d = 0.0;
    if (!refRate(j, k, d) || d != std::floor(d) ||
        d > 9007199254740992.0)
        return false;
    v = static_cast<std::uint64_t>(d);
    return true;
}

bool
refWarps(const Json &j, std::string_view k, int &v)
{
    std::uint64_t n = 0;
    if (!refU64(j, k, n) || n < 1 ||
        n > static_cast<std::uint64_t>(INT_MAX))
        return false;
    v = static_cast<int>(n);
    return true;
}

const char *
refParseEntry(std::string_view text, const std::string &version,
              const std::string &context, const std::string &sim_key,
              const std::string &workload, SimResult &out)
{
    Json j;
    if (!Json::tryParse(text, j))
        return "unparseable";
    const Json *schema = j.find("ltrf_cell_schema");
    if (!schema || schema->type() != Json::Type::NUMBER ||
        schema->asDouble() != 1)
        return "unrecognized schema";
    const std::string *v = refStr(j, "sim_version");
    const std::string *c = refStr(j, "context");
    const std::string *k = refStr(j, "sim_key");
    const std::string *w = refStr(j, "workload");
    if (!v || !c || !k || !w)
        return "missing key fields";
    if (*v != version || *c != context || *k != sim_key ||
        *w != workload)
        return "key mismatch";
    const Json *r = j.find("result");
    if (!r)
        return "missing result";
    SimResult res;
    res.workload = workload;
    const bool ok = refRate(*r, "ipc", res.ipc) &&
                    refU64(*r, "cycles", res.cycles) &&
                    refU64(*r, "instructions", res.instructions) &&
                    refWarps(*r, "resident_warps", res.resident_warps) &&
                    refU64(*r, "main_accesses", res.main_accesses) &&
                    refU64(*r, "cache_accesses", res.cache_accesses) &&
                    refU64(*r, "wcb_accesses", res.wcb_accesses) &&
                    refU64(*r, "xfer_regs", res.xfer_regs) &&
                    refU64(*r, "prefetch_ops", res.prefetch_ops) &&
                    refU64(*r, "writeback_regs", res.writeback_regs) &&
                    refU64(*r, "prefetch_stall_cycles",
                           res.prefetch_stall_cycles) &&
                    refRate(*r, "cache_hit_rate", res.cache_hit_rate) &&
                    refRate(*r, "l1d_hit_rate", res.l1d_hit_rate) &&
                    refRate(*r, "act_main",
                            res.activity.main_accesses_per_cycle) &&
                    refRate(*r, "act_cache",
                            res.activity.cache_accesses_per_cycle) &&
                    refRate(*r, "act_wcb",
                            res.activity.wcb_accesses_per_cycle) &&
                    refRate(*r, "act_xfer",
                            res.activity.xfer_regs_per_cycle);
    if (!ok)
        return "missing or out-of-range result field";
    out = std::move(res);
    return nullptr;
}

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** Every result field of @p a and @p b, doubles compared by bits. */
bool
bitSame(const SimResult &a, const SimResult &b)
{
    return a.workload == b.workload && a.cycles == b.cycles &&
           a.instructions == b.instructions &&
           bitsOf(a.ipc) == bitsOf(b.ipc) &&
           a.resident_warps == b.resident_warps &&
           a.main_accesses == b.main_accesses &&
           a.cache_accesses == b.cache_accesses &&
           a.wcb_accesses == b.wcb_accesses &&
           a.xfer_regs == b.xfer_regs &&
           a.prefetch_ops == b.prefetch_ops &&
           a.writeback_regs == b.writeback_regs &&
           a.prefetch_stall_cycles == b.prefetch_stall_cycles &&
           bitsOf(a.cache_hit_rate) == bitsOf(b.cache_hit_rate) &&
           bitsOf(a.l1d_hit_rate) == bitsOf(b.l1d_hit_rate) &&
           bitsOf(a.activity.main_accesses_per_cycle) ==
                   bitsOf(b.activity.main_accesses_per_cycle) &&
           bitsOf(a.activity.cache_accesses_per_cycle) ==
                   bitsOf(b.activity.cache_accesses_per_cycle) &&
           bitsOf(a.activity.wcb_accesses_per_cycle) ==
                   bitsOf(b.activity.wcb_accesses_per_cycle) &&
           bitsOf(a.activity.xfer_regs_per_cycle) ==
                   bitsOf(b.activity.xfer_regs_per_cycle);
}

/** @p text with its first @p from replaced by @p to. */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text
                                   : text.replace(at, from.size(), to);
}

/** @p text with @p member inserted as the first member of the object
 *  opened by @p open ("{" for the entry, "\"result\": {" for its
 *  result), or, if @p last, as its last member. */
std::string
withMember(const std::string &text, const std::string &open,
           const std::string &member, bool last)
{
    std::size_t at = text.find(open);
    EXPECT_NE(at, std::string::npos) << open;
    at += open.size();
    if (!last)
        return text.substr(0, at) + member + "," + text.substr(at);
    // Entry texts hold no braces inside strings.
    std::size_t close = at;
    for (int depth = 1; depth > 0; close++)
        depth += text[close] == '{' ? 1 : text[close] == '}' ? -1 : 0;
    close--;
    return text.substr(0, close) + "," + member + text.substr(close);
}

constexpr const char *TOP_KEYS[] = {"ltrf_cell_schema", "sim_version",
                                    "context", "sim_key", "workload",
                                    "result"};
constexpr const char *RESULT_KEYS[] = {
        "ipc",           "cycles",         "instructions",
        "resident_warps", "main_accesses", "cache_accesses",
        "wcb_accesses",  "xfer_regs",      "prefetch_ops",
        "writeback_regs", "prefetch_stall_cycles", "cache_hit_rate",
        "l1d_hit_rate",  "act_main",       "act_cache",
        "act_wcb",       "act_xfer"};

/** The seeded corpus of entry texts the reader is checked on. */
std::vector<std::string>
readerCorpus(const std::string &good)
{
    std::vector<std::string> c;
    c.push_back(good);

    // Every truncation, as a torn or short write leaves it.
    for (std::size_t n = 0; n < good.size(); n++)
        c.push_back(good.substr(0, n));

    // Random byte substitutions, insertions and deletions, biased to
    // the bytes the grammar cares about.
    std::mt19937_64 rng(2018);
    const std::string alphabet = "{}[]\",:\\ \n0123456789.eE+-tfnlux\x01";
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const auto byte = [&]() -> char {
        return pick(4) ? alphabet[pick(alphabet.size())]
                       : static_cast<char>(rng() & 0xff);
    };
    for (int i = 0; i < 1000; i++) {
        std::string s = good;
        s[pick(s.size())] = byte();
        c.push_back(s);
        s = good;
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size() + 1)),
                 byte());
        c.push_back(s);
        s = good;
        s.erase(pick(s.size()), 1);
        c.push_back(s);
    }

    // Each member's value swapped to every other JSON type.
    const char *const others[] = {"\"x\"", "[1, 2]", "{\"a\": 1}", "null",
                                  "true", "false", "[]", "{}"};
    std::vector<std::pair<std::string, std::string>> fields;
    for (const char *k : TOP_KEYS)
        fields.emplace_back("{", k);
    for (const char *k : RESULT_KEYS)
        fields.emplace_back("\"result\": {", k);
    for (const auto &[open, key] : fields) {
        for (const char *v : others) {
            const std::string member = "\"" + key + "\": " + v;
            // A repeat of a good member, before and after it: the
            // later one wins.
            c.push_back(withMember(good, open, member, false));
            c.push_back(withMember(good, open, member, true));
        }
        // The key dropped, by renaming it.
        c.push_back(replaced(good, "\"" + key + "\":",
                             "\"" + key + "_\":"));
    }

    // Numbers at the edges of the integer and double conversions, in
    // the schema, a count, the warp count and a rate.
    const char *const numbers[] = {
            "1e5", "100000.0", "-0", "0", "-0.0", "000123", "1.",
            "9007199254740992", "9007199254740993", "9007199254740991",
            "1234567890123456", "9999999999999999", "999999999999999",
            "123456789012345", "18446744073709551616", "1e999",
            "-1e999", "1e-999", "2147483647", "2147483648", "-5",
            "1.5", "1E+2", "0.1e1", "5e-324", "1.7976931348623157e308"};
    for (const char *key : {"cycles", "resident_warps", "ipc",
                            "prefetch_stall_cycles"}) {
        for (const char *v : numbers)
            c.push_back(withField(good, key, v));
    }
    for (const char *v : {"1.0", "1e0", "10e-1", "-0", "2", "\"1\"",
                          "0.99999999999999999", "1.0000000000000001"})
        c.push_back(replaced(good, "\"ltrf_cell_schema\": 1",
                             std::string("\"ltrf_cell_schema\": ") + v));

    // Key material and member names spelled with escapes.
    c.push_back(replaced(good, "\"workload\": \"bfs\"",
                         "\"workload\": \"\\u0062fs\""));
    c.push_back(replaced(good, "\"workload\": \"bfs\"",
                         "\"\\u0077orkload\": \"b\\u0066\\u0073\""));
    c.push_back(replaced(good, "\"workload\": \"bfs\"",
                         "\"workload\": \"bfs\\u0000\""));
    c.push_back(replaced(good, "\"sim_key\": \"tfet/",
                         "\"sim_key\": \"tfet\\/"));
    c.push_back(replaced(good, "\"context\": \"ctx\"",
                         "\"context\": \"c\\u0074x\""));
    c.push_back(replaced(good, "\"context\": \"ctx\"",
                         "\"context\": \"c\\u00e9x\""));
    c.push_back(replaced(good, "\"cycles\":", "\"\\u0063ycles\":"));
    c.push_back(replaced(good, "\"result\":", "\"r\\u0065sult\":"));
    c.push_back(replaced(good, "\"cycles\":", "\"cycles\\u0020\":"));

    // Unknown members with nested values, at both levels.
    const std::string nested =
            "\"extra\": {\"a\": [1, {\"b\": null, \"c\": [[], {}]}], "
            "\"d\": \"}]\\\"\", \"e\": -1.5e3}";
    c.push_back(withMember(good, "{", nested, false));
    c.push_back(withMember(good, "{", nested, true));
    c.push_back(withMember(good, "\"result\": {", nested, false));
    c.push_back(withMember(good, "\"result\": {", nested, true));
    c.push_back(withMember(good, "{", "\"extra\": [1, ]", false));
    c.push_back(withMember(good, "{", "\"extra\": {\"a\" 1}", false));

    // Whitespace variants: none at all, tabs and CRs, and padding.
    std::string compact;
    for (const char ch : good)
        if (ch != ' ' && ch != '\n')
            compact += ch;
    c.push_back(compact);
    std::string tabs;
    for (const char ch : good)
        tabs += ch == '\n' ? std::string("\r\n\t") : std::string(1, ch);
    c.push_back(tabs);
    c.push_back(" \t\r\n" + good + " \t\r\n");
    c.push_back(good + "\f");

    // Bytes after the object, and documents that are not an entry.
    for (const char *tail : {"x", "{}", ",", "}", "\"", "0", "null"})
        c.push_back(good + tail);
    for (const char *doc : {"", " ", "{}", "[]", "5", "\"s\"", "null",
                            "[{\"ltrf_cell_schema\": 1}]", "{\"a\":}",
                            "{\"ltrf_cell_schema\": 1,}"})
        c.push_back(doc);
    return c;
}

} // namespace

TEST_F(CellStoreTest, ReaderAgreesWithTheJsonDomOnEveryInput)
{
    const std::string version = "v1", context = "ctx";
    CellStore store(dir, context, version);
    store.store(KEY, "bfs", sampleResult());
    const std::string path = store.entryPath(KEY, "bfs");
    const std::string good = readText(path);

    std::map<std::string, int> seen;
    std::uint64_t want_hits = 0, want_errors = 0;
    const std::vector<std::string> corpus = readerCorpus(good);
    for (std::size_t i = 0; i < corpus.size(); i++) {
        const std::string &text = corpus[i];
        SimResult want, got;
        const char *ref =
                refParseEntry(text, version, context, KEY, "bfs", want);
        const char *why = store.parseEntry(text, KEY, "bfs", got);
        seen[ref ? ref : "hit"]++;
        ASSERT_EQ(std::string(ref ? ref : "hit"),
                  std::string(why ? why : "hit"))
                << "case " << i << ":\n"
                << text;
        if (!ref) {
            ASSERT_TRUE(bitSame(want, got)) << "case " << i << ":\n"
                                            << text;
        }

        // The same verdict through load(): a hit, or an error miss.
        {
            std::ofstream f(path, std::ios::binary | std::ios::trunc);
            f << text;
        }
        SimResult out;
        ASSERT_EQ(store.load(KEY, "bfs", out), ref == nullptr)
                << "case " << i;
        if (ref)
            want_errors++;
        else
            want_hits++;
        ASSERT_EQ(store.counts().hits, want_hits) << "case " << i;
        ASSERT_EQ(store.counts().errors, want_errors) << "case " << i;
    }
    // An absent entry is the one plain miss.
    fs::remove(path);
    SimResult out;
    EXPECT_FALSE(store.load(KEY, "bfs", out));
    EXPECT_EQ(store.counts().errors, want_errors);
    EXPECT_EQ(store.counts().misses, want_errors + 1);

    // The corpus reaches every verdict.
    for (const char *v :
         {"hit", "unparseable", "unrecognized schema",
          "missing key fields", "key mismatch", "missing result",
          "missing or out-of-range result field"})
        EXPECT_GT(seen[v], 0) << v;
}

TEST_F(CellStoreTest, ReaderKeepsTheLastOfRepeatedMembers)
{
    CellStore store(dir, "ctx", "v1");
    store.store(KEY, "bfs", sampleResult());
    const std::string good = readText(store.entryPath(KEY, "bfs"));
    SimResult out;
    EXPECT_STREQ(store.parseEntry(withMember(good, "\"result\": {",
                                             "\"cycles\": 5", true),
                                  KEY, "bfs", out),
                 nullptr);
    EXPECT_EQ(out.cycles, 5u);
    EXPECT_STREQ(store.parseEntry(withMember(good, "\"result\": {",
                                             "\"cycles\": 5", false),
                                  KEY, "bfs", out),
                 nullptr);
    EXPECT_EQ(out.cycles, sampleResult().cycles);
    // A later "result" replaces the whole earlier one.
    EXPECT_STREQ(store.parseEntry(withMember(good, "{",
                                             "\"result\": {}", true),
                                  KEY, "bfs", out),
                 "missing or out-of-range result field");
}
