/**
 * @file
 * Google-benchmark microbenchmarks for the warm read path of the
 * persistent cell store: CellStore::load over a filled 81-entry store
 * (the cell count of a 9-workload, 8-point DSE grid plus its
 * baselines), and, on one entry's text alone, the store's entry
 * reader beside a JSON DOM parse of the same bytes.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "dse/cell_store.hh"
#include "harness/json.hh"
#include "sim/gpu.hh"

using namespace ltrf;

namespace
{

namespace fs = std::filesystem;

constexpr int KEYS = 9, WORKLOADS = 9;

const char *const WORKLOAD_NAMES[WORKLOADS] = {
        "backprop", "bfs", "btree", "gaussian", "hotspot",
        "lavaMD", "lud", "nw", "srad"};

/** A result whose fields take the widths real cells write. */
SimResult
sampleResult(int i)
{
    SimResult r;
    r.cycles = 123456 + 1000 * i;
    r.instructions = 654321 + 777 * i;
    r.ipc = static_cast<double>(r.instructions) /
            static_cast<double>(r.cycles);
    r.resident_warps = 8;
    r.main_accesses = 111111 + i;
    r.cache_accesses = 222222 + i;
    r.wcb_accesses = 33333 + i;
    r.xfer_regs = 44444 + i;
    r.prefetch_ops = 5555 + i;
    r.writeback_regs = 6666 + i;
    r.prefetch_stall_cycles = 777 + i;
    r.cache_hit_rate = 0.8753 / (1 + i);
    r.l1d_hit_rate = 0.662607015 / (1 + i);
    r.activity.main_accesses_per_cycle = 3.217 / (1 + i);
    r.activity.cache_accesses_per_cycle = 1.414213562373095 / (1 + i);
    r.activity.wcb_accesses_per_cycle = 0.301029995663981 / (1 + i);
    r.activity.xfer_regs_per_cycle = 0.0001 * (1 + i);
    return r;
}

std::string
simKeyText(int k)
{
    return std::string(k % 2 ? "tfet" : "hp") + "/b" +
           std::to_string(1 << (k % 3)) + "/z" +
           std::to_string(1 + k / 3) + "/xbar/c16/interval/w8/i16/o8/d1";
}

/** A store at a per-process temp path holding all 81 cells. */
class FilledStore
{
  public:
    FilledStore()
        : dir((fs::temp_directory_path() /
               ("ltrf_micro_cell_store_" + std::to_string(::getpid())))
                      .string()),
          store(dir, "sms=4|seed=2018")
    {
        for (int k = 0; k < KEYS; k++)
            for (int w = 0; w < WORKLOADS; w++) {
                cells.emplace_back(simKeyText(k), WORKLOAD_NAMES[w]);
                store.store(cells.back().first, cells.back().second,
                            sampleResult(k * WORKLOADS + w));
            }
    }

    ~FilledStore() { fs::remove_all(dir); }

    std::string dir;
    dse::CellStore store;
    std::vector<std::pair<std::string, std::string>> cells;
};

} // namespace

static void
BM_CellStoreLoadWarm(benchmark::State &state)
{
    FilledStore fs;
    std::size_t hits = 0;
    for (auto _ : state) {
        for (const auto &[key, workload] : fs.cells) {
            SimResult r;
            hits += fs.store.load(key, workload, r);
            benchmark::DoNotOptimize(r.ipc);
        }
    }
    if (hits != fs.cells.size() * state.iterations())
        state.SkipWithError("a stored cell failed to load");
    state.SetItemsProcessed(static_cast<std::int64_t>(
            fs.cells.size() * state.iterations()));
}
BENCHMARK(BM_CellStoreLoadWarm);

namespace
{

/** The text of @p fs's first entry. */
std::string
firstEntryText(const FilledStore &fs)
{
    std::ifstream in(
            fs.store.entryPath(fs.cells[0].first, fs.cells[0].second));
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

} // namespace

static void
BM_CellEntryRead(benchmark::State &state)
{
    FilledStore fs;
    const std::string text = firstEntryText(fs);
    const auto &[key, workload] = fs.cells[0];
    for (auto _ : state) {
        SimResult r;
        const char *why = fs.store.parseEntry(text, key, workload, r);
        if (why) {
            state.SkipWithError(why);
            break;
        }
        benchmark::DoNotOptimize(r.ipc);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
            text.size() * state.iterations()));
}
BENCHMARK(BM_CellEntryRead);

static void
BM_JsonParseCellEntry(benchmark::State &state)
{
    FilledStore fs;
    const std::string text = firstEntryText(fs);
    for (auto _ : state) {
        harness::Json j;
        const bool ok = harness::Json::tryParse(text, j);
        benchmark::DoNotOptimize(ok);
        benchmark::DoNotOptimize(j);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
            text.size() * state.iterations()));
}
BENCHMARK(BM_JsonParseCellEntry);
