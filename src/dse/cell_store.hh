/**
 * @file
 * Persistent, content-addressed store of simulated DSE cells.
 *
 * The explorer's in-memory cell cache (one slot per (simKey,
 * workload) pair) dies with the process, so resumed runs, shards of
 * one exploration, rung promotions in later invocations, and
 * separate users all re-simulate identical cells. The CellStore
 * persists each landed cell to disk in the style of a distributed
 * build cache: the filename is a content hash of everything that
 * determines the simulation's output —
 *
 *   simKey(cfg)  - the simulation-equivalence key of the
 *                  configuration (design, capacity, banks, latency,
 *                  cache bytes, warps, interval, collectors, DRAM
 *                  service),
 *   workload     - the workload name (the suite's kernels are
 *                  deterministic given the name and seed),
 *   context      - run parameters outside simKey that change the
 *                  result (SM count, workload seed),
 *   sim version  - a hash that must change whenever simulate()'s
 *                  outputs can change for a fixed (config, kernel,
 *                  seed); see simVersionHash().
 *
 * Because the version is part of the address, a simulator upgrade
 * invalidates the whole store passively: old entries are simply
 * never found again. Writes are atomic (temp file + rename), so
 * concurrent writers — shards of one exploration sharing a cache
 * directory, or unrelated runs — can race on the same entry and
 * readers still only ever observe complete entries. Loads are
 * corruption-tolerant: a truncated, malformed, or mismatched entry
 * is a warn-once miss that falls back to re-simulation, never a
 * crash.
 *
 * Hit/miss/store/error counters are registered in a StatGroup
 * ("cell_store") so the observability layer can surface them
 * alongside the rest of the stat trees.
 */

#ifndef LTRF_DSE_CELL_STORE_HH
#define LTRF_DSE_CELL_STORE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "common/stats.hh"
#include "sim/gpu.hh"

namespace ltrf::dse
{

/**
 * The current simulation content version. Composed of a manually
 * bumped tag — bump SIM_CONTENT_VERSION in cell_store.cc whenever a
 * change can alter simulate()'s outputs for a fixed (SimConfig,
 * kernel, seed) — plus a layout fingerprint of the config/result
 * structs as a safety net against forgotten bumps across rebuilds.
 */
std::string simVersionHash();

/** On-disk cell cache; safe to share across pool worker threads. */
class CellStore
{
  public:
    /**
     * Open (creating if needed) the store at @p dir. fatal() if the
     * directory cannot be created — a user pointed --cache-dir at an
     * unusable path.
     *
     * @param context run parameters baked into every entry address
     *                (SM count, workload seed), "key=value|..." text
     * @param version overrides simVersionHash() (tests only)
     */
    CellStore(std::string dir, std::string context,
              std::string version = simVersionHash());
    ~CellStore();

    CellStore(const CellStore &) = delete;
    CellStore &operator=(const CellStore &) = delete;

    /**
     * Look the (sim_key, workload) cell up. On a hit, @p out carries
     * the persisted result (numeric fields; stall observability is
     * never persisted) and true returns. Any failure — absent entry,
     * unreadable file, unparseable JSON, a verification mismatch
     * against the stored key material, missing fields, or numbers
     * no simulation produces (non-finite, negative, fractional
     * counts, counts past 2^53, fewer than one resident warp) — is
     * a miss; the non-absent failures warn once and count as errors.
     */
    bool load(const std::string &sim_key, const std::string &workload,
              SimResult &out);

    /**
     * Check and decode the text of the entry addressed by (@p
     * sim_key, @p workload) in one pass, without building a JSON
     * document. On a hit @p out carries the result and nullptr
     * returns; otherwise the reason load() rejects the entry with,
     * and @p out is untouched.
     */
    const char *parseEntry(std::string_view text,
                           const std::string &sim_key,
                           const std::string &workload,
                           SimResult &out) const;

    /**
     * Persist @p r for the (sim_key, workload) cell. Write errors
     * warn once and count; the run continues uncached.
     */
    void store(const std::string &sim_key,
               const std::string &workload, const SimResult &r);

    /** Entry path for @p sim_key/@p workload (tests: corruption). */
    std::string entryPath(const std::string &sim_key,
                          const std::string &workload) const;

    const std::string &dir() const { return root; }

    struct Counts
    {
        std::uint64_t hits = 0;      ///< cells served from disk
        std::uint64_t misses = 0;    ///< absent entries (simulated)
        std::uint64_t stores = 0;    ///< entries written
        std::uint64_t errors = 0;    ///< bad entries + write failures
    };
    Counts counts() const;

    /** The "cell_store" stat group the counters are registered in. */
    const StatGroup &stats() const { return group; }

  private:
    /** An entry file name: 32 hex digits, ".json" and a NUL. */
    static constexpr std::size_t NAME_SIZE = 38;

    void entryName(const std::string &sim_key,
                   const std::string &workload,
                   char (&name)[NAME_SIZE]) const;

    std::string root;
    /** root, opened once: load() and store() address entries
     *  relative to it, so both always use the same directory. */
    int dir_fd;
    std::string context;
    std::string version;
    /** Both address streams with version and context hashed in. */
    std::uint64_t prefix[2];

    mutable std::mutex mu;    ///< guards the counters
    Counter hits_, misses_, stores_, errors_;
    StatGroup group{"cell_store"};
};

} // namespace ltrf::dse

#endif // LTRF_DSE_CELL_STORE_HH
