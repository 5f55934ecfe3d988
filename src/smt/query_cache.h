// Achilles reproduction -- SMT library.
//
// The solver's query cache: sharded, lock-striped memoization of
// CheckSat results. The server exploration re-issues the same
// feasibility and predicate-match queries from many sibling states
// (ServerExplorer::PredicateMatches is the dominant repeated work).
// Every smt::Solver owns a private instance; the parallel engine also
// hands each worker solver one instance shared by the whole run, so the
// repetition that crosses worker threads is answered once too (see
// Solver's constructor).
//
// Entries are keyed by a canonical 128-bit key computed from the
// context-independent structural fingerprints of the assertion set,
// verified against the per-assertion fingerprints on every probe.
// Models are carried for entries produced (or later upgraded) by the
// model-producing fresh-instance path, so an identical Trojan query can
// resolve witness bytes without a SAT call; entries from the model-less
// incremental path serve result-only callers and are upgraded in place
// on first model demand. kUnsat entries decided on the core-producing
// path also carry the unsat core as the fingerprints of the implicated
// assertions, upgraded the same way: a core-less entry gains the first
// core a later insert brings.
//
// Key soundness: fingerprints hash variables by id, so a key is only
// valid across contexts when the ids mean the same variable everywhere.
// The parallel engine id-aligns every variable that exists in the home
// context at launch time (exec/expr_transfer.h); queries mentioning any
// later, worker-local variable cannot be keyed for the shared instance
// (ComputeKey returns false) and stay in the worker's private one.
// Models are stored as id -> value maps and are therefore valid in any
// worker context for shared entries.

#ifndef ACHILLES_SMT_QUERY_CACHE_H_
#define ACHILLES_SMT_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "smt/solver.h"
#include "support/stats.h"

namespace achilles {
namespace smt {

/** Canonical 128-bit key of an assertion set (order-insensitive). */
struct QueryCacheKey
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool
    operator==(const QueryCacheKey &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
};

/**
 * The query cache.
 *
 * Lock-striped: keys are distributed over `shards` independent maps,
 * each behind its own mutex, so concurrent workers sharing one instance
 * rarely contend (a solver's private instance needs only one shard).
 */
class QueryCache
{
  public:
    explicit QueryCache(size_t shards = 16);
    QueryCache(const QueryCache &) = delete;
    QueryCache &operator=(const QueryCache &) = delete;

    /**
     * Compute the canonical key for an assertion set, plus the sorted
     * per-assertion fingerprints verified on every probe. Returns false
     * -- query not shareable -- when any assertion mentions a variable
     * with id >= `shared_var_limit` (a worker-local variable whose id is
     * not globally meaningful); UINT32_MAX keys every query. Duplicate
     * assertions do not affect the key.
     */
    static bool ComputeKey(const std::vector<ExprRef> &assertions,
                           uint32_t shared_var_limit, QueryCacheKey *out,
                           QueryFingerprints *fingerprints);

    /**
     * The key as a pure function of the sorted, deduplicated
     * per-assertion fingerprints (ComputeKey's result is exactly
     * this). This is what makes entries portable across runs: an
     * importer recomputes the key from the verified fingerprints
     * instead of trusting a stored one.
     */
    static QueryCacheKey KeyFromFingerprints(
        const QueryFingerprints &fingerprints);

    /**
     * Probe. A hit requires the stored fingerprints to match (a bare
     * key match is treated as a collision and reported as a miss) and,
     * when `want_model` is set, a kSat entry to actually carry a model
     * (entries published by the model-less incremental solving path do
     * not; the caller re-solves on the deterministic model-producing
     * path and upgrades the entry via Insert). For kUnsat answers the
     * entry's unsat core, if it has one, is replayed as the
     * fingerprints of the implicated assertions (`*has_core`/`*core`);
     * it passed the same fingerprint check as the verdict, so a
     * replayed core always belongs to exactly this assertion set.
     */
    bool Lookup(const QueryCacheKey &key,
                const QueryFingerprints &fingerprints, bool want_model,
                CheckStatus *status, Model *model,
                bool *has_core = nullptr, QueryFingerprints *core = nullptr);

    /**
     * Publish a result (kUnknown results are not stored). Re-inserting
     * an existing entry with `has_model` set upgrades a model-less
     * entry in place; fingerprint-mismatched keys are left untouched.
     * `core` holds the sorted fingerprints of the core assertions for
     * kUnsat answers decided on the core-producing path; a core-less
     * entry gains it, an entry with a core keeps its own (cores of the
     * same query may differ across solver histories, and any of them
     * proves the verdict). Returns true when the call gave a model-less
     * kSat entry its model.
     */
    bool Insert(const QueryCacheKey &key,
                const QueryFingerprints &fingerprints,
                CheckStatus status, bool has_model,
                const Model &model, bool has_core = false,
                const QueryFingerprints &core = {});

    // -- Snapshot export / import (src/persist) -----------------------

    /**
     * One cache entry as it travels in a snapshot. The 128-bit map key
     * is deliberately absent: importers recompute it from the
     * fingerprint vector (KeyFromFingerprints), so a corrupted or
     * hand-edited key can never alias another query's entry. Models are
     * flattened to sorted (var id, value) pairs -- ids are portable
     * because cacheable queries only mention id-aligned variables.
     */
    struct ExportedEntry
    {
        QueryFingerprints fingerprints;
        CheckStatus status = CheckStatus::kUnknown;
        bool has_model = false;
        std::vector<std::pair<uint32_t, uint64_t>> model_values;
        bool has_core = false;
        QueryFingerprints core;
    };

    void Export(std::vector<ExportedEntry> *out) const;

    /** Re-publish snapshot entries (kUnknown entries, unsorted vectors
     *  and cores that are not a subset of their query or sit on a
     *  non-kUnsat entry are skipped); returns the number accepted.
     *  Imported cores do not count as recorded. */
    size_t Import(const std::vector<ExportedEntry> &entries);

    int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    int64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }
    int64_t collisions() const
    {
        return collisions_.load(std::memory_order_relaxed);
    }
    /** Cores this run attached to entries (imports excluded). */
    int64_t cores_recorded() const
    {
        return cores_recorded_.load(std::memory_order_relaxed);
    }
    /** Lookups that replayed a core. */
    int64_t core_hits() const
    {
        return core_hits_.load(std::memory_order_relaxed);
    }
    size_t size() const;

    /** Export the counters of a run's shared instance
     *  ("exec.queries_cached" et al.) into a registry. */
    void ExportStats(StatsRegistry *stats) const;

  private:
    struct Entry
    {
        CheckStatus status = CheckStatus::kUnknown;
        bool has_model = false;
        QueryFingerprints fingerprints;
        Model model;
        bool has_core = false;
        QueryFingerprints core;
    };
    struct KeyHash
    {
        size_t operator()(const QueryCacheKey &k) const
        {
            return static_cast<size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ull));
        }
    };
    struct Shard
    {
        std::mutex mutex;
        std::unordered_map<QueryCacheKey, Entry, KeyHash> map;
    };

    /** What one Put changed in an existing or new entry. */
    struct PutOutcome
    {
        bool model_upgraded = false;
        bool core_attached = false;
    };

    Shard &ShardFor(const QueryCacheKey &key);
    /** Insert's body, shared with Import. */
    PutOutcome Put(const QueryCacheKey &key,
             const QueryFingerprints &fingerprints,
             CheckStatus status, bool has_model,
             const Model &model, bool has_core,
             const QueryFingerprints &core);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<int64_t> hits_{0};
    std::atomic<int64_t> misses_{0};
    std::atomic<int64_t> collisions_{0};
    std::atomic<int64_t> cores_recorded_{0};
    std::atomic<int64_t> core_hits_{0};
};

}  // namespace smt
}  // namespace achilles

#endif  // ACHILLES_SMT_QUERY_CACHE_H_
