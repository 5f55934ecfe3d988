// Achilles reproduction -- parallel exploration subsystem.
//
// Shared, sharded, lock-striped SMT query cache. The server exploration
// re-issues the same feasibility and predicate-match queries from many
// sibling states (ServerExplorer::PredicateMatches is the dominant
// repeated work); with several workers the repetition also crosses
// threads. This cache memoizes CheckSat results under a canonical
// 128-bit key computed from the context-independent structural
// fingerprints of the assertion set, verified against the per-assertion
// fingerprints on every probe. Models are carried for entries produced
// (or later upgraded) by the model-producing fresh-instance path, so an
// identical Trojan query can resolve witness bytes without a SAT call;
// entries from the model-less incremental path serve result-only
// callers and are upgraded in place on first model demand. kUnsat
// entries decided by the incremental backend also carry the unsat core
// as the fingerprints of the implicated assertions, upgraded the same
// way: a core-less entry gains the first core a later insert brings.
//
// Key soundness: fingerprints hash variables by id, so a key is only
// valid across contexts when the ids mean the same variable everywhere.
// The parallel engine id-aligns every variable that exists in the home
// context at launch time (exec/expr_transfer.h); queries mentioning any
// later, worker-local variable are simply not cached (ComputeKey returns
// false). Models are stored as id -> value maps and are therefore valid
// in any worker context for cacheable queries.

#ifndef ACHILLES_EXEC_QUERY_CACHE_H_
#define ACHILLES_EXEC_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "smt/solver.h"
#include "support/stats.h"

namespace achilles {
namespace exec {

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
 * Per-assertion verification material stored next to each entry: the
 * sorted (struct_hash, struct_hash2) pairs of the canonical assertion
 * set. The 128-bit map key is an additive accumulation, so two distinct
 * assertion sets can collide on it; comparing the per-assertion
 * fingerprints on every hit turns such a collision into a miss instead
 * of silently returning another query's result/model.
 */
using QueryFingerprints = std::vector<std::pair<uint64_t, uint64_t>>;

/**
 * The shared cross-worker query cache.
 *
 * Lock-striped: keys are distributed over `shards` independent maps,
 * each behind its own mutex, so concurrent workers rarely contend.
 */
class QueryCache
{
  public:
    explicit QueryCache(size_t shards = 16);
    QueryCache(const QueryCache &) = delete;
    QueryCache &operator=(const QueryCache &) = delete;

    /**
     * Compute the canonical key for an assertion set (optionally split
     * as assertions ∪ extras, mirroring CheckSatAssuming, so hot
     * callers need not concatenate), plus the sorted per-assertion
     * fingerprints verified on every probe. Returns false -- query not
     * cacheable -- when any assertion mentions a variable with id >=
     * `shared_var_limit` (a worker-local variable whose id is not
     * globally meaningful). Duplicate assertions do not affect the key.
     */
    static bool ComputeKey(const std::vector<smt::ExprRef> &assertions,
                           uint32_t shared_var_limit, QueryCacheKey *out,
                           QueryFingerprints *fingerprints,
                           const std::vector<smt::ExprRef> *extras = nullptr);

    /**
     * The key as a pure function of the sorted per-assertion
     * fingerprints (the accumulation is commutative, so summing in
     * fingerprint order equals ComputeKey's assertion order;
     * fingerprints are deduplicated exactly like the assertions). This
     * is what makes entries portable across runs: an importer
     * recomputes the key from the verified fingerprints instead of
     * trusting a stored one.
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
                smt::CheckStatus *status, smt::Model *model,
                bool *has_core = nullptr, QueryFingerprints *core = nullptr);

    /**
     * Publish a result (kUnknown results are not stored). Re-inserting
     * an existing entry with `has_model` set upgrades a model-less
     * entry in place; fingerprint-mismatched keys are left untouched.
     * `core` holds the sorted fingerprints of the core assertions for
     * kUnsat answers decided by the incremental backend; a core-less
     * entry gains it, an entry with a core keeps its own (cores of the
     * same query may differ across solver histories, and any of them
     * proves the verdict).
     */
    void Insert(const QueryCacheKey &key,
                const QueryFingerprints &fingerprints,
                smt::CheckStatus status, bool has_model,
                const smt::Model &model, bool has_core = false,
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
        smt::CheckStatus status = smt::CheckStatus::kUnknown;
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

    /** Export counters ("exec.queries_cached" et al.) into a registry. */
    void ExportStats(StatsRegistry *stats) const;

  private:
    struct Entry
    {
        smt::CheckStatus status = smt::CheckStatus::kUnknown;
        bool has_model = false;
        QueryFingerprints fingerprints;
        smt::Model model;
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

    Shard &ShardFor(const QueryCacheKey &key);
    /** Insert's body; true when the call attached a core. */
    bool Put(const QueryCacheKey &key,
             const QueryFingerprints &fingerprints,
             smt::CheckStatus status, bool has_model,
             const smt::Model &model, bool has_core,
             const QueryFingerprints &core);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<int64_t> hits_{0};
    std::atomic<int64_t> misses_{0};
    std::atomic<int64_t> collisions_{0};
    std::atomic<int64_t> cores_recorded_{0};
    std::atomic<int64_t> core_hits_{0};
};

/**
 * Solver decorator consulting the shared cache before the real decision
 * procedure. Each worker owns one, wrapping its private context-bound
 * Solver; every layer running on the worker (engine feasibility checks,
 * predicate-match queries, Trojan queries) goes through it unchanged.
 */
class CachedSolver : public smt::Solver
{
  public:
    /**
     * `shared_var_limit` is the number of id-aligned variables (the home
     * context's variable count at parallel-run launch); queries touching
     * later variables bypass the shared cache.
     */
    CachedSolver(smt::ExprContext *ctx, QueryCache *cache,
                 uint32_t shared_var_limit, smt::SolverConfig config = {});

    smt::CheckResult CheckSat(const std::vector<smt::ExprRef> &assertions,
                              smt::Model *model = nullptr) override;

    smt::CheckResult CheckSatAssuming(
        const std::vector<smt::ExprRef> &base,
        const std::vector<smt::ExprRef> &extras,
        smt::Model *model = nullptr) override;

    /**
     * Batched sweep with the shared cache in front: groups another
     * worker already decided are answered from the cache (status-only
     * -- batch verdicts carry neither models nor cores), the residue is
     * swept by the base Solver in one pass, and every decided residue
     * verdict is published for the siblings. Uncacheable groups (worker-
     * local variables) simply ride through to the sweep.
     */
    smt::BatchOutcome CheckSatBatch(
        const std::vector<smt::ExprRef> &base,
        const std::vector<const std::vector<smt::ExprRef> *> &groups)
        override;

  private:
    smt::CheckResult CheckShared(const std::vector<smt::ExprRef> &base,
                                 const std::vector<smt::ExprRef> *extras,
                                 smt::Model *model);

    QueryCache *cache_;
    uint32_t shared_var_limit_;
};

}  // namespace exec
}  // namespace achilles

#endif  // ACHILLES_EXEC_QUERY_CACHE_H_
