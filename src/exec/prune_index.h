// Achilles reproduction -- parallel exploration subsystem.
//
// PruneIndex: the cross-state differentFrom overlay. The static
// differentFrom matrix is computed once from the client predicates, so
// single-field refutations the explorer discovers at run time could
// never densify it. This index collects them in one lock-striped,
// evictable store shared by every worker of a run: single-field cores
// from the predicate-match loop append value-class edges. An entry
// records that `path_part ∧ match_part` is unsatisfiable and that every
// implicated expression is confined to one independent field. It is
// consulted through DifferentFromMatrix::OverlaySubsumed alongside the
// static matrix, so later branches (and other workers' branches) take
// the static fast path -- drop the predicate and its whole value class
// for that field -- for pairs the precomputation never related to the
// new path constraints.
//
// Soundness: every stored fact is a refutation the solver actually
// produced, translated into the same context-independent fingerprint
// currency as exec/expr_transfer, smt/query_cache and
// exec/clause_exchange. A hit answers exactly what the skipped query
// would have answered (kUnsat), so live sets -- and therefore witness
// sets -- are bitwise identical with the index on or off, at any worker
// count, under any eviction schedule. Consumers gate recording and
// probing on SolverConfig::unbudgeted() so kUnknown conservatism is
// preserved (a budgeted stream records nothing and skips nothing).
//
// Eviction: ReduceDB-style activity/age halving, per shard. Every entry
// carries an activity counter (bumped on each hit or re-discovery) and
// an insertion stamp; when a shard reaches its cap the upper half by
// (activity, then stamp) is kept, plus every entry another worker hit
// since the last round. Because hits are query-equivalent, eviction can
// only cost future skips, never flip a verdict.

#ifndef ACHILLES_EXEC_PRUNE_INDEX_H_
#define ACHILLES_EXEC_PRUNE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "smt/expr.h"
#include "support/stats.h"

namespace achilles {
namespace exec {

/** Context-independent structural fingerprint of one assertion: the
 *  (struct_hash, struct_hash2) pair, the shared currency of the query
 *  cache and the clause exchange. */
using PruneFp = std::pair<uint64_t, uint64_t>;
/** A fingerprint set, sorted ascending (subset probes use
 *  std::includes). */
using PruneFpVec = std::vector<PruneFp>;

struct PruneIndexConfig
{
    /** Lock stripes. */
    size_t shards = 16;
    /** Entry cap (0 = unbounded). */
    size_t overlay_cap = 1024;
    /**
     * Fingerprints hash variables by id, so an entry is only portable
     * across contexts when every implicated variable is id-aligned.
     * Expressions mentioning a variable with id >= this limit are not
     * fingerprintable (Fingerprint returns false and the caller skips
     * the index), mirroring the query cache's shared_var_limit rule.
     * Single-context (serial) owners leave it unlimited.
     */
    uint32_t shared_var_limit = 0xffffffffu;
};

/**
 * The shared differentFrom overlay. Thread-safe; one instance per
 * exploration run (owned by ParallelEngine for multi-worker runs, by
 * the consumer itself for serial ones), probed and fed by every
 * worker's plane.
 */
class PruneIndex
{
  public:
    explicit PruneIndex(PruneIndexConfig config = {});
    PruneIndex(const PruneIndex &) = delete;
    PruneIndex &operator=(const PruneIndex &) = delete;

    const PruneIndexConfig &config() const { return config_; }

    /**
     * Fingerprint an assertion set (sorted, deduplicated). Returns
     * false -- caller must skip the index -- when any expression
     * mentions a variable beyond shared_var_limit.
     */
    bool Fingerprint(const std::vector<smt::ExprRef> &exprs,
                     PruneFpVec *out) const;

    /**
     * Append a value-class edge: a single-independent-field core whose
     * path part and match part are both confined to the field named by
     * `field_token` (DifferentFromMatrix::FieldToken). `publisher`
     * identifies the recording worker so cross-worker hits can be
     * attributed. A duplicate bumps the existing entry's activity.
     */
    void RecordFieldCore(size_t publisher, uint64_t field_token,
                         const PruneFpVec &path_part,
                         const PruneFpVec &match_part);

    /**
     * True when a recorded field core refutes a predicate-match query:
     * some entry's path part is contained in `path_set` and its match
     * part in `match_set` (both sorted). On a hit `*field_token` names
     * the field so the consumer can re-enter the static matrix's
     * value-class rule. A hit bumps the entry's activity; a hit on
     * another worker's entry bumps the cross-worker counter.
     */
    bool OverlaySubsumes(size_t consumer, const PruneFpVec &path_set,
                         const PruneFpVec &match_set,
                         uint64_t *field_token);

    // -- Snapshot export / import (src/persist) -----------------------

    /**
     * Publisher id recorded on entries imported from a snapshot. Never
     * a real worker id, so any worker's hit on an imported entry counts
     * as a cross-worker hit -- imported knowledge is hot by definition
     * (it already transferred across a whole run).
     */
    static constexpr size_t kImportedPublisher =
        static_cast<size_t>(-1);

    /** One entry as it travels in a snapshot: fingerprint parts and
     *  field token only (eviction metadata is run-local). */
    struct ExportedEntry
    {
        PruneFpVec path_part;
        PruneFpVec match_part;
        uint64_t field_token = 0;
    };

    void ExportOverlay(std::vector<ExportedEntry> *out) const;

    /** Imports route through the normal record path (dedup, eviction)
     *  under kImportedPublisher, counted separately from run-recorded
     *  entries so warm-start volume is attributable. */
    void ImportOverlay(const std::vector<ExportedEntry> &entries);

    /** Entries restored from snapshots. */
    int64_t imported() const { return Load(imported_); }

    // -- Introspection ------------------------------------------------

    size_t overlay_entries() const;

    int64_t overlay_hits() const { return Load(hits_); }
    int64_t overlay_probes() const { return Load(probes_); }
    int64_t cross_worker_hits() const { return Load(cross_hits_); }
    int64_t evictions() const { return Load(evictions_); }
    /** Entries spared from a halving round by the hot-entry rule. */
    int64_t hot_exemptions() const { return Load(hot_exemptions_); }

    /** Export counters ("prune.overlay_edges" et al.). */
    void ExportStats(StatsRegistry *stats) const;

  private:
    struct FpHash
    {
        size_t
        operator()(const PruneFp &fp) const
        {
            return static_cast<size_t>(
                fp.first ^ (fp.second * 0x9e3779b97f4a7c15ull));
        }
    };

    /** One entry: fingerprint parts + eviction metadata. */
    struct Entry
    {
        PruneFpVec path_part;
        PruneFpVec match_part;
        uint64_t field_token = 0;
        size_t publisher = 0;
        uint32_t activity = 0;
        /** Hits by workers other than the publisher since the last
         *  halving: proof the entry transfers. EvictHalf exempts such
         *  entries from one round and zeroes the counter, so an entry
         *  gone cold competes normally the round after. */
        uint32_t cross_hits = 0;
        uint64_t stamp = 0;
    };

    /**
     * One lock stripe. Entries are keyed by their smallest path
     * fingerprint (falling back to the match part, then to a zero
     * key), so a probe only scans buckets whose key appears in its own
     * fingerprint sets.
     */
    struct Shard
    {
        mutable std::mutex mutex;
        std::vector<Entry> entries;
        std::unordered_map<PruneFp, std::vector<uint32_t>, FpHash> buckets;
        uint64_t next_stamp = 0;
    };

    static int64_t
    Load(const std::atomic<int64_t> &v)
    {
        return v.load(std::memory_order_relaxed);
    }

    static PruneFp KeyOf(const Entry &e);
    Shard &ShardFor(const PruneFp &key) const;
    void Record(size_t publisher, uint64_t field_token,
                const PruneFpVec &path_part, const PruneFpVec &match_part);
    /** Keep the upper half of a full shard by (activity, stamp), plus
     *  its hot entries. */
    void EvictHalf(Shard *shard);

    PruneIndexConfig config_;
    std::vector<std::unique_ptr<Shard>> shards_;
    size_t per_shard_cap_ = 0;
    /** Total live entries across shards, maintained by Record /
     *  EvictHalf: lets probes skip an empty index without taking any
     *  shard lock (the overlay is empty for the whole run whenever no
     *  single-field core is ever found). */
    std::atomic<size_t> live_{0};

    std::atomic<int64_t> recorded_{0};
    std::atomic<int64_t> hits_{0};
    std::atomic<int64_t> probes_{0};
    std::atomic<int64_t> cross_hits_{0};
    std::atomic<int64_t> evictions_{0};
    std::atomic<int64_t> hot_exemptions_{0};
    std::atomic<int64_t> imported_{0};
};

}  // namespace exec
}  // namespace achilles

#endif  // ACHILLES_EXEC_PRUNE_INDEX_H_
