// Achilles reproduction -- parallel exploration subsystem.
//
// Cross-worker learned-clause exchange. Each worker's incremental SMT
// backend learns short refutation lemmas -- "these guarded assertions
// are jointly unsatisfiable" -- over id-aligned CNF for the shared
// variable prefix; without sharing, every sibling re-derives the same
// refutations from scratch. This pool lets one worker's refutations
// prune the others' searches: lemmas travel as the context-independent
// structural fingerprints of the implicated expressions (the same
// translation currency as exec/expr_transfer and the shared query
// cache), so a consumer re-anchors them to its own activation literals
// without any expression bridging.
//
// Sharding mirrors smt/query_cache: lemmas are distributed over
// independent lock-striped shards keyed by their first fingerprint, and
// each shard keeps a log plus a dedup set. Consumers poll with a
// per-consumer cursor (one position per shard), so a fetch hands out
// exactly the lemmas published since the consumer's previous fetch,
// skipping its own publications.
//
// Eviction: the pool is capped for long-running service deployments
// (the same policy family as exec/prune_index). Each shard's log is a
// ring over absolute positions: when full, the oldest lemma is dropped
// (age) and erased from the dedup set, so a later re-discovery
// re-publishes it (activity -- a lemma still being derived earns its
// slot back). Cursors are absolute, so consumers simply skip the
// evicted prefix; dropping a lemma only costs siblings a potential
// acceleration, never a verdict (lemmas are implied facts).
//
// Soundness: every lemma is implied by the semantics of the expressions
// it names, so importing one can never flip a verdict -- it only steers
// CDCL to the refutation faster. Witness determinism is untouched
// because models are always produced by the exchange-free
// fresh-instance path (see smt/solver.h).

#ifndef ACHILLES_EXEC_CLAUSE_EXCHANGE_H_
#define ACHILLES_EXEC_CLAUSE_EXCHANGE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "smt/solver.h"
#include "support/stats.h"

namespace achilles {
namespace exec {

/** A lemma as it travels: sorted fingerprints of the guarded
 *  expressions whose conjunction is unsatisfiable (1 or 2 entries --
 *  the SAT layer only exports units and binaries). */
using Lemma = std::vector<smt::LemmaFingerprint>;

/**
 * The shared lock-striped lemma pool. Thread-safe; one instance per
 * parallel run, shared by every worker's ClauseChannel.
 */
class ClauseExchange
{
  public:
    /** `lemma_cap` bounds the pooled lemmas across all shards
     *  (0 = unbounded, the pre-eviction behavior). */
    explicit ClauseExchange(size_t shards = 16, size_t lemma_cap = 0);
    ClauseExchange(const ClauseExchange &) = delete;
    ClauseExchange &operator=(const ClauseExchange &) = delete;

    /** Publish a lemma (idempotent: duplicates are dropped).
     *  `publisher` identifies the worker so its own fetches skip it. */
    void Publish(size_t publisher, const Lemma &lemma);

    /** Per-consumer fetch position, one entry per shard. */
    struct Cursor
    {
        std::vector<size_t> next;
    };

    /** Append every lemma published since `cursor` by a worker other
     *  than `consumer`; advances the cursor. Returns the count. */
    size_t Fetch(size_t consumer, Cursor *cursor, std::vector<Lemma> *out);

    // -- Snapshot export / import (src/persist) -----------------------

    /**
     * Publisher id for lemmas restored from a snapshot. Never a real
     * worker id, so every worker's fetch hands imported lemmas out
     * (fetches only skip the consumer's own publications).
     */
    static constexpr size_t kImportedPublisher =
        static_cast<size_t>(-1);

    /** Collect every pooled lemma (the live ring windows). */
    void Export(std::vector<Lemma> *out) const;

    /** Publish snapshot lemmas under kImportedPublisher (normal dedup
     *  and ring eviction apply); returns the count offered. */
    size_t Import(const std::vector<Lemma> &lemmas);

    /** Distinct lemmas currently pooled. */
    size_t size() const;

    int64_t published() const
    {
        return published_.load(std::memory_order_relaxed);
    }
    int64_t duplicates() const
    {
        return duplicates_.load(std::memory_order_relaxed);
    }
    int64_t fetched() const
    {
        return fetched_.load(std::memory_order_relaxed);
    }
    int64_t evicted() const
    {
        return evicted_.load(std::memory_order_relaxed);
    }

    /** Export counters ("exec.lemmas_published" et al.). */
    void ExportStats(StatsRegistry *stats) const;

  private:
    struct LemmaHash
    {
        size_t
        operator()(const Lemma &lemma) const
        {
            uint64_t h = 0xcbf29ce484222325ull;
            for (const smt::LemmaFingerprint &fp : lemma) {
                h = (h ^ fp.first) * 0x100000001b3ull;
                h = (h ^ fp.second) * 0x100000001b3ull;
            }
            return static_cast<size_t>(h);
        }
    };
    struct Entry
    {
        Lemma lemma;
        size_t publisher;
    };
    struct Shard
    {
        std::mutex mutex;
        /** Live window of the shard's publication history: absolute
         *  positions [base, base + log.size()). */
        std::deque<Entry> log;
        size_t base = 0;
        std::unordered_set<Lemma, LemmaHash> dedup;
    };

    Shard &ShardFor(const Lemma &lemma);

    std::vector<std::unique_ptr<Shard>> shards_;
    /** Per-shard live-entry cap (0 = unbounded). */
    size_t per_shard_cap_ = 0;
    std::atomic<int64_t> published_{0};
    std::atomic<int64_t> duplicates_{0};
    std::atomic<int64_t> fetched_{0};
    std::atomic<int64_t> evicted_{0};
};

/**
 * Per-worker adapter wiring a worker's private Solver to the shared
 * pool: the solver publishes through the ClauseSink face and imports
 * through the ClauseSource face, with this channel owning the worker's
 * fetch cursor. One channel per worker; the channel itself is only
 * touched from that worker's thread (the pool handles cross-thread
 * synchronization).
 */
class ClauseChannel : public smt::ClauseSink, public smt::ClauseSource
{
  public:
    ClauseChannel(ClauseExchange *pool, size_t worker_id)
        : pool_(pool), worker_id_(worker_id)
    {
    }

    void
    PublishLemma(const std::vector<smt::LemmaFingerprint> &lemma) override
    {
        pool_->Publish(worker_id_, lemma);
    }

    void
    FetchLemmas(std::vector<std::vector<smt::LemmaFingerprint>> *out)
        override
    {
        pool_->Fetch(worker_id_, &cursor_, out);
    }

  private:
    ClauseExchange *pool_;
    size_t worker_id_;
    ClauseExchange::Cursor cursor_;
};

}  // namespace exec
}  // namespace achilles

#endif  // ACHILLES_EXEC_CLAUSE_EXCHANGE_H_
