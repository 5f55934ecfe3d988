// Achilles reproduction -- SMT library.
//
// Solver facade: the QF_BV decision procedure used by every other layer
// (symbolic execution feasibility checks, negate-operator overlap checks,
// differentFrom precomputation, Trojan queries). Combines a fast interval
// pre-check with bit-blasting + CDCL, plus a query cache
// (smt/query_cache.h), standing in for the STP/Z3 usage in the paper.

#ifndef ACHILLES_SMT_SOLVER_H_
#define ACHILLES_SMT_SOLVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/obs.h"
#include "smt/eval.h"
#include "smt/expr.h"
#include "smt/sat.h"
#include "support/stats.h"

namespace achilles {
namespace smt {

/** Status of a satisfiability query. */
enum class CheckStatus : uint8_t { kSat, kUnsat, kUnknown };

/**
 * Outcome of a satisfiability query: the status plus, for kUnsat
 * answers decided by the incremental assumption-based backend, the
 * unsat core mapped back to the caller's assertion indices.
 *
 * Core indexing: CheckSat(assertions) uses positions into `assertions`;
 * CheckSatAssuming(base, extras) indexes base first, then extras offset
 * by base.size(). Duplicated assertions report their first occurrence.
 * `has_core` distinguishes "no core information" (fresh-instance or
 * interval answers, cache entries recorded without one) from a genuine
 * core; an empty core with has_core set means the query is
 * unsatisfiable regardless of the assertions (cannot arise from
 * guarded assertions, but callers must treat it as "everything is
 * implicated"). Cores never accompany kSat/kUnknown: budgeted and
 * model-producing queries bypass the incremental backend entirely, so
 * core-guided callers can never confuse an undecided answer with a
 * refutation.
 *
 * The struct is source-compatible with the old `enum CheckResult`:
 * `CheckResult::kSat` still names the status constant and comparisons
 * against a CheckStatus compare the status only.
 */
struct CheckResult
{
    CheckStatus status = CheckStatus::kUnknown;
    bool has_core = false;
    /** Caller assertion indices implicated in the refutation, ascending. */
    std::vector<uint32_t> core;

    CheckResult() = default;
    /*implicit*/ CheckResult(CheckStatus s) : status(s) {}

    static constexpr CheckStatus kSat = CheckStatus::kSat;
    static constexpr CheckStatus kUnsat = CheckStatus::kUnsat;
    static constexpr CheckStatus kUnknown = CheckStatus::kUnknown;

    friend bool operator==(const CheckResult &r, CheckStatus s)
    {
        return r.status == s;
    }
    friend bool operator==(CheckStatus s, const CheckResult &r)
    {
        return r.status == s;
    }
    friend bool operator!=(const CheckResult &r, CheckStatus s)
    {
        return r.status != s;
    }
    friend bool operator!=(CheckStatus s, const CheckResult &r)
    {
        return r.status != s;
    }
    /** Two outcomes are equal iff their statuses agree: the core is an
     *  explanation of a kUnsat verdict, not part of the verdict (the
     *  same query answers kUnsat with or without core extraction). */
    friend bool operator==(const CheckResult &a, const CheckResult &b)
    {
        return a.status == b.status;
    }
    friend bool operator!=(const CheckResult &a, const CheckResult &b)
    {
        return a.status != b.status;
    }
};

const char *CheckResultName(CheckStatus s);
inline const char *
CheckResultName(const CheckResult &r)
{
    return CheckResultName(r.status);
}

/**
 * Context-independent identity of an assertion for the cross-solver
 * lemma exchange: the expression's (struct_hash, struct_hash2) pair,
 * the same 128-bit structural fingerprint the shared query cache keys
 * on. Id-aligned worker contexts produce identical fingerprints for
 * identical assertions, which is what makes a lemma portable.
 */
using LemmaFingerprint = std::pair<uint64_t, uint64_t>;

/**
 * Per-assertion verification material stored next to each query-cache
 * entry: the sorted fingerprints of the canonical assertion set. The
 * 128-bit cache key is an additive accumulation, so two distinct
 * assertion sets can collide on it; comparing the per-assertion
 * fingerprints on every hit turns such a collision into a miss instead
 * of silently returning another query's result/model.
 */
using QueryFingerprints = std::vector<LemmaFingerprint>;

class QueryCache;
struct QueryCacheKey;

/**
 * Receives short refutation lemmas exported by a solver's incremental
 * backend. A lemma is the sorted fingerprint set of guarded assertions
 * whose conjunction the backend proved unsatisfiable (from an all-guard
 * learnt clause or a short final unsat core); it is an implied fact
 * about the expressions themselves, so any solver over id-aligned
 * variables may import it. Implementations must be thread-safe: the
 * export fires from inside SAT search on whatever thread runs the
 * solver.
 */
class ClauseSink
{
  public:
    virtual ~ClauseSink() = default;
    virtual void PublishLemma(const std::vector<LemmaFingerprint> &lemma) = 0;
};

/**
 * Supplies lemmas published by sibling solvers. Each source instance
 * serves exactly one consumer and keeps its own cursor: FetchLemmas
 * appends only lemmas it has not handed out before.
 */
class ClauseSource
{
  public:
    virtual ~ClauseSource() = default;
    virtual void
    FetchLemmas(std::vector<std::vector<LemmaFingerprint>> *out) = 0;
};

/** Tunables for the solver facade. */
struct SolverConfig
{
    /** Run the interval UNSAT pre-check before bit-blasting. */
    bool use_interval_check = true;
    /** Conflict budget for the SAT search; < 0 means unlimited. */
    int64_t max_conflicts = -1;
    /** Re-evaluate every assertion under each SAT model (cheap; catches
     *  encoder bugs -- a model that fails validation is a panic). */
    bool validate_models = true;
    /**
     * Keep the last satisfying assignment standing across queries and
     * expose it through StandingModel(). The facade merges each kSat
     * answer's variable values into one rolling Model (incremental-path
     * answers lazily, on first StandingModel() read; fresh-path answers
     * eagerly, since their model is already extracted). Consumers use
     * it for concrete pre-filtering: evaluating a predicate under any
     * total concrete assignment that satisfies it is a proof of kSat
     * with zero solver work. Staleness is harmless -- a stale or merged
     * model can only fail to satisfy a satisfiable predicate (lowering
     * the hit rate), never satisfy an unsatisfiable one. Near-free when
     * unread; flip off to pin memory on huge variable spaces.
     */
    bool retain_models = true;
    /**
     * Memoize query results keyed by the assertion set, in the solver's
     * query cache (smt/query_cache.h) and, for a worker solver, the
     * run's shared one. Kept as a toggle because it pays on the
     * registered workloads (192 hits on fsp) and the planned minimal
     * reference configuration (ROADMAP item 4(a)) turns it off, as do
     * the backend micro-benches that isolate the SAT layer.
     */
    bool enable_cache = true;
    /**
     * Reuse one persistent SatSolver + BitBlaster across queries: CNF is
     * memoized per expression node, each assertion is guarded by an
     * activation literal, queries solve under assumptions, and learned
     * clauses carry over (capped by ReduceDB). Only model-less,
     * unlimited-budget queries take this path: model-producing queries
     * solve a fresh instance whose CNF numbering (and therefore model)
     * is a pure function of the structurally sorted query, and
     * budget-limited queries (max_conflicts >= 0) do too, so that the
     * kUnsat/kUnknown boundary never depends on the learned clauses of
     * earlier queries. Together these keep results and witness bytes
     * bitwise deterministic across runs, worker counts and query
     * history.
     */
    bool enable_incremental = true;
    /**
     * Extract unsat cores over assumptions on the incremental path and
     * expose them through CheckResult. Extraction itself is one
     * analyze-final walk over the final conflict's implication graph
     * (near-free); consumers use cores to drop every assertion set a
     * refutation transitively implicates (core-guided predicate
     * dropping in the server explorer, witness-check reuse in
     * refinement).
     */
    bool enable_cores = true;
    /**
     * Additionally minimize each core by deletion (re-solving the core
     * minus each member until a fixpoint). Minimal cores transfer to
     * more sibling queries, which is what makes core-guided dropping
     * pay; the probes run on the already-learned incremental instance
     * and are cheap. Only applies when enable_cores is set.
     */
    bool minimize_cores = true;
    /**
     * Assumption-prefix trail reuse in the incremental backend: keep
     * the SAT trail segment for the longest common assumption prefix
     * between consecutive solves instead of re-establishing the whole
     * stack per query. Pure acceleration -- verdicts are unchanged;
     * only the search path (and therefore which equally-valid core is
     * reported) may differ.
     */
    bool enable_trail_reuse = true;
    /**
     * Cross-solver learned-clause exchange. When a sink is set, the
     * incremental backend exports short refutation lemmas (all-guard
     * learnt clauses and ≤2-literal unsat cores over assertions whose
     * variables all lie in the designated shared prefix, i.e.
     * max_var_bound <= clause_share_var_limit) as structural
     * fingerprints. When a source is set, lemmas published by siblings
     * are imported as permanent clauses over this solver's own
     * activation literals once the implicated assertions are guarded
     * here. Imported lemmas are implied, so verdicts never flip; they
     * only steer CDCL to the refutation faster. Witness bytes stay
     * deterministic because models are always produced by the
     * exchange-free fresh-instance path. Both pointers must outlive the
     * solver; the exec layer wires them to the lock-striped
     * exec::ClauseExchange pool.
     */
    ClauseSink *clause_sink = nullptr;
    ClauseSource *clause_source = nullptr;
    uint32_t clause_share_var_limit = 0;
    /**
     * Master switch for wiring the parallel engine's clause exchange
     * (exec/worker.cc creates the shared pool and per-worker channels
     * only when set). The sink/source pointers above are the mechanism;
     * this is the ablation toggle benches and tests flip.
     */
    bool share_learned_clauses = true;
    /**
     * Cap on the shared lemma pool's live entries (<= 0 = unbounded).
     * The pool is append-only within the cap; beyond it the oldest
     * lemma is evicted (and may re-earn its slot by being re-derived),
     * bounding the exchange's memory for long-running service
     * deployments. Evicting a lemma only costs siblings a potential
     * acceleration -- lemmas are implied facts, so verdicts and witness
     * bytes are unaffected by any cap.
     */
    int64_t lemma_pool_cap = 16384;
    /**
     * Observability sinks (src/obs/obs.h): when the registry is set the
     * solver bumps live per-lane counters/distributions next to its
     * merge-at-join stats bag; when the tracer is set every
     * CheckSat/CheckSatAssuming records one span on the lane's track,
     * annotated with conflicts spent, verdict and core size. Default
     * (both null) leaves a single branch per query -- instrumentation
     * is provably inert (witness sets are bitwise identical obs
     * on/off; see tests/test_obs.cc).
     */
    obs::ObsHandle obs;

    /** True when queries run with no conflict budget -- the
     *  precondition for the incremental backend and for every unsat-core
     *  consumer (nothing may be dropped on kUnknown). */
    bool unbudgeted() const { return max_conflicts < 0; }
};

/**
 * Verdicts of Solver::CheckSatBatch, one per group in the caller's
 * group order.
 */
struct BatchOutcome
{
    std::vector<CheckResult> verdicts;
};

class Lit;

/**
 * The decision procedure facade.
 *
 * Holds state across queries: the query cache, the incremental backend
 * (a persistent SAT instance reused for all model-less queries; see
 * SolverConfig::enable_incremental) and the lemma archive fetched from
 * a ClauseSource. The Achilles search generates thousands of small
 * queries sharing path-constraint prefixes, so reusing CNF, learned
 * clauses and established assumption trails across the stream is the
 * dominant speed lever.
 *
 * CheckSat/CheckSatAssuming/CheckSatBatch are virtual so decorators can
 * interpose (the benchmark's timing wrapper does). A Solver instance is
 * not thread-safe; parallel exploration gives each worker its own.
 */
class Solver
{
  public:
    /**
     * Every solver memoizes into a private query cache. A worker solver
     * of the parallel engine is also handed the run's `shared_cache`:
     * queries whose variables all have ids below `shared_var_limit`
     * (the id-aligned prefix, see exec/expr_transfer.h) are probed in
     * and published to the shared cache instead, so siblings reuse each
     * other's verdicts, models and cores; queries over worker-local
     * variables stay private. `shared_cache` must outlive the solver.
     */
    explicit Solver(ExprContext *ctx, SolverConfig config = {},
                    QueryCache *shared_cache = nullptr,
                    uint32_t shared_var_limit = 0);
    virtual ~Solver();

    /**
     * Check satisfiability of the conjunction of `assertions`.
     * On kSat and non-null `model`, fills `model` with values for every
     * variable occurring in the assertions; on every other outcome a
     * non-null `model` is cleared (callers may reuse one Model object
     * across queries without reading stale values).
     */
    virtual CheckResult CheckSat(const std::vector<ExprRef> &assertions,
                                 Model *model = nullptr);

    /**
     * Check satisfiability of base ∧ extras. Semantically identical to
     * CheckSat on the concatenation; the split spells out the
     * shared-prefix query streams of the server explorer (one pathS
     * asserted per state, many ¬pathC_i iterated against it), which the
     * incremental backend turns into assumption flips over memoized
     * CNF.
     */
    virtual CheckResult CheckSatAssuming(const std::vector<ExprRef> &base,
                                         const std::vector<ExprRef> &extras,
                                         Model *model = nullptr);

    /**
     * Answer "is base ∧ AND(*groups[i]) satisfiable?" for every group,
     * one CheckSatAssuming call per group. Nothing in the analysis calls
     * it; it stays virtual because the benchmark's timing decorator
     * (perfbench/timing_solver.h) overrides it.
     */
    virtual BatchOutcome
    CheckSatBatch(const std::vector<ExprRef> &base,
                  const std::vector<const std::vector<ExprRef> *> &groups);

    /**
     * The rolling satisfying assignment left standing by past kSat
     * answers, or nullptr when none exists yet (or retain_models is
     * off). The referenced Model is owned by the solver and valid until
     * the next Check* call. It is a genuine concrete assignment --
     * every value either came from a SAT model or defaults to zero --
     * so any assertion that evaluates true under it is satisfiable;
     * nothing follows from evaluating false.
     */
    const Model *StandingModel();

    /** Convenience overload for a single (possibly And-tree) assertion. */
    CheckResult CheckSatExpr(ExprRef e, Model *model = nullptr);

    /** True iff the conjunction is satisfiable (kUnknown -> false). */
    bool
    IsSat(const std::vector<ExprRef> &assertions)
    {
        return CheckSat(assertions) == CheckResult::kSat;
    }

    ExprContext *ctx() { return ctx_; }
    const SolverConfig &config() const { return config_; }
    const StatsRegistry &stats() const { return stats_; }
    StatsRegistry *mutable_stats() { return &stats_; }

    /**
     * Event counts summed over every SAT instance this solver ran, fresh
     * and incremental. Their "solver.sat_conflicts",
     * "solver.sat_decisions", "solver.sat_queue_pushes" and
     * "solver.trail_reuses" stats are built from these, so the two
     * always agree; reading this is free.
     */
    const SatCounters &sat_counters() const { return sat_totals_; }

  private:
    struct IncrementalBackend;

    /**
     * CheckSat and CheckSatAssuming: canonicalize, probe the query
     * cache, dispatch to the interval check and the incremental or
     * fresh-instance backend, publish the verdict. `extras` may be null.
     */
    CheckResult CheckSatSets(const std::vector<ExprRef> &base,
                             const std::vector<ExprRef> *extras,
                             Model *model);

    /** Canonical form: live (non-trivial) assertions, structurally
     *  sorted and deduplicated, plus per-live-entry indices into the
     *  caller's base∥extras concatenation (first occurrence wins).
     *  Returns false on a trivially-false assertion, reporting its
     *  caller index through `false_index`. */
    bool Canonicalize(const std::vector<ExprRef> &base,
                      const std::vector<ExprRef> *extras,
                      std::vector<ExprRef> *live,
                      std::vector<uint32_t> *caller_index,
                      uint32_t *false_index) const;

    /** Key the canonical assertion set `live` and return the cache that
     *  serves it: the shared one when every variable is id-aligned,
     *  else the private one; null when enable_cache is off. */
    QueryCache *KeyQuery(const std::vector<ExprRef> &live,
                         QueryCacheKey *key,
                         QueryFingerprints *fingerprints);
    /** Count one probe of `cache` (hit or miss) in the stats. */
    void CountProbe(const QueryCache *cache, bool hit);

    CheckStatus SolveFresh(const std::vector<ExprRef> &live,
                           Model *out_model);
    /** Returns the status plus, on kUnsat with cores enabled, the core
     *  as indices into `live`. */
    CheckStatus SolveIncremental(const std::vector<ExprRef> &live,
                                 bool *has_core,
                                 std::vector<uint32_t> *core);

    /** Build the persistent incremental instance on first use, with
     *  the lemma-export hook wired. It lives as long as the solver: a
     *  query decides only its own cone (see SatSolver), so CNF that
     *  earlier queries left behind costs memory, not search time. */
    void EnsureIncrementalBackend();
    /** Guard every assertion of `live` in the incremental backend,
     *  appending one activation literal each to `assumptions` and
     *  maintaining the lemma-exchange anchors. Returns true when any
     *  assertion was guarded for the first time. */
    bool GuardAssertions(const std::vector<ExprRef> &live,
                         std::vector<Lit> *assumptions);
    /** Pull newly published lemmas from the clause source and install
     *  every anchorable one (skipped entirely without a source). */
    void SyncLemmaExchange(bool new_guards);
    /** Fold the persistent instance's cumulative SAT counters into this
     *  solver's stats as deltas since the last fold. */
    void DrainIncrementalStats();
    /** Merge a deferred incremental-path kSat assignment into the
     *  rolling standing model; no-op when nothing is pending. */
    void RefreshStandingModel();

    /** Wire the export hook of a freshly built incremental backend. */
    void InstallExportHook();
    /** Install every fetched-but-uninstalled lemma whose assertions are
     *  all guarded in the current backend. */
    void InstallFetchedLemmas();

    ExprContext *ctx_;
    SolverConfig config_;
    /** The private query cache (null when enable_cache is off). */
    std::unique_ptr<QueryCache> cache_;
    QueryCache *shared_cache_;
    uint32_t shared_var_limit_;
    std::unique_ptr<IncrementalBackend> inc_;
    /** The incremental instance's counters at the last drain. */
    SatCounters inc_seen_;
    /** Lemmas fetched from the clause source, each installed once all
     *  the assertions it names are guarded in the incremental backend. */
    struct FetchedLemma
    {
        std::vector<LemmaFingerprint> fps;
        bool installed = false;
    };
    std::vector<FetchedLemma> fetched_lemmas_;
    /** Rolling concrete assignment from past kSat answers (see
     *  SolverConfig::retain_models and StandingModel()). */
    Model standing_model_;
    bool has_standing_model_ = false;
    /** Assertions of the latest incremental-path kSat answer whose
     *  variable values have not been pulled from the backend yet:
     *  extraction walks the persistent instance's standing assignment,
     *  so it is deferred to the first StandingModel() read instead of
     *  taxing every query. */
    std::vector<ExprRef> standing_live_;
    /** Counters summed over every SAT instance this solver ran (see
     *  sat_counters()). */
    SatCounters sat_totals_;
    StatsRegistry stats_;
    /** Live obs instruments on this solver's lane shard (inert handles
     *  when config_.obs carries no registry). */
    obs::MetricsRegistry::Counter obs_queries_;
    obs::MetricsRegistry::Counter obs_unknowns_;
    obs::MetricsRegistry::Counter obs_cache_hits_;
    obs::MetricsRegistry::Counter obs_cache_misses_;
    obs::MetricsRegistry::Distribution obs_conflicts_;
    obs::MetricsRegistry::Distribution obs_core_size_;
};

}  // namespace smt
}  // namespace achilles

#endif  // ACHILLES_SMT_SOLVER_H_
