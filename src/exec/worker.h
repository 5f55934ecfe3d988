// Achilles reproduction -- parallel exploration subsystem.
//
// The worker pool. Each worker owns a full private solving stack -- an
// ExprContext replica, an smt::Solver (its own bit-blasting solver,
// handed the run's shared query cache, with a private incremental
// assumption-based SAT backend that persists CNF and learned clauses
// across the worker's model-less query stream) and a symexec::Engine
// driven state-by-state -- plus an ExprBridge that
// re-homes states stolen from other workers, and a ClauseChannel onto
// the shared learned-clause exchange so one worker's short refutation
// lemmas prune its siblings' searches (exec/clause_exchange.h).
// ParallelEngine wires the pool to the work-stealing scheduler and
// exposes the same surface as the serial engine: set an incoming
// message, run, get PathResults in the home context.
//
// Determinism: worker engines derive state ids from the fork tree
// (schedule-independent), contexts are variable-id-aligned, expression
// canonicalization and solver assertion ordering are structural, so the
// merged results -- ordered by state id -- are identical for any worker
// count and any steal interleaving. The incremental backends keep this
// intact because every model is produced by the fresh-instance path (a
// pure function of the canonicalized query), never by the
// history-dependent persistent SAT instance.
//
// Unsat cores cross workers without expression translation: a worker's
// incremental backend reports a core as indices into the caller's own
// assertion vectors (already in that worker's context), and the shared
// query cache stores cores as context-independent structural
// fingerprints that each worker's solver re-anchors to its caller's
// indices on a hit (smt/query_cache.h). Cores from different solver
// histories may differ, but every core proves the same kUnsat verdict,
// so core-guided consumers (the server explorer's predicate dropping)
// stay schedule-independent in their results even when their skipped
// query counts differ.

#ifndef ACHILLES_EXEC_WORKER_H_
#define ACHILLES_EXEC_WORKER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/clause_exchange.h"
#include "exec/expr_transfer.h"
#include "exec/prune_index.h"
#include "exec/scheduler.h"
#include "smt/query_cache.h"
#include "smt/solver.h"
#include "support/stats.h"
#include "symexec/engine.h"

namespace achilles {
namespace exec {

/** One worker's private solving stack. */
struct WorkerContext
{
    size_t worker_id = 0;
    smt::ExprContext ctx;
    std::unique_ptr<ExprBridge> bridge;
    /** This worker's face of the shared learned-clause pool (null when
     *  the exchange is off or the run is serial); the solver's
     *  clause_sink/clause_source point at it, so it is declared before
     *  the solver to outlive it through teardown. */
    std::unique_ptr<ClauseChannel> clause_channel;
    std::unique_ptr<smt::Solver> solver;
    std::unique_ptr<symexec::Engine> engine;
    /** Worker-context replicas of the home incoming-message bytes. */
    std::vector<smt::ExprRef> incoming;
    /** This worker's handle onto the run's shared differentFrom
     *  overlay; identical pointer in every worker. */
    PruneIndex *prune_index = nullptr;
};

/**
 * Creates the per-worker engine listener. Implementations translate
 * whatever shared expression data they need through wc->bridge (called
 * once per worker, before any worker thread starts) and must only touch
 * worker-local or properly synchronized state from the callbacks.
 */
class WorkerListenerFactory
{
  public:
    virtual ~WorkerListenerFactory() = default;
    virtual std::unique_ptr<symexec::Listener>
    MakeListener(WorkerContext *wc) = 0;
};

/**
 * Multi-threaded drop-in for symexec::Engine::Run.
 *
 * One-shot: construct, configure, Run() once. The instance must stay
 * alive while callers post-process worker-context data (e.g. the server
 * explorer translating Trojan definitions home through worker bridges).
 */
class ParallelEngine
{
  public:
    ParallelEngine(smt::ExprContext *home, const symexec::Program *program,
                   symexec::Mode mode, symexec::EngineConfig config,
                   smt::SolverConfig solver_config = {});

    /** Home-context symbolic message bytes served by ReceiveMessage. */
    void SetIncomingMessage(std::vector<smt::ExprRef> bytes);

    void SetListenerFactory(WorkerListenerFactory *factory)
    {
        factory_ = factory;
    }

    /** Override the overlay's config before Run (the shared_var_limit
     *  field is recomputed at launch regardless). */
    void SetPruneIndexConfig(PruneIndexConfig config)
    {
        prune_config_ = config;
    }

    /**
     * Hook over the run's shared knowledge stores (the clause-exchange
     * pointer is null when the exchange is off). Used by the warm-start
     * persistence layer (src/persist), which this subsystem must not
     * depend on -- callers inject the snapshot logic from above.
     */
    using KnowledgeHook = std::function<void(PruneIndex *, smt::QueryCache *,
                                             ClauseExchange *)>;

    /**
     * `restore` runs after the shared stores are constructed and before
     * any worker thread starts (single-threaded, so imports need no
     * coordination with consumers); `capture` runs after every worker
     * has joined and stats are merged, immediately before Run returns.
     * Either may be null.
     */
    void
    SetKnowledgeHooks(KnowledgeHook restore, KnowledgeHook capture)
    {
        restore_hook_ = std::move(restore);
        capture_hook_ = std::move(capture);
    }

    /**
     * Explore all paths with num_workers threads; returns one PathResult
     * per finished path, expressed in the home context and ordered by
     * (schedule-independent) state id.
     */
    std::vector<symexec::PathResult> Run();

    const StatsRegistry &stats() const { return stats_; }

    size_t num_workers() const { return workers_.size(); }
    WorkerContext &worker(size_t i) { return *workers_[i]; }
    smt::QueryCache *query_cache() { return cache_.get(); }
    /** The shared lemma pool (null when the exchange is disabled). */
    ClauseExchange *clause_exchange() { return clause_exchange_.get(); }
    /** The run's shared differentFrom overlay. */
    PruneIndex *prune_index() { return prune_index_.get(); }

  private:
    void WorkerLoop(size_t worker_id);

    smt::ExprContext *home_;
    const symexec::Program *program_;
    symexec::Mode mode_;
    symexec::EngineConfig config_;
    smt::SolverConfig solver_config_;
    WorkerListenerFactory *factory_ = nullptr;
    std::vector<smt::ExprRef> incoming_;

    std::mutex home_mutex_;
    PruneIndexConfig prune_config_;
    std::unique_ptr<PruneIndex> prune_index_;
    std::unique_ptr<smt::QueryCache> cache_;
    std::unique_ptr<ClauseExchange> clause_exchange_;
    std::unique_ptr<WorkStealingScheduler> scheduler_;
    std::vector<std::unique_ptr<WorkerContext>> workers_;
    std::vector<std::unique_ptr<symexec::Listener>> listeners_;
    std::atomic<size_t> finished_paths_{0};
    StatsRegistry stats_;
    KnowledgeHook restore_hook_;
    KnowledgeHook capture_hook_;
    bool ran_ = false;
};

/**
 * Listener-less exploration dispatch: the serial engine (using the
 * caller's solver) for num_workers <= 1, the ParallelEngine otherwise.
 * Engine stats are merged into `stats`. Shared by the classic-SE
 * baseline and client predicate extraction.
 */
std::vector<symexec::PathResult> RunExploration(
    smt::ExprContext *ctx, smt::Solver *solver,
    const symexec::Program *program, symexec::Mode mode,
    const symexec::EngineConfig &config,
    std::vector<smt::ExprRef> incoming, StatsRegistry *stats);

}  // namespace exec
}  // namespace achilles

#endif  // ACHILLES_EXEC_WORKER_H_
