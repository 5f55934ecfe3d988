// Achilles reproduction -- parallel exploration subsystem.

#include "exec/worker.h"

#include <algorithm>
#include <thread>

#include "obs/log.h"

namespace achilles {
namespace exec {

ParallelEngine::ParallelEngine(smt::ExprContext *home,
                               const symexec::Program *program,
                               symexec::Mode mode,
                               symexec::EngineConfig config,
                               smt::SolverConfig solver_config)
    : home_(home), program_(program), mode_(mode), config_(config),
      solver_config_(solver_config)
{
    if (config_.num_workers < 1)
        config_.num_workers = 1;
}

void
ParallelEngine::SetIncomingMessage(std::vector<smt::ExprRef> bytes)
{
    incoming_ = std::move(bytes);
}

std::vector<symexec::PathResult>
ParallelEngine::Run()
{
    ACHILLES_CHECK(!ran_, "ParallelEngine is one-shot");
    ran_ = true;

    const size_t n = config_.num_workers;
    // Every variable existing in the home context now is id-aligned in
    // every worker context; only queries confined to these variables may
    // use the shared cache (worker-local variable ids are ambiguous).
    const uint32_t shared_var_limit = home_->NumVars();
    // The shared differentFrom overlay for the explorer's planes.
    // Portability of its fingerprints follows the same id-alignment
    // rule as the cache's keys.
    prune_config_.shared_var_limit = shared_var_limit;
    prune_index_ = std::make_unique<PruneIndex>(prune_config_);
    cache_ = std::make_unique<smt::QueryCache>();
    // The learned-clause exchange shares one worker's short refutation
    // lemmas with its siblings. Only meaningful with siblings to share
    // with, and only wired when the incremental backends that produce
    // the lemmas are on.
    if (n > 1 && solver_config_.share_learned_clauses &&
        solver_config_.enable_incremental) {
        clause_exchange_ = std::make_unique<ClauseExchange>(
            16, solver_config_.lemma_pool_cap > 0
                    ? static_cast<size_t>(solver_config_.lemma_pool_cap)
                    : 0);
    }
    // Warm start: restore persisted knowledge into the freshly built
    // stores before any worker thread exists. Restored facts only skip
    // queries whose answers they already are, so witness sets stay
    // bitwise identical to a cold run's.
    if (restore_hook_) {
        restore_hook_(prune_index_.get(), cache_.get(),
                      clause_exchange_.get());
    }

    SchedulerConfig sched_config;
    sched_config.num_workers = n;
    sched_config.order = config_.order;
    sched_config.random_seed = config_.random_seed;
    sched_config.max_queued_states = config_.max_states;
    scheduler_ = std::make_unique<WorkStealingScheduler>(sched_config);

    // Absorb the shared components' existing lock-free counters into the
    // run's metrics registry as gauges: the heartbeat's sampler reads
    // them live without the components' hot paths ever touching the
    // registry. (RegisterGauge replaces by name, so the scheduler's
    // queued-state count overrides any serial engine.frontier gauge.)
    if (config_.obs.metrics_on()) {
        obs::MetricsRegistry *reg = config_.obs.registry;
        const PruneIndex *prune = prune_index_.get();
        reg->RegisterGauge("prune.overlay_hits",
                           [prune] { return prune->overlay_hits(); });
        reg->RegisterGauge("prune.overlay_probes",
                           [prune] { return prune->overlay_probes(); });
        reg->RegisterGauge("prune.cross_worker_hits",
                           [prune] { return prune->cross_worker_hits(); });
        reg->RegisterGauge("prune.evictions",
                           [prune] { return prune->evictions(); });
        reg->RegisterGauge("prune.hot_exemptions",
                           [prune] { return prune->hot_exemptions(); });
        const WorkStealingScheduler *sched = scheduler_.get();
        reg->RegisterGauge("engine.frontier", [sched] {
            return static_cast<int64_t>(sched->queued());
        });
        reg->RegisterGauge("exec.states_stolen",
                           [sched] { return sched->states_stolen(); });
        if (clause_exchange_) {
            const ClauseExchange *pool = clause_exchange_.get();
            reg->RegisterGauge("lemmas.published",
                               [pool] { return pool->published(); });
            reg->RegisterGauge("lemmas.fetched",
                               [pool] { return pool->fetched(); });
            reg->RegisterGauge("lemmas.evicted",
                               [pool] { return pool->evicted(); });
        }
    }

    // Per-worker engines explore disjoint subtrees; ids must therefore
    // come from the fork tree, not from per-engine counters.
    symexec::EngineConfig engine_config = config_;
    engine_config.deterministic_state_ids = true;

    workers_.reserve(n);
    listeners_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        auto wc = std::make_unique<WorkerContext>();
        wc->worker_id = i;
        // Worker w owns obs lane 1 + w: its own metric shard and its own
        // trace track (lane 0 stays with the main/pipeline thread).
        engine_config.obs = config_.obs.ForLane(i + 1);
        wc->prune_index = prune_index_.get();
        wc->bridge =
            std::make_unique<ExprBridge>(home_, &wc->ctx, &home_mutex_);
        wc->bridge->MirrorHomeVars();
        smt::SolverConfig worker_config = solver_config_;
        worker_config.obs = solver_config_.obs.ForLane(i + 1);
        if (clause_exchange_) {
            wc->clause_channel = std::make_unique<ClauseChannel>(
                clause_exchange_.get(), i);
            worker_config.clause_sink = wc->clause_channel.get();
            worker_config.clause_source = wc->clause_channel.get();
            // Lemmas may only name assertions over the id-aligned
            // prefix -- the same portability rule as the query cache.
            worker_config.clause_share_var_limit = shared_var_limit;
        }
        wc->solver = std::make_unique<smt::Solver>(
            &wc->ctx, worker_config, cache_.get(), shared_var_limit);
        wc->engine = std::make_unique<symexec::Engine>(
            &wc->ctx, wc->solver.get(), program_, mode_, engine_config);
        wc->engine->SetFinalizeGate([this] {
            const size_t slot =
                finished_paths_.fetch_add(1, std::memory_order_acq_rel);
            if (slot + 1 >= config_.max_finished_paths)
                scheduler_->Stop();
            return slot < config_.max_finished_paths;
        });
        if (!incoming_.empty()) {
            wc->incoming.reserve(incoming_.size());
            for (smt::ExprRef b : incoming_)
                wc->incoming.push_back(wc->bridge->ToRemote(b));
            wc->engine->SetIncomingMessage(wc->incoming);
        }
        std::unique_ptr<symexec::Listener> listener;
        if (factory_) {
            listener = factory_->MakeListener(wc.get());
            wc->engine->SetListener(listener.get());
        }
        listeners_.push_back(std::move(listener));
        workers_.push_back(std::move(wc));
    }

    scheduler_->Seed(0, workers_[0]->engine->MakeInitialState());

    std::vector<std::thread> threads;
    threads.reserve(n);
    for (size_t i = 0; i < n; ++i)
        threads.emplace_back([this, i] { WorkerLoop(i); });
    for (std::thread &t : threads)
        t.join();

    // Merge: translate every worker's finished paths into the home
    // context and order them by their schedule-independent state ids.
    std::vector<symexec::PathResult> results;
    for (auto &wc : workers_) {
        std::vector<symexec::PathResult> part = wc->engine->TakeResults();
        for (symexec::PathResult &r : part) {
            for (smt::ExprRef &c : r.constraints)
                c = wc->bridge->ToHome(c);
            for (symexec::SentMessage &m : r.sent)
                for (smt::ExprRef &b : m.bytes)
                    b = wc->bridge->ToHome(b);
            results.push_back(std::move(r));
        }
        stats_.Merge(wc->engine->stats());
        stats_.Merge(wc->solver->stats());
    }
    std::stable_sort(results.begin(), results.end(),
                     [](const symexec::PathResult &a,
                        const symexec::PathResult &b) {
                         return a.state_id < b.state_id;
                     });
    scheduler_->ExportStats(&stats_);
    cache_->ExportStats(&stats_);
    prune_index_->ExportStats(&stats_);
    if (clause_exchange_)
        clause_exchange_->ExportStats(&stats_);
    stats_.Set("exec.workers", static_cast<int64_t>(n));

    // The gauges registered above read components this engine owns;
    // freeze them to their final values so a heartbeat (or RunReport)
    // sampling after this engine is destroyed reads constants, not
    // dangling pointers.
    if (config_.obs.metrics_on()) {
        obs::MetricsRegistry *reg = config_.obs.registry;
        const auto freeze = [reg](const std::string &name, int64_t value) {
            reg->RegisterGauge(name, [value] { return value; });
        };
        freeze("prune.overlay_hits", prune_index_->overlay_hits());
        freeze("prune.overlay_probes", prune_index_->overlay_probes());
        freeze("prune.cross_worker_hits",
               prune_index_->cross_worker_hits());
        freeze("prune.evictions", prune_index_->evictions());
        freeze("prune.hot_exemptions", prune_index_->hot_exemptions());
        freeze("engine.frontier", 0);
        freeze("exec.states_stolen", scheduler_->states_stolen());
        if (clause_exchange_) {
            freeze("lemmas.published", clause_exchange_->published());
            freeze("lemmas.fetched", clause_exchange_->fetched());
            freeze("lemmas.evicted", clause_exchange_->evicted());
        }
    }
    // Everything this run proved, for the next run's warm start. After
    // the join, so the stores are quiescent.
    if (capture_hook_) {
        capture_hook_(prune_index_.get(), cache_.get(),
                      clause_exchange_.get());
    }
    return results;
}

void
ParallelEngine::WorkerLoop(size_t worker_id)
{
    // Tag this thread's log lines (and any Warn from the layers below)
    // with the worker lane.
    obs::ScopedLogWorkerId log_id(static_cast<int>(worker_id));
    WorkerContext &wc = *workers_[worker_id];
    WorkStealingScheduler::Batch batch;
    std::vector<std::unique_ptr<symexec::State>> spawned;

    while (scheduler_->Next(worker_id, &batch)) {
        if (batch.owner != worker_id) {
            // Stolen work: re-home it into this worker's context, queue
            // it locally (preserving deque order) and go pop normally.
            for (auto &s : batch.states) {
                s = TransferState(*s, workers_[batch.owner]->bridge.get(),
                                  wc.bridge.get());
                scheduler_->Push(worker_id, &s, /*fresh=*/false);
            }
            continue;
        }
        auto state = std::move(batch.states.front());
        spawned.clear();
        wc.engine->AdvanceState(*state, &spawned);
        for (auto &s : spawned) {
            if (!scheduler_->Push(worker_id, &s, /*fresh=*/true))
                wc.engine->FinalizeLimit(*s);
        }
        if (state->Finished())
            scheduler_->OnStateFinished();
        else
            scheduler_->Push(worker_id, &state, /*fresh=*/false);
    }
}

std::vector<symexec::PathResult>
RunExploration(smt::ExprContext *ctx, smt::Solver *solver,
               const symexec::Program *program, symexec::Mode mode,
               const symexec::EngineConfig &config,
               std::vector<smt::ExprRef> incoming, StatsRegistry *stats)
{
    if (config.num_workers > 1) {
        ParallelEngine engine(ctx, program, mode, config,
                              solver->config());
        if (!incoming.empty())
            engine.SetIncomingMessage(std::move(incoming));
        std::vector<symexec::PathResult> paths = engine.Run();
        stats->Merge(engine.stats());
        return paths;
    }
    symexec::Engine engine(ctx, solver, program, mode, config);
    if (!incoming.empty())
        engine.SetIncomingMessage(std::move(incoming));
    std::vector<symexec::PathResult> paths = engine.Run();
    stats->Merge(engine.stats());
    return paths;
}

}  // namespace exec
}  // namespace achilles
