// Achilles reproduction -- tests.
//
// Parallel exploration subsystem: the shared query cache (canonical
// keys, cross-context hits, model portability), the expression bridge
// (id-aligned mirroring, round trips, state transfer), the work-stealing
// scheduler (orders, steal-half, termination) and the ParallelEngine
// (parity with the serial engine, schedule-independent determinism,
// global path caps, surfaced counters).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "core/path_predicate.h"
#include "exec/expr_transfer.h"
#include "exec/scheduler.h"
#include "exec/worker.h"
#include "smt/query_cache.h"
#include "smt/solver.h"
#include "symexec/program.h"

namespace achilles {
namespace exec {
namespace {

using smt::CheckResult;
using smt::CheckStatus;
using smt::ExprContext;
using smt::ExprRef;
using smt::Model;
using smt::QueryCache;
using smt::QueryCacheKey;
using smt::QueryFingerprints;
using smt::Solver;
using symexec::EngineConfig;
using symexec::Mode;
using symexec::PathOutcome;
using symexec::PathResult;
using symexec::Program;
using symexec::ProgramBuilder;
using symexec::State;
using symexec::Val;

/** `depth` independent symbolic branches: 2^depth client paths. */
Program
MakeForkyClient(uint32_t depth)
{
    ProgramBuilder b("forky");
    b.Function("main", {}, 0, [&] {
        for (uint32_t i = 0; i < depth; ++i) {
            Val x = b.ReadInput("x" + std::to_string(i), 8);
            b.If(x < 128, [&] {}, [&] {});
        }
        b.Halt();
    });
    return b.Build();
}

/** Tiny server: accepts iff byte0 < 16 and byte1 == 7. */
Program
MakeTinyServer()
{
    ProgramBuilder b("tiny-server");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 2);
        Val b0 = b.Local(
            "b0", 8, ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 0)));
        Val b1 = b.Local(
            "b1", 8, ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 1)));
        b.If(
            b0 < 16,
            [&] {
                b.If(b1 == 7, [&] { b.MarkAccept("hit"); },
                     [&] { b.MarkReject("near"); });
            },
            [&] { b.MarkReject("far"); });
    });
    return b.Build();
}

/** Canonical (alpha-renaming-insensitive) summary of a path result. */
std::pair<uint64_t, int>
PathSignature(const ExprContext &ctx, const PathResult &r)
{
    core::CanonicalHasher hasher(&ctx);
    std::vector<ExprRef> exprs = r.constraints;
    for (const symexec::SentMessage &m : r.sent)
        exprs.insert(exprs.end(), m.bytes.begin(), m.bytes.end());
    return {hasher.HashExprs(exprs), static_cast<int>(r.outcome)};
}

std::multiset<std::pair<uint64_t, int>>
PathSignatures(const ExprContext &ctx, const std::vector<PathResult> &rs)
{
    std::multiset<std::pair<uint64_t, int>> out;
    for (const PathResult &r : rs)
        out.insert(PathSignature(ctx, r));
    return out;
}

// ---------------------------------------------------------------- cache

TEST(QueryCacheTest, KeyIsOrderAndDuplicateInsensitive)
{
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef y = ctx.FreshVar("y", 8);
    ExprRef a = ctx.MakeUlt(x, ctx.MakeConst(8, 5));
    ExprRef b = ctx.MakeEq(y, ctx.MakeConst(8, 9));

    QueryCacheKey k1, k2, k3, k4;
    QueryFingerprints f1, f2, f3, f4;
    ASSERT_TRUE(QueryCache::ComputeKey({a, b}, 2, &k1, &f1));
    ASSERT_TRUE(QueryCache::ComputeKey({b, a}, 2, &k2, &f2));
    ASSERT_TRUE(QueryCache::ComputeKey({a, b, a}, 2, &k3, &f3));
    ASSERT_TRUE(QueryCache::ComputeKey({a}, 2, &k4, &f4));
    EXPECT_EQ(k1, k2);
    EXPECT_EQ(k1, k3);
    EXPECT_FALSE(k1 == k4);
    EXPECT_EQ(f1, f2);
    EXPECT_EQ(f1, f3);
    EXPECT_NE(f1, f4);
}

TEST(QueryCacheTest, KeyMatchesAcrossIdAlignedContexts)
{
    ExprContext home;
    ExprRef x = home.FreshVar("x", 8);
    ExprRef q = home.MakeUlt(x, home.MakeConst(8, 5));

    ExprContext remote;
    std::mutex mutex;
    ExprBridge bridge(&home, &remote, &mutex);
    bridge.MirrorHomeVars();
    ExprRef rq = bridge.ToRemote(q);

    QueryCacheKey hk, rk;
    QueryFingerprints hf, rf;
    ASSERT_TRUE(QueryCache::ComputeKey({q}, home.NumVars(), &hk, &hf));
    ASSERT_TRUE(QueryCache::ComputeKey({rq}, home.NumVars(), &rk, &rf));
    EXPECT_EQ(hk, rk);
    EXPECT_EQ(hf, rf);
}

TEST(QueryCacheTest, WorkerLocalVariablesAreNotCacheable)
{
    ExprContext ctx;
    ExprRef shared = ctx.FreshVar("s", 8);
    ExprRef local = ctx.FreshVar("l", 8);
    ExprRef q = ctx.MakeEq(shared, local);
    QueryCacheKey key;
    QueryFingerprints fp;
    // Limit 1: only var id 0 is globally meaningful.
    EXPECT_FALSE(QueryCache::ComputeKey({q}, 1, &key, &fp));
    EXPECT_TRUE(QueryCache::ComputeKey({q}, 2, &key, &fp));
}

TEST(QueryCacheTest, LookupInsertRoundTripWithModel)
{
    QueryCache cache;
    QueryCacheKey key{1, 2};
    QueryFingerprints fp{{3, 4}};
    Model model;
    model.Set(0, 42);

    CheckStatus result;
    EXPECT_FALSE(cache.Lookup(key, fp, /*want_model=*/true, &result,
                              nullptr));
    cache.Insert(key, fp, CheckResult::kSat, /*has_model=*/true, model);
    Model out;
    ASSERT_TRUE(cache.Lookup(key, fp, /*want_model=*/true, &result, &out));
    EXPECT_EQ(result, CheckResult::kSat);
    EXPECT_EQ(out.Get(0), 42u);
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(QueryCacheTest, KeyCollisionWithDifferentFingerprintsMisses)
{
    // Regression: a bare 128-bit key hit used to be trusted outright, so
    // an (engineered or accidental) key collision silently returned
    // another query's result and model. The per-assertion fingerprints
    // must turn that into a miss, and Insert must not clobber the
    // resident entry.
    QueryCache cache;
    QueryCacheKey key{7, 9};
    QueryFingerprints fp_a{{1, 2}}, fp_b{{3, 4}};
    Model model_a;
    model_a.Set(0, 1);

    cache.Insert(key, fp_a, CheckResult::kSat, /*has_model=*/true,
                 model_a);
    CheckStatus result;
    Model out;
    EXPECT_FALSE(cache.Lookup(key, fp_b, /*want_model=*/false, &result,
                              &out));
    EXPECT_GE(cache.collisions(), 1);

    cache.Insert(key, fp_b, CheckResult::kUnsat, /*has_model=*/true,
                 Model());
    ASSERT_TRUE(cache.Lookup(key, fp_a, /*want_model=*/true, &result,
                             &out));
    EXPECT_EQ(result, CheckResult::kSat);
    EXPECT_EQ(out.Get(0), 1u);
}

TEST(QueryCacheTest, ModelLessEntryUpgradesInPlace)
{
    // The incremental solving path publishes result-only kSat entries; a
    // model-requesting probe must miss, and the follow-up Insert with a
    // model must upgrade the entry for later model hits.
    QueryCache cache;
    QueryCacheKey key{5, 6};
    QueryFingerprints fp{{8, 9}};

    cache.Insert(key, fp, CheckResult::kSat, /*has_model=*/false,
                 Model());
    CheckStatus result;
    ASSERT_TRUE(cache.Lookup(key, fp, /*want_model=*/false, &result,
                             nullptr));
    EXPECT_EQ(result, CheckResult::kSat);
    Model out;
    EXPECT_FALSE(cache.Lookup(key, fp, /*want_model=*/true, &result,
                              &out));

    Model model;
    model.Set(3, 77);
    cache.Insert(key, fp, CheckResult::kSat, /*has_model=*/true, model);
    ASSERT_TRUE(cache.Lookup(key, fp, /*want_model=*/true, &result, &out));
    EXPECT_EQ(out.Get(3), 77u);
    EXPECT_EQ(cache.size(), 1u);

    // kUnsat entries always serve model callers (the empty model).
    QueryCacheKey ukey{10, 11};
    QueryFingerprints ufp{{12, 13}};
    cache.Insert(ukey, ufp, CheckResult::kUnsat, /*has_model=*/false,
                 Model());
    ASSERT_TRUE(cache.Lookup(ukey, ufp, /*want_model=*/true, &result,
                             &out));
    EXPECT_EQ(result, CheckResult::kUnsat);
    EXPECT_TRUE(out.values().empty());
}

TEST(QueryCacheTest, SolversShareResultsAcrossContexts)
{
    ExprContext home;
    ExprRef x = home.FreshVar("x", 8);
    ExprRef q = home.MakeEq(home.MakeAdd(x, home.MakeConst(8, 1)),
                            home.MakeConst(8, 7));

    ExprContext remote;
    std::mutex mutex;
    ExprBridge bridge(&home, &remote, &mutex);
    bridge.MirrorHomeVars();
    ExprRef rq = bridge.ToRemote(q);

    QueryCache cache;
    const uint32_t limit = home.NumVars();
    Solver home_solver(&home, {}, &cache, limit);
    Solver remote_solver(&remote, {}, &cache, limit);

    Model m1;
    EXPECT_EQ(home_solver.CheckSat({q}, &m1), CheckResult::kSat);
    EXPECT_EQ(m1.Get(x->VarId()), 6u);
    EXPECT_EQ(cache.hits(), 0);

    // Same query from the other worker's context: served by the cache,
    // model included, bit-identical.
    Model m2;
    EXPECT_EQ(remote_solver.CheckSat({rq}, &m2), CheckResult::kSat);
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(m2.Get(x->VarId()), 6u);
    // The hit is counted once, by the shared cache: the solver's own
    // cache-hit stat covers only its private cache. The query itself
    // still counts as one solver query.
    EXPECT_EQ(remote_solver.stats().Get("solver.cache_hits"), 0);
    EXPECT_EQ(remote_solver.stats().Get("exec.queries_cached"), 0);
    EXPECT_EQ(remote_solver.stats().Get("solver.queries"), 1);
}

// --------------------------------------------------------------- bridge

TEST(ExprBridgeTest, MirrorAlignsIdsAndRoundTripsToIdentity)
{
    ExprContext home;
    ExprRef x = home.FreshVar("x", 8);
    ExprRef y = home.FreshVar("y", 16);
    ExprRef e = home.MakeUlt(home.MakeAdd(x, home.MakeConst(8, 3)),
                             home.MakeExtract(y, 0, 8));

    ExprContext remote;
    std::mutex mutex;
    ExprBridge bridge(&home, &remote, &mutex);
    bridge.MirrorHomeVars();
    EXPECT_EQ(remote.NumVars(), home.NumVars());

    ExprRef r = bridge.ToRemote(e);
    // Same structure, same rendered form (mirrored names), other arena.
    EXPECT_EQ(remote.ToString(r), home.ToString(e));
    EXPECT_EQ(r->struct_hash(), e->struct_hash());
    // Round trip restores the identical interned home node.
    EXPECT_EQ(bridge.ToHome(r), e);
}

TEST(ExprBridgeTest, RemoteBornVariablesGetHomeCounterparts)
{
    ExprContext home;
    home.FreshVar("x", 8);
    ExprContext remote;
    std::mutex mutex;
    ExprBridge bridge(&home, &remote, &mutex);
    bridge.MirrorHomeVars();

    // A variable created mid-run on the worker (id beyond the mirror).
    ExprRef w = remote.FreshVar("oob", 8);
    ExprRef h = bridge.ToHome(w);
    EXPECT_TRUE(h->IsVar());
    EXPECT_EQ(home.InfoOf(h->VarId()).width, 8u);
    // The correspondence is remembered in both directions.
    EXPECT_EQ(bridge.ToRemote(h), w);
}

TEST(ExprBridgeTest, TransferStateRehomesAllExpressions)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] { b.Halt(); });
    const Program program = b.Build();

    ExprContext home;
    ExprRef m0 = home.FreshVar("msg", 8);

    std::mutex mutex;
    ExprContext ctx_a, ctx_b;
    ExprBridge bridge_a(&home, &ctx_a, &mutex);
    ExprBridge bridge_b(&home, &ctx_b, &mutex);
    bridge_a.MirrorHomeVars();
    bridge_b.MirrorHomeVars();

    State state(7, &program);
    ExprRef c = ctx_a.MakeUlt(bridge_a.ToRemote(m0),
                              ctx_a.MakeConst(8, 9));
    state.AddConstraint(c);
    state.TopFrame().locals["v"] = {8, bridge_a.ToRemote(m0)};

    auto moved = TransferState(state, &bridge_a, &bridge_b);
    ASSERT_EQ(moved->constraints().size(), 1u);
    EXPECT_EQ(ctx_b.ToString(moved->constraints()[0]),
              ctx_a.ToString(c));
    EXPECT_EQ(moved->id(), state.id());
    // The original state is untouched.
    EXPECT_EQ(state.constraints()[0], c);
}

// ------------------------------------------------------------ scheduler

TEST(SchedulerTest, LocalPopAndTermination)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] { b.Halt(); });
    const Program program = b.Build();

    SchedulerConfig config;
    config.num_workers = 2;
    WorkStealingScheduler scheduler(config);
    scheduler.Seed(0, std::make_unique<State>(1, &program));

    WorkStealingScheduler::Batch batch;
    ASSERT_TRUE(scheduler.Next(0, &batch));
    EXPECT_EQ(batch.owner, 0u);
    ASSERT_EQ(batch.states.size(), 1u);
    scheduler.OnStateFinished();
    EXPECT_FALSE(scheduler.Next(0, &batch));
    EXPECT_FALSE(scheduler.Next(1, &batch));
}

TEST(SchedulerTest, IdleWorkerStealsHalf)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] { b.Halt(); });
    const Program program = b.Build();

    SchedulerConfig config;
    config.num_workers = 2;
    WorkStealingScheduler scheduler(config);
    for (uint64_t i = 0; i < 4; ++i) {
        auto state = std::make_unique<State>(i, &program);
        if (i == 0)
            scheduler.Seed(0, std::move(state));
        else
            ASSERT_TRUE(scheduler.Push(0, &state, /*fresh=*/true));
    }

    WorkStealingScheduler::Batch batch;
    ASSERT_TRUE(scheduler.Next(1, &batch));
    EXPECT_EQ(batch.owner, 0u);  // stolen, still in worker 0's context
    EXPECT_EQ(batch.states.size(), 2u);  // the older half
    // The oldest states are taken first.
    EXPECT_EQ(batch.states[0]->id(), 0u);
    EXPECT_EQ(batch.states[1]->id(), 1u);
    EXPECT_EQ(scheduler.states_stolen(), 2);
    EXPECT_EQ(scheduler.steal_batches(), 1);
    EXPECT_EQ(scheduler.queued(), 2u);
}

TEST(SchedulerTest, FreshPushRespectsStateBudget)
{
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] { b.Halt(); });
    const Program program = b.Build();

    SchedulerConfig config;
    config.num_workers = 1;
    config.max_queued_states = 2;
    WorkStealingScheduler scheduler(config);
    auto s1 = std::make_unique<State>(1, &program);
    auto s2 = std::make_unique<State>(2, &program);
    auto s3 = std::make_unique<State>(3, &program);
    EXPECT_TRUE(scheduler.Push(0, &s1, true));
    EXPECT_TRUE(scheduler.Push(0, &s2, true));
    EXPECT_FALSE(scheduler.Push(0, &s3, true));
    ASSERT_NE(s3, nullptr);  // rejected state stays with the caller
    // Re-queues are exempt (the state was already admitted once).
    EXPECT_TRUE(scheduler.Push(0, &s3, false));
}

TEST(SchedulerTest, ConcurrentPushesNeverSeeAnUnderflowedQueue)
{
    // Two producers push fresh states into worker 0's deque while worker
    // 0 pops them. The budget is far out of reach, so every push must be
    // admitted. A queued-state count that a pop could decrement before
    // the push had incremented it wrapped below zero for a moment and
    // made a concurrent push fail the budget check (the intermittent
    // path loss of ClientModeMatchesSerialEngine below).
    ProgramBuilder b("prog");
    b.Function("main", {}, 0, [&] { b.Halt(); });
    const Program program = b.Build();

    SchedulerConfig config;
    config.num_workers = 1;
    WorkStealingScheduler scheduler(config);
    constexpr int kPerProducer = 50000;
    std::atomic<int> rejected{0};
    const auto produce = [&] {
        for (int i = 0; i < kPerProducer; ++i) {
            auto state = std::make_unique<State>(i, &program);
            if (!scheduler.Push(0, &state, /*fresh=*/true))
                rejected.fetch_add(1);
        }
    };
    std::thread p1(produce);
    std::thread p2(produce);
    int consumed = 0;
    WorkStealingScheduler::Batch batch;
    while (consumed + rejected.load() < 2 * kPerProducer) {
        // Next() returns false whenever every pushed state has been
        // consumed so far; the producers may still be running.
        if (!scheduler.Next(0, &batch))
            continue;
        consumed += static_cast<int>(batch.states.size());
        for (size_t i = 0; i < batch.states.size(); ++i)
            scheduler.OnStateFinished();
    }
    p1.join();
    p2.join();
    EXPECT_EQ(rejected.load(), 0);
    EXPECT_EQ(consumed, 2 * kPerProducer);
    EXPECT_EQ(scheduler.queued(), 0u);
}

// ------------------------------------------------------- parallel engine

TEST(ParallelEngineTest, ClientModeMatchesSerialEngine)
{
    const Program program = MakeForkyClient(5);

    ExprContext serial_ctx;
    Solver serial_solver(&serial_ctx);
    symexec::Engine serial(&serial_ctx, &serial_solver, &program,
                           Mode::kClient);
    std::vector<PathResult> serial_paths = serial.Run();
    ASSERT_EQ(serial_paths.size(), 32u);

    ExprContext home;
    EngineConfig config;
    config.num_workers = 4;
    ParallelEngine parallel(&home, &program, Mode::kClient, config);
    std::vector<PathResult> parallel_paths = parallel.Run();

    ASSERT_EQ(parallel_paths.size(), 32u);
    EXPECT_EQ(PathSignatures(serial_ctx, serial_paths),
              PathSignatures(home, parallel_paths));
    EXPECT_EQ(parallel.stats().Get("exec.workers"), 4);
    // The counter pair surfaced by the subsystem is always present.
    EXPECT_EQ(parallel.stats().All().count("exec.states_stolen"), 1u);
    EXPECT_EQ(parallel.stats().All().count("exec.queries_cached"), 1u);
}

TEST(ParallelEngineTest, ServerModeProducesHomeContextResults)
{
    const Program program = MakeTinyServer();

    ExprContext home;
    std::vector<ExprRef> message{home.FreshVar("msg", 8),
                                 home.FreshVar("msg", 8)};

    EngineConfig config;
    config.num_workers = 3;
    ParallelEngine engine(&home, &program, Mode::kServer, config);
    engine.SetIncomingMessage(message);
    std::vector<PathResult> paths = engine.Run();

    ASSERT_EQ(paths.size(), 3u);
    size_t accepted = 0;
    for (const PathResult &r : paths) {
        if (r.outcome == PathOutcome::kAccepted) {
            ++accepted;
            EXPECT_EQ(r.accept_label, "hit");
            // Constraints are home-context expressions over the home
            // message variables: re-solving them here must pin the
            // accepting bytes.
            Solver solver(&home);
            Model model;
            ASSERT_EQ(solver.CheckSat(r.constraints, &model),
                      CheckResult::kSat);
            EXPECT_LT(model.Get(message[0]->VarId()), 16u);
            EXPECT_EQ(model.Get(message[1]->VarId()), 7u);
        }
    }
    EXPECT_EQ(accepted, 1u);
}

TEST(ParallelEngineTest, ResultsAreIdenticalAcrossWorkerCounts)
{
    const Program program = MakeTinyServer();

    auto run = [&](size_t workers, ExprContext *ctx,
                   std::vector<PathResult> *out) {
        std::vector<ExprRef> message{ctx->FreshVar("msg", 8),
                                     ctx->FreshVar("msg", 8)};
        EngineConfig config;
        config.num_workers = workers;
        ParallelEngine engine(ctx, &program, Mode::kServer, config);
        engine.SetIncomingMessage(message);
        *out = engine.Run();
    };

    ExprContext ctx2, ctx4;
    std::vector<PathResult> paths2, paths4;
    run(2, &ctx2, &paths2);
    run(4, &ctx4, &paths4);

    ASSERT_EQ(paths2.size(), paths4.size());
    for (size_t i = 0; i < paths2.size(); ++i) {
        // Tree-derived ids and structural canonicalization make the
        // merged result streams bitwise-comparable across worker counts.
        EXPECT_EQ(paths2[i].state_id, paths4[i].state_id);
        EXPECT_EQ(paths2[i].outcome, paths4[i].outcome);
        EXPECT_EQ(paths2[i].accept_label, paths4[i].accept_label);
        ASSERT_EQ(paths2[i].constraints.size(),
                  paths4[i].constraints.size());
        for (size_t c = 0; c < paths2[i].constraints.size(); ++c) {
            EXPECT_EQ(ctx2.ToString(paths2[i].constraints[c]),
                      ctx4.ToString(paths4[i].constraints[c]));
        }
    }
}

TEST(ParallelEngineTest, GlobalPathCapIsRespected)
{
    const Program program = MakeForkyClient(6);  // 64 paths

    // Serial: the satellite fix caps the recorded results exactly.
    ExprContext serial_ctx;
    Solver serial_solver(&serial_ctx);
    EngineConfig config;
    config.max_finished_paths = 7;
    symexec::Engine serial(&serial_ctx, &serial_solver, &program,
                           Mode::kClient, config);
    EXPECT_EQ(serial.Run().size(), 7u);
    EXPECT_GE(serial.stats().Get("engine.finished_path_drops"), 0);

    // Parallel: the finalize gate enforces the same cap across workers.
    ExprContext home;
    config.num_workers = 4;
    ParallelEngine parallel(&home, &program, Mode::kClient, config);
    EXPECT_EQ(parallel.Run().size(), 7u);
}

TEST(ParallelEngineTest, ListenerNeverSeesPathsDroppedByTheCap)
{
    // Server where every path accepts: 2^4 = 16 accepting paths.
    ProgramBuilder b("all-accept");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 4);
        for (uint32_t i = 0; i < 4; ++i) {
            Val x = b.Local("x" + std::to_string(i), 8,
                            ProgramBuilder::ArrayAt("msg", 8,
                                                    Val::Const(8, i)));
            b.If(x < 128, [&] {}, [&] {});
        }
        b.MarkAccept("yes");
    });
    const Program program = b.Build();

    class CountingListener : public symexec::Listener
    {
      public:
        void OnAccept(State &) override { ++accepts; }
        size_t accepts = 0;
    };

    ExprContext ctx;
    Solver solver(&ctx);
    std::vector<ExprRef> message;
    for (uint32_t i = 0; i < 4; ++i)
        message.push_back(ctx.FreshVar("msg", 8));

    EngineConfig config;
    config.max_finished_paths = 5;
    symexec::Engine engine(&ctx, &solver, &program, Mode::kServer, config);
    engine.SetIncomingMessage(message);
    CountingListener listener;
    engine.SetListener(&listener);
    const size_t results = engine.Run().size();
    EXPECT_EQ(results, 5u);
    // OnAccept fires only for admitted paths: a listener (e.g. the
    // Trojan emitter) must never act on a path the budget dropped.
    EXPECT_EQ(listener.accepts, results);
}

}  // namespace
}  // namespace exec
}  // namespace achilles
