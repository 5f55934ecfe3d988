// Achilles reproduction -- tests.
//
// The differentFrom overlay (exec/prune_index.h) and its consumers:
// two-part containment, cross-worker attribution, ReduceDB-style
// eviction with the hot-entry exemption, lemma-pool eviction, and the
// end-to-end contracts -- witness sets stay bitwise identical at
// 1/2/4/8 workers with the index on or off, a capped overlay never
// flips a verdict, and a conflict-starved solver prunes conservatively
// and never invents a witness.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "proto/synth/synth_family.h"
#include "core/achilles.h"
#include "exec/clause_exchange.h"
#include "exec/expr_transfer.h"
#include "exec/prune_index.h"
#include "proto/fsp/fsp_protocol.h"
#include "proto/toy/toy_protocol.h"

namespace achilles {
namespace {

using exec::PruneFp;
using exec::PruneFpVec;
using exec::PruneIndex;
using exec::PruneIndexConfig;

constexpr uint64_t kToken = 7;

TEST(PruneIndexTest, OverlaySubsumptionIsTwoPartContainment)
{
    PruneIndex index;
    const PruneFpVec path{{1, 1}, {2, 2}};
    const PruneFpVec match{{9, 9}};
    index.RecordFieldCore(0, kToken, path, match);

    // Exact query and supersets hit; missing either part misses.
    uint64_t token = 0;
    EXPECT_TRUE(index.OverlaySubsumes(0, path, match, &token));
    EXPECT_TRUE(index.OverlaySubsumes(
        0, PruneFpVec{{1, 1}, {2, 2}, {3, 3}}, PruneFpVec{{8, 8}, {9, 9}},
        &token));
    EXPECT_FALSE(index.OverlaySubsumes(0, PruneFpVec{{1, 1}}, match,
                                       &token));
    EXPECT_FALSE(index.OverlaySubsumes(0, path, PruneFpVec{{8, 8}},
                                       &token));
    // Parts are not interchangeable: the path part must be contained
    // in the path set, the match part in the match set.
    EXPECT_FALSE(index.OverlaySubsumes(0, match, path, &token));
}

TEST(PruneIndexTest, CrossWorkerHitsAreAttributed)
{
    PruneIndex index;
    uint64_t token = 0;
    index.RecordFieldCore(/*publisher=*/3, kToken, PruneFpVec{{1, 1}},
                          PruneFpVec{{2, 2}});
    EXPECT_TRUE(index.OverlaySubsumes(/*consumer=*/3, PruneFpVec{{1, 1}},
                                      PruneFpVec{{2, 2}}, &token));
    EXPECT_EQ(index.cross_worker_hits(), 0);
    EXPECT_TRUE(index.OverlaySubsumes(/*consumer=*/1, PruneFpVec{{1, 1}},
                                      PruneFpVec{{2, 2}}, &token));
    EXPECT_EQ(index.cross_worker_hits(), 1);
}

TEST(PruneIndexTest, FingerprintRespectsSharedVarLimit)
{
    smt::ExprContext ctx;
    smt::ExprRef x = ctx.FreshVar("x", 8);
    smt::ExprRef e = ctx.MakeUlt(x, ctx.MakeConst(8, 5));

    PruneIndexConfig limited;
    limited.shared_var_limit = ctx.NumVars();
    PruneIndex portable(limited);
    PruneFpVec fps;
    EXPECT_TRUE(portable.Fingerprint({e}, &fps));
    EXPECT_EQ(fps.size(), 1u);

    // A variable past the id-aligned prefix is not portable.
    smt::ExprRef late = ctx.FreshVar("late", 8);
    smt::ExprRef bad = ctx.MakeEq(late, ctx.MakeConst(8, 1));
    EXPECT_FALSE(portable.Fingerprint({e, bad}, &fps));
}

TEST(PruneIndexTest, FingerprintsTranslateAcrossIdAlignedContexts)
{
    // The portability property the whole subsystem rests on: an entry
    // recorded from one worker's context subsumes a query built in
    // another id-aligned context, with no expression bridging.
    smt::ExprContext home;
    smt::ExprRef x = home.FreshVar("x", 8);
    smt::ExprRef lt = home.MakeUlt(x, home.MakeConst(8, 10));
    smt::ExprRef ge = home.MakeUge(x, home.MakeConst(8, 20));

    smt::ExprContext remote;
    std::mutex mutex;
    exec::ExprBridge bridge(&home, &remote, &mutex);
    bridge.MirrorHomeVars();

    PruneIndexConfig config;
    config.shared_var_limit = home.NumVars();
    PruneIndex index(config);

    PruneFpVec home_path, home_match;
    ASSERT_TRUE(index.Fingerprint({lt}, &home_path));
    ASSERT_TRUE(index.Fingerprint({ge}, &home_match));
    index.RecordFieldCore(/*publisher=*/0, kToken, home_path, home_match);

    PruneFpVec remote_path, remote_match;
    ASSERT_TRUE(index.Fingerprint({bridge.ToRemote(lt)}, &remote_path));
    ASSERT_TRUE(index.Fingerprint({bridge.ToRemote(ge)}, &remote_match));
    uint64_t token = 0;
    EXPECT_TRUE(index.OverlaySubsumes(/*consumer=*/1, remote_path,
                                      remote_match, &token));
    EXPECT_EQ(token, kToken);
    EXPECT_EQ(index.cross_worker_hits(), 1);
}

// ------------------------------------------------------------- eviction

TEST(PruneIndexTest, EvictionCapsHoldUnderLoad)
{
    PruneIndexConfig config;
    config.shards = 2;
    config.overlay_cap = 16;
    PruneIndex index(config);

    for (uint64_t i = 0; i < 1000; ++i) {
        index.RecordFieldCore(0, kToken, PruneFpVec{{i, i}},
                              PruneFpVec{{i + 1, 0}});
    }
    EXPECT_LE(index.overlay_entries(), config.overlay_cap);
    EXPECT_GT(index.evictions(), 0);

    // Probes after heavy eviction still answer soundly: whatever
    // survived still subsumes, everything else just misses.
    int64_t hits = 0;
    uint64_t token = 0;
    for (uint64_t i = 0; i < 1000; ++i) {
        if (index.OverlaySubsumes(0, PruneFpVec{{i, i}},
                                  PruneFpVec{{i + 1, 0}}, &token))
            ++hits;
    }
    EXPECT_GT(hits, 0);
    EXPECT_LE(hits, static_cast<int64_t>(config.overlay_cap));
}

TEST(PruneIndexTest, ActiveEntriesSurviveEviction)
{
    PruneIndexConfig config;
    config.shards = 1;
    config.overlay_cap = 8;
    PruneIndex index(config);

    // One hot entry, kept alive by hits while cold entries churn past
    // the cap: ReduceDB keeps the active half.
    uint64_t token = 0;
    index.RecordFieldCore(0, kToken, PruneFpVec{{1000, 1}}, PruneFpVec{});
    for (uint64_t i = 0; i < 200; ++i) {
        EXPECT_TRUE(index.OverlaySubsumes(0, PruneFpVec{{1000, 1}},
                                          PruneFpVec{{5, 5}}, &token));
        index.RecordFieldCore(0, kToken, PruneFpVec{{i, 2}}, PruneFpVec{});
    }
    EXPECT_TRUE(index.OverlaySubsumes(0, PruneFpVec{{1000, 1}},
                                      PruneFpVec{}, &token));
}

TEST(PruneIndexTest, CrossWorkerHitEntrySurvivesHalvingRound)
{
    PruneIndexConfig config;
    config.shards = 1;
    config.overlay_cap = 8;
    PruneIndex index(config);
    uint64_t token = 0;

    // Oldest entry in the shard, hit once by another worker: a hot
    // entry, proven to transfer.
    index.RecordFieldCore(/*publisher=*/0, kToken, PruneFpVec{{1000, 1}},
                          PruneFpVec{});
    EXPECT_TRUE(index.OverlaySubsumes(/*consumer=*/1,
                                      PruneFpVec{{1000, 1}}, PruneFpVec{},
                                      &token));
    EXPECT_EQ(index.cross_worker_hits(), 1);

    // Pin the shard at capacity with cold entries of strictly higher
    // activity (re-discovered twice each): on plain (activity, stamp)
    // order the hot entry -- lowest activity, oldest stamp -- would be
    // the first one halved away.
    const auto record_thrice = [&](uint64_t i) {
        for (int k = 0; k < 3; ++k) {
            index.RecordFieldCore(0, kToken, PruneFpVec{{i, 2}},
                                  PruneFpVec{});
        }
    };
    for (uint64_t i = 0; i < 8; ++i)
        record_thrice(i);
    EXPECT_GT(index.evictions(), 0);
    EXPECT_GT(index.hot_exemptions(), 0);
    // The cross-worker-hit entry survived the round; cold entries with
    // more activity were evicted in its stead.
    EXPECT_TRUE(index.OverlaySubsumes(0, PruneFpVec{{1000, 1}},
                                      PruneFpVec{}, &token));

    // The exemption is consumed: with no further cross-worker hits the
    // next halving evicts the entry on plain (activity, stamp) order.
    for (uint64_t i = 100; i < 110; ++i)
        record_thrice(i);
    EXPECT_FALSE(index.OverlaySubsumes(0, PruneFpVec{{1000, 1}},
                                       PruneFpVec{}, &token));
}

TEST(PruneIndexTest, OverlayRoundTripsFieldToken)
{
    PruneIndex index;
    const uint64_t token = core::DifferentFromMatrix::FieldToken("cmd");
    index.RecordFieldCore(0, token, PruneFpVec{{1, 1}},
                          PruneFpVec{{2, 2}});
    uint64_t out_token = 0;
    EXPECT_TRUE(index.OverlaySubsumes(
        0, PruneFpVec{{1, 1}, {3, 3}}, PruneFpVec{{2, 2}, {4, 4}},
        &out_token));
    EXPECT_EQ(out_token, token);
    EXPECT_FALSE(index.OverlaySubsumes(0, PruneFpVec{{3, 3}},
                                       PruneFpVec{{2, 2}}, &out_token));
}

// ----------------------------------------------- lemma pool eviction

TEST(ClauseExchangeEvictionTest, CapBoundsPoolAndCursorsSkipEvicted)
{
    exec::ClauseExchange pool(/*shards=*/1, /*lemma_cap=*/4);
    exec::ClauseExchange::Cursor cursor;
    std::vector<exec::Lemma> fetched;

    for (uint64_t i = 0; i < 10; ++i)
        pool.Publish(/*publisher=*/0, exec::Lemma{{i, i}});
    EXPECT_EQ(pool.size(), 4u);
    EXPECT_EQ(pool.evicted(), 6);

    // A consumer that never fetched sees only the live window.
    pool.Fetch(/*consumer=*/1, &cursor, &fetched);
    EXPECT_EQ(fetched.size(), 4u);
    EXPECT_EQ(fetched.front(), (exec::Lemma{{6, 6}}));

    // Eviction forgets the lemma in the dedup set, so a re-discovery
    // re-publishes it (the activity signal).
    pool.Publish(0, exec::Lemma{{0, 0}});
    fetched.clear();
    pool.Fetch(1, &cursor, &fetched);
    ASSERT_EQ(fetched.size(), 1u);
    EXPECT_EQ(fetched.front(), (exec::Lemma{{0, 0}}));

    // A still-pooled lemma stays deduplicated.
    const int64_t published = pool.published();
    pool.Publish(0, exec::Lemma{{0, 0}});
    EXPECT_EQ(pool.published(), published);
}

// ------------------------------------------------------- end to end

using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

struct PipelineRun
{
    std::vector<WitnessSummary> witnesses;
    int64_t solver_queries = 0;
    int64_t states_pruned = 0;
    int64_t core_drops = 0;
    /** SAT calls on the home solver that ran out of conflict budget. */
    int64_t budget_exhausted = 0;
    size_t accepting_paths = 0;
};

PipelineRun
RunPipeline(const std::vector<const symexec::Program *> &clients,
            const symexec::Program *server,
            const core::MessageLayout &layout,
            const core::ServerExplorerConfig &server_config,
            size_t workers, const smt::SolverConfig &solver_config = {})
{
    smt::ExprContext ctx;
    smt::Solver solver(&ctx, solver_config);
    core::AchillesConfig config;
    config.layout = layout;
    config.clients = clients;
    config.server = server;
    config.server_config = server_config;
    config.server_config.engine.num_workers = workers;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    PipelineRun run;
    run.solver_queries =
        result.server.stats.Get("explorer.match_queries") +
        result.server.stats.Get("explorer.trojan_queries");
    run.states_pruned = result.server.stats.Get("explorer.states_pruned");
    run.core_drops = result.server.stats.Get("explorer.core_drops");
    run.budget_exhausted = solver.sat_counters().budget_exhausted;
    run.accepting_paths = result.server.accepting_paths.size();
    core::CanonicalHasher hasher(&ctx);
    for (const core::TrojanWitness &t : result.server.trojans) {
        run.witnesses.emplace_back(t.accept_label, t.concrete,
                                   hasher.HashExprs(t.definition));
    }
    std::sort(run.witnesses.begin(), run.witnesses.end());
    return run;
}

TEST(PruneIndexPipelineTest, WitnessesIdenticalAcrossWorkersAndIndex)
{
    // The hard determinism contract: every index hit answers exactly
    // what the skipped query would have answered, so witness sets are
    // bitwise identical at every worker count with the index on or
    // off. FSP exercises the overlay.
    const std::vector<symexec::Program> fsp_clients =
        fsp::MakeAllClients();
    std::vector<const symexec::Program *> clients;
    for (size_t i = 0; i < 2; ++i)
        clients.push_back(&fsp_clients[i]);
    const symexec::Program fsp_server = fsp::MakeServer();
    const core::MessageLayout fsp_layout = fsp::MakeLayout();

    core::ServerExplorerConfig on;
    core::ServerExplorerConfig off;
    off.use_prune_index = false;

    const PipelineRun baseline =
        RunPipeline(clients, &fsp_server, fsp_layout, on, 1);
    ASSERT_FALSE(baseline.witnesses.empty());
    for (size_t workers : {1, 2, 4, 8}) {
        const PipelineRun with_index =
            RunPipeline(clients, &fsp_server, fsp_layout, on, workers);
        const PipelineRun without_index =
            RunPipeline(clients, &fsp_server, fsp_layout, off, workers);
        EXPECT_EQ(with_index.witnesses, baseline.witnesses)
            << "index-on diverged at " << workers << " workers";
        EXPECT_EQ(without_index.witnesses, baseline.witnesses)
            << "index-off diverged at " << workers << " workers";
        EXPECT_LE(with_index.solver_queries, without_index.solver_queries)
            << "a subsumption hit can only skip queries";
    }
}

TEST(PruneIndexPipelineTest, TinyCapsNeverFlipVerdicts)
{
    // An overlay pinned at capacity (cap 2, far below the workload's
    // core count) must only cost skips: same witnesses, same pruning
    // decisions as the uncapped run -- the eviction acceptance
    // criterion.
    const symexec::Program client = synth::MakeGuardedClient(2);
    const std::vector<const symexec::Program *> clients{&client};
    const symexec::Program server = synth::MakeGuardedServer(2, 8);
    const core::MessageLayout layout = synth::MakeGuardedLayout();

    core::ServerExplorerConfig uncapped;
    core::ServerExplorerConfig capped;
    capped.prune_overlay_cap = 2;

    for (size_t workers : {1, 4}) {
        const PipelineRun big =
            RunPipeline(clients, &server, layout, uncapped, workers);
        const PipelineRun small =
            RunPipeline(clients, &server, layout, capped, workers);
        EXPECT_EQ(small.witnesses, big.witnesses);
        EXPECT_EQ(small.states_pruned, big.states_pruned);
    }
}

/** True when every witness of `sub` is also a witness of `super`
 *  (both sorted). */
bool
WitnessSubset(const PipelineRun &sub, const PipelineRun &super)
{
    return std::includes(super.witnesses.begin(), super.witnesses.end(),
                         sub.witnesses.begin(), sub.witnesses.end());
}

TEST(PruneIndexPipelineTest, BudgetedSolverNeverInventsWitnesses)
{
    // A conflict budget of 0 makes every query that needs search answer
    // kUnknown. kUnknown keeps predicates and states alive and records
    // no core, so the run explores at least the unbudgeted run's
    // accepting paths, drops nothing off a core, and any witness it
    // still emits is one the unbudgeted run emits too. Toy is used
    // because its queries do run out of budget (fsp's never need
    // search past propagation).
    const symexec::Program client = toy::MakeClient();
    const std::vector<const symexec::Program *> clients{&client};
    const symexec::Program server = toy::MakeServer();
    const core::MessageLayout layout = toy::MakeLayout();

    core::ServerExplorerConfig plain;
    smt::SolverConfig starved;
    starved.max_conflicts = 0;

    const PipelineRun baseline =
        RunPipeline(clients, &server, layout, plain, 1);
    ASSERT_FALSE(baseline.witnesses.empty());
    EXPECT_EQ(baseline.budget_exhausted, 0);

    const PipelineRun blind =
        RunPipeline(clients, &server, layout, plain, 1, starved);
    EXPECT_GT(blind.budget_exhausted, 0);
    EXPECT_EQ(blind.core_drops, 0);
    EXPECT_GE(blind.accepting_paths, baseline.accepting_paths);
    EXPECT_TRUE(WitnessSubset(blind, baseline));
}

TEST(PruneIndexPipelineTest, BudgetedSolverPrunesConservativelyOnGuarded)
{
    // On the guarded protocol the unbudgeted run prunes every region's
    // dead chain. Under a starved budget a query may still answer
    // kUnsat when propagation alone refutes it (a budget limits
    // search, it never forbids deciding) -- but pruning can only
    // shrink, no core is ever consumed, and no witness is invented.
    // Guarded never runs out of budget, so toy, whose queries do,
    // checks the same contract with kUnknown answers in play.
    core::ServerExplorerConfig plain;
    smt::SolverConfig starved;
    starved.max_conflicts = 0;
    const auto check = [&](const symexec::Program &client,
                           const symexec::Program &server,
                           const core::MessageLayout &layout) {
        const std::vector<const symexec::Program *> clients{&client};
        const PipelineRun real =
            RunPipeline(clients, &server, layout, plain, 1);
        const PipelineRun blind =
            RunPipeline(clients, &server, layout, plain, 1, starved);
        EXPECT_LE(blind.states_pruned, real.states_pruned);
        EXPECT_EQ(blind.core_drops, 0);
        EXPECT_GE(blind.accepting_paths, real.accepting_paths);
        EXPECT_TRUE(WitnessSubset(blind, real));
        return std::make_pair(real, blind);
    };

    const auto [guarded_real, guarded_blind] =
        check(synth::MakeGuardedClient(2), synth::MakeGuardedServer(2, 4),
              synth::MakeGuardedLayout());
    EXPECT_GT(guarded_real.states_pruned, 0);

    const auto [toy_real, toy_blind] = check(
        toy::MakeClient(), toy::MakeServer(), toy::MakeLayout());
    EXPECT_GT(toy_blind.budget_exhausted, 0);
}

}  // namespace
}  // namespace achilles
