// Achilles reproduction -- tests.
//
// The shared solver-services layer: assumption-prefix trail reuse
// (SAT-level prefix keeping and facade-level stream equivalence),
// conflict budgets (kUnknown conservatism, explorer no-drop contract),
// the standing model behind the concrete pre-filter (it satisfies
// every asserted constraint, so a pre-filter hit is a proof of kSat,
// and witness sets are identical with the filter on or off at every
// worker count), the cross-worker learned-clause exchange (pool
// semantics, lemma transfer between solvers, verdict stability,
// witness determinism at 1/2/4/8 workers with the exchange on and
// off), interval-checker core attribution (sound bound-pair cores
// restoring the interval fast path on the core-producing path), and
// the parity of the typed SAT counters with their registry values.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/achilles.h"
#include "exec/clause_exchange.h"
#include "proto/fsp/fsp_protocol.h"
#include "proto/toy/toy_protocol.h"
#include "smt/eval.h"
#include "smt/interval.h"
#include "smt/sat.h"
#include "smt/solver.h"
#include "support/rng.h"

namespace achilles {
namespace {

using smt::CheckResult;
using smt::CheckStatus;
using smt::ExprContext;
using smt::ExprRef;
using smt::IntervalChecker;
using smt::Lit;
using smt::Model;
using smt::SatSolver;
using smt::SatStatus;
using smt::Solver;
using smt::SolverConfig;

// ------------------------------------------------- SAT trail reuse

TEST(SatTrailReuseTest, PrefixKeptAcrossSolves)
{
    SatSolver sat;
    std::vector<Lit> v;
    for (int i = 0; i < 8; ++i)
        v.emplace_back(sat.NewVar(), false);
    for (int i = 0; i + 1 < 8; ++i)
        sat.AddBinary(v[i], v[i + 1]);
    sat.AddBinary(~v[3], ~v[4]);  // v3 and v4 conflict

    // Establishing {v0..v4} fails on the last assumption; the core
    // names the conflicting pair and the established prefix survives.
    ASSERT_EQ(sat.Solve({v[0], v[1], v[2], v[3], v[4]}),
              SatStatus::kUnsat);
    const std::vector<Lit> expected{v[3], v[4]};
    EXPECT_EQ(sat.unsat_core(), expected);

    // The follow-up shares the first four assumptions: the kept trail
    // answers without re-establishing them.
    ASSERT_EQ(sat.Solve({v[0], v[1], v[2], v[3]}), SatStatus::kSat);
    EXPECT_GE(sat.stats().Get("sat.trail_reuses"), 1);
    EXPECT_TRUE(sat.Value(v[0].var()));
    EXPECT_TRUE(sat.Value(v[3].var()));
    EXPECT_FALSE(sat.Value(v[4].var()));

    // Diverging at the first position falls back to a fresh stack and
    // still answers correctly.
    ASSERT_EQ(sat.Solve({~v[3], v[4]}), SatStatus::kSat);
    EXPECT_FALSE(sat.Value(v[3].var()));
    EXPECT_TRUE(sat.Value(v[4].var()));
}

TEST(SatTrailReuseTest, RandomStreamsMatchNoReuse)
{
    // Property: on identical clause sets and an identical stream of
    // assumption queries, trail reuse never changes a verdict.
    Rng rng(0x5eed5);
    constexpr int kVars = 14;
    SatSolver with, without;
    without.SetTrailReuse(false);
    for (int i = 0; i < kVars; ++i) {
        with.NewVar();
        without.NewVar();
    }
    for (int c = 0; c < 40; ++c) {
        std::vector<Lit> clause;
        const size_t len = 2 + rng.Below(3);
        for (size_t k = 0; k < len; ++k)
            clause.emplace_back(rng.Below(kVars), rng.Chance(0.5));
        with.AddClause(clause);
        without.AddClause(clause);
    }
    for (int q = 0; q < 200; ++q) {
        std::vector<Lit> assumptions;
        const size_t len = rng.Below(7);
        for (size_t k = 0; k < len; ++k)
            assumptions.emplace_back(rng.Below(kVars), rng.Chance(0.5));
        ASSERT_EQ(with.Solve(assumptions), without.Solve(assumptions))
            << "query " << q;
    }
    EXPECT_GE(with.stats().Get("sat.trail_reuses"), 1);
    EXPECT_EQ(without.stats().Get("sat.trail_reuses"), 0);
}

// ------------------------------------------- facade trail reuse

TEST(SolverTrailReuseTest, SharedPrefixStreamEquivalence)
{
    // The explorer's query shape -- one pathS prefix, many ¬pathC_i /
    // match probes iterated against it -- must answer identically with
    // trail reuse on and off, and the reuse must actually engage.
    ExprContext ctx;
    std::vector<ExprRef> bytes;
    for (int i = 0; i < 8; ++i)
        bytes.push_back(ctx.FreshVar("m", 8));
    std::vector<ExprRef> prefix;
    for (int i = 0; i < 8; ++i)
        prefix.push_back(ctx.MakeUlt(bytes[i], ctx.MakeConst(8, 200)));

    SolverConfig on_config;
    on_config.enable_cache = false;
    // Isolate the backend: with the pre-check on, the interval core
    // path would answer the range-conflicting probes before the SAT
    // trail ever gets a chance to be reused.
    on_config.use_interval_check = false;
    SolverConfig off_config = on_config;
    off_config.enable_trail_reuse = false;
    Solver on(&ctx, on_config);
    Solver off(&ctx, off_config);

    Rng rng(77);
    int unsat = 0;
    for (int q = 0; q < 120; ++q) {
        const size_t byte = rng.Below(8);
        // Mix satisfiable pins with range-conflicting ones.
        ExprRef probe =
            rng.Chance(0.4)
                ? ctx.MakeEq(bytes[byte], ctx.MakeConst(8, 250))
                : ctx.MakeNe(bytes[byte],
                             ctx.MakeConst(8, rng.Below(200)));
        const CheckResult a = on.CheckSatAssuming(prefix, {probe});
        const CheckResult b = off.CheckSatAssuming(prefix, {probe});
        ASSERT_EQ(a.status, b.status) << "query " << q;
        unsat += a == CheckResult::kUnsat ? 1 : 0;
    }
    EXPECT_GT(unsat, 0);
    EXPECT_GE(on.stats().Get("solver.trail_reuses"), 1);
    EXPECT_EQ(off.stats().Get("solver.trail_reuses"), 0);
}

// ---------------------------------------------- stream budgets

/** Pairwise-distinct small values: UNSAT but needs search (the
 *  interval checker cannot refute two-variable disequalities). */
std::vector<ExprRef>
HardUnsatQuery(ExprContext *ctx)
{
    std::vector<ExprRef> vars, query;
    for (int i = 0; i < 5; ++i) {
        vars.push_back(ctx->FreshVar("p", 8));
        query.push_back(
            ctx->MakeUlt(vars.back(), ctx->MakeConst(8, 4)));
    }
    for (size_t i = 0; i < vars.size(); ++i)
        for (size_t j = i + 1; j < vars.size(); ++j)
            query.push_back(ctx->MakeNe(vars[i], vars[j]));
    return query;
}

TEST(ConflictBudgetTest, ExhaustionIsUnknownUncachedAndCoreless)
{
    ExprContext ctx;
    SolverConfig config;
    config.max_conflicts = 0;
    Solver limited(&ctx, config);

    const std::vector<ExprRef> hard = HardUnsatQuery(&ctx);
    const CheckResult r = limited.CheckSat(hard);
    EXPECT_EQ(r, CheckResult::kUnknown);
    EXPECT_FALSE(r.has_core);
    // Budgeted queries bypass the incremental backend (the
    // kUnsat/kUnknown boundary must not depend on learned history),
    // and kUnknown is never cached: the repeat solves again.
    EXPECT_EQ(limited.stats().Get("solver.incremental_sat_calls"), 0);
    EXPECT_EQ(limited.CheckSat(hard), CheckResult::kUnknown);
    EXPECT_EQ(limited.stats().Get("solver.cache_hits"), 0);
    EXPECT_EQ(limited.stats().Get("solver.sat_calls"), 2);
}

// ---------------------------------------------------- standing models

TEST(StandingModelTest, ModelSatisfiesEveryAssertedConstraint)
{
    ExprContext ctx;
    Solver solver(&ctx);
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef y = ctx.FreshVar("y", 8);

    const std::vector<ExprRef> first{
        ctx.MakeUlt(x, ctx.MakeConst(8, 10)),
        ctx.MakeEq(y, ctx.MakeConst(8, 3))};
    ASSERT_EQ(solver.CheckSat(first), CheckResult::kSat);
    const Model *standing = solver.StandingModel();
    ASSERT_NE(standing, nullptr);
    for (ExprRef e : first)
        EXPECT_TRUE(smt::EvaluateBool(e, *standing));

    // The standing model rolls forward with later satisfiable queries.
    const std::vector<ExprRef> second{
        ctx.MakeUgt(x, ctx.MakeConst(8, 200))};
    ASSERT_EQ(solver.CheckSat(second), CheckResult::kSat);
    standing = solver.StandingModel();
    ASSERT_NE(standing, nullptr);
    EXPECT_TRUE(smt::EvaluateBool(second[0], *standing));

    // An unsatisfiable query leaves the last standing model in place.
    const std::vector<ExprRef> contradiction{
        ctx.MakeUlt(x, ctx.MakeConst(8, 1)),
        ctx.MakeUgt(x, ctx.MakeConst(8, 1))};
    ASSERT_EQ(solver.CheckSat(contradiction), CheckResult::kUnsat);
    EXPECT_NE(solver.StandingModel(), nullptr);
}

TEST(StandingModelTest, DisabledRetentionReturnsNull)
{
    ExprContext ctx;
    SolverConfig config;
    config.retain_models = false;
    Solver solver(&ctx, config);
    ExprRef x = ctx.FreshVar("x", 8);
    ASSERT_EQ(solver.CheckSat({ctx.MakeEq(x, ctx.MakeConst(8, 1))}),
              CheckResult::kSat);
    EXPECT_EQ(solver.StandingModel(), nullptr);
}

TEST(StandingModelTest, ConcretelyTrueAssignmentIsAProofOfSat)
{
    // The pre-filter's soundness argument, randomized: whenever a total
    // concrete assignment evaluates every assertion to true, a fresh
    // solver must answer kSat -- the assignment IS a witness, whatever
    // query produced it. (The converse seeds the trial pool: models
    // returned by the solver must evaluate to true.)
    ExprContext ctx;
    ExprRef a = ctx.FreshVar("a", 8);
    ExprRef b = ctx.FreshVar("b", 8);
    const std::vector<ExprRef> pool{
        ctx.MakeUlt(a, ctx.MakeConst(8, 200)),
        ctx.MakeUgt(a, ctx.MakeConst(8, 3)),
        ctx.MakeEq(ctx.MakeAnd(a, ctx.MakeConst(8, 1)),
                   ctx.MakeConst(8, 1)),
        ctx.MakeUle(b, a),
        ctx.MakeNe(b, ctx.MakeConst(8, 0)),
        ctx.MakeUlt(ctx.MakeAdd(a, b), ctx.MakeConst(8, 250))};

    Rng rng(0xba7c4);
    size_t concrete_hits = 0;
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<ExprRef> assertions;
        for (ExprRef e : pool)
            if (rng.Below(2) == 0)
                assertions.push_back(e);
        Model model;
        model.Set(a->VarId(), rng.Below(256));
        model.Set(b->VarId(), rng.Below(256));
        bool all_true = true;
        for (ExprRef e : assertions)
            all_true &= smt::EvaluateBool(e, model);
        if (!all_true)
            continue;
        ++concrete_hits;
        Solver fresh(&ctx);
        EXPECT_EQ(fresh.CheckSat(assertions), CheckResult::kSat);
    }
    EXPECT_GT(concrete_hits, 0u) << "trial pool never exercised the "
                                    "pre-filter direction";

    Solver solver(&ctx);
    Model model;
    ASSERT_EQ(solver.CheckSat(pool, &model), CheckResult::kSat);
    for (ExprRef e : pool)
        EXPECT_TRUE(smt::EvaluateBool(e, model));
}

// --------------------------------------------- counter parity

/** Every SatCounters field equals its registry value under the name
 *  the stats have always used. */
void
ExpectSatCounterParity(const SatSolver &sat)
{
    const smt::SatCounters c = sat.counters();
    const StatsRegistry &stats = sat.stats();
    const std::pair<const char *, int64_t> fields[] = {
        {"sat.solve_calls", c.solve_calls},
        {"sat.decisions", c.decisions},
        {"sat.propagations", c.propagations},
        {"sat.conflicts", c.conflicts},
        {"sat.learnt_clauses", c.learnt_clauses},
        {"sat.restarts", c.restarts},
        {"sat.budget_exhausted", c.budget_exhausted},
        {"sat.solution_reuses", c.solution_reuses},
        {"sat.trail_reuses", c.trail_reuses},
        {"sat.trail_levels_reused", c.trail_levels_reused},
        {"sat.core_minimize_probes", c.core_minimize_probes},
        {"sat.queue_pushes", c.queue_pushes},
    };
    for (const auto &[key, value] : fields)
        EXPECT_EQ(stats.Get(key), value) << key;
}

/**
 * A fixed query stream through a SatSolver and a facade Solver (shared
 * prefixes, hard refutations, model-producing queries), checking after
 * every query that the typed counters equal the flushed registry
 * values. Returns the facade's final SAT counters.
 */
smt::SatCounters
RunCounterParityStream()
{
    Rng rng(0xc0ffee);
    SatSolver sat;
    sat.SetMinimizeCore(true);
    constexpr int kVars = 16;
    for (int i = 0; i < kVars; ++i)
        sat.NewVar();
    for (int c = 0; c < 48; ++c) {
        std::vector<Lit> clause;
        const size_t len = 2 + rng.Below(2);
        for (size_t k = 0; k < len; ++k)
            clause.emplace_back(rng.Below(kVars), rng.Chance(0.5));
        sat.AddClause(clause);
    }
    for (int q = 0; q < 60; ++q) {
        std::vector<Lit> assumptions;
        const size_t len = rng.Below(6);
        for (size_t k = 0; k < len; ++k)
            assumptions.emplace_back(rng.Below(kVars), rng.Chance(0.5));
        sat.Solve(assumptions, q % 7 == 6 ? 1 : -1);
        ExpectSatCounterParity(sat);
    }

    ExprContext ctx;
    SolverConfig config;
    config.enable_cache = false;
    Solver solver(&ctx, config);
    std::vector<ExprRef> bytes;
    for (int i = 0; i < 6; ++i)
        bytes.push_back(ctx.FreshVar("m", 8));
    std::vector<ExprRef> prefix;
    for (ExprRef b : bytes)
        prefix.push_back(ctx.MakeUlt(b, ctx.MakeConst(8, 200)));
    const auto expect_parity = [&solver] {
        const smt::SatCounters &c = solver.sat_counters();
        EXPECT_EQ(solver.stats().Get("solver.sat_conflicts"), c.conflicts);
        EXPECT_EQ(solver.stats().Get("solver.sat_decisions"), c.decisions);
        EXPECT_EQ(solver.stats().Get("solver.sat_queue_pushes"),
                  c.queue_pushes);
        EXPECT_EQ(solver.stats().Get("solver.trail_reuses"),
                  c.trail_reuses);
    };
    for (int q = 0; q < 40; ++q) {
        const ExprRef probe = ctx.MakeNe(
            bytes[rng.Below(bytes.size())], ctx.MakeConst(8, rng.Below(250)));
        if (q % 8 == 7) {
            solver.CheckSat(HardUnsatQuery(&ctx));
        } else if (q % 5 == 4) {
            Model model;
            solver.CheckSatAssuming(prefix, {probe}, &model);
        } else {
            solver.CheckSatAssuming(prefix, {probe});
        }
        expect_parity();
    }
    EXPECT_GT(solver.sat_counters().conflicts, 0);
    EXPECT_GT(solver.sat_counters().trail_reuses, 0);
    return solver.sat_counters();
}

TEST(CounterParityTest, TypedCountersMatchRegistryAtOneAndFourWorkers)
{
    const smt::SatCounters serial = RunCounterParityStream();
    // Four workers run the same stream on their own solvers at once:
    // the counters are per instance, so each matches its registry and
    // all four agree with the serial run.
    std::vector<smt::SatCounters> parallel(4);
    std::vector<std::thread> workers;
    for (smt::SatCounters &out : parallel)
        workers.emplace_back([&out] { out = RunCounterParityStream(); });
    for (std::thread &t : workers)
        t.join();
    for (const smt::SatCounters &c : parallel) {
        EXPECT_EQ(c.conflicts, serial.conflicts);
        EXPECT_EQ(c.decisions, serial.decisions);
        EXPECT_EQ(c.trail_reuses, serial.trail_reuses);
    }
}

// --------------------------------------------- clause exchange

TEST(ClauseExchangeTest, PoolDedupCursorAndPublisherFilter)
{
    exec::ClauseExchange pool(4);
    const exec::Lemma one{{1, 2}};
    const exec::Lemma two{{3, 4}, {5, 6}};

    pool.Publish(0, one);
    pool.Publish(0, one);  // duplicate: dropped
    EXPECT_EQ(pool.published(), 1);
    EXPECT_EQ(pool.duplicates(), 1);
    EXPECT_EQ(pool.size(), 1u);

    // The publisher's own fetch skips its lemmas but advances the
    // cursor past them.
    exec::ClauseExchange::Cursor own_cursor, other_cursor;
    std::vector<exec::Lemma> out;
    EXPECT_EQ(pool.Fetch(0, &own_cursor, &out), 0u);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(pool.Fetch(1, &other_cursor, &out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], one);

    // A second fetch returns only what arrived since.
    pool.Publish(1, two);
    out.clear();
    EXPECT_EQ(pool.Fetch(1, &other_cursor, &out), 0u);  // own lemma
    EXPECT_EQ(pool.Fetch(0, &own_cursor, &out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], two);
}

TEST(ClauseExchangeTest, LemmaTransfersBetweenSolvers)
{
    // Solver A refutes a ∧ b (a conflict the interval checker cannot
    // see), exporting the two-guard lemma; solver B imports it and
    // still answers kUnsat -- the lemma is implied, so it can only
    // accelerate, never flip.
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef y = ctx.FreshVar("y", 8);
    ExprRef a = ctx.MakeEq(ctx.MakeXor(x, y), ctx.MakeConst(8, 1));
    ExprRef b = ctx.MakeEq(x, y);

    exec::ClauseExchange pool;
    exec::ClauseChannel channel_a(&pool, 0);
    exec::ClauseChannel channel_b(&pool, 1);
    SolverConfig base;
    base.enable_cache = false;
    base.clause_share_var_limit = ctx.NumVars();
    SolverConfig config_a = base;
    config_a.clause_sink = &channel_a;
    config_a.clause_source = &channel_a;
    SolverConfig config_b = base;
    config_b.clause_sink = &channel_b;
    config_b.clause_source = &channel_b;
    Solver solver_a(&ctx, config_a);
    Solver solver_b(&ctx, config_b);

    EXPECT_EQ(solver_a.CheckSat({a, b}), CheckResult::kUnsat);
    EXPECT_GE(solver_a.stats().Get("solver.lemmas_published"), 1);
    EXPECT_GE(pool.published(), 1);

    EXPECT_EQ(solver_b.CheckSat({a, b}), CheckResult::kUnsat);
    EXPECT_GE(solver_b.stats().Get("solver.lemmas_fetched"), 1);
    EXPECT_GE(solver_b.stats().Get("solver.lemmas_installed"), 1);
}

TEST(ClauseExchangeTest, ExchangeNeverFlipsVerdicts)
{
    // Property: two solvers trading lemmas through a shared pool answer
    // every query of a random stream exactly like an exchange-free
    // fresh-instance reference.
    ExprContext ctx;
    std::vector<ExprRef> vars;
    for (int i = 0; i < 4; ++i)
        vars.push_back(ctx.FreshVar("v", 4));

    exec::ClauseExchange pool;
    exec::ClauseChannel channel_a(&pool, 0);
    exec::ClauseChannel channel_b(&pool, 1);
    SolverConfig base;
    base.enable_cache = false;
    base.clause_share_var_limit = ctx.NumVars();
    SolverConfig config_a = base;
    config_a.clause_sink = &channel_a;
    config_a.clause_source = &channel_a;
    SolverConfig config_b = base;
    config_b.clause_sink = &channel_b;
    config_b.clause_source = &channel_b;
    Solver solver_a(&ctx, config_a);
    Solver solver_b(&ctx, config_b);

    SolverConfig fresh_config;
    fresh_config.enable_incremental = false;
    fresh_config.enable_cache = false;
    Solver reference(&ctx, fresh_config);

    Rng rng(0xbadc0de);
    auto random_atom = [&]() -> ExprRef {
        ExprRef a = vars[rng.Below(vars.size())];
        ExprRef b = rng.Chance(0.5)
                        ? vars[rng.Below(vars.size())]
                        : ctx.MakeConst(4, rng.Below(16));
        if (rng.Chance(0.3))
            a = ctx.MakeAdd(a, b);
        switch (rng.Below(4)) {
          case 0: return ctx.MakeEq(a, b);
          case 1: return ctx.MakeNe(a, b);
          case 2: return ctx.MakeUlt(a, b);
          default: return ctx.MakeUle(a, b);
        }
    };

    for (int iter = 0; iter < 300; ++iter) {
        std::vector<ExprRef> query;
        const size_t n = 1 + rng.Below(4);
        for (size_t i = 0; i < n; ++i)
            query.push_back(random_atom());
        Solver &solver = iter % 2 == 0 ? solver_a : solver_b;
        ASSERT_EQ(solver.CheckSat(query), reference.CheckSat(query))
            << "iter=" << iter;
    }
}

// ------------------------------------- interval core attribution

TEST(IntervalCoreTest, EmptyVariableAttributesBoundPair)
{
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef y = ctx.FreshVar("y", 8);
    IntervalChecker checker(&ctx);
    std::vector<uint32_t> core;
    ASSERT_TRUE(checker.DefinitelyUnsatWithCore(
        {ctx.MakeEq(y, ctx.MakeConst(8, 5)),
         ctx.MakeUlt(x, ctx.MakeConst(8, 10)),
         ctx.MakeUge(x, ctx.MakeConst(8, 20))},
        &core));
    // Only the lower-bound raiser and the upper-bound lowerer are
    // implicated; the unrelated equality is not.
    EXPECT_EQ(core, (std::vector<uint32_t>{1, 2}));
}

TEST(IntervalCoreTest, EvalRefutationAttributesSupport)
{
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 16);
    const std::vector<ExprRef> assertions{
        ctx.MakeUlt(x, ctx.MakeConst(16, 1000)),
        ctx.MakeUge(x, ctx.MakeConst(16, 100)),
        ctx.MakeUle(ctx.MakeAdd(x, ctx.MakeConst(16, 10)),
                    ctx.MakeConst(16, 50)),
    };
    IntervalChecker checker(&ctx);
    std::vector<uint32_t> core;
    ASSERT_TRUE(checker.DefinitelyUnsatWithCore(assertions, &core));
    // The refuted arithmetic atom plus both bound sources of x.
    EXPECT_EQ(core, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(IntervalCoreTest, FacadeFastPathRestoredWithCore)
{
    // PR 3 skipped the interval pre-check on the core path because the
    // checker could prove but not explain; with attribution the fast
    // path is back and refutations still come with a core.
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 8);
    Solver solver(&ctx);
    const std::vector<ExprRef> query{
        ctx.MakeUlt(x, ctx.MakeConst(8, 10)),
        ctx.MakeUge(x, ctx.MakeConst(8, 20))};
    const CheckResult r = solver.CheckSat(query);
    ASSERT_EQ(r, CheckResult::kUnsat);
    ASSERT_TRUE(r.has_core);
    EXPECT_EQ(r.core, (std::vector<uint32_t>{0, 1}));
    EXPECT_GE(solver.stats().Get("solver.interval_unsat"), 1);
    EXPECT_GE(solver.stats().Get("solver.interval_cores"), 1);
    // Neither backend was consulted: the pre-check decided alone.
    EXPECT_EQ(solver.stats().Get("solver.incremental_sat_calls"), 0);
    EXPECT_EQ(solver.stats().Get("solver.sat_calls"), 0);

    // The cached entry replays the interval core.
    const CheckResult replay = solver.CheckSat(query);
    ASSERT_TRUE(replay.has_core);
    EXPECT_EQ(replay.core, r.core);
    EXPECT_GE(solver.stats().Get("solver.cache_hits"), 1);
}

// ------------------------------------------- explorer contracts

using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

struct PipelineRun
{
    std::vector<WitnessSummary> witnesses;
    int64_t core_drops = 0;
    int64_t lemmas_published = 0;
    /** Home-solver SAT calls cut off by the conflict budget. */
    int64_t budget_exhausted = 0;
    size_t accepting_paths = 0;
};

/** One analysis of `config`'s protocol at `workers` workers on a
 *  fresh solver. */
PipelineRun
RunPipeline(core::AchillesConfig config, size_t workers,
            const SolverConfig &solver_config)
{
    ExprContext ctx;
    Solver solver(&ctx, solver_config);
    config.server_config.engine.num_workers = workers;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    PipelineRun run;
    run.core_drops = result.server.stats.Get("explorer.core_drops");
    run.lemmas_published =
        result.server.stats.Get("exec.lemmas_published");
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

/** FSP with two clients and the differentFrom matrix off, so core-guided
 *  drops fire. */
PipelineRun
RunFspPipeline(size_t workers, const SolverConfig &solver_config)
{
    const std::vector<symexec::Program> clients = fsp::MakeAllClients();
    const symexec::Program server = fsp::MakeServer();
    core::AchillesConfig config;
    config.layout = fsp::MakeLayout();
    for (size_t i = 0; i < 2; ++i)
        config.clients.push_back(&clients[i]);
    config.server = &server;
    config.server_config.use_different_from = false;
    config.compute_different_from = false;
    return RunPipeline(config, workers, solver_config);
}

/** The toy protocol; its Trojan and pruning queries need search, so a
 *  zero conflict budget leaves some of them kUnknown. */
PipelineRun
RunToyPipeline(size_t workers, bool prefilter,
               const SolverConfig &solver_config = {})
{
    const symexec::Program client = toy::MakeClient();
    const symexec::Program server = toy::MakeServer();
    core::AchillesConfig config;
    config.layout = toy::MakeLayout(/*mask_crc=*/true);
    config.clients = {&client};
    config.server = &server;
    config.server_config.use_concrete_prefilter = prefilter;
    return RunPipeline(config, workers, solver_config);
}

TEST(StandingModelTest, WitnessesIdenticalAcrossPrefilterAndWorkers)
{
    // The pre-filter only ever answers a kSat the solver would have
    // answered too, so the pre-filter off and on, each at 1/2/4/8
    // workers, must produce bitwise identical witness sets.
    const PipelineRun reference = RunToyPipeline(1, false);
    ASSERT_FALSE(reference.witnesses.empty());
    for (const bool prefilter : {false, true}) {
        for (const size_t workers : {1, 2, 4, 8}) {
            EXPECT_EQ(RunToyPipeline(workers, prefilter).witnesses,
                      reference.witnesses)
                << "prefilter=" << prefilter << " workers=" << workers;
        }
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

TEST(ConflictBudgetTest, ExplorerNeverDropsOnConflictBudget)
{
    // A conflict-starved solver can answer kUnknown, so the explorer
    // must never consume cores: zero core-guided drops, exploration
    // stays a (conservative) superset of the unbudgeted run's accepting
    // paths, and whatever witness it still emits is one the unbudgeted
    // run emits too. FSP decides every query without a conflict, so it
    // checks the core gate alone; on the toy protocol the budget
    // actually runs out.
    SolverConfig unbudgeted;
    SolverConfig budgeted;
    budgeted.max_conflicts = 0;

    const PipelineRun fsp_real = RunFspPipeline(1, unbudgeted);
    const PipelineRun fsp_run = RunFspPipeline(1, budgeted);
    EXPECT_GT(fsp_real.core_drops, 0);
    EXPECT_EQ(fsp_run.core_drops, 0);
    EXPECT_GE(fsp_run.accepting_paths, fsp_real.accepting_paths);
    EXPECT_TRUE(WitnessSubset(fsp_run, fsp_real));

    const PipelineRun toy_real = RunToyPipeline(1, true, unbudgeted);
    const PipelineRun toy_run = RunToyPipeline(1, true, budgeted);
    EXPECT_GT(toy_run.budget_exhausted, 0);
    EXPECT_EQ(toy_run.core_drops, 0);
    EXPECT_GE(toy_run.accepting_paths, toy_real.accepting_paths);
    EXPECT_TRUE(WitnessSubset(toy_run, toy_real));
}

TEST(ClauseExchangeTest, WitnessesIdenticalAcrossWorkersAndExchange)
{
    // The hard determinism constraint: Trojan witness sets (labels,
    // definitions, concrete bytes) are bitwise identical at every
    // worker count whether the clause exchange is on or off. Shared
    // lemmas are implied, so they may steer CDCL but never flip a
    // verdict, and witness bytes always come from the exchange-free
    // fresh-instance path.
    SolverConfig on_config;   // exchange on (the default)
    SolverConfig off_config;
    off_config.share_learned_clauses = false;

    const PipelineRun baseline = RunFspPipeline(1, on_config);
    ASSERT_FALSE(baseline.witnesses.empty());
    for (size_t workers : {1, 2, 4, 8}) {
        const PipelineRun on = RunFspPipeline(workers, on_config);
        const PipelineRun off = RunFspPipeline(workers, off_config);
        EXPECT_EQ(on.witnesses, baseline.witnesses)
            << "exchange-on diverged at " << workers << " workers";
        EXPECT_EQ(off.witnesses, baseline.witnesses)
            << "exchange-off diverged at " << workers << " workers";
        if (workers == 1) {
            EXPECT_EQ(on.lemmas_published, 0);  // no siblings, no pool
        }
    }
}

}  // namespace
}  // namespace achilles
