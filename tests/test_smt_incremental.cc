// Achilles reproduction -- tests.
//
// The incremental assumption-based solver backend: equivalence with the
// fresh-instance path on handcrafted and random query streams, the
// CheckSatAssuming surface, solution reuse and learnt-clause retention
// across queries, cache model-upgrade semantics, and the stale-model
// regression (every non-kSat return path must clear the caller's
// Model).

#include <gtest/gtest.h>

#include <vector>

#include "smt/eval.h"
#include "smt/expr.h"
#include "smt/sat.h"
#include "smt/solver.h"
#include "support/rng.h"

namespace achilles {
namespace smt {
namespace {

class IncrementalSolverTest : public ::testing::Test
{
  protected:
    ExprContext ctx;
    Solver solver{&ctx};
};

TEST_F(IncrementalSolverTest, ModelLessQueriesUseIncrementalBackend)
{
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef q1 = ctx.MakeUlt(x, ctx.MakeConst(8, 10));
    ExprRef q2 = ctx.MakeUgt(x, ctx.MakeConst(8, 3));
    EXPECT_EQ(solver.CheckSat({q1}), CheckResult::kSat);
    EXPECT_EQ(solver.CheckSat({q1, q2}), CheckResult::kSat);
    EXPECT_GE(solver.stats().Get("solver.incremental_sat_calls"), 2);
    EXPECT_EQ(solver.stats().Get("solver.sat_calls"), 0);

    // A model request routes to the fresh-instance path.
    Model model;
    ExprRef q3 = ctx.MakeEq(x, ctx.MakeConst(8, 7));
    ASSERT_EQ(solver.CheckSat({q3}, &model), CheckResult::kSat);
    EXPECT_EQ(model.Get(x->VarId()), 7u);
    EXPECT_EQ(solver.stats().Get("solver.sat_calls"), 1);
}

TEST_F(IncrementalSolverTest, CheckSatAssumingMatchesConjunction)
{
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef y = ctx.FreshVar("y", 8);
    std::vector<ExprRef> base{ctx.MakeUlt(x, ctx.MakeConst(8, 100)),
                              ctx.MakeEq(y, ctx.MakeAdd(x, x))};
    ExprRef in_range = ctx.MakeUlt(y, ctx.MakeConst(8, 250));
    ExprRef conflict = ctx.MakeUgt(x, ctx.MakeConst(8, 200));

    EXPECT_EQ(solver.CheckSatAssuming(base, {in_range}),
              CheckResult::kSat);
    EXPECT_EQ(solver.CheckSatAssuming(base, {conflict}),
              CheckResult::kUnsat);
    // Same answers as the one-vector form.
    std::vector<ExprRef> joined = base;
    joined.push_back(conflict);
    EXPECT_EQ(solver.CheckSat(joined), CheckResult::kUnsat);
}

TEST_F(IncrementalSolverTest, SharedPrefixStreamFlipsAssumptionsOnly)
{
    // The explorer's Trojan-loop shape: one pathS, many ¬pathC_i. After
    // the first query blasts the prefix, later queries must not rebuild
    // it (no fresh sat_calls; one incremental call per query).
    std::vector<ExprRef> bytes;
    for (int i = 0; i < 8; ++i)
        bytes.push_back(ctx.FreshVar("m", 8));
    std::vector<ExprRef> prefix;
    for (int i = 0; i < 8; ++i)
        prefix.push_back(ctx.MakeUlt(bytes[i], ctx.MakeConst(8, 200)));

    Rng rng(42);
    int sat = 0, unsat = 0;
    for (int i = 0; i < 50; ++i) {
        ExprRef neg = ctx.MakeNe(bytes[rng.Below(8)],
                                 ctx.MakeConst(8, rng.Below(200)));
        const CheckResult r = solver.CheckSatAssuming(prefix, {neg});
        (r == CheckResult::kSat ? sat : unsat) += 1;
        EXPECT_NE(r, CheckResult::kUnknown);
    }
    EXPECT_GT(sat, 0);
    EXPECT_EQ(solver.stats().Get("solver.sat_calls"), 0);
}

TEST_F(IncrementalSolverTest, CachedSatEntryUpgradesToModel)
{
    // First ask without a model (incremental path caches result-only),
    // then with one: the facade must re-solve on the fresh path, return
    // a valid witness, and serve later model requests from the cache.
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef q = ctx.MakeEq(ctx.MakeMul(x, ctx.MakeConst(8, 3)),
                           ctx.MakeConst(8, 21));
    EXPECT_EQ(solver.CheckSat({q}), CheckResult::kSat);
    EXPECT_EQ(solver.stats().Get("solver.sat_calls"), 0);

    Model model;
    ASSERT_EQ(solver.CheckSat({q}, &model), CheckResult::kSat);
    EXPECT_TRUE(EvaluateBool(q, model));
    EXPECT_GE(solver.stats().Get("solver.cache_model_upgrades"), 1);
    const int64_t fresh_calls = solver.stats().Get("solver.sat_calls");

    Model again;
    ASSERT_EQ(solver.CheckSat({q}, &again), CheckResult::kSat);
    EXPECT_EQ(solver.stats().Get("solver.sat_calls"), fresh_calls);
    EXPECT_EQ(again.Get(x->VarId()), model.Get(x->VarId()));
}

TEST_F(IncrementalSolverTest, StaleModelClearedOnEveryUnsatPath)
{
    // Regression: the interval-UNSAT early return (and the trivial-unsat
    // return) used to leave the caller's Model untouched, so reusing one
    // Model object across queries read the previous query's values.
    ExprRef x = ctx.FreshVar("x", 8);
    Model model;
    ASSERT_EQ(solver.CheckSat({ctx.MakeEq(x, ctx.MakeConst(8, 42))},
                              &model),
              CheckResult::kSat);
    ASSERT_EQ(model.Get(x->VarId()), 42u);

    // Interval-refuted UNSAT.
    EXPECT_EQ(solver.CheckSat({ctx.MakeUlt(x, ctx.MakeConst(8, 10)),
                               ctx.MakeUgt(x, ctx.MakeConst(8, 20))},
                              &model),
              CheckResult::kUnsat);
    EXPECT_FALSE(model.Has(x->VarId()));
    EXPECT_TRUE(model.values().empty());

    // Trivially-false assertion.
    ASSERT_EQ(solver.CheckSat({ctx.MakeEq(x, ctx.MakeConst(8, 42))},
                              &model),
              CheckResult::kSat);
    EXPECT_EQ(solver.CheckSat({ctx.False()}, &model), CheckResult::kUnsat);
    EXPECT_TRUE(model.values().empty());

    // SAT-search-refuted UNSAT (interval checker cannot see through
    // xor): model must still come back empty.
    ASSERT_EQ(solver.CheckSat({ctx.MakeEq(x, ctx.MakeConst(8, 42))},
                              &model),
              CheckResult::kSat);
    ExprRef y = ctx.FreshVar("y", 8);
    EXPECT_EQ(solver.CheckSat({ctx.MakeEq(ctx.MakeXor(x, y),
                                          ctx.MakeConst(8, 1)),
                               ctx.MakeEq(x, y)},
                              &model),
              CheckResult::kUnsat);
    EXPECT_TRUE(model.values().empty());

    // Cache-served UNSAT clears too.
    ASSERT_EQ(solver.CheckSat({ctx.MakeEq(x, ctx.MakeConst(8, 42))},
                              &model),
              CheckResult::kSat);
    EXPECT_EQ(solver.CheckSat({ctx.MakeUlt(x, ctx.MakeConst(8, 10)),
                               ctx.MakeUgt(x, ctx.MakeConst(8, 20))},
                              &model),
              CheckResult::kUnsat);
    EXPECT_TRUE(model.values().empty());
    EXPECT_GE(solver.stats().Get("solver.cache_hits"), 1);
}

TEST_F(IncrementalSolverTest, BudgetExhaustionIsUnknownAndUncached)
{
    SolverConfig config;
    config.max_conflicts = 2;
    Solver limited(&ctx, config);
    // Pairwise-distinct pigeonhole instance, too hard for 2 conflicts.
    std::vector<ExprRef> vars, query;
    for (int i = 0; i < 5; ++i) {
        vars.push_back(ctx.FreshVar("p", 8));
        query.push_back(ctx.MakeUlt(vars.back(), ctx.MakeConst(8, 4)));
    }
    for (size_t i = 0; i < vars.size(); ++i)
        for (size_t j = i + 1; j < vars.size(); ++j)
            query.push_back(ctx.MakeNe(vars[i], vars[j]));

    EXPECT_EQ(limited.CheckSat(query), CheckResult::kUnknown);
    // Budgeted queries bypass the incremental backend: spending the
    // budget against history-dependent learned clauses would make the
    // kUnsat/kUnknown boundary depend on the query stream.
    EXPECT_EQ(limited.stats().Get("solver.incremental_sat_calls"), 0);
    EXPECT_GE(limited.stats().Get("solver.sat_calls"), 1);
    // Not cached: the repeat costs another solve attempt, no cache hit.
    EXPECT_EQ(limited.CheckSat(query), CheckResult::kUnknown);
    EXPECT_EQ(limited.stats().Get("solver.cache_hits"), 0);
}

TEST_F(IncrementalSolverTest, RandomStreamsAgreeWithFreshInstances)
{
    // Property: on a stream of random small queries over shared
    // variables, the persistent backend and a cache-less fresh-instance
    // solver must produce identical verdicts.
    Rng rng(0xfeedbead);
    SolverConfig fresh_config;
    fresh_config.enable_incremental = false;
    fresh_config.enable_cache = false;
    Solver fresh(&ctx, fresh_config);

    std::vector<ExprRef> vars;
    for (int i = 0; i < 4; ++i)
        vars.push_back(ctx.FreshVar("v", 4));

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

    for (int iter = 0; iter < 200; ++iter) {
        std::vector<ExprRef> query;
        const size_t n = 1 + rng.Below(4);
        for (size_t i = 0; i < n; ++i)
            query.push_back(random_atom());
        const CheckResult inc = solver.CheckSat(query);
        const CheckResult ref = fresh.CheckSat(query);
        ASSERT_EQ(inc, ref) << "iter=" << iter;
    }
    EXPECT_GE(solver.stats().Get("solver.incremental_sat_calls"), 1);
}

// ----------------------------------------------------------------- SAT

TEST(SatIncrementalTest, SolutionReuseAcrossAssumptionSets)
{
    SatSolver sat;
    std::vector<Lit> vars;
    for (int i = 0; i < 8; ++i)
        vars.emplace_back(sat.NewVar(), false);
    // Chain: v0 ∨ v1, v1 ∨ v2, ...
    for (int i = 0; i + 1 < 8; ++i)
        sat.AddBinary(vars[i], vars[i + 1]);

    ASSERT_EQ(sat.Solve({vars[0]}), SatStatus::kSat);
    const int64_t decisions = sat.stats().Get("sat.decisions");
    // A second call whose assumptions the standing model already
    // satisfies must be answered by solution reuse, without search.
    std::vector<Lit> compatible;
    for (int i = 0; i < 8; ++i) {
        if (sat.Value(vars[i].var()))
            compatible.push_back(vars[i]);
    }
    ASSERT_FALSE(compatible.empty());
    ASSERT_EQ(sat.Solve(compatible), SatStatus::kSat);
    EXPECT_EQ(sat.stats().Get("sat.decisions"), decisions);
    EXPECT_GE(sat.stats().Get("sat.solution_reuses"), 1);

    // Flipping to an incompatible assumption forces a real search and
    // still answers correctly.
    ASSERT_EQ(sat.Solve({~vars[0], ~vars[1]}), SatStatus::kUnsat);
    ASSERT_EQ(sat.Solve({~vars[0], vars[1]}), SatStatus::kSat);
    EXPECT_FALSE(sat.Value(vars[0].var()));
    EXPECT_TRUE(sat.Value(vars[1].var()));
}

TEST(SatIncrementalTest, ReduceDBEvictsAndStaysCorrect)
{
    // Pigeonhole instances force plenty of learnt clauses; with a tiny
    // retention cap, ReduceDB must run (evicting + garbage-collecting
    // the arena) and the verdict must stay UNSAT across repeated calls.
    SatSolver sat;
    sat.SetLearntCap(8);
    const int holes = 6, pigeons = 7;
    std::vector<std::vector<uint32_t>> var(pigeons,
                                           std::vector<uint32_t>(holes));
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            var[p][h] = sat.NewVar();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h)
            clause.emplace_back(var[p][h], false);
        sat.AddClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                sat.AddBinary(Lit(var[p1][h], true), Lit(var[p2][h], true));

    EXPECT_EQ(sat.Solve(), SatStatus::kUnsat);
    EXPECT_GE(sat.stats().Get("sat.reduce_dbs"), 1);
    EXPECT_GE(sat.stats().Get("sat.learnts_removed"), 1);
    // Still answers correctly after eviction.
    EXPECT_EQ(sat.Solve(), SatStatus::kUnsat);
}

}  // namespace
}  // namespace smt
}  // namespace achilles
