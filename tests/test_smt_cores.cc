// Achilles reproduction -- tests.
//
// Unsat cores over assumptions, end to end: analyze-final extraction
// and refute-only deletion minimization in the SAT solver, caller-index
// mapping and cache round-trips in the Solver facade, and the two
// standing contracts at the explorer level -- witness sets bitwise
// identical across worker counts 1/2/4/8 with cores on or off, and
// core-guided drops never firing on kUnknown or budgeted queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/achilles.h"
#include "core/path_predicate.h"
#include "proto/fsp/fsp_protocol.h"
#include "smt/sat.h"
#include "smt/solver.h"

namespace achilles {
namespace {

using smt::CheckResult;
using smt::CheckStatus;
using smt::ExprContext;
using smt::ExprRef;
using smt::Lit;
using smt::Model;
using smt::SatSolver;
using smt::SatStatus;
using smt::Solver;
using smt::SolverConfig;

// ---------------------------------------------------------------- SAT

TEST(SatCoreTest, ConflictingAssumptionPairIsTheCore)
{
    SatSolver solver;
    const uint32_t a = solver.NewVar();
    const uint32_t b = solver.NewVar();
    const uint32_t c = solver.NewVar();
    solver.AddBinary(Lit(a, true), Lit(b, true));  // ¬a ∨ ¬b

    const std::vector<Lit> assumptions{Lit(c, false), Lit(a, false),
                                       Lit(b, false)};
    ASSERT_EQ(solver.Solve(assumptions), SatStatus::kUnsat);
    // c is irrelevant; the core is {a, b} in assumption order.
    const std::vector<Lit> expected{Lit(a, false), Lit(b, false)};
    EXPECT_EQ(solver.unsat_core(), expected);

    // Without the conflicting pair the instance is satisfiable again
    // (the refutation was per-query, nothing was pinned).
    EXPECT_EQ(solver.Solve({Lit(c, false), Lit(a, false)}),
              SatStatus::kSat);
    EXPECT_TRUE(solver.unsat_core().empty());
}

TEST(SatCoreTest, FalsifiedAssumptionCoreViaImplicationChain)
{
    SatSolver solver;
    const uint32_t a = solver.NewVar();
    const uint32_t x = solver.NewVar();
    const uint32_t b = solver.NewVar();
    solver.AddBinary(Lit(a, true), Lit(x, false));  // a -> x
    solver.AddBinary(Lit(x, true), Lit(b, true));   // x -> ¬b

    // Establishing a propagates ¬b, so assuming b afterwards fails;
    // the core must name both ends of the chain.
    ASSERT_EQ(solver.Solve({Lit(a, false), Lit(b, false)}),
              SatStatus::kUnsat);
    const std::vector<Lit> expected{Lit(a, false), Lit(b, false)};
    EXPECT_EQ(solver.unsat_core(), expected);
}

TEST(SatCoreTest, DeletionMinimizationProbesLargeCoresOnly)
{
    // a -> x, b -> y, c -> z, (¬x ∨ ¬y ∨ ¬z): propagation derives ¬z
    // from the ternary once x and y stand, so establishing c conflicts
    // with all three assumptions in the analyze-final core. The
    // deletion loop probes every member (none is droppable here --
    // each pair is satisfiable) and keeps the core conservative.
    SatSolver solver;
    solver.SetMinimizeCore(true);
    const uint32_t a = solver.NewVar();
    const uint32_t b = solver.NewVar();
    const uint32_t c = solver.NewVar();
    const uint32_t x = solver.NewVar();
    const uint32_t y = solver.NewVar();
    const uint32_t z = solver.NewVar();
    solver.AddBinary(Lit(a, true), Lit(x, false));
    solver.AddBinary(Lit(b, true), Lit(y, false));
    solver.AddBinary(Lit(c, true), Lit(z, false));
    solver.AddTernary(Lit(x, true), Lit(y, true), Lit(z, true));

    ASSERT_EQ(
        solver.Solve({Lit(a, false), Lit(b, false), Lit(c, false)}),
        SatStatus::kUnsat);
    const std::vector<Lit> expected{Lit(a, false), Lit(b, false),
                                    Lit(c, false)};
    EXPECT_EQ(solver.unsat_core(), expected);
    EXPECT_GE(solver.stats().Get("sat.core_minimize_probes"), 3);

    // Cores of at most two members skip the loop by design: a
    // conflicting pair is already minimal in practice, and the probes'
    // root backtracking would churn the reusable assumption trail.
    SatSolver pair;
    pair.SetMinimizeCore(true);
    const uint32_t p = pair.NewVar();
    const uint32_t q = pair.NewVar();
    pair.AddBinary(Lit(p, true), Lit(q, true));
    ASSERT_EQ(pair.Solve({Lit(p, false), Lit(q, false)}),
              SatStatus::kUnsat);
    const std::vector<Lit> pair_core{Lit(p, false), Lit(q, false)};
    EXPECT_EQ(pair.unsat_core(), pair_core);
    EXPECT_EQ(pair.stats().Get("sat.core_minimize_probes"), 0);
}

TEST(SatCoreTest, InstanceLevelUnsatHasEmptyCore)
{
    SatSolver solver;
    const uint32_t a = solver.NewVar();
    const uint32_t b = solver.NewVar();
    solver.AddUnit(Lit(a, false));
    EXPECT_FALSE(solver.AddUnit(Lit(a, true)));  // contradiction
    EXPECT_EQ(solver.Solve({Lit(b, false)}), SatStatus::kUnsat);
    // UNSAT regardless of assumptions: the empty core says so.
    EXPECT_TRUE(solver.unsat_core().empty());
}

// ------------------------------------------------------------- Solver

class SolverCoreTest : public ::testing::Test
{
  protected:
    ExprContext ctx;
    Solver solver{&ctx};

    ExprRef
    Lt(ExprRef v, uint64_t k)
    {
        return ctx.MakeUlt(v, ctx.MakeConst(v->width(), k));
    }
    ExprRef
    Ge(ExprRef v, uint64_t k)
    {
        return ctx.MakeUge(v, ctx.MakeConst(v->width(), k));
    }

    /** Pairwise-distinct small values: UNSAT but needs search. */
    std::vector<ExprRef>
    HardUnsatQuery()
    {
        std::vector<ExprRef> vars, query;
        for (int i = 0; i < 5; ++i) {
            vars.push_back(ctx.FreshVar("p", 8));
            query.push_back(Lt(vars.back(), 4));
        }
        for (size_t i = 0; i < vars.size(); ++i)
            for (size_t j = i + 1; j < vars.size(); ++j)
                query.push_back(ctx.MakeNe(vars[i], vars[j]));
        return query;
    }
};

TEST_F(SolverCoreTest, CoreMapsToCallerIndices)
{
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef y = ctx.FreshVar("y", 8);
    const CheckResult r =
        solver.CheckSat({ctx.MakeEq(y, ctx.MakeConst(8, 5)), Lt(x, 10),
                         Ge(x, 20)});
    ASSERT_EQ(r, CheckResult::kUnsat);
    ASSERT_TRUE(r.has_core);
    EXPECT_EQ(r.core, (std::vector<uint32_t>{1, 2}));
}

TEST_F(SolverCoreTest, ExtrasIndexAfterBase)
{
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef y = ctx.FreshVar("y", 8);
    const std::vector<ExprRef> base{ctx.MakeEq(y, ctx.MakeConst(8, 5)),
                                    Lt(x, 10)};
    const CheckResult r = solver.CheckSatAssuming(base, {Ge(x, 20)});
    ASSERT_EQ(r, CheckResult::kUnsat);
    ASSERT_TRUE(r.has_core);
    EXPECT_EQ(r.core, (std::vector<uint32_t>{1, 2}));
}

TEST_F(SolverCoreTest, DuplicatesReportFirstOccurrence)
{
    ExprRef x = ctx.FreshVar("x", 8);
    const CheckResult r =
        solver.CheckSat({Lt(x, 10), Ge(x, 20), Lt(x, 10)});
    ASSERT_EQ(r, CheckResult::kUnsat);
    ASSERT_TRUE(r.has_core);
    EXPECT_EQ(r.core, (std::vector<uint32_t>{0, 1}));
}

TEST_F(SolverCoreTest, TriviallyFalseAssertionIsItsOwnCore)
{
    ExprRef x = ctx.FreshVar("x", 8);
    const CheckResult r =
        solver.CheckSat({Lt(x, 10), ctx.MakeConst(1, 0)});
    ASSERT_EQ(r, CheckResult::kUnsat);
    ASSERT_TRUE(r.has_core);
    EXPECT_EQ(r.core, (std::vector<uint32_t>{1}));
}

TEST_F(SolverCoreTest, MemoCacheReplaysCores)
{
    ExprRef x = ctx.FreshVar("x", 8);
    const std::vector<ExprRef> query{Lt(x, 10), Ge(x, 20)};
    const CheckResult first = solver.CheckSat(query);
    ASSERT_TRUE(first.has_core);
    const int64_t hits_before = solver.stats().Get("solver.cache_hits");
    const CheckResult second = solver.CheckSat(query);
    EXPECT_EQ(solver.stats().Get("solver.cache_hits"), hits_before + 1);
    ASSERT_TRUE(second.has_core);
    EXPECT_EQ(second.core, first.core);
    // The cached core re-maps per call: same query, different
    // presentation order, different caller indices.
    const CheckResult swapped = solver.CheckSat({Ge(x, 20), Lt(x, 10)});
    ASSERT_TRUE(swapped.has_core);
    EXPECT_EQ(swapped.core, (std::vector<uint32_t>{0, 1}));
}

TEST_F(SolverCoreTest, BudgetedQueriesNeverCarryCores)
{
    // Budgeted queries bypass the incremental backend entirely: an easy
    // UNSAT still answers kUnsat but must not explain itself (the
    // kUnsat/kUnknown boundary would otherwise depend on history), and
    // a hard one answers kUnknown with no core.
    SolverConfig config;
    config.max_conflicts = 2;
    Solver limited(&ctx, config);
    ExprRef x = ctx.FreshVar("x", 8);
    const CheckResult easy = limited.CheckSat({Lt(x, 10), Ge(x, 20)});
    EXPECT_EQ(easy, CheckResult::kUnsat);
    EXPECT_FALSE(easy.has_core);
    const CheckResult hard = limited.CheckSat(HardUnsatQuery());
    EXPECT_EQ(hard, CheckResult::kUnknown);
    EXPECT_FALSE(hard.has_core);
}

TEST_F(SolverCoreTest, ModelRequestsTakeTheCorelessFreshPath)
{
    ExprRef x = ctx.FreshVar("x", 8);
    Model model;
    const CheckResult r =
        solver.CheckSat({Lt(x, 10), Ge(x, 20)}, &model);
    EXPECT_EQ(r, CheckResult::kUnsat);
    EXPECT_FALSE(r.has_core);
    EXPECT_TRUE(model.values().empty());
}

TEST_F(SolverCoreTest, DisabledCoresNeverSurface)
{
    SolverConfig config;
    config.enable_cores = false;
    Solver plain(&ctx, config);
    ExprRef x = ctx.FreshVar("x", 8);
    const CheckResult r = plain.CheckSat({Lt(x, 10), Ge(x, 20)});
    EXPECT_EQ(r, CheckResult::kUnsat);
    EXPECT_FALSE(r.has_core);
}

// ----------------------------------------------------------- explorer

using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

struct PipelineRun
{
    std::vector<WitnessSummary> witnesses;
    int64_t core_drops = 0;
    int64_t match_queries = 0;
};

PipelineRun
RunFspPipeline(size_t workers, bool cores, bool difffrom,
               int64_t max_conflicts)
{
    ExprContext ctx;
    SolverConfig solver_config;
    solver_config.enable_cores = cores;
    solver_config.max_conflicts = max_conflicts;
    Solver solver(&ctx, solver_config);

    const std::vector<symexec::Program> clients = fsp::MakeAllClients();
    const symexec::Program server = fsp::MakeServer();
    core::AchillesConfig config;
    config.layout = fsp::MakeLayout();
    for (size_t i = 0; i < 2; ++i)
        config.clients.push_back(&clients[i]);
    config.server = &server;
    config.server_config.engine.num_workers = workers;
    config.server_config.use_unsat_cores = cores;
    config.server_config.use_different_from = difffrom;
    config.compute_different_from = difffrom;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    PipelineRun run;
    run.core_drops = result.server.stats.Get("explorer.core_drops");
    run.match_queries =
        result.server.stats.Get("explorer.match_queries");
    core::CanonicalHasher hasher(&ctx);
    for (const core::TrojanWitness &t : result.server.trojans) {
        run.witnesses.emplace_back(t.accept_label, t.concrete,
                                   hasher.HashExprs(t.definition));
    }
    std::sort(run.witnesses.begin(), run.witnesses.end());
    return run;
}

TEST(ExplorerCoreTest, WitnessSetsIdenticalAcrossWorkersAndCores)
{
    // The standing contract, with the new machinery in the loop: cores
    // only accelerate drops that are already sound, so every (worker
    // count, cores on/off) combination produces the same witnesses.
    // differentFrom stays off so the core-guided drops actually fire.
    const PipelineRun baseline = RunFspPipeline(
        /*workers=*/1, /*cores=*/false, /*difffrom=*/false, -1);
    ASSERT_FALSE(baseline.witnesses.empty());
    bool any_core_drops = false;
    for (size_t workers : {1, 2, 4, 8}) {
        const PipelineRun off = RunFspPipeline(workers, false, false, -1);
        const PipelineRun on = RunFspPipeline(workers, true, false, -1);
        EXPECT_EQ(off.witnesses, baseline.witnesses)
            << "no-cores diverged at " << workers << " workers";
        EXPECT_EQ(on.witnesses, baseline.witnesses)
            << "cores diverged at " << workers << " workers";
        EXPECT_LE(on.match_queries, off.match_queries);
        any_core_drops |= on.core_drops > 0;
    }
    // The acceleration must actually engage somewhere in the sweep.
    EXPECT_TRUE(any_core_drops);
}

TEST(ExplorerCoreTest, BudgetedSolverNeverCoreDrops)
{
    // With a conflict budget the solver can answer kUnknown; the
    // explorer must fall back to plain per-predicate queries -- zero
    // core-guided drops, even with the toggle on. Worker solvers copy
    // the home solver's budget, so the parallel planes are held to the
    // same contract.
    for (size_t workers : {1, 4}) {
        const PipelineRun run = RunFspPipeline(
            workers, /*cores=*/true, /*difffrom=*/false,
            /*max_conflicts=*/3);
        EXPECT_EQ(run.core_drops, 0) << workers << " workers";
        EXPECT_GT(run.match_queries, 0) << workers << " workers";
    }
}

}  // namespace
}  // namespace achilles
