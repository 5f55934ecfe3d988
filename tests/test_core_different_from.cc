// Achilles reproduction -- tests.
//
// The differentFrom matrix on independent-field branches (value-class
// grouping, transitive predicate drops without solver calls), the
// negate operator on layouts with no analyzed fields, and the parallel
// exploration determinism guarantee: identical TrojanWitness sets
// (definitions and concrete bytes) for any worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "core/achilles.h"
#include "core/different_from.h"
#include "core/negate.h"
#include "core/server_explorer.h"
#include "proto/fsp/fsp_protocol.h"
#include "proto/synth/synth_family.h"
#include "proto/toy/toy_protocol.h"
#include "smt/solver.h"
#include "symexec/program.h"

namespace achilles {
namespace core {
namespace {

using smt::ExprContext;
using smt::ExprRef;
using smt::Solver;
using symexec::Program;
using symexec::ProgramBuilder;
using symexec::Val;

class DifferentFromTest : public ::testing::Test
{
  protected:
    ExprContext ctx;
    Solver solver{&ctx};

    /** Two single-byte fields: a (offset 0) and b (offset 1). */
    MessageLayout
    TwoFieldLayout()
    {
        MessageLayout layout(2);
        layout.AddField("a", 0, 1).AddField("b", 1, 1);
        return layout;
    }

    /** Predicate sending [a_value, v] with v constrained to [lo, hi). */
    ClientPathPredicate
    MakePred(uint64_t id, uint64_t a_value, uint64_t lo, uint64_t hi)
    {
        ClientPathPredicate pred;
        pred.id = id;
        pred.origin = "manual";
        ExprRef v = ctx.FreshVar("in", 8);
        pred.bytes = {ctx.MakeConst(8, a_value), v};
        pred.constraints = {ctx.MakeUge(v, ctx.MakeConst(8, lo)),
                            ctx.MakeUlt(v, ctx.MakeConst(8, hi))};
        return pred;
    }

    std::vector<ExprRef>
    FreshMessage(uint32_t len)
    {
        std::vector<ExprRef> msg;
        for (uint32_t i = 0; i < len; ++i)
            msg.push_back(ctx.FreshVar("msg", 8));
        return msg;
    }
};

TEST_F(DifferentFromTest, ValueClassesAndPairwiseDifference)
{
    const MessageLayout layout = TwoFieldLayout();
    // Field a takes values {1, 2, 1}: two value classes; field b has the
    // same range everywhere: one class, never different.
    std::vector<ClientPathPredicate> preds{MakePred(0, 1, 0, 10),
                                           MakePred(1, 2, 0, 10),
                                           MakePred(2, 1, 0, 10)};
    std::vector<ExprRef> msg = FreshMessage(layout.length());
    NegateOperator negate_op(&ctx, &solver, &layout, msg);
    DifferentFromMatrix matrix(&ctx, &solver, &layout);
    matrix.Compute(preds, &negate_op);

    EXPECT_TRUE(matrix.IsIndependentField("a"));
    EXPECT_TRUE(matrix.IsIndependentField("b"));
    EXPECT_FALSE(matrix.IsIndependentField("nonexistent"));

    // Across classes of a: 1 is unattainable for the a=2 predicate.
    EXPECT_TRUE(matrix.Different(0, 1, "a"));
    EXPECT_TRUE(matrix.Different(1, 0, "a"));
    // Within a class: never different.
    EXPECT_FALSE(matrix.Different(0, 2, "a"));
    EXPECT_FALSE(matrix.Different(2, 0, "a"));
    // Same b range everywhere: no differences.
    EXPECT_FALSE(matrix.Different(0, 1, "b"));
    EXPECT_FALSE(matrix.Different(1, 2, "b"));
    // Unknown fields answer false (the conservative default).
    EXPECT_FALSE(matrix.Different(0, 1, "nonexistent"));

    const std::vector<uint32_t> cls = matrix.SameValueClass(0, "a");
    EXPECT_EQ(cls, (std::vector<uint32_t>{0, 2}));
}

TEST_F(DifferentFromTest, OverlappingRangesAreDifferentBothWays)
{
    const MessageLayout layout = TwoFieldLayout();
    // b ranges [0,10) vs [5,20): each contains values outside the other.
    std::vector<ClientPathPredicate> preds{MakePred(0, 1, 0, 10),
                                           MakePred(1, 1, 5, 20)};
    std::vector<ExprRef> msg = FreshMessage(layout.length());
    NegateOperator negate_op(&ctx, &solver, &layout, msg);
    DifferentFromMatrix matrix(&ctx, &solver, &layout);
    matrix.Compute(preds, &negate_op);

    ASSERT_TRUE(matrix.IsIndependentField("b"));
    EXPECT_TRUE(matrix.Different(0, 1, "b"));
    EXPECT_TRUE(matrix.Different(1, 0, "b"));
    // Nested ranges: [5,10) has nothing outside [0,10) ... but not vice
    // versa (strict subset relation shows as one-directional difference).
    std::vector<ClientPathPredicate> nested{MakePred(0, 1, 0, 10),
                                            MakePred(1, 1, 5, 10)};
    DifferentFromMatrix nested_matrix(&ctx, &solver, &layout);
    nested_matrix.Compute(nested, &negate_op);
    EXPECT_TRUE(nested_matrix.Different(0, 1, "b"));
    EXPECT_FALSE(nested_matrix.Different(1, 0, "b"));
}

TEST_F(DifferentFromTest, IndependentFieldBranchDropsWholeValueClass)
{
    const MessageLayout layout = TwoFieldLayout();
    // Two value classes for a ({p0,p1}: a=1, {p2,p3}: a=2) with
    // distinguishable b constraints so predicates do not deduplicate.
    std::vector<ClientPathPredicate> preds{MakePred(0, 1, 0, 10),
                                           MakePred(1, 1, 100, 200),
                                           MakePred(2, 2, 0, 10),
                                           MakePred(3, 2, 0, 50)};
    std::vector<ExprRef> msg = FreshMessage(layout.length());
    NegateOperator negate_op(&ctx, &solver, &layout, msg);
    std::vector<NegatedPredicate> negations;
    for (const ClientPathPredicate &pred : preds)
        negations.push_back(negate_op.Negate(pred));
    DifferentFromMatrix matrix(&ctx, &solver, &layout);
    matrix.Compute(preds, &negate_op);
    ASSERT_TRUE(matrix.IsIndependentField("a"));

    // Server branching on the independent field a: the a==2 branch drops
    // the whole a=1 class -- one solver refutation for p0, then p1 goes
    // transitively via the matrix without a match query.
    ProgramBuilder b("server");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 2);
        Val a = b.Local(
            "a", 8, ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 0)));
        b.If(a == 2, [&] { b.MarkAccept("two"); },
             [&] { b.MarkReject("other"); });
    });
    const Program server = b.Build();

    ServerExplorer explorer(&ctx, &solver, &server, &layout, &preds,
                            &negations, &matrix, {}, msg);
    ServerAnalysis analysis = explorer.Run();
    EXPECT_GE(analysis.stats.Get("explorer.predicate_drops"), 1);
    EXPECT_GE(analysis.stats.Get("explorer.difffrom_drops"), 1);
    // The a==2 path still carries Trojans (e.g. b outside both ranges).
    ASSERT_FALSE(analysis.trojans.empty());
    for (const TrojanWitness &t : analysis.trojans) {
        EXPECT_EQ(t.concrete[0], 2);     // on the accepting branch
        EXPECT_GE(t.concrete[1], 50);    // outside every client b range
    }
}

TEST_F(DifferentFromTest, NegateOnZeroFieldLayouts)
{
    // A layout with no fields at all: nothing is analyzable, so the
    // negation must come back unusable (and must not crash).
    MessageLayout empty_layout(4);
    std::vector<ExprRef> msg = FreshMessage(4);
    NegateOperator negate_op(&ctx, &solver, &empty_layout, msg);

    ClientPathPredicate pred;
    pred.id = 0;
    for (int i = 0; i < 4; ++i)
        pred.bytes.push_back(ctx.MakeConst(8, 0x10 + i));
    NegatedPredicate negation = negate_op.Negate(pred);
    EXPECT_FALSE(negation.Usable());
    EXPECT_FALSE(negation.exact);
    EXPECT_TRUE(negation.fields.empty());
    // The empty disjunction is False: no message is certified Trojan.
    EXPECT_TRUE(negation.Disjunction(&ctx)->IsFalse());
    EXPECT_EQ(negation.FieldDisjunct("anything"), nullptr);

    // Fully masked layout: same outcome through the masking path.
    MessageLayout masked_layout(4);
    masked_layout.AddField("f", 0, 4).Mask("f");
    NegateOperator masked_op(&ctx, &solver, &masked_layout, msg);
    NegatedPredicate masked = masked_op.Negate(pred);
    EXPECT_FALSE(masked.Usable());

    // An explorer running with only unusable negations prunes every
    // state (no message can be certified as a Trojan) and emits none.
    ProgramBuilder b("accept-all");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 4);
        b.MarkAccept("all");
    });
    const Program server = b.Build();
    std::vector<ClientPathPredicate> preds{pred};
    std::vector<NegatedPredicate> negations{negation};
    ServerExplorer explorer(&ctx, &solver, &server, &empty_layout, &preds,
                            &negations, nullptr, {}, msg);
    ServerAnalysis analysis = explorer.Run();
    EXPECT_TRUE(analysis.trojans.empty());
    EXPECT_GE(analysis.stats.Get("explorer.blocked_by_unusable_negation"),
              1);
}

// --------------------------------- cells decided by evaluation

/** The constraints of `pred` transitively linked to `value`'s
 *  variables: the field definition the matrix compares. */
std::vector<ExprRef>
LinkedConstraints(const ExprContext &ctx, const ClientPathPredicate &pred,
                  ExprRef value)
{
    std::unordered_set<uint32_t> vars;
    ctx.CollectVars(value, &vars);
    std::vector<ExprRef> out;
    std::vector<bool> taken(pred.constraints.size(), false);
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t k = 0; k < pred.constraints.size(); ++k) {
            if (taken[k])
                continue;
            std::unordered_set<uint32_t> cvars;
            ctx.CollectVars(pred.constraints[k], &cvars);
            bool touches = false;
            for (uint32_t v : cvars)
                touches |= vars.count(v) != 0;
            if (!touches)
                continue;
            taken[k] = changed = true;
            out.push_back(pred.constraints[k]);
            vars.insert(cvars.begin(), cvars.end());
        }
    }
    return out;
}

struct MatrixCounts
{
    int64_t concrete_cells = 0;
    int64_t solver_queries = 0;
};

/**
 * Computes the matrix for `clients`, then recomputes every cell the
 * way the matrix did before constant cells were evaluated -- a
 * NegateFieldAgainst negation plus a solver call for every pair of
 * distinct value classes -- and expects Different() to agree on every
 * (i, j, field).
 */
MatrixCounts
ExpectCellsMatchSolver(const std::vector<const Program *> &clients,
                       const MessageLayout &layout)
{
    ExprContext ctx;
    Solver solver(&ctx);
    const std::vector<ClientPathPredicate> preds =
        ExtractClientPredicate(&ctx, &solver, clients, layout).paths;
    std::vector<ExprRef> msg;
    for (uint32_t i = 0; i < layout.length(); ++i)
        msg.push_back(ctx.FreshVar("msg", 8));
    NegateOperator negate_op(&ctx, &solver, &layout, msg);
    DifferentFromMatrix matrix(&ctx, &solver, &layout);
    matrix.Compute(preds, &negate_op);

    MatrixCounts counts;
    counts.concrete_cells = matrix.stats().Get("difffrom.concrete_cells");
    counts.solver_queries = matrix.stats().Get("difffrom.solver_queries");

    Solver check(&ctx);
    const size_t n = preds.size();
    for (const FieldSpec &field : layout.AnalyzedFields()) {
        if (!matrix.IsIndependentField(field.name))
            continue;
        ExprRef probe = ctx.FreshVar("check_probe", field.size * 8);
        // Class representatives are the first member of each class.
        std::vector<uint32_t> rep(n);
        for (size_t i = 0; i < n; ++i)
            rep[i] = matrix.SameValueClass(i, field.name).front();
        std::map<std::pair<uint32_t, uint32_t>, bool> solved;
        for (size_t i = 0; i < n; ++i) {
            for (size_t j = 0; j < n; ++j) {
                const uint32_t a = rep[i], b = rep[j];
                bool expected = false;
                if (a != b) {
                    auto it = solved.find({a, b});
                    if (it == solved.end()) {
                        bool sat = false;
                        ExprRef neg_b = negate_op.NegateFieldAgainst(
                            preds[b], field, probe);
                        if (neg_b != nullptr) {
                            ExprRef value =
                                layout.FieldExpr(&ctx, preds[a].bytes,
                                                 field);
                            std::vector<ExprRef> query =
                                LinkedConstraints(ctx, preds[a], value);
                            query.push_back(ctx.MakeEq(probe, value));
                            query.push_back(neg_b);
                            sat = check.CheckSat(query) ==
                                  smt::CheckResult::kSat;
                        }
                        it = solved.emplace(std::make_pair(a, b), sat)
                                 .first;
                    }
                    expected = it->second;
                }
                if (matrix.Different(i, j, field.name) != expected) {
                    ADD_FAILURE() << field.name << " cell (" << i << ", "
                                  << j << ") should be " << expected;
                    return counts;
                }
            }
        }
    }
    return counts;
}

TEST(DifferentFromCellsTest, EvaluatedCellsMatchSolverOnFsp)
{
    const std::vector<Program> fsp_clients = fsp::MakeAllClients();
    std::vector<const Program *> clients;
    for (const Program &c : fsp_clients)
        clients.push_back(&c);
    const MatrixCounts counts =
        ExpectCellsMatchSolver(clients, fsp::MakeLayout());
    EXPECT_GT(counts.concrete_cells, 0);
}

TEST(DifferentFromCellsTest, EvaluatedCellsMatchSolverOnSampledProtocols)
{
    for (double coupling : {0.0, 0.5, 1.0}) {
        for (uint64_t seed : {0, 1}) {
            synth::FamilyKnobs knobs;
            knobs.dispatch_depth = 3;
            knobs.field_coupling = coupling;
            knobs.seed = seed;
            SCOPED_TRACE(synth::ProtocolName(knobs));
            const Program client =
                synth::MakeSampledClient(synth::SampleParams(knobs));
            const MatrixCounts counts = ExpectCellsMatchSolver(
                {&client}, synth::MakeSampledLayout());
            // The cmd field is a constant in every predicate: all its
            // cells are evaluated.
            EXPECT_GT(counts.concrete_cells, 0);
            // Uncoupled, arg and tag are independent ranged variables:
            // their cells compare non-constant sets on the solver.
            if (coupling == 0.0) {
                EXPECT_GT(counts.solver_queries, 0);
            }
        }
    }
}

/** Witness summary that is comparable across independent runs. */
using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t, size_t>;

std::vector<WitnessSummary>
SummarizeTrojans(const ExprContext &ctx,
                 const std::vector<TrojanWitness> &trojans)
{
    std::vector<WitnessSummary> out;
    out.reserve(trojans.size());
    CanonicalHasher hasher(&ctx);
    for (const TrojanWitness &t : trojans) {
        out.emplace_back(t.accept_label, t.concrete,
                         hasher.HashExprs(t.definition),
                         t.definition.size());
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(ParallelDeterminismTest, IdenticalTrojanWitnessSetsAcrossWorkerCounts)
{
    const Program client = toy::MakeClient();
    const Program server = toy::MakeServer();

    auto run = [&](size_t workers) {
        // Each run gets its own context + solver: the comparison below
        // is between fully independent executions.
        ExprContext ctx;
        Solver solver(&ctx);
        AchillesConfig config;
        config.layout = toy::MakeLayout(/*mask_crc=*/true);
        config.clients = {&client};
        config.server = &server;
        config.server_config.engine.num_workers = workers;
        AchillesResult result = RunAchilles(&ctx, &solver, config);
        return SummarizeTrojans(ctx, result.server.trojans);
    };

    const std::vector<WitnessSummary> serial = run(1);
    const std::vector<WitnessSummary> parallel = run(4);
    ASSERT_FALSE(serial.empty());
    // Bitwise-identical witness sets: same accept labels, same concrete
    // bytes, alpha-equivalent definitions, across num_workers in {1, 4}.
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeterminismTest, IncrementalBackendPreservesWitnessBytes)
{
    // The acceptance contract of the incremental solver backend: Trojan
    // witness sets (definitions and concrete bytes) stay bitwise
    // identical to the fresh-instance path at every worker count,
    // because every model is produced by the deterministic fresh path
    // regardless of what the persistent SAT instance has accumulated.
    const Program client = toy::MakeClient();
    const Program server = toy::MakeServer();

    auto run = [&](size_t workers, bool incremental) {
        ExprContext ctx;
        smt::SolverConfig solver_config;
        solver_config.enable_incremental = incremental;
        Solver solver(&ctx, solver_config);
        AchillesConfig config;
        config.layout = toy::MakeLayout(/*mask_crc=*/true);
        config.clients = {&client};
        config.server = &server;
        config.server_config.engine.num_workers = workers;
        AchillesResult result = RunAchilles(&ctx, &solver, config);
        return SummarizeTrojans(ctx, result.server.trojans);
    };

    const std::vector<WitnessSummary> fresh = run(1, false);
    ASSERT_FALSE(fresh.empty());
    for (size_t workers : {1, 2, 4, 8})
        EXPECT_EQ(run(workers, true), fresh) << "workers=" << workers;
}

}  // namespace
}  // namespace core
}  // namespace achilles
