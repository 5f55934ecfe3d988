// Achilles reproduction -- negate-operator micro-benchmarks (ablation).
//
// Measures the preprocessing phase building blocks: negation of the
// real FSP client predicates (exact fast path), the fresh-copy encoding
// with its overlap check (proved without the solver for an injective
// field expression, solver-backed otherwise), and the differentFrom
// precomputation.

#include <benchmark/benchmark.h>

#include "core/client_extractor.h"
#include "core/different_from.h"
#include "core/negate.h"
#include "proto/fsp/fsp_protocol.h"

using namespace achilles;
using namespace achilles::core;

namespace {

struct FspPreds
{
    smt::ExprContext ctx;
    smt::Solver solver{&ctx};
    MessageLayout layout = fsp::MakeLayout();
    std::vector<symexec::Program> clients = fsp::MakeAllClients();
    ClientPredicate pc;
    std::vector<smt::ExprRef> message;

    FspPreds()
    {
        std::vector<const symexec::Program *> ptrs;
        for (const auto &c : clients)
            ptrs.push_back(&c);
        pc = ExtractClientPredicate(&ctx, &solver, ptrs, layout);
        for (uint32_t i = 0; i < layout.length(); ++i)
            message.push_back(ctx.FreshVar("msg", 8));
    }
};

void
BM_NegateFspPredicates(benchmark::State &state)
{
    FspPreds fixture;
    for (auto _ : state) {
        NegateOperator op(&fixture.ctx, &fixture.solver, &fixture.layout,
                          fixture.message);
        size_t usable = 0;
        for (const ClientPathPredicate &pred : fixture.pc.paths)
            usable += op.Negate(pred).Usable() ? 1 : 0;
        benchmark::DoNotOptimize(usable);
    }
    state.counters["predicates"] =
        static_cast<double>(fixture.pc.paths.size());
}
BENCHMARK(BM_NegateFspPredicates);

void
BM_DifferentFromPrecompute(benchmark::State &state)
{
    FspPreds fixture;
    for (auto _ : state) {
        NegateOperator op(&fixture.ctx, &fixture.solver, &fixture.layout,
                          fixture.message);
        DifferentFromMatrix matrix(&fixture.ctx, &fixture.solver,
                                   &fixture.layout);
        matrix.Compute(fixture.pc.paths, &op);
        benchmark::DoNotOptimize(
            matrix.IsIndependentField("cmd"));
    }
}
BENCHMARK(BM_DifferentFromPrecompute);

/** Negates one predicate whose crc field is (λ·mul) ⊕ 0x5a, λ < 100. */
void
NegateComplexCrc(benchmark::State &state, uint64_t mul)
{
    smt::ExprContext ctx;
    smt::Solver solver(&ctx);
    MessageLayout layout(2);
    layout.AddField("a", 0, 1).AddField("crc", 1, 1);
    std::vector<smt::ExprRef> msg{ctx.FreshVar("m", 8),
                                  ctx.FreshVar("m", 8)};
    smt::ExprRef lam = ctx.FreshVar("lam", 8);
    ClientPathPredicate pred;
    pred.bytes = {lam, ctx.MakeXor(ctx.MakeMul(lam, ctx.MakeConst(8, mul)),
                                   ctx.MakeConst(8, 0x5a))};
    pred.constraints = {ctx.MakeUlt(lam, ctx.MakeConst(8, 100))};
    for (auto _ : state) {
        NegateOperator op(&ctx, &solver, &layout, msg);
        benchmark::DoNotOptimize(op.Negate(pred).fields.size());
    }
}

/** λ·13 ⊕ 0x5a is injective: the overlap check is proved, no solver. */
void
BM_OverlapProvedInjective(benchmark::State &state)
{
    NegateComplexCrc(state, 13);
}
BENCHMARK(BM_OverlapProvedInjective);

/** λ·12 ⊕ 0x5a loses the top bits: the overlap check runs the solver. */
void
BM_OverlapCheckSolver(benchmark::State &state)
{
    NegateComplexCrc(state, 12);
}
BENCHMARK(BM_OverlapCheckSolver);

}  // namespace

BENCHMARK_MAIN();
