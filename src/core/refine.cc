// Achilles reproduction -- core library.

#include "core/refine.h"

#include <algorithm>

#include "core/client_extractor.h"
#include "smt/eval.h"

namespace achilles {
namespace core {

RefinementResult
ConfirmWitnesses(smt::ExprContext *ctx, smt::Solver *solver,
                 const std::vector<const symexec::Program *> &clients,
                 const MessageLayout &layout,
                 const std::vector<TrojanWitness> &witnesses)
{
    RefinementResult result;

    // Extract the (possibly larger / more complete) client predicate
    // once; the per-witness check is then a satisfiability query per
    // client path: "can this path's message equal the witness bytes?"
    const ClientPredicate pc =
        ExtractClientPredicate(ctx, solver, clients, layout);

    // Analyzed byte offsets: masked fields are not part of the Trojan
    // claim and are not pinned.
    std::vector<uint32_t> analyzed;
    for (const FieldSpec &f : layout.AnalyzedFields())
        for (uint32_t k = 0; k < f.size; ++k)
            analyzed.push_back(f.offset + k);

    for (const TrojanWitness &witness : witnesses) {
        bool producible = false;
        for (size_t p = 0; p < pc.paths.size() && !producible; ++p) {
            const ClientPathPredicate &pred = pc.paths[p];
            // Path constraints as the base, pinned-byte equalities as
            // the extras: every witness re-asserts the same base, which
            // the incremental backend turns into assumption flips over
            // already-blasted CNF with the common trail prefix kept.
            std::vector<smt::ExprRef> pins;
            pins.reserve(analyzed.size());
            for (uint32_t off : analyzed) {
                pins.push_back(ctx->MakeEq(
                    pred.bytes[off],
                    ctx->MakeConst(8, witness.concrete[off])));
            }
            ++result.solver_queries;
            producible = solver->CheckSatAssuming(pred.constraints, pins) ==
                         smt::CheckResult::kSat;
        }
        result.verdicts.push_back(producible ? WitnessVerdict::kRefuted
                                             : WitnessVerdict::kConfirmed);
        if (producible)
            ++result.refuted;
        else
            ++result.confirmed;
    }
    return result;
}

std::vector<std::vector<uint8_t>>
EnumerateTrojans(smt::ExprContext *ctx, smt::Solver *solver,
                 const MessageLayout &layout, const TrojanWitness &witness,
                 size_t max_count)
{
    std::vector<std::vector<uint8_t>> out;
    if (max_count == 0 || witness.message_vars.empty())
        return out;

    std::vector<uint32_t> analyzed;
    for (const FieldSpec &f : layout.AnalyzedFields())
        for (uint32_t k = 0; k < f.size; ++k)
            analyzed.push_back(f.offset + k);

    std::vector<smt::ExprRef> query = witness.definition;
    for (size_t n = 0; n < max_count; ++n) {
        smt::Model model;
        if (solver->CheckSat(query, &model) != smt::CheckResult::kSat)
            break;
        std::vector<uint8_t> concrete;
        concrete.reserve(witness.message_vars.size());
        for (uint32_t var : witness.message_vars)
            concrete.push_back(static_cast<uint8_t>(model.Get(var)));
        // Block this assignment of the analyzed bytes.
        std::vector<smt::ExprRef> differs;
        for (uint32_t off : analyzed) {
            differs.push_back(ctx->MakeNe(
                ctx->VarById(witness.message_vars[off]),
                ctx->MakeConst(8, concrete[off])));
        }
        query.push_back(ctx->MakeOrList(differs));
        out.push_back(std::move(concrete));
    }
    return out;
}

}  // namespace core
}  // namespace achilles
