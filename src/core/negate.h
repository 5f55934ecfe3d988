// Achilles reproduction -- core library.
//
// The custom negate operator (paper Section 3.2, "Negating Path
// Predicates"). Negating the client predicate PC introduces a universal
// quantifier that SMT solvers handle poorly; Achilles instead
// under-approximates negate(pathC) as a disjunction of per-field
// negations over the server's message variables:
//
//   field value is a concrete constant C    ->  M.f != C
//   field value is a pure input variable λ
//     with constraints S(λ)                 ->  ¬S(M.f)   (substitution)
//   field value is a complex expression e(λ...)
//     with constraints S(λ...)              ->  M.f == e(λ') ∧ ¬S(λ')
//                                               (fresh λ', existential)
//   field value unconstrained / S empty     ->  abandoned for this field
//
// As in Section 4.1, each generated field negation is checked for
// overlap with the original field definition; negations that overlap are
// discarded, so the negate operator never introduces false positives.
// The check needs no solver when e is an injective function of its one
// variable λ (add/sub/xor with a constant, mul by an odd constant, not,
// zext, sext, concat with a constant) and S mentions only λ: then
// e(λ) == e(λ') forces λ == λ', and the overlap query S(λ) ∧ ¬S(λ) is
// UNSAT by construction. Every other complex expression still goes to
// the solver.

#ifndef ACHILLES_CORE_NEGATE_H_
#define ACHILLES_CORE_NEGATE_H_

#include <string>
#include <vector>

#include "core/message.h"
#include "core/path_predicate.h"
#include "smt/solver.h"

namespace achilles {
namespace core {

/** One per-field negation disjunct. */
struct FieldNegation
{
    std::string field;
    /** Negation over the server message vars (plus fresh aux vars). */
    smt::ExprRef expr = nullptr;
    /** True when this disjunct exactly complements the field's values. */
    bool exact = false;
};

/** The (under-approximate) negation of one client path predicate. */
struct NegatedPredicate
{
    uint64_t pred_id = 0;
    std::vector<FieldNegation> fields;
    /**
     * True when the disjunction is the exact complement of the client
     * path predicate (the "quantifier elimination succeeded" fast path):
     * every analyzed field is a constant or an invertible copy of an
     * independent input variable.
     */
    bool exact = false;

    /** Whether any field could be negated at all. */
    bool Usable() const { return !fields.empty(); }

    /** The disjunction as a single width-1 expression. */
    smt::ExprRef
    Disjunction(smt::ExprContext *ctx) const
    {
        std::vector<smt::ExprRef> parts;
        parts.reserve(fields.size());
        for (const auto &f : fields)
            parts.push_back(f.expr);
        return ctx->MakeOrList(parts);
    }

    /** The negation restricted to a single field (null if abandoned). */
    smt::ExprRef
    FieldDisjunct(const std::string &field) const
    {
        for (const auto &f : fields)
            if (f.field == field)
                return f.expr;
        return nullptr;
    }
};

/** Statistics from a batch of negations. */
struct NegateStats
{
    size_t exact_predicates = 0;
    size_t approx_predicates = 0;
    size_t abandoned_fields = 0;
    size_t overlap_discarded = 0;
    /** Overlap checks answered UNSAT by injectivity, without a solver. */
    size_t overlap_proved_injective = 0;
};

/**
 * Computes negations of client path predicates against a fixed server
 * message (the vector of symbolic message byte variables the server is
 * executed on).
 */
class NegateOperator
{
  public:
    NegateOperator(smt::ExprContext *ctx, smt::Solver *solver,
                   const MessageLayout *layout,
                   std::vector<smt::ExprRef> server_message);

    /** Negate one client path predicate. */
    NegatedPredicate Negate(const ClientPathPredicate &pred);

    /**
     * Negate only one field of a predicate against an arbitrary probe
     * variable (used by the differentFrom precomputation, which compares
     * field value sets rather than whole messages). Returns null when
     * the field negation is abandoned.
     */
    smt::ExprRef NegateFieldAgainst(const ClientPathPredicate &pred,
                                    const FieldSpec &field,
                                    smt::ExprRef probe);

    const NegateStats &stats() const { return stats_; }

    /** Server-side expression for a field of the analyzed message. */
    smt::ExprRef
    ServerFieldExpr(const FieldSpec &field) const
    {
        return layout_->FieldExpr(ctx_, server_message_, field);
    }

  private:
    /**
     * Core of the per-field negation: negation of `pred`'s field value
     * set, phrased over `target` (a server field expression or a probe
     * variable). Returns {expr, exact} with expr == null if abandoned.
     */
    FieldNegation NegateField(const ClientPathPredicate &pred,
                              const FieldSpec &field, smt::ExprRef target);

    /** Constraints of `pred` mentioning any of the given variables. */
    std::vector<smt::ExprRef> ConstraintsTouching(
        const ClientPathPredicate &pred,
        const std::unordered_set<uint32_t> &vars) const;

    smt::ExprContext *ctx_;
    smt::Solver *solver_;
    const MessageLayout *layout_;
    std::vector<smt::ExprRef> server_message_;
    NegateStats stats_;
};

}  // namespace core
}  // namespace achilles

#endif  // ACHILLES_CORE_NEGATE_H_
