// Achilles reproduction -- core library.
//
// The differentFrom precomputation (paper Section 3.3).
// differentFrom[i][j][field] == TRUE means there exists a message in
// pathC_i whose value for `field` is not attainable by any message of
// pathC_j. During server exploration, when pathC_i is dropped because of
// a new constraint on an independent field a, every pathC_j with
// differentFrom[j][i][a] == FALSE can be dropped as well without a
// solver call.
//
// The matrix is only computed for *independent* fields -- fields whose
// client-side value expressions and constraints share no variables with
// other fields (the paper's condition for the optimization to be sound).
//
// Implementation note: client paths allocate fresh input variables, so
// structurally identical field definitions are first grouped into value
// classes by canonical hashing; solver queries run between class
// representatives only, which turns the O(n^2) pairwise computation into
// O(c^2) with c = number of distinct value classes (single digits in
// practice). A cell whose class-a definition is a constant C, against a
// class-b negation over the probe alone (Case 1 and Case 2 negations),
// needs no solver either: its query {probe == C, neg_b} is SAT exactly
// when neg_b evaluates true at probe = C, so it is decided by
// evaluation (counted in difffrom.concrete_cells; difffrom.solver_queries
// counts only real solver calls).
//
// Runtime overlay: the static matrix is computed once, before the
// exploration, so it can only relate pairs through the value classes it
// saw then. Single-field unsat cores discovered during exploration are
// appended to the run's shared exec::PruneIndex as mutable value-class
// edges ("these field-f path constraints refute every predicate whose
// match set contains these field-f conjuncts"); OverlaySubsumed is the
// read path the explorer consults alongside Different(), letting later
// branches -- on any worker -- take the same fast path for
// path-constraint/predicate pairs the precomputation never related.

#ifndef ACHILLES_CORE_DIFFERENT_FROM_H_
#define ACHILLES_CORE_DIFFERENT_FROM_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/message.h"
#include "core/negate.h"
#include "core/path_predicate.h"
#include "exec/prune_index.h"
#include "smt/solver.h"
#include "support/stats.h"

namespace achilles {
namespace core {

/** Precomputed differentFrom relation over client path predicates. */
class DifferentFromMatrix
{
  public:
    DifferentFromMatrix(smt::ExprContext *ctx, smt::Solver *solver,
                        const MessageLayout *layout)
        : ctx_(ctx), solver_(solver), layout_(layout)
    {
    }

    /**
     * Compute the relation for all analyzed independent fields.
     * `negate_op` supplies per-field negations for the value-set
     * difference queries.
     */
    void Compute(const std::vector<ClientPathPredicate> &preds,
                 NegateOperator *negate_op);

    /** True iff `field` was classified independent (and computed). */
    bool
    IsIndependentField(const std::string &field) const
    {
        return per_field_.count(field) != 0;
    }

    /**
     * differentFrom[i][j][field]; false for dependent fields and
     * un-computed pairs (the conservative default -- a FALSE answer only
     * ever causes extra solver checks, never wrong dropping).
     */
    bool Different(size_t i, size_t j, const std::string &field) const;

    /** All predicates j with Different(j, i, field) == false. */
    std::vector<uint32_t> SameValueClass(size_t i,
                                         const std::string &field) const;

    /**
     * Stable token naming a field inside the pruning knowledge base's
     * overlay (exec::PruneIndex carries no core-layer types, so overlay
     * entries name their field by this hash; the matrix resolves it
     * back through the independent fields it computed).
     */
    static uint64_t FieldToken(const std::string &field);

    /**
     * The overlay read path. True when a runtime-recorded single-field
     * core in `overlay` refutes a predicate whose match fingerprints
     * are `match_set` under the path fingerprints `path_set`; on a hit
     * `*field` names the (independent, computed) field the core was
     * confined to, so the caller can re-enter the static value-class
     * rule for it. Sound to act on exactly like a kUnsat answer from
     * the solver: the recorded core is contained in the probed query.
     * `consumer` is the probing worker id (cross-worker attribution).
     */
    bool OverlaySubsumed(exec::PruneIndex *overlay, size_t consumer,
                         const exec::PruneFpVec &path_set,
                         const exec::PruneFpVec &match_set,
                         std::string *field) const;

    const StatsRegistry &stats() const { return stats_; }

  private:
    struct FieldRelation
    {
        /** Value-class index of each predicate for this field. */
        std::vector<uint32_t> class_of;
        /** Predicates per class (for SameValueClass). */
        std::vector<std::vector<uint32_t>> members;
        /** different[a][b] over class indices. */
        std::vector<std::vector<uint8_t>> different;
    };

    smt::ExprContext *ctx_;
    smt::Solver *solver_;
    const MessageLayout *layout_;
    std::unordered_map<std::string, FieldRelation> per_field_;
    /** FieldToken -> field name, for the independent fields computed. */
    std::unordered_map<uint64_t, std::string> field_by_token_;
    StatsRegistry stats_;
};

}  // namespace core
}  // namespace achilles

#endif  // ACHILLES_CORE_DIFFERENT_FROM_H_
