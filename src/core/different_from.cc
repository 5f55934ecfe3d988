// Achilles reproduction -- core library.

#include "core/different_from.h"

#include <unordered_set>

#include "smt/eval.h"

namespace achilles {
namespace core {

namespace {

/** Per-predicate, per-field definition: value expression + constraints. */
struct FieldDef
{
    smt::ExprRef expr = nullptr;
    std::vector<smt::ExprRef> constraints;
    std::unordered_set<uint32_t> vars;
};

FieldDef
DefineField(smt::ExprContext *ctx, const MessageLayout *layout,
            const ClientPathPredicate &pred, const FieldSpec &field)
{
    FieldDef def;
    def.expr = layout->FieldExpr(ctx, pred.bytes, field);
    ctx->CollectVars(def.expr, &def.vars);
    // Constraints touching the field's variables (transitively closed:
    // constraints may link the field vars to further vars).
    bool changed = true;
    std::unordered_set<const smt::Expr *> included;
    while (changed) {
        changed = false;
        for (smt::ExprRef c : pred.constraints) {
            if (included.count(c))
                continue;
            std::unordered_set<uint32_t> cvars;
            ctx->CollectVars(c, &cvars);
            bool touches = false;
            for (uint32_t v : cvars) {
                if (def.vars.count(v)) {
                    touches = true;
                    break;
                }
            }
            if (touches) {
                included.insert(c);
                def.constraints.push_back(c);
                for (uint32_t v : cvars)
                    def.vars.insert(v);
                changed = true;
            }
        }
    }
    return def;
}

/** True iff `e` mentions no variable other than `var`. */
bool
MentionsOnly(const smt::ExprContext *ctx, smt::ExprRef e, smt::ExprRef var)
{
    std::unordered_set<uint32_t> vars;
    ctx->CollectVars(e, &vars);
    for (uint32_t v : vars) {
        if (v != var->VarId())
            return false;
    }
    return true;
}

}  // namespace

void
DifferentFromMatrix::Compute(const std::vector<ClientPathPredicate> &preds,
                             NegateOperator *negate_op)
{
    per_field_.clear();
    const std::vector<FieldSpec> analyzed = layout_->AnalyzedFields();
    const size_t n = preds.size();

    // Field definitions for every (pred, field).
    std::vector<std::vector<FieldDef>> defs(n);
    for (size_t p = 0; p < n; ++p) {
        defs[p].reserve(analyzed.size());
        for (const FieldSpec &field : analyzed)
            defs[p].push_back(DefineField(ctx_, layout_, preds[p], field));
    }

    // A field is independent iff, in every predicate, its variable set
    // is disjoint from every other analyzed field's variable set.
    for (size_t f = 0; f < analyzed.size(); ++f) {
        bool independent = true;
        for (size_t p = 0; p < n && independent; ++p) {
            for (size_t g = 0; g < analyzed.size() && independent; ++g) {
                if (g == f)
                    continue;
                for (uint32_t v : defs[p][f].vars) {
                    if (defs[p][g].vars.count(v)) {
                        independent = false;
                        break;
                    }
                }
            }
        }
        if (!independent) {
            stats_.Bump("difffrom.dependent_fields");
            continue;
        }
        stats_.Bump("difffrom.independent_fields");

        FieldRelation rel;
        rel.class_of.resize(n);

        // Group predicates into value classes by canonical hash of the
        // field definition (expression + constraints, alpha-renamed).
        CanonicalHasher hasher(ctx_);
        std::unordered_map<uint64_t, uint32_t> class_by_hash;
        for (size_t p = 0; p < n; ++p) {
            std::vector<smt::ExprRef> key{defs[p][f].expr};
            key.insert(key.end(), defs[p][f].constraints.begin(),
                       defs[p][f].constraints.end());
            const uint64_t h = hasher.HashExprs(key);
            auto [it, inserted] = class_by_hash.emplace(
                h, static_cast<uint32_t>(rel.members.size()));
            if (inserted)
                rel.members.emplace_back();
            rel.class_of[p] = it->second;
            rel.members[it->second].push_back(static_cast<uint32_t>(p));
        }
        const size_t c = rel.members.size();
        stats_.Bump("difffrom.value_classes", static_cast<int64_t>(c));

        // Pairwise class queries: does class A contain a field value
        // outside class B's value set?
        rel.different.assign(c, std::vector<uint8_t>(c, 0));
        smt::ExprRef probe =
            ctx_->FreshVar("probe_" + analyzed[f].name,
                           analyzed[f].size * 8);
        for (size_t a = 0; a < c; ++a) {
            const uint32_t pa = rel.members[a][0];
            for (size_t b = 0; b < c; ++b) {
                if (a == b)
                    continue;  // same definition: never different
                const uint32_t pb = rel.members[b][0];
                smt::ExprRef neg_b = negate_op->NegateFieldAgainst(
                    preds[pb], analyzed[f], probe);
                if (neg_b == nullptr) {
                    // Negation abandoned: cannot demonstrate difference.
                    continue;
                }
                const FieldDef &def_a = defs[pa][f];
                if (def_a.expr->IsConst() &&
                    MentionsOnly(ctx_, neg_b, probe)) {
                    // A constant C has no constraints, so the query
                    // below is {probe == C, neg_b(probe)}: SAT exactly
                    // when neg_b holds at C. Evaluate it instead.
                    stats_.Bump("difffrom.concrete_cells");
                    smt::Model at;
                    at.Set(probe->VarId(), def_a.expr->ConstValue());
                    if (smt::EvaluateBool(neg_b, at))
                        rel.different[a][b] = 1;
                    continue;
                }
                std::vector<smt::ExprRef> query = def_a.constraints;
                query.push_back(ctx_->MakeEq(probe, def_a.expr));
                query.push_back(neg_b);
                stats_.Bump("difffrom.solver_queries");
                if (solver_->CheckSat(query) == smt::CheckResult::kSat)
                    rel.different[a][b] = 1;
            }
        }
        per_field_.emplace(analyzed[f].name, std::move(rel));
        field_by_token_.emplace(FieldToken(analyzed[f].name),
                                analyzed[f].name);
    }
}

uint64_t
DifferentFromMatrix::FieldToken(const std::string &field)
{
    // FNV-1a over the field name alone: stable across runs and builds,
    // which warm-start persistence relies on -- overlay entries carry
    // tokens in snapshots, and a later run's matrix must resolve them
    // to the same fields.
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : field)
        h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
    return h;
}

bool
DifferentFromMatrix::OverlaySubsumed(exec::PruneIndex *overlay,
                                     size_t consumer,
                                     const exec::PruneFpVec &path_set,
                                     const exec::PruneFpVec &match_set,
                                     std::string *field) const
{
    if (overlay == nullptr)
        return false;
    // No independent fields means no token could ever resolve below;
    // skip the index probe (and its fingerprint hashing) outright.
    if (field_by_token_.empty())
        return false;
    uint64_t token = 0;
    if (!overlay->OverlaySubsumes(consumer, path_set, match_set,
                                  &token)) {
        return false;
    }
    auto it = field_by_token_.find(token);
    if (it == field_by_token_.end())
        return false;  // not one of this matrix's independent fields
    if (field != nullptr)
        *field = it->second;
    return true;
}

bool
DifferentFromMatrix::Different(size_t i, size_t j,
                               const std::string &field) const
{
    auto it = per_field_.find(field);
    if (it == per_field_.end())
        return false;
    const FieldRelation &rel = it->second;
    ACHILLES_CHECK(i < rel.class_of.size() && j < rel.class_of.size());
    const uint32_t ci = rel.class_of[i];
    const uint32_t cj = rel.class_of[j];
    if (ci == cj)
        return false;
    return rel.different[ci][cj] != 0;
}

std::vector<uint32_t>
DifferentFromMatrix::SameValueClass(size_t i, const std::string &field) const
{
    auto it = per_field_.find(field);
    if (it == per_field_.end())
        return {};
    const FieldRelation &rel = it->second;
    ACHILLES_CHECK(i < rel.class_of.size());
    return rel.members[rel.class_of[i]];
}

}  // namespace core
}  // namespace achilles
