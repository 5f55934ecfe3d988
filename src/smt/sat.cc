// Achilles reproduction -- SMT library.
//
// CDCL SAT solver implementation. The structure follows MiniSat 2.2:
// watched literals with blockers, first-UIP learning, activity-ordered
// decisions with phase saving, geometric restarts.

#include "smt/sat.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

namespace achilles {
namespace smt {

namespace {

// Search heuristics. Restarts are geometric: the first after
// kRestartBase conflicts, each later interval kRestartGrowth times the
// previous one. VSIDS variable and clause activities decay by
// kVarDecay and kClauseDecay per conflict. ReduceDB's learnt-clause cap
// starts at max(kLearntFloor, clauses / kLearntDivisor) and grows by
// kLearntGrowthPct percent after each reduction.
constexpr int64_t kRestartBase = 100;
constexpr double kRestartGrowth = 1.5;
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr int64_t kLearntFloor = 4000;
constexpr int64_t kLearntDivisor = 3;
constexpr int64_t kLearntGrowthPct = 10;

/** Registry name of each SatCounters field. */
const struct
{
    const char *key;
    int64_t SatCounters::*field;
} kCounterKeys[] = {
    {"sat.solve_calls", &SatCounters::solve_calls},
    {"sat.decisions", &SatCounters::decisions},
    {"sat.propagations", &SatCounters::propagations},
    {"sat.conflicts", &SatCounters::conflicts},
    {"sat.learnt_clauses", &SatCounters::learnt_clauses},
    {"sat.restarts", &SatCounters::restarts},
    {"sat.budget_exhausted", &SatCounters::budget_exhausted},
    {"sat.solution_reuses", &SatCounters::solution_reuses},
    {"sat.trail_reuses", &SatCounters::trail_reuses},
    {"sat.trail_levels_reused", &SatCounters::trail_levels_reused},
    {"sat.core_minimize_probes", &SatCounters::core_minimize_probes},
    {"sat.queue_pushes", &SatCounters::queue_pushes},
};
static_assert(sizeof(kCounterKeys) / sizeof(kCounterKeys[0]) *
                      sizeof(int64_t) ==
                  sizeof(SatCounters),
              "every SatCounters field needs a registry name");

}  // namespace

SatCounters &
SatCounters::operator+=(const SatCounters &other)
{
    for (const auto &entry : kCounterKeys)
        this->*entry.field += other.*entry.field;
    return *this;
}

SatCounters
SatCounters::operator-(const SatCounters &other) const
{
    SatCounters out = *this;
    for (const auto &entry : kCounterKeys)
        out.*entry.field -= other.*entry.field;
    return out;
}

SatSolver::SatSolver() = default;

const StatsRegistry &
SatSolver::stats() const
{
    // Only this writeback sets these keys, so absolute values are exact;
    // a counter that never moved stays absent from the registry.
    for (const auto &entry : kCounterKeys) {
        const int64_t value = counters_.*entry.field;
        if (value != 0)
            stats_.Set(entry.key, value);
    }
    return stats_;
}

uint32_t
SatSolver::NewVar()
{
    // Not queued for decision: MarkCone queues the variables a call
    // must assign.
    const uint32_t v = static_cast<uint32_t>(assigns_.size());
    assigns_.push_back(LBool::kUndef);
    model_.push_back(LBool::kUndef);
    saved_phase_.push_back(0);
    activity_.push_back(0.0);
    level_.push_back(0);
    reason_.push_back(kNoClause);
    seen_.push_back(0);
    var_flags_.push_back(0);
    def_.push_back(static_cast<uint32_t>(def_inputs_.size()));
    watches_.emplace_back();
    watches_.emplace_back();
    heap_pos_.push_back(-1);
    return v;
}

uint32_t
SatSolver::NewDefinedVar(const Lit *inputs, size_t n)
{
    const uint32_t v = NewVar();
    var_flags_[v] |= kVarDefined;
    for (size_t i = 0; i < n; ++i) {
        ACHILLES_CHECK(inputs[i].var() < v, "definition input not older");
        def_inputs_.push_back(inputs[i].var());
    }
    return v;
}

size_t
SatSolver::MarkCone(const std::vector<Lit> &assumptions)
{
    for (uint32_t v : cone_)
        var_flags_[v] &= ~kVarInCone;
    cone_.clear();
    queue_whole_cone_ = false;
    const auto visit = [this](uint32_t v) {
        if (!(var_flags_[v] & kVarInCone)) {
            var_flags_[v] |= kVarInCone;
            cone_.push_back(v);
        }
    };
    for (uint32_t v : roots_)
        visit(v);
    for (Lit p : assumptions) {
        ACHILLES_CHECK(p.var() < NumVars());
        visit(p.var());
    }
    // cone_ doubles as the breadth-first worklist.
    size_t unassigned = 0;
    for (size_t i = 0; i < cone_.size(); ++i) {
        const uint32_t v = cone_[i];
        const size_t end =
            v + 1 < NumVars() ? def_[v + 1] : def_inputs_.size();
        for (size_t k = def_[v]; k < end; ++k)
            visit(def_inputs_[k]);
        if (assigns_[v] == LBool::kUndef) {
            ++unassigned;
            if (!(var_flags_[v] & kVarDefined))
                HeapInsert(v);
        }
    }
    return unassigned;
}

void
SatSolver::HeapSiftUp(size_t i)
{
    const uint32_t v = heap_[i];
    while (i > 0) {
        const size_t parent = (i - 1) / 2;
        if (!HeapBefore(v, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        heap_pos_[heap_[i]] = static_cast<int32_t>(i);
        i = parent;
    }
    heap_[i] = v;
    heap_pos_[v] = static_cast<int32_t>(i);
}

void
SatSolver::HeapSiftDown(size_t i)
{
    const uint32_t v = heap_[i];
    const size_t n = heap_.size();
    while (true) {
        size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && HeapBefore(heap_[child + 1], heap_[child]))
            ++child;
        if (!HeapBefore(heap_[child], v))
            break;
        heap_[i] = heap_[child];
        heap_pos_[heap_[i]] = static_cast<int32_t>(i);
        i = child;
    }
    heap_[i] = v;
    heap_pos_[v] = static_cast<int32_t>(i);
}

void
SatSolver::HeapInsert(uint32_t var)
{
    if (heap_pos_[var] >= 0)
        return;
    ++counters_.queue_pushes;
    heap_.push_back(var);
    heap_pos_[var] = static_cast<int32_t>(heap_.size() - 1);
    HeapSiftUp(heap_.size() - 1);
}

uint32_t
SatSolver::HeapPop()
{
    const uint32_t top = heap_[0];
    heap_pos_[top] = -1;
    const uint32_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heap_pos_[last] = 0;
        HeapSiftDown(0);
    }
    return top;
}

LBool
SatSolver::LitValue(Lit l) const
{
    const LBool v = assigns_[l.var()];
    if (v == LBool::kUndef)
        return LBool::kUndef;
    const bool b = (v == LBool::kTrue) != l.negated();
    return b ? LBool::kTrue : LBool::kFalse;
}

bool
SatSolver::InsertClause(std::vector<Lit> lits, bool root)
{
    if (!ok_)
        return false;
    BacktrackTo(0);
    if (root) {
        for (Lit l : lits) {
            ACHILLES_CHECK(l.var() < NumVars(), "literal for unknown var");
            if (!(var_flags_[l.var()] & kVarRoot)) {
                var_flags_[l.var()] |= kVarRoot;
                roots_.push_back(l.var());
            }
        }
    }

    // Normalize: sort, dedupe, drop level-0-false literals, detect
    // tautologies and level-0-true literals.
    std::sort(lits.begin(), lits.end(),
              [](Lit a, Lit b) { return a.code() < b.code(); });
    std::vector<Lit> out;
    Lit prev = Lit::FromCode(0xffffffffu);
    for (Lit l : lits) {
        ACHILLES_CHECK(l.var() < NumVars(), "literal for unknown var");
        if (l == prev)
            continue;
        if (prev.code() != 0xffffffffu && l == ~prev)
            return true;  // tautology
        const LBool v = LitValue(l);
        if (v == LBool::kTrue)
            return true;  // already satisfied at level 0
        if (v == LBool::kFalse)
            continue;  // can never help
        out.push_back(l);
        prev = l;
    }

    if (out.empty()) {
        ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        Enqueue(out[0], kNoClause);
        if (Propagate() != kNoClause)
            ok_ = false;
        return ok_;
    }
    const ClauseRef cref = AllocClause(out, /*learnt=*/false);
    clauses_.push_back(cref);
    AttachClause(cref);
    return true;
}

SatSolver::ClauseRef
SatSolver::AllocClause(const std::vector<Lit> &lits, bool learnt)
{
    const ClauseRef cref = static_cast<ClauseRef>(arena_.size());
    arena_.push_back(static_cast<uint32_t>(lits.size()) |
                     (learnt ? kLearntFlag : 0));
    for (Lit l : lits)
        arena_.push_back(l.code());
    if (learnt) {
        arena_.push_back(0);
        SetClauseActivity(cref, 0.0f);
        ++counters_.learnt_clauses;
    }
    return cref;
}

float
SatSolver::ClauseActivity(ClauseRef cref) const
{
    float activity;
    std::memcpy(&activity, &arena_[cref + 1 + ClauseSize(cref)],
                sizeof(activity));
    return activity;
}

void
SatSolver::SetClauseActivity(ClauseRef cref, float activity)
{
    std::memcpy(&arena_[cref + 1 + ClauseSize(cref)], &activity,
                sizeof(activity));
}

void
SatSolver::BumpClause(ClauseRef cref)
{
    const float bumped =
        ClauseActivity(cref) + static_cast<float>(cla_inc_);
    SetClauseActivity(cref, bumped);
    if (bumped > 1e20f) {
        for (ClauseRef c : learnts_)
            SetClauseActivity(c, ClauseActivity(c) * 1e-20f);
        cla_inc_ *= 1e-20;
    }
}

void
SatSolver::AttachClause(ClauseRef cref)
{
    ACHILLES_CHECK(ClauseSize(cref) >= 2);
    const Lit c0 = ClauseLit(cref, 0);
    const Lit c1 = ClauseLit(cref, 1);
    watches_[(~c0).code()].push_back(Watcher{cref, c1});
    watches_[(~c1).code()].push_back(Watcher{cref, c0});
}

void
SatSolver::Enqueue(Lit l, ClauseRef reason)
{
    ACHILLES_CHECK(LitValue(l) == LBool::kUndef, "enqueue on assigned var");
    assigns_[l.var()] = l.negated() ? LBool::kFalse : LBool::kTrue;
    level_[l.var()] = DecisionLevel();
    reason_[l.var()] = reason;
    trail_.push_back(l);
}

SatSolver::ClauseRef
SatSolver::Propagate()
{
    ClauseRef conflict = kNoClause;
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        ++counters_.propagations;
        std::vector<Watcher> &ws = watches_[p.code()];
        size_t keep = 0;
        size_t i = 0;
        for (; i < ws.size(); ++i) {
            const Watcher w = ws[i];
            // Fast path: blocker already satisfied.
            if (LitValue(w.blocker) == LBool::kTrue) {
                ws[keep++] = w;
                continue;
            }
            const ClauseRef cref = w.cref;
            const uint32_t size = ClauseSize(cref);
            // Ensure the false literal (~p) sits at position 1.
            const Lit false_lit = ~p;
            if (ClauseLit(cref, 0) == false_lit) {
                arena_[cref + 1] = arena_[cref + 2];
                arena_[cref + 2] = false_lit.code();
            }
            const Lit first = ClauseLit(cref, 0);
            if (first != w.blocker && LitValue(first) == LBool::kTrue) {
                ws[keep++] = Watcher{cref, first};
                continue;
            }
            // Look for a new literal to watch.
            bool found = false;
            for (uint32_t k = 2; k < size; ++k) {
                const Lit candidate = ClauseLit(cref, k);
                if (LitValue(candidate) != LBool::kFalse) {
                    arena_[cref + 2] = candidate.code();
                    arena_[cref + 1 + k] = false_lit.code();
                    watches_[(~candidate).code()].push_back(
                        Watcher{cref, first});
                    found = true;
                    break;
                }
            }
            if (found)
                continue;
            // Clause is unit or conflicting.
            ws[keep++] = Watcher{cref, first};
            if (LitValue(first) == LBool::kFalse) {
                conflict = cref;
                qhead_ = trail_.size();
                // Copy remaining watchers back.
                for (++i; i < ws.size(); ++i)
                    ws[keep++] = ws[i];
                break;
            }
            Enqueue(first, cref);
        }
        ws.resize(keep);
        if (conflict != kNoClause)
            break;
    }
    return conflict;
}

void
SatSolver::BumpVar(uint32_t var)
{
    activity_[var] += var_inc_;
    if (activity_[var] > 1e100)
        RescaleActivities();
    else if (heap_pos_[var] >= 0)
        HeapSiftUp(static_cast<size_t>(heap_pos_[var]));
}

void
SatSolver::RescaleActivities()
{
    for (double &a : activity_)
        a *= 1e-100;
    var_inc_ *= 1e-100;
    // Tiny activities may flush to equal values, which changes the
    // index tie-break order: re-heapify to restore the invariant.
    for (size_t i = heap_.size(); i > 0; --i)
        HeapSiftDown(i - 1);
}

void
SatSolver::Analyze(ClauseRef conflict, std::vector<Lit> *out_learnt,
                   uint32_t *out_btlevel)
{
    out_learnt->clear();
    out_learnt->push_back(Lit());  // placeholder for the asserting literal

    int path_count = 0;
    Lit p;
    bool p_valid = false;
    size_t index = trail_.size();

    ClauseRef c = conflict;
    do {
        ACHILLES_CHECK(c != kNoClause, "analyze hit a decision unexpectedly");
        if (ClauseLearnt(c))
            BumpClause(c);
        const uint32_t size = ClauseSize(c);
        for (uint32_t j = p_valid ? 1 : 0; j < size; ++j) {
            const Lit q = ClauseLit(c, j);
            const uint32_t v = q.var();
            if (!seen_[v] && level_[v] > 0) {
                seen_[v] = 1;
                BumpVar(v);
                if (level_[v] >= DecisionLevel())
                    ++path_count;
                else
                    out_learnt->push_back(q);
            }
        }
        // Select the next literal to resolve on.
        while (!seen_[trail_[index - 1].var()])
            --index;
        p = trail_[--index];
        p_valid = true;
        c = reason_[p.var()];
        seen_[p.var()] = 0;
        --path_count;
    } while (path_count > 0);
    (*out_learnt)[0] = ~p;

    // Compute the backtrack level: highest level among the other lits.
    uint32_t btlevel = 0;
    size_t max_i = 1;
    for (size_t i = 1; i < out_learnt->size(); ++i) {
        const uint32_t lvl = level_[(*out_learnt)[i].var()];
        if (lvl > btlevel) {
            btlevel = lvl;
            max_i = i;
        }
    }
    if (out_learnt->size() > 1)
        std::swap((*out_learnt)[1], (*out_learnt)[max_i]);
    *out_btlevel = out_learnt->size() == 1 ? 0 : btlevel;

    for (Lit l : *out_learnt)
        seen_[l.var()] = 0;
}

void
SatSolver::BacktrackTo(uint32_t target_level)
{
    if (DecisionLevel() <= target_level)
        return;
    const size_t bound = trail_lim_[target_level];
    for (size_t i = trail_.size(); i > bound; --i) {
        const Lit l = trail_[i - 1];
        saved_phase_[l.var()] = l.negated() ? 0 : 1;
        assigns_[l.var()] = LBool::kUndef;
        reason_[l.var()] = kNoClause;
        const uint8_t flags = var_flags_[l.var()];
        if ((flags & kVarInCone) &&
            (!(flags & kVarDefined) || queue_whole_cone_)) {
            HeapInsert(l.var());
        }
    }
    trail_.resize(bound);
    trail_lim_.resize(target_level);
    qhead_ = trail_.size();
    if (assumption_trail_.size() > target_level)
        assumption_trail_.resize(target_level);
}

Lit
SatSolver::PickBranchLit()
{
    // Pop the activity order-heap until an unassigned cone variable
    // surfaces; others leave the heap until a later cone takes them back.
    // Every unassigned cone input is in the heap (MarkCone queues them,
    // BacktrackTo re-inserts what it unassigns). Gate outputs are not
    // queued: propagation assigns them once their inputs are. When the
    // heap runs dry, queue whatever cone variable is still unassigned
    // (a one-sided definition nothing fixed) and keep queueing every
    // cone variable for the rest of the call; an empty heap after that
    // means the cone is fully assigned.
    while (true) {
        while (!heap_.empty()) {
            const uint32_t v = HeapPop();
            if (assigns_[v] != LBool::kUndef ||
                !(var_flags_[v] & kVarInCone)) {
                continue;
            }
            return Lit(v, saved_phase_[v] == 0);
        }
        if (queue_whole_cone_)
            return Lit::FromCode(0xffffffffu);
        queue_whole_cone_ = true;
        for (uint32_t v : cone_) {
            if (assigns_[v] == LBool::kUndef)
                HeapInsert(v);
        }
    }
}

void
SatSolver::ReduceDB()
{
    ACHILLES_CHECK(DecisionLevel() == 0, "ReduceDB off the root level");
    stats_.Bump("sat.reduce_dbs");

    // Binary learnts are cheap and valuable; locked clauses (the current
    // reason for a root-level assignment) must survive. Everything else
    // competes on activity, lowest-activity half evicted.
    std::vector<ClauseRef> keep, candidates;
    keep.reserve(learnts_.size());
    candidates.reserve(learnts_.size());
    for (ClauseRef c : learnts_) {
        const Lit first = ClauseLit(c, 0);
        const bool locked = assigns_[first.var()] != LBool::kUndef &&
                            reason_[first.var()] == c;
        if (locked || ClauseSize(c) <= 2)
            keep.push_back(c);
        else
            candidates.push_back(c);
    }
    std::sort(candidates.begin(), candidates.end(),
              [this](ClauseRef a, ClauseRef b) {
                  const float aa = ClauseActivity(a);
                  const float ab = ClauseActivity(b);
                  return aa != ab ? aa > ab : a < b;
              });
    const size_t survivors = candidates.size() / 2;
    stats_.Bump("sat.learnts_removed",
                static_cast<int64_t>(candidates.size() - survivors));
    candidates.resize(survivors);
    keep.insert(keep.end(), candidates.begin(), candidates.end());
    learnts_ = std::move(keep);
    GarbageCollect();
}

void
SatSolver::GarbageCollect()
{
    // Rebuild the arena with only the surviving clauses, then re-derive
    // every ClauseRef-bearing structure (watches, reasons). Watched
    // literals always sit at positions 0/1, so re-attaching preserves
    // the watch invariant.
    std::vector<uint32_t> new_arena;
    new_arena.reserve(arena_.size());
    std::unordered_map<ClauseRef, ClauseRef> relocated;
    relocated.reserve(clauses_.size() + learnts_.size());
    auto move_clause = [&](ClauseRef &cref) {
        const ClauseRef moved = static_cast<ClauseRef>(new_arena.size());
        const uint32_t words =
            1 + ClauseSize(cref) + (ClauseLearnt(cref) ? 1 : 0);
        for (uint32_t i = 0; i < words; ++i)
            new_arena.push_back(arena_[cref + i]);
        relocated.emplace(cref, moved);
        cref = moved;
    };
    for (ClauseRef &c : clauses_)
        move_clause(c);
    for (ClauseRef &c : learnts_)
        move_clause(c);
    arena_ = std::move(new_arena);

    for (uint32_t v = 0; v < NumVars(); ++v) {
        if (assigns_[v] != LBool::kUndef && reason_[v] != kNoClause)
            reason_[v] = relocated.at(reason_[v]);
    }
    for (std::vector<Watcher> &ws : watches_)
        ws.clear();
    for (ClauseRef c : clauses_)
        AttachClause(c);
    for (ClauseRef c : learnts_)
        AttachClause(c);
}

void
SatSolver::CollectCoreFromSeen()
{
    // Walk the trail top-down, expanding propagated literals through
    // their reason clauses; marked decisions are assumption literals
    // (analyze-final only ever runs with the decision stack inside the
    // assumption prefix) and form the core.
    const size_t bound = trail_lim_.empty() ? trail_.size() : trail_lim_[0];
    for (size_t i = trail_.size(); i > bound; --i) {
        const Lit l = trail_[i - 1];
        const uint32_t v = l.var();
        if (!seen_[v])
            continue;
        seen_[v] = 0;
        const ClauseRef c = reason_[v];
        if (c == kNoClause) {
            core_.push_back(l);
            continue;
        }
        const uint32_t size = ClauseSize(c);
        for (uint32_t j = 0; j < size; ++j) {
            const uint32_t w = ClauseLit(c, j).var();
            if (w != v && level_[w] > 0)
                seen_[w] = 1;
        }
    }
}

void
SatSolver::AnalyzeFinalConflict(ClauseRef conflict)
{
    core_.clear();
    if (DecisionLevel() == 0)
        return;
    const uint32_t size = ClauseSize(conflict);
    for (uint32_t j = 0; j < size; ++j) {
        const uint32_t v = ClauseLit(conflict, j).var();
        if (level_[v] > 0)
            seen_[v] = 1;
    }
    CollectCoreFromSeen();
}

void
SatSolver::AnalyzeFinalLit(Lit p)
{
    // Assumption p is already falsified by the assumptions established
    // so far: the core is p plus whatever implied ~p. A level-0 ~p
    // means p is refuted by the clause set alone.
    core_.clear();
    core_.push_back(p);
    if (DecisionLevel() == 0 || level_[p.var()] == 0)
        return;
    seen_[p.var()] = 1;
    CollectCoreFromSeen();
}

void
SatSolver::SortCore(const std::vector<Lit> &assumptions)
{
    // Present the core in the caller's assumption order, making it
    // independent of trail/search history presentation.
    std::vector<Lit> ordered;
    ordered.reserve(core_.size());
    for (Lit a : assumptions) {
        if (std::find(ordered.begin(), ordered.end(), a) !=
            ordered.end()) {
            continue;  // duplicated assumption: one core entry
        }
        for (Lit c : core_) {
            if (c == a) {
                ordered.push_back(c);
                break;
            }
        }
    }
    // Every core literal is an established assumption, so the filter is
    // a permutation (duplicated assumptions collapse to one entry).
    core_ = std::move(ordered);
}

void
SatSolver::MinimizeCore()
{
    // Deletion-based minimization: drop each member in turn and
    // re-probe the remainder. Probes run refute-only -- establish the
    // candidate assumptions and propagate, never branch -- so a probe
    // costs one propagation pass, not a model search; a member whose
    // removal is not refuted by propagation is conservatively kept.
    // With the refutation's clauses already in the store, redundant
    // members fall to propagation in practice, and the recursive
    // rescan-on-shrink makes the result a fixpoint. Deterministic
    // given the query history: candidates are scanned in assumption
    // order.
    static constexpr size_t kMinimizeCap = 32;
    if (core_.size() > kMinimizeCap)
        return;
    std::vector<Lit> work = core_;
    size_t i = 0;
    while (i < work.size() && work.size() > 1) {
        std::vector<Lit> candidate;
        candidate.reserve(work.size() - 1);
        for (size_t j = 0; j < work.size(); ++j) {
            if (j != i)
                candidate.push_back(work[j]);
        }
        ++counters_.core_minimize_probes;
        if (Search(candidate, /*max_conflicts=*/-1,
                   /*refute_only=*/true) == SatStatus::kUnsat) {
            work = core_;  // the refined core (subset of candidate)
            i = 0;
        } else {
            ++i;
        }
    }
    core_ = std::move(work);
}

bool
SatSolver::AllVarsShared(const std::vector<Lit> &lits) const
{
    for (Lit l : lits) {
        if (l.var() >= NumVars() || !(var_flags_[l.var()] & kVarShared))
            return false;
    }
    return true;
}

void
SatSolver::MaybeExportLearnt(const std::vector<Lit> &learnt)
{
    if (!export_hook_ || learnt.empty() || learnt.size() > kExportMaxLits ||
        !AllVarsShared(learnt)) {
        return;
    }
    stats_.Bump("sat.clauses_exported");
    export_hook_(learnt);
}

void
SatSolver::MaybeExportCore()
{
    // A core over shared assumption guards is the same implied clause a
    // learnt all-guard clause would be: the disjunction of the negated
    // core literals. Exporting it shares exactly the "pathS ∧ ¬pathC_i"
    // refutations sibling workers re-derive from scratch.
    if (!export_hook_ || core_.empty() || core_.size() > kExportMaxLits ||
        !AllVarsShared(core_)) {
        return;
    }
    std::vector<Lit> clause;
    clause.reserve(core_.size());
    for (Lit l : core_)
        clause.push_back(~l);
    stats_.Bump("sat.cores_exported");
    export_hook_(clause);
}

SatStatus
SatSolver::Solve(const std::vector<Lit> &assumptions, int64_t max_conflicts)
{
    if (!ok_) {
        core_.clear();
        return SatStatus::kUnsat;
    }
    ++counters_.solve_calls;
    const SatStatus status = Search(assumptions, max_conflicts);
    // Cores of at most two literals skip the deletion loop: a
    // conflicting pair is already minimal unless one member is
    // individually refutable, which the propagation-level probes almost
    // never exhibit -- and the probes' root backtracking would destroy
    // the assumption prefix the next query wants to reuse. The reported
    // core stays conservative (never too small), as documented.
    if (status == SatStatus::kUnsat && minimize_core_ && core_.size() > 2 &&
        max_conflicts < 0) {
        MinimizeCore();
    }
    if (status == SatStatus::kUnsat)
        MaybeExportCore();
    return status;
}

SatStatus
SatSolver::Search(const std::vector<Lit> &assumptions, int64_t max_conflicts,
                  bool refute_only)
{
    if (!ok_) {
        // A minimization probe may have discovered instance-level
        // unsatisfiability; the empty core says so.
        core_.clear();
        return SatStatus::kUnsat;
    }
    // Solution reuse: every exit leaves a trail that is fully
    // propagated and conflict-free (a SAT call leaves its whole
    // assignment standing, see the kSat exit below), and AddClause only
    // ever shortens it to the root. If that trail already assigns this
    // call's whole cone and makes every assumption true, it is a model
    // by the class comment's argument: kSat without a single decision,
    // which is what lets a stream of closely related queries skip the
    // re-assignment entirely.
    const size_t unassigned_cone = MarkCone(assumptions);
    if (unassigned_cone == 0 && qhead_ == trail_.size()) {
        bool satisfied = true;
        for (Lit p : assumptions) {
            if (LitValue(p) != LBool::kTrue) {
                satisfied = false;
                break;
            }
        }
        if (satisfied) {
            for (uint32_t v : cone_)
                model_[v] = assigns_[v];
            core_.clear();
            ++counters_.solution_reuses;
            return SatStatus::kSat;
        }
    }

    // Assumption-prefix trail reuse: keep the trail segment of the
    // longest common prefix between the standing assumption levels and
    // this call's assumptions. The kept levels are fully propagated and
    // conflict-free against the unchanged clause store (every exit path
    // that leaves levels standing guarantees it; AddClause resets to
    // the root), so re-establishment starts where the streams diverge.
    uint32_t keep_level = 0;
    if (trail_reuse_) {
        const size_t limit =
            std::min(assumptions.size(), assumption_trail_.size());
        while (keep_level < limit &&
               assumption_trail_[keep_level] == assumptions[keep_level]) {
            ++keep_level;
        }
    }
    if (keep_level > 0) {
        ++counters_.trail_reuses;
        counters_.trail_levels_reused += keep_level;
    }
    BacktrackTo(keep_level);
    if (learnt_cap_ <= 0) {
        learnt_cap_ = std::max<int64_t>(
            kLearntFloor,
            static_cast<int64_t>(clauses_.size()) / kLearntDivisor);
    }
    if (static_cast<int64_t>(learnts_.size()) >= learnt_cap_) {
        BacktrackTo(0);  // ReduceDB runs off the root level
        ReduceDB();
        learnt_cap_ += learnt_cap_ * kLearntGrowthPct / 100;
    }

    int64_t conflicts = 0;
    int64_t restart_budget = kRestartBase;
    int64_t conflicts_at_restart = 0;

    while (true) {
        const ClauseRef conflict = Propagate();
        if (conflict != kNoClause) {
            ++conflicts;
            ++counters_.conflicts;
            if (DecisionLevel() == 0) {
                ok_ = false;
                core_.clear();
                return SatStatus::kUnsat;
            }
            if (DecisionLevel() <= assumptions.size()) {
                // Conflict depends only on assumptions: UNSAT under
                // them. Record which (analyze-final over the
                // implication graph, before the trail unwinds). The
                // conflicting level's propagation is poisoned, but the
                // levels below it are established and conflict-free:
                // keep them for the next query's prefix reuse.
                AnalyzeFinalConflict(conflict);
                SortCore(assumptions);
                BacktrackTo(trail_reuse_ ? DecisionLevel() - 1 : 0);
                return SatStatus::kUnsat;
            }
            std::vector<Lit> learnt;
            uint32_t btlevel = 0;
            Analyze(conflict, &learnt, &btlevel);
            MaybeExportLearnt(learnt);
            // Never backjump into the middle of the assumption prefix
            // without re-checking it; jumping to the assumption boundary
            // is always safe.
            BacktrackTo(btlevel);
            if (learnt.size() == 1) {
                if (DecisionLevel() == 0) {
                    Enqueue(learnt[0], kNoClause);
                } else {
                    // Asserting unit below current level: restart to
                    // apply it at level 0.
                    BacktrackTo(0);
                    Enqueue(learnt[0], kNoClause);
                }
            } else {
                const ClauseRef cref = AllocClause(learnt, /*learnt=*/true);
                learnts_.push_back(cref);
                AttachClause(cref);
                BumpClause(cref);
                Enqueue(learnt[0], cref);
            }
            var_inc_ /= kVarDecay;
            cla_inc_ /= kClauseDecay;
            if (max_conflicts >= 0 && conflicts >= max_conflicts) {
                // Unwind the search decisions but keep any standing
                // assumption prefix (assumption_trail_ is trimmed by
                // every backtrack, so its size is the deepest level
                // that is still an established assumption).
                BacktrackTo(trail_reuse_
                                ? static_cast<uint32_t>(
                                      assumption_trail_.size())
                                : 0);
                core_.clear();
                ++counters_.budget_exhausted;
                return SatStatus::kUnknown;
            }
            if (conflicts - conflicts_at_restart >= restart_budget) {
                conflicts_at_restart = conflicts;
                restart_budget = static_cast<int64_t>(restart_budget *
                                                      kRestartGrowth);
                ++counters_.restarts;
                BacktrackTo(0);
                if (static_cast<int64_t>(learnts_.size()) >= learnt_cap_) {
                    ReduceDB();
                    learnt_cap_ += learnt_cap_ * kLearntGrowthPct / 100;
                }
            }
            continue;
        }

        // No conflict: establish the next assumption, or decide.
        if (DecisionLevel() < assumptions.size()) {
            const Lit p = assumptions[DecisionLevel()];
            ACHILLES_CHECK(p.var() < NumVars());
            const LBool v = LitValue(p);
            if (v == LBool::kTrue) {
                NewDecisionLevel();  // dummy level keeps indexing aligned
                assumption_trail_.push_back(p);
            } else if (v == LBool::kFalse) {
                AnalyzeFinalLit(p);
                SortCore(assumptions);
                // The standing levels are conflict-free (p was refuted
                // by their propagation closure, before its own level
                // existed); keep them for prefix reuse.
                if (!trail_reuse_)
                    BacktrackTo(0);
                return SatStatus::kUnsat;
            } else {
                NewDecisionLevel();
                assumption_trail_.push_back(p);
                Enqueue(p, kNoClause);
            }
            continue;
        }

        if (refute_only) {
            // Assumptions established and propagation is conflict-free:
            // a refutation by propagation is off the table, which is
            // all a minimization probe wants to know. The established
            // levels stay standing for the next probe's prefix reuse.
            if (!trail_reuse_)
                BacktrackTo(0);
            core_.clear();
            return SatStatus::kUnknown;
        }

        const Lit next = PickBranchLit();
        if (next.code() == 0xffffffffu) {
            // The cone is assigned: model found. Leave the assignment
            // standing for cross-query solution reuse (the next Solve
            // backtracks before searching anyway).
            for (uint32_t v : cone_)
                model_[v] = assigns_[v];
            core_.clear();
            return SatStatus::kSat;
        }
        ++counters_.decisions;
        NewDecisionLevel();
        Enqueue(next, kNoClause);
    }
}

}  // namespace smt
}  // namespace achilles
