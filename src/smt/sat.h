// Achilles reproduction -- SMT library.
//
// CDCL SAT solver in the MiniSat lineage: two-watched-literal propagation,
// first-UIP conflict analysis, VSIDS-style activity, phase saving and
// geometric restarts. This is the decision procedure underneath the
// bitvector solver, standing in for the SAT cores of STP/Z3.

#ifndef ACHILLES_SMT_SAT_H_
#define ACHILLES_SMT_SAT_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

#include "support/logging.h"
#include "support/stats.h"

namespace achilles {
namespace smt {

/** A literal: variable index with sign, encoded MiniSat-style (2v+sign). */
class Lit
{
  public:
    Lit() : code_(0) {}
    Lit(uint32_t var, bool negated) : code_(2 * var + (negated ? 1 : 0)) {}

    uint32_t var() const { return code_ >> 1; }
    bool negated() const { return code_ & 1; }
    Lit operator~() const { return FromCode(code_ ^ 1); }
    uint32_t code() const { return code_; }
    bool operator==(const Lit &o) const { return code_ == o.code_; }
    bool operator!=(const Lit &o) const { return code_ != o.code_; }

    static Lit
    FromCode(uint32_t code)
    {
        Lit l;
        l.code_ = code;
        return l;
    }

  private:
    uint32_t code_;
};

/** Ternary logic value of a variable or literal. */
enum class LBool : uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

/** Result of a Solve() call. */
enum class SatStatus { kSat, kUnsat, kUnknown };

/**
 * Cumulative event counts of one SatSolver. They live on plain integers
 * because they are bumped per propagation, decision and conflict; the
 * string-keyed registry behind SatSolver::stats() is filled from them
 * only when it is read.
 */
struct SatCounters
{
    int64_t solve_calls = 0;
    int64_t decisions = 0;
    int64_t propagations = 0;
    int64_t conflicts = 0;
    int64_t learnt_clauses = 0;
    int64_t restarts = 0;
    int64_t budget_exhausted = 0;
    int64_t solution_reuses = 0;
    int64_t trail_reuses = 0;
    int64_t trail_levels_reused = 0;
    int64_t core_minimize_probes = 0;
    int64_t queue_pushes = 0;

    /** Field-wise sum and difference. */
    SatCounters &operator+=(const SatCounters &other);
    SatCounters operator-(const SatCounters &other) const;
};

/**
 * CDCL SAT solver.
 *
 * Usage: NewVar() variables, AddClause() clauses, Solve(). After kSat,
 * Value(var) gives the model of every variable in the call's cone (see
 * below). The solver may be re-Solved after adding more clauses and
 * under different assumptions (clauses persist; learnt clauses are
 * retained across calls up to a MiniSat-style ReduceDB cap, which is
 * what makes the incremental assumption-based Solver backend pay off
 * across closely related queries).
 *
 * Cone of influence. A persistent instance accumulates the CNF of every
 * expression ever bit-blasted into it, while one call constrains only a
 * few of them, so a call decides only the variables of its cone:
 *
 *  - Roots: the variables of the call's assumptions plus every variable
 *    of a clause added through AddClause. Raw-CNF users therefore keep
 *    full decisions: every clause they add is a root.
 *  - Defined variables (NewDefinedVar) pull their inputs into the cone
 *    when they are in it. A definition is a Tseitin gate (its clauses
 *    fix it as a function of its inputs) or an activation guard (each
 *    of its clauses contains its negation). Its clauses go through
 *    AddDefClause and mention only the variable and its inputs; inputs
 *    are created before the variable they define.
 *
 * Decisions. A call branches only on the cone's inputs: the variables
 * made by NewVar, which have no definition. MarkCone and BacktrackTo
 * queue an unassigned cone variable only if it is an input. A gate's
 * clauses are a full Tseitin definition, so propagation assigns it once
 * its inputs are assigned. A cone variable with a one-sided definition
 * (a guard that a raw clause roots but no assumption sets) may still be
 * unassigned when the queue runs dry; PickBranchLit then queues every
 * unassigned cone variable, once, for the rest of the call.
 *
 * A call answers kSat once propagation is complete and conflict-free,
 * every assumption is true and every cone variable is assigned. Which
 * variables were decided does not enter the argument below.
 * Soundness: let σ be that partial assignment. Extend it by visiting the
 * variables outside the cone in creation order: a gate takes the value
 * of its function over its (already valued) inputs, a guard is set
 * false, any other variable is set false. The result satisfies
 *
 *  - every AddClause clause and every definition of a cone variable:
 *    all their variables are in the cone, and a fully assigned clause
 *    under complete, conflict-free propagation is satisfied;
 *  - every definition of a gate outside the cone, by evaluation;
 *  - every definition of a guard outside the cone, which contains its
 *    negation;
 *  - learnt and imported clauses, which are implied by the clauses
 *    above;
 *
 * and it agrees with σ on the cone, assumptions included. So the
 * verdict is right and Value() on a cone variable is a value of a true
 * model. Callers read only cone variables: the facade reads the
 * variable bits of assertions it guarded (reached through their guard
 * and gate inputs). tests/test_sat_cone.cc checks the extension on
 * random circuits.
 */
class SatSolver
{
  public:
    SatSolver();

    /** Create a fresh variable; returns its index. */
    uint32_t NewVar();
    uint32_t NumVars() const { return static_cast<uint32_t>(assigns_.size()); }

    /**
     * Create a defined variable over `inputs` (existing variables; the
     * literal signs are ignored). Its clauses must be added with
     * AddDefClause; see the class comment for what a definition may be.
     */
    uint32_t NewDefinedVar(std::initializer_list<Lit> inputs)
    {
        return NewDefinedVar(inputs.begin(), inputs.size());
    }
    uint32_t NewDefinedVar(const std::vector<Lit> &inputs)
    {
        return NewDefinedVar(inputs.data(), inputs.size());
    }

    /**
     * Add a clause (disjunction of literals); its variables become cone
     * roots of every later call. Returns false if the clause set is
     * already unsatisfiable (empty clause / conflicting units).
     */
    bool
    AddClause(std::vector<Lit> lits)
    {
        return InsertClause(std::move(lits), /*root=*/true);
    }

    /**
     * Add a clause of a definition: over one defined variable and its
     * inputs only. Unlike AddClause it roots nothing. Same return value.
     */
    bool
    AddDefClause(std::vector<Lit> lits)
    {
        return InsertClause(std::move(lits), /*root=*/false);
    }
    bool AddUnit(Lit a) { return AddClause({a}); }
    bool AddBinary(Lit a, Lit b) { return AddClause({a, b}); }
    bool AddTernary(Lit a, Lit b, Lit c) { return AddClause({a, b, c}); }

    /**
     * Solve under optional assumptions. `max_conflicts` < 0 means no
     * budget limit; on budget exhaustion returns kUnknown.
     */
    SatStatus Solve(const std::vector<Lit> &assumptions = {},
                    int64_t max_conflicts = -1);

    /**
     * The assumption subset responsible for the last kUnsat answer (the
     * unsat core over assumptions): an analyze-final pass over the
     * implication graph from the final conflict, ordered like the
     * caller's assumption vector. Valid until the next Solve. An empty
     * core on kUnsat means the clause set is unsatisfiable regardless
     * of assumptions. With SetMinimizeCore(true), unbudgeted kUnsat
     * answers with more than two core members additionally run a
     * deletion-based minimization loop: each member is dropped in turn
     * and the remainder re-probed (refute-only, so a probe is one
     * propagation pass), rescanning until a fixpoint. One- and
     * two-member cores skip the loop -- a conflicting pair is already
     * minimal unless a member is individually refutable, and the
     * probes' root backtracking would churn the assumption trail the
     * next query reuses. The result is conservative (never too small)
     * in general.
     */
    const std::vector<Lit> &unsat_core() const { return core_; }
    void SetMinimizeCore(bool on) { minimize_core_ = on; }

    /**
     * Assumption-prefix trail reuse (on by default). Consecutive Solve
     * calls keep the trail segment of the longest common assumption
     * prefix -- MiniSat-style scoped assumption levels -- instead of
     * backtracking to the root and re-propagating every assumption from
     * scratch. Shaves the per-query linear re-establishment term for
     * deep-prefix query streams; never changes verdicts (the kept
     * segment is exactly the propagation closure the fresh
     * re-establishment would recompute).
     */
    void SetTrailReuse(bool on) { trail_reuse_ = on; }

    // -- Learned-clause exchange hooks --------------------------------
    //
    // A learnt clause whose literals are all negated assumption guards
    // is a solver-independent refutation lemma ("these guarded
    // assertions are jointly unsatisfiable"); sibling solvers over the
    // same shared-variable prefix can import it and prune their own
    // searches. The SAT layer exports such clauses through a hook and
    // leaves the guard-to-expression mapping to the facade.

    /** Maximum exported clause size: units and binaries only (larger
     *  lemmas rarely transfer and bloat the exchange). */
    static constexpr uint32_t kExportMaxLits = 2;

    /** Mark a variable as belonging to the designated shared prefix:
     *  only clauses over shared variables are ever exported. */
    void
    SetVarShared(uint32_t var, bool shared)
    {
        ACHILLES_CHECK(var < NumVars());
        if (shared)
            var_flags_[var] |= kVarShared;
        else
            var_flags_[var] &= ~kVarShared;
    }

    /**
     * Install the export hook: invoked with every learnt clause of at
     * most kExportMaxLits literals whose variables are all marked
     * shared, and with every final unsat core of that size over shared
     * variables (as the negated core literals -- the same implied
     * clause). The hook runs inside Solve; it must not call back into
     * this solver.
     */
    void
    SetLearntExportHook(std::function<void(const std::vector<Lit> &)> hook)
    {
        export_hook_ = std::move(hook);
    }

    /**
     * Add a clause learned by a sibling solver (an implied clause, so
     * adding it never changes verdicts). Same normalization as
     * AddClause, but, being implied, it roots nothing; resets any kept
     * assumption trail.
     */
    bool
    ImportClause(std::vector<Lit> lits)
    {
        stats_.Bump("sat.clauses_imported");
        return InsertClause(std::move(lits), /*root=*/false);
    }

    /**
     * Model value of a variable in the cone of the last kSat call (valid
     * until the next kSat). Any other variable reads an unspecified
     * value: false if it was never in a model's cone, else stale.
     */
    bool
    Value(uint32_t var) const
    {
        ACHILLES_CHECK(var < model_.size());
        return model_[var] == LBool::kTrue;
    }

    /**
     * Set the saved decision phase of a variable (the polarity tried
     * first). The bit-blaster seeds activation literals with phase true
     * so models satisfy as many retractable assertions as possible,
     * which is what makes cross-query solution reuse hit; conflict
     * analysis re-saves phases and adapts when assertions clash.
     */
    void
    SetPhase(uint32_t var, bool value)
    {
        ACHILLES_CHECK(var < NumVars());
        saved_phase_[var] = value ? 1 : 0;
    }

    /**
     * Learnt-clause retention cap before ReduceDB evicts the
     * lowest-activity half. 0 (the default) auto-sizes from the problem
     * clause count on the next Solve; tests pin small caps to exercise
     * the eviction path.
     */
    void SetLearntCap(int64_t cap) { learnt_cap_ = cap; }
    size_t NumLearnts() const { return learnts_.size(); }

    /** Cumulative event counts, read without touching the registry. */
    const SatCounters &counters() const { return counters_; }

    /** Solver statistics ("sat.conflicts", "sat.decisions", ...): the
     *  counters above under their registry names, plus rare events. */
    const StatsRegistry &stats() const;

  private:
    // Clauses are stored in one arena; a clause is referenced by its
    // offset. Layout: [size|learnt-flag][lit0][lit1]...; learnt clauses
    // carry one trailing word holding their float activity.
    using ClauseRef = uint32_t;
    static constexpr ClauseRef kNoClause = 0xffffffffu;
    static constexpr uint32_t kLearntFlag = 0x80000000u;

    // Per-variable flag bits (var_flags_).
    static constexpr uint8_t kVarShared = 1;  // exportable (SetVarShared)
    static constexpr uint8_t kVarRoot = 2;    // in an AddClause clause
    static constexpr uint8_t kVarInCone = 4;  // in the current call's cone
    static constexpr uint8_t kVarDefined = 8;  // made by NewDefinedVar

    struct Watcher
    {
        ClauseRef cref;
        Lit blocker;
    };

    LBool LitValue(Lit l) const;
    uint32_t NewDefinedVar(const Lit *inputs, size_t n);
    bool InsertClause(std::vector<Lit> lits, bool root);
    /** Mark the cone of `assumptions` (clearing the previous call's),
     *  queue its unassigned inputs for decision and return how many
     *  cone variables, inputs or not, are unassigned. */
    size_t MarkCone(const std::vector<Lit> &assumptions);
    /** `refute_only`: return kUnknown (instead of branching toward a
     *  model) once every assumption is established conflict-free --
     *  the cheap probe mode deletion-minimization runs, where only a
     *  propagation-level refutation matters. */
    SatStatus Search(const std::vector<Lit> &assumptions,
                     int64_t max_conflicts, bool refute_only = false);
    void AnalyzeFinalConflict(ClauseRef conflict);
    void AnalyzeFinalLit(Lit p);
    void CollectCoreFromSeen();
    void SortCore(const std::vector<Lit> &assumptions);
    void MinimizeCore();
    bool AllVarsShared(const std::vector<Lit> &lits) const;
    void MaybeExportLearnt(const std::vector<Lit> &learnt);
    void MaybeExportCore();
    void NewDecisionLevel() { trail_lim_.push_back(trail_.size()); }
    uint32_t DecisionLevel() const
    {
        return static_cast<uint32_t>(trail_lim_.size());
    }

    void Enqueue(Lit l, ClauseRef reason);
    ClauseRef Propagate();
    void Analyze(ClauseRef conflict, std::vector<Lit> *out_learnt,
                 uint32_t *out_btlevel);
    void BacktrackTo(uint32_t level);
    Lit PickBranchLit();
    ClauseRef AllocClause(const std::vector<Lit> &lits, bool learnt);
    void AttachClause(ClauseRef cref);
    void BumpVar(uint32_t var);
    void RescaleActivities();

    // Activity order-heap (max-heap on activity, var index tie-break):
    // PickBranchLit pops candidates in O(log V) instead of scanning all
    // variables per decision.
    bool HeapBefore(uint32_t a, uint32_t b) const
    {
        return activity_[a] > activity_[b] ||
               (activity_[a] == activity_[b] && a < b);
    }
    void HeapSiftUp(size_t i);
    void HeapSiftDown(size_t i);
    void HeapInsert(uint32_t var);
    uint32_t HeapPop();

    // Learnt-clause bookkeeping.
    float ClauseActivity(ClauseRef cref) const;
    void SetClauseActivity(ClauseRef cref, float activity);
    void BumpClause(ClauseRef cref);
    void ReduceDB();
    void GarbageCollect();

    uint32_t ClauseSize(ClauseRef cref) const
    {
        return arena_[cref] & ~kLearntFlag;
    }
    bool ClauseLearnt(ClauseRef cref) const
    {
        return (arena_[cref] & kLearntFlag) != 0;
    }
    Lit ClauseLit(ClauseRef cref, uint32_t i) const
    {
        return Lit::FromCode(arena_[cref + 1 + i]);
    }

    std::vector<uint32_t> arena_;
    std::vector<ClauseRef> clauses_;
    std::vector<ClauseRef> learnts_;
    std::vector<std::vector<Watcher>> watches_;  // indexed by lit code
    std::vector<LBool> assigns_;
    std::vector<LBool> model_;
    std::vector<uint8_t> saved_phase_;
    std::vector<double> activity_;
    std::vector<uint32_t> level_;
    std::vector<ClauseRef> reason_;
    std::vector<Lit> trail_;
    std::vector<size_t> trail_lim_;
    std::vector<uint32_t> heap_;     // var order-heap
    std::vector<int32_t> heap_pos_;  // var -> heap index, -1 if absent
    size_t qhead_ = 0;
    double var_inc_ = 1.0;
    double cla_inc_ = 1.0;
    int64_t learnt_cap_ = 0;  // 0 = auto-size on next Solve
    bool ok_ = true;
    bool minimize_core_ = false;
    bool trail_reuse_ = true;
    /** Set once the current call's input queue ran dry: every cone
     *  variable is queued from then on (see PickBranchLit). MarkCone
     *  clears it. */
    bool queue_whole_cone_ = false;
    std::vector<Lit> core_;
    /** The assumption literal established at each standing decision
     *  level (levels beyond its size are search decisions). The next
     *  Search keeps the longest prefix matching its own assumptions. */
    std::vector<Lit> assumption_trail_;
    std::vector<uint8_t> var_flags_;
    std::function<void(const std::vector<Lit> &)> export_hook_;

    // Definition inputs, compressed-row style: the inputs of variable v
    // are def_inputs_[def_[v]] up to the start of v + 1's (or the end);
    // a variable without a definition has none.
    std::vector<uint32_t> def_;
    std::vector<uint32_t> def_inputs_;
    /** Variables flagged kVarRoot, in flagging order. */
    std::vector<uint32_t> roots_;
    /** Variables flagged kVarInCone: the cone of the current call. */
    std::vector<uint32_t> cone_;

    // Conflict analysis scratch.
    std::vector<uint8_t> seen_;

    SatCounters counters_;
    mutable StatsRegistry stats_;
};

}  // namespace smt
}  // namespace achilles

#endif  // ACHILLES_SMT_SAT_H_
