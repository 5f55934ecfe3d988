// Achilles reproduction -- SMT library.
//
// Bit-blasting of bitvector expressions to CNF over a SatSolver, the way
// STP lowers QF_BV queries. Each expression node maps to a little-endian
// vector of SAT literals; gates are Tseitin-encoded with structural
// hashing at both the expression level (hash-consed DAG) and the gate
// level (AND/OR/XOR gate cache). Gate outputs and activation guards are
// SAT-level definitions (SatSolver::NewDefinedVar), so a solve decides
// only the circuits its assumptions and asserted units reach.

#ifndef ACHILLES_SMT_BITBLAST_H_
#define ACHILLES_SMT_BITBLAST_H_

#include <unordered_map>
#include <vector>

#include "smt/eval.h"
#include "smt/expr.h"
#include "smt/sat.h"

namespace achilles {
namespace smt {

/**
 * Incremental bit-blaster.
 *
 * Owns the mapping from expression nodes to literal vectors. Multiple
 * assertions may be blasted into the same SatSolver; shared sub-DAGs are
 * encoded once.
 */
class BitBlaster
{
  public:
    explicit BitBlaster(SatSolver *solver);

    /** Assert a width-1 expression as a unit constraint. */
    void AssertTrue(ExprRef e);

    /**
     * Retractable assertion: return an activation literal g with the
     * guard clause (¬g ∨ e) added, so solving under assumption g
     * enforces e while leaving it inert otherwise. Memoized per node --
     * the backbone of the incremental Solver backend, which re-asserts
     * the same path-constraint prefixes across thousands of queries.
     */
    Lit ActivationLit(ExprRef e);

    /**
     * Blast an expression, returning its literals (LSB first). Public so
     * tests can inspect encodings.
     */
    const std::vector<Lit> &Blast(ExprRef e);

    /**
     * Read back a symbolic variable's value from the solver's model.
     * Returns zero for variables that never reached the solver
     * (don't-cares).
     */
    uint64_t VarValueFromModel(uint32_t var_id) const;

    /** Extract a full model for the given variables. */
    Model ExtractModel(const std::vector<uint32_t> &var_ids) const;

    /** True literal (always-satisfied). */
    Lit TrueLit() const { return true_lit_; }

  private:
    Lit NewLit();
    Lit AndGate(Lit a, Lit b);
    Lit OrGate(Lit a, Lit b);
    Lit XorGate(Lit a, Lit b);
    Lit MuxGate(Lit sel, Lit then_l, Lit else_l);
    Lit EqGate(Lit a, Lit b) { return ~XorGate(a, b); }
    /** (sum, carry) of a full adder. */
    std::pair<Lit, Lit> FullAdder(Lit a, Lit b, Lit cin);

    std::vector<Lit> BlastNode(ExprRef e);
    std::vector<Lit> AddVectors(const std::vector<Lit> &a,
                                const std::vector<Lit> &b, Lit cin);
    Lit UltVector(const std::vector<Lit> &a, const std::vector<Lit> &b);
    std::vector<Lit> ShiftVector(Kind kind, const std::vector<Lit> &in,
                                 const std::vector<Lit> &amount);
    void DivRem(const std::vector<Lit> &a, const std::vector<Lit> &b,
                std::vector<Lit> *quotient, std::vector<Lit> *remainder);

    bool IsTrueLit(Lit l) const { return l == true_lit_; }
    bool IsFalseLit(Lit l) const { return l == ~true_lit_; }
    Lit ConstLit(bool b) const { return b ? true_lit_ : ~true_lit_; }

    SatSolver *solver_;
    Lit true_lit_;
    std::unordered_map<const Expr *, std::vector<Lit>> memo_;
    std::unordered_map<const Expr *, Lit> guard_memo_;
    std::unordered_map<uint32_t, std::vector<Lit>> var_bits_;
    // Gate CSE cache: key = (kind tag, lit codes).
    std::unordered_map<uint64_t, Lit> gate_cache_;
};

}  // namespace smt
}  // namespace achilles

#endif  // ACHILLES_SMT_BITBLAST_H_
