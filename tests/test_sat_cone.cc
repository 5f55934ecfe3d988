// Achilles reproduction -- tests.
//
// Cone-of-influence decisions in the SAT core (see the SatSolver class
// comment): random AND/XOR/MUX circuits with activation guards and a few
// raw hard clauses, solved under random assumption sequences. Every kSat
// partial model, extended by evaluation outside the cone, must satisfy
// every original clause, and every verdict must equal that of a fresh
// solve in which every clause is a root (full decisions: every variable
// is an input there). Solution reuse and imported clauses ride the same
// instance. Further tests check that a call queues only the circuit
// inputs of its cone for decision, and that a cone variable no input
// fixes is still decided.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "smt/sat.h"
#include "support/rng.h"

namespace achilles {
namespace smt {
namespace {

/** A random circuit built into a SatSolver, with its own copy of every
 *  clause and definition so a test can check models independently. */
class RandomCircuit
{
  public:
    enum class Kind { kFree, kAnd, kXor, kMux, kGuard };

    RandomCircuit(uint64_t seed, SatSolver *sat) : rng_(seed), sat_(sat)
    {
        const int free_vars = 4 + static_cast<int>(rng_.Below(6));
        for (int i = 0; i < free_vars; ++i)
            Add(Kind::kFree, {}, sat_->NewVar());
        const int gates = 10 + static_cast<int>(rng_.Below(30));
        for (int i = 0; i < gates; ++i)
            AddGate();
        const int guard_count = 3 + static_cast<int>(rng_.Below(6));
        for (int i = 0; i < guard_count; ++i) {
            const Lit body = RandomLit();
            const Lit g(sat_->NewDefinedVar({body}), false);
            Add(Kind::kGuard, {body}, g.var());
            Def({~g, body});
            guards_.push_back(g);
        }
        // A few raw hard clauses over the circuit: cone roots.
        const int raw = static_cast<int>(rng_.Below(3));
        for (int i = 0; i < raw; ++i) {
            std::vector<Lit> clause{RandomLit(), RandomLit(), RandomLit()};
            clauses_.push_back(clause);
            raw_.push_back(clause);
            sat_->AddClause(clause);
        }
    }

    Rng &rng() { return rng_; }
    const std::vector<Lit> &guards() const { return guards_; }
    const std::vector<std::vector<Lit>> &clauses() const { return clauses_; }
    uint32_t NumVars() const { return static_cast<uint32_t>(nodes_.size()); }

    /** Random subset of the guards, each maybe negated. */
    std::vector<Lit>
    RandomAssumptions()
    {
        std::vector<Lit> out;
        for (Lit g : guards_) {
            if (rng_.Chance(0.4))
                out.push_back(rng_.Chance(0.85) ? g : ~g);
        }
        return out;
    }

    /** The cone of `assumptions`, recomputed from the test's own copy
     *  of the definitions. */
    std::vector<uint8_t>
    Cone(const std::vector<Lit> &assumptions) const
    {
        std::vector<uint8_t> in(NumVars(), 0);
        std::vector<uint32_t> work;
        const auto visit = [&](uint32_t v) {
            if (!in[v]) {
                in[v] = 1;
                work.push_back(v);
            }
        };
        for (const std::vector<Lit> &clause : raw_)
            for (Lit l : clause)
                visit(l.var());
        for (Lit a : assumptions)
            visit(a.var());
        while (!work.empty()) {
            const uint32_t v = work.back();
            work.pop_back();
            for (Lit in_lit : nodes_[v].inputs)
                visit(in_lit.var());
        }
        return in;
    }

    /**
     * The solver's partial model on the cone, extended by evaluation:
     * gates outside the cone take their function's value, guards and
     * free variables outside it are false.
     */
    std::vector<bool>
    Extend(const std::vector<uint8_t> &cone) const
    {
        std::vector<bool> value(NumVars(), false);
        const auto lit = [&](Lit l) { return value[l.var()] != l.negated(); };
        for (uint32_t v = 0; v < NumVars(); ++v) {
            const Node &n = nodes_[v];
            if (cone[v]) {
                value[v] = sat_->Value(v);
                continue;
            }
            switch (n.kind) {
              case Kind::kFree:
              case Kind::kGuard:
                value[v] = false;
                break;
              case Kind::kAnd:
                value[v] = lit(n.inputs[0]) && lit(n.inputs[1]);
                break;
              case Kind::kXor:
                value[v] = lit(n.inputs[0]) != lit(n.inputs[1]);
                break;
              case Kind::kMux:
                value[v] = lit(n.inputs[0]) ? lit(n.inputs[1])
                                            : lit(n.inputs[2]);
                break;
            }
        }
        return value;
    }

    /** Verdict of a fresh solver over the same clauses, every one of
     *  them a root (full decisions); its core on kUnsat. */
    SatStatus
    FreshVerdict(const std::vector<Lit> &assumptions,
                 std::vector<Lit> *core = nullptr) const
    {
        SatSolver fresh;
        for (uint32_t v = 0; v < NumVars(); ++v)
            fresh.NewVar();
        for (const std::vector<Lit> &clause : clauses_)
            fresh.AddClause(clause);
        const SatStatus status = fresh.Solve(assumptions);
        if (core != nullptr)
            *core = fresh.unsat_core();
        return status;
    }

  private:
    struct Node
    {
        Kind kind;
        std::vector<Lit> inputs;
    };

    Lit
    RandomLit()
    {
        return Lit(static_cast<uint32_t>(rng_.Below(NumVars())),
                   rng_.Chance(0.5));
    }

    void
    Add(Kind kind, std::vector<Lit> inputs, uint32_t var)
    {
        ASSERT_EQ(var, NumVars());
        nodes_.push_back(Node{kind, std::move(inputs)});
    }

    void
    Def(std::vector<Lit> clause)
    {
        clauses_.push_back(clause);
        sat_->AddDefClause(std::move(clause));
    }

    void
    AddGate()
    {
        const Lit a = RandomLit();
        const Lit b = RandomLit();
        switch (rng_.Below(3)) {
          case 0: {
            const Lit o(sat_->NewDefinedVar({a, b}), false);
            Add(Kind::kAnd, {a, b}, o.var());
            Def({~o, a});
            Def({~o, b});
            Def({o, ~a, ~b});
            break;
          }
          case 1: {
            const Lit o(sat_->NewDefinedVar({a, b}), false);
            Add(Kind::kXor, {a, b}, o.var());
            Def({~o, a, b});
            Def({~o, ~a, ~b});
            Def({o, ~a, b});
            Def({o, a, ~b});
            break;
          }
          default: {
            const Lit sel = RandomLit();
            const Lit o(sat_->NewDefinedVar({sel, a, b}), false);
            Add(Kind::kMux, {sel, a, b}, o.var());
            Def({~sel, ~a, o});
            Def({~sel, a, ~o});
            Def({sel, ~b, o});
            Def({sel, b, ~o});
            break;
          }
        }
    }

    Rng rng_;
    SatSolver *sat_;
    std::vector<Node> nodes_;
    std::vector<Lit> guards_;
    std::vector<std::vector<Lit>> clauses_;  // every original clause
    std::vector<std::vector<Lit>> raw_;      // the AddClause ones
};

/** Every original clause holds under `value`, and so does every
 *  assumption. */
void
ExpectModel(const RandomCircuit &circuit, const std::vector<bool> &value,
            const std::vector<Lit> &assumptions, const std::string &where)
{
    const auto holds = [&](Lit l) { return value[l.var()] != l.negated(); };
    for (const std::vector<Lit> &clause : circuit.clauses()) {
        bool sat = false;
        for (Lit l : clause)
            sat = sat || holds(l);
        ASSERT_TRUE(sat) << where << ": extended model breaks a clause";
    }
    for (Lit a : assumptions)
        ASSERT_TRUE(holds(a)) << where << ": assumption false";
}

TEST(SatConeTest, ExtendedModelsSatisfyEveryClauseAndVerdictsMatch)
{
    int64_t sat_answers = 0;
    int64_t unsat_answers = 0;
    int64_t reuses = 0;
    int64_t imports = 0;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        SatSolver sat;
        RandomCircuit circuit(seed, &sat);
        Rng &rng = circuit.rng();
        for (int query = 0; query < 40; ++query) {
            const std::string where = "seed=" + std::to_string(seed) +
                                      " query=" + std::to_string(query);
            std::vector<Lit> assumptions = circuit.RandomAssumptions();
            std::vector<Lit> core;
            const SatStatus expected =
                circuit.FreshVerdict(assumptions, &core);
            ASSERT_EQ(sat.Solve(assumptions), expected) << where;
            if (expected == SatStatus::kUnsat) {
                ++unsat_answers;
                // A refutation the fresh solver found is implied by the
                // clauses: hand it over as a sibling's lemma.
                if (!core.empty() && rng.Chance(0.5)) {
                    std::vector<Lit> lemma;
                    for (Lit l : core)
                        lemma.push_back(~l);
                    sat.ImportClause(lemma);
                    ++imports;
                }
                continue;
            }
            ++sat_answers;
            ExpectModel(circuit, circuit.Extend(circuit.Cone(assumptions)),
                        assumptions, where);

            // Re-ask with guards the standing model already satisfies:
            // the solution-reuse path must answer, and its partial
            // model extends the same way.
            std::vector<Lit> compatible;
            const std::vector<uint8_t> cone = circuit.Cone(assumptions);
            for (Lit g : circuit.guards()) {
                if (cone[g.var()] && sat.Value(g.var()))
                    compatible.push_back(g);
            }
            const int64_t reuses_before = sat.counters().solution_reuses;
            ASSERT_EQ(sat.Solve(compatible), SatStatus::kSat) << where;
            reuses += sat.counters().solution_reuses - reuses_before;
            ExpectModel(circuit, circuit.Extend(circuit.Cone(compatible)),
                        compatible, where + " (reuse)");
        }
    }
    EXPECT_GT(sat_answers, 100);
    EXPECT_GT(unsat_answers, 100);
    EXPECT_GT(reuses, 100);
    EXPECT_GT(imports, 20);
}

TEST(SatConeTest, DecidesOnlyTheAssumedCircuit)
{
    // Two independent guarded XOR chains: solving under one guard must
    // not spend a decision on the other chain.
    SatSolver sat;
    const auto chain = [&sat](int length) {
        Lit acc(sat.NewVar(), false);
        for (int i = 0; i < length; ++i) {
            const Lit in(sat.NewVar(), false);
            const Lit o(sat.NewDefinedVar({acc, in}), false);
            sat.AddDefClause({~o, acc, in});
            sat.AddDefClause({~o, ~acc, ~in});
            sat.AddDefClause({o, ~acc, in});
            sat.AddDefClause({o, acc, ~in});
            acc = o;
        }
        const Lit g(sat.NewDefinedVar({acc}), false);
        sat.AddDefClause({~g, acc});
        return g;
    };
    const Lit small = chain(4);
    const Lit large = chain(200);
    ASSERT_EQ(sat.Solve({small}), SatStatus::kSat);
    // At most the small chain's free inputs (5) are decided.
    EXPECT_LE(sat.counters().decisions, 5);
    // The call queues its cone's inputs only: all 201 of the large
    // chain's free variables are unassigned when it starts, so one more
    // push would be a guard or an XOR output.
    const int64_t pushes_before = sat.counters().queue_pushes;
    ASSERT_EQ(sat.Solve({large}), SatStatus::kSat);
    EXPECT_GT(sat.counters().decisions, 5);
    EXPECT_LE(sat.counters().queue_pushes - pushes_before, 201);
}

TEST(SatConeTest, DecidesConeVariablesNoInputFixes)
{
    // Two defined variables that assigning every input leaves open: the
    // guard g, which a raw clause roots but no assumption sets, and h,
    // whose one-sided definition only says h >= x & s. Once the inputs
    // are decided the queue is empty, so the call must fall back to
    // queueing the rest of the cone. Every variable is in the cone of
    // every query below, so the partial model is the extended one.
    SatSolver sat;
    std::vector<std::vector<Lit>> clauses;
    const auto def = [&](std::vector<Lit> clause) {
        clauses.push_back(clause);
        sat.AddDefClause(std::move(clause));
    };
    const Lit x(sat.NewVar(), false);
    const Lit y(sat.NewVar(), false);
    const Lit s(sat.NewVar(), false);
    const Lit w(sat.NewVar(), false);
    sat.SetPhase(x.var(), true);
    sat.SetPhase(y.var(), true);
    sat.SetPhase(w.var(), true);
    const Lit a(sat.NewDefinedVar({x, y}), false);  // a = x & y
    def({~a, x});
    def({~a, y});
    def({a, ~x, ~y});
    const Lit g(sat.NewDefinedVar({a}), false);  // guard over a
    def({~g, a});
    clauses.push_back({g, w});
    sat.AddClause({g, w});
    const Lit h(sat.NewDefinedVar({x, s}), false);
    def({h, ~x, ~s});
    // Left open, g and h would read false and break this clause.
    clauses.push_back({g, h, ~w});
    sat.AddClause({g, h, ~w});
    const Lit m(sat.NewDefinedVar({s, h, y}), false);  // m = s ? h : y
    def({~s, ~h, m});
    def({~s, h, ~m});
    def({s, ~y, m});
    def({s, y, ~m});
    const Lit q(sat.NewDefinedVar({m}), false);  // guard over m
    def({~q, m});
    const uint32_t vars = sat.NumVars();

    /** Whether every clause and assumption holds under `holds`. */
    const auto satisfies = [&clauses](const auto &holds,
                                      const std::vector<Lit> &assumptions) {
        for (const std::vector<Lit> &clause : clauses) {
            bool any = false;
            for (Lit l : clause)
                any = any || holds(l);
            if (!any)
                return false;
        }
        for (Lit l : assumptions) {
            if (!holds(l))
                return false;
        }
        return true;
    };
    const auto brute_force = [&](const std::vector<Lit> &assumptions) {
        for (uint32_t bits = 0; bits < (1u << vars); ++bits) {
            const auto holds = [bits](Lit l) {
                return ((bits >> l.var()) & 1) != l.negated();
            };
            if (satisfies(holds, assumptions))
                return true;
        }
        return false;
    };
    const auto model_holds = [&sat](Lit l) {
        return sat.Value(l.var()) != l.negated();
    };

    const std::vector<std::vector<Lit>> queries = {
        {q}, {q, ~w}, {q, s}, {q, s, ~h}, {~q, ~y}, {q, ~y, ~s}, {q, ~g},
        {q, ~w, ~x}, {q},
    };
    for (size_t i = 0; i < queries.size(); ++i) {
        const std::string where = "query " + std::to_string(i);
        const int64_t pushes_before = sat.counters().queue_pushes;
        const SatStatus status = sat.Solve(queries[i]);
        ASSERT_EQ(status == SatStatus::kSat, brute_force(queries[i]))
            << where;
        if (i == 0) {
            // Four inputs, then the fallback's g and h.
            EXPECT_EQ(sat.counters().queue_pushes - pushes_before, 6)
                << where;
        }
        if (status == SatStatus::kSat) {
            EXPECT_TRUE(satisfies(model_holds, queries[i]))
                << where << ": the model breaks a clause or assumption";
        }
    }
}

TEST(SatConeTest, RawClausesKeepFullDecisions)
{
    // Clauses added through AddClause root every variable they mention,
    // so raw CNF is decided in full: under the lone assumption v0 the
    // cone would otherwise be {v0}, which propagation alone assigns.
    SatSolver sat;
    std::vector<Lit> v;
    for (int i = 0; i < 6; ++i)
        v.emplace_back(sat.NewVar(), false);
    sat.AddBinary(v[0], v[1]);
    sat.AddBinary(~v[2], v[3]);
    sat.AddTernary(v[3], v[4], ~v[5]);
    ASSERT_EQ(sat.Solve({v[0]}), SatStatus::kSat);
    EXPECT_GT(sat.counters().decisions, 0);
}

}  // namespace
}  // namespace smt
}  // namespace achilles
