// Achilles reproduction -- SMT library.
//
// Bit-blasting implementation.

#include "smt/bitblast.h"

#include <algorithm>

namespace achilles {
namespace smt {

namespace {

/** Pack a gate cache key from a tag and two literal codes. */
uint64_t
GateKey(uint32_t tag, Lit a, Lit b)
{
    // Commutative gates are normalized by the caller.
    return (static_cast<uint64_t>(tag) << 58) |
           (static_cast<uint64_t>(a.code()) << 29) |
           static_cast<uint64_t>(b.code());
}

}  // namespace

BitBlaster::BitBlaster(SatSolver *solver) : solver_(solver)
{
    const uint32_t tvar = solver_->NewVar();
    true_lit_ = Lit(tvar, false);
    solver_->AddUnit(true_lit_);
}

Lit
BitBlaster::NewLit()
{
    return Lit(solver_->NewVar(), false);
}

Lit
BitBlaster::AndGate(Lit a, Lit b)
{
    if (IsFalseLit(a) || IsFalseLit(b))
        return ConstLit(false);
    if (IsTrueLit(a))
        return b;
    if (IsTrueLit(b))
        return a;
    if (a == b)
        return a;
    if (a == ~b)
        return ConstLit(false);
    if (b.code() < a.code())
        std::swap(a, b);
    const uint64_t key = GateKey(1, a, b);
    auto it = gate_cache_.find(key);
    if (it != gate_cache_.end())
        return it->second;
    const Lit o(solver_->NewDefinedVar({a, b}), false);
    solver_->AddDefClause({~o, a});
    solver_->AddDefClause({~o, b});
    solver_->AddDefClause({o, ~a, ~b});
    gate_cache_.emplace(key, o);
    return o;
}

Lit
BitBlaster::OrGate(Lit a, Lit b)
{
    return ~AndGate(~a, ~b);
}

Lit
BitBlaster::XorGate(Lit a, Lit b)
{
    if (IsFalseLit(a))
        return b;
    if (IsFalseLit(b))
        return a;
    if (IsTrueLit(a))
        return ~b;
    if (IsTrueLit(b))
        return ~a;
    if (a == b)
        return ConstLit(false);
    if (a == ~b)
        return ConstLit(true);
    // Normalize: smaller positive-form code first; fold sign into output.
    bool flip = false;
    if (a.negated()) {
        a = ~a;
        flip = !flip;
    }
    if (b.negated()) {
        b = ~b;
        flip = !flip;
    }
    if (b.code() < a.code())
        std::swap(a, b);
    const uint64_t key = GateKey(2, a, b);
    auto it = gate_cache_.find(key);
    Lit o;
    if (it != gate_cache_.end()) {
        o = it->second;
    } else {
        o = Lit(solver_->NewDefinedVar({a, b}), false);
        solver_->AddDefClause({~o, a, b});
        solver_->AddDefClause({~o, ~a, ~b});
        solver_->AddDefClause({o, ~a, b});
        solver_->AddDefClause({o, a, ~b});
        gate_cache_.emplace(key, o);
    }
    return flip ? ~o : o;
}

Lit
BitBlaster::MuxGate(Lit sel, Lit then_l, Lit else_l)
{
    if (IsTrueLit(sel))
        return then_l;
    if (IsFalseLit(sel))
        return else_l;
    if (then_l == else_l)
        return then_l;
    if (IsTrueLit(then_l) && IsFalseLit(else_l))
        return sel;
    if (IsFalseLit(then_l) && IsTrueLit(else_l))
        return ~sel;
    const Lit o(solver_->NewDefinedVar({sel, then_l, else_l}), false);
    solver_->AddDefClause({~sel, ~then_l, o});
    solver_->AddDefClause({~sel, then_l, ~o});
    solver_->AddDefClause({sel, ~else_l, o});
    solver_->AddDefClause({sel, else_l, ~o});
    return o;
}

std::pair<Lit, Lit>
BitBlaster::FullAdder(Lit a, Lit b, Lit cin)
{
    const Lit axb = XorGate(a, b);
    const Lit sum = XorGate(axb, cin);
    const Lit carry = OrGate(AndGate(a, b), AndGate(axb, cin));
    return {sum, carry};
}

std::vector<Lit>
BitBlaster::AddVectors(const std::vector<Lit> &a, const std::vector<Lit> &b,
                       Lit cin)
{
    ACHILLES_CHECK(a.size() == b.size());
    std::vector<Lit> out(a.size());
    Lit carry = cin;
    for (size_t i = 0; i < a.size(); ++i) {
        auto [sum, cout] = FullAdder(a[i], b[i], carry);
        out[i] = sum;
        carry = cout;
    }
    return out;
}

Lit
BitBlaster::UltVector(const std::vector<Lit> &a, const std::vector<Lit> &b)
{
    ACHILLES_CHECK(a.size() == b.size());
    // Ripple comparison from LSB: lt' = (~a & b) | ((a == b) & lt).
    Lit lt = ConstLit(false);
    for (size_t i = 0; i < a.size(); ++i) {
        const Lit less_here = AndGate(~a[i], b[i]);
        const Lit eq_here = EqGate(a[i], b[i]);
        lt = OrGate(less_here, AndGate(eq_here, lt));
    }
    return lt;
}

std::vector<Lit>
BitBlaster::ShiftVector(Kind kind, const std::vector<Lit> &in,
                        const std::vector<Lit> &amount)
{
    const size_t w = in.size();
    const Lit fill_base =
        kind == Kind::kAShr ? in[w - 1] : ConstLit(false);
    std::vector<Lit> acc = in;
    // Barrel stages for amount bits that denote in-range distances.
    for (size_t k = 0; k < amount.size() && (1ull << k) < w; ++k) {
        const size_t dist = 1ull << k;
        std::vector<Lit> shifted(w);
        for (size_t i = 0; i < w; ++i) {
            Lit src;
            if (kind == Kind::kShl)
                src = i >= dist ? acc[i - dist] : ConstLit(false);
            else
                src = i + dist < w ? acc[i + dist] : fill_base;
            shifted[i] = MuxGate(amount[k], src, acc[i]);
        }
        acc = std::move(shifted);
    }
    // If any amount bit at or above log2(w) is set (or the low bits
    // encode a distance >= w), the result is all-fill. The barrel stages
    // above already handle distances < w; compute an "out of range" flag
    // for amount >= w.
    Lit oor = ConstLit(false);
    for (size_t k = 0; k < amount.size(); ++k) {
        if ((1ull << k) >= w)
            oor = OrGate(oor, amount[k]);
    }
    // Low-bit combinations never exceed w-1 when w is a power of two;
    // for non-power-of-two widths compare the low field against w.
    size_t covered_bits = 0;
    while ((1ull << covered_bits) < w)
        ++covered_bits;
    if ((1ull << covered_bits) != w && covered_bits <= amount.size()) {
        // amount_low >= w?
        std::vector<Lit> low(amount.begin(),
                             amount.begin() +
                                 std::min(covered_bits, amount.size()));
        std::vector<Lit> wconst;
        for (size_t i = 0; i < low.size(); ++i)
            wconst.push_back(ConstLit((w >> i) & 1));
        const Lit low_lt_w = UltVector(low, wconst);
        oor = OrGate(oor, ~low_lt_w);
    }
    std::vector<Lit> out(w);
    for (size_t i = 0; i < w; ++i)
        out[i] = MuxGate(oor, fill_base, acc[i]);
    return out;
}

void
BitBlaster::DivRem(const std::vector<Lit> &a, const std::vector<Lit> &b,
                   std::vector<Lit> *quotient, std::vector<Lit> *remainder)
{
    const size_t w = a.size();
    // Restoring division with a (w+1)-bit partial remainder.
    std::vector<Lit> rem(w + 1, ConstLit(false));
    std::vector<Lit> bext = b;
    bext.push_back(ConstLit(false));
    std::vector<Lit> q(w, ConstLit(false));
    for (size_t step = 0; step < w; ++step) {
        const size_t bit = w - 1 - step;
        // rem = (rem << 1) | a[bit], dropping the top bit (it is always
        // zero before the shift because rem < b <= 2^w - 1).
        for (size_t i = w; i > 0; --i)
            rem[i] = rem[i - 1];
        rem[0] = a[bit];
        // geq = rem >= bext
        const Lit geq = ~UltVector(rem, bext);
        // rem = geq ? rem - bext : rem
        std::vector<Lit> neg_b(w + 1);
        for (size_t i = 0; i <= w; ++i)
            neg_b[i] = ~bext[i];
        std::vector<Lit> diff = AddVectors(rem, neg_b, ConstLit(true));
        for (size_t i = 0; i <= w; ++i)
            rem[i] = MuxGate(geq, diff[i], rem[i]);
        q[bit] = geq;
    }
    quotient->assign(q.begin(), q.end());
    remainder->assign(rem.begin(), rem.begin() + w);
    // SMT-LIB semantics for division by zero (x/0 = all-ones, x%0 = x)
    // fall out of the circuit: with b == 0, geq is always true and the
    // subtraction is a no-op, so q = ~0 and rem = a.
}

const std::vector<Lit> &
BitBlaster::Blast(ExprRef e)
{
    auto it = memo_.find(e);
    if (it != memo_.end())
        return it->second;
    std::vector<Lit> bits = BlastNode(e);
    ACHILLES_CHECK(bits.size() == e->width(), "blast width mismatch");
    return memo_.emplace(e, std::move(bits)).first->second;
}

std::vector<Lit>
BitBlaster::BlastNode(ExprRef e)
{
    const uint32_t w = e->width();
    switch (e->kind()) {
      case Kind::kConst: {
        std::vector<Lit> bits(w);
        for (uint32_t i = 0; i < w; ++i)
            bits[i] = ConstLit((e->ConstValue() >> i) & 1);
        return bits;
      }
      case Kind::kVar: {
        auto vit = var_bits_.find(e->VarId());
        if (vit != var_bits_.end())
            return vit->second;
        std::vector<Lit> bits(w);
        for (uint32_t i = 0; i < w; ++i)
            bits[i] = NewLit();
        var_bits_.emplace(e->VarId(), bits);
        return bits;
      }
      case Kind::kAdd:
        return AddVectors(Blast(e->kid(0)), Blast(e->kid(1)),
                          ConstLit(false));
      case Kind::kSub: {
        std::vector<Lit> nb = Blast(e->kid(1));
        for (Lit &l : nb)
            l = ~l;
        return AddVectors(Blast(e->kid(0)), nb, ConstLit(true));
      }
      case Kind::kMul: {
        const std::vector<Lit> a = Blast(e->kid(0));
        const std::vector<Lit> b = Blast(e->kid(1));
        std::vector<Lit> acc(w, ConstLit(false));
        for (uint32_t i = 0; i < w; ++i) {
            if (IsFalseLit(b[i]))
                continue;
            // acc += (a << i) & replicate(b[i])
            std::vector<Lit> partial(w, ConstLit(false));
            for (uint32_t j = i; j < w; ++j)
                partial[j] = AndGate(a[j - i], b[i]);
            acc = AddVectors(acc, partial, ConstLit(false));
        }
        return acc;
      }
      case Kind::kUDiv: {
        std::vector<Lit> q, r;
        DivRem(Blast(e->kid(0)), Blast(e->kid(1)), &q, &r);
        return q;
      }
      case Kind::kURem: {
        std::vector<Lit> q, r;
        DivRem(Blast(e->kid(0)), Blast(e->kid(1)), &q, &r);
        return r;
      }
      case Kind::kAnd: {
        const std::vector<Lit> &a = Blast(e->kid(0));
        const std::vector<Lit> &b = Blast(e->kid(1));
        std::vector<Lit> bits(w);
        for (uint32_t i = 0; i < w; ++i)
            bits[i] = AndGate(a[i], b[i]);
        return bits;
      }
      case Kind::kOr: {
        const std::vector<Lit> &a = Blast(e->kid(0));
        const std::vector<Lit> &b = Blast(e->kid(1));
        std::vector<Lit> bits(w);
        for (uint32_t i = 0; i < w; ++i)
            bits[i] = OrGate(a[i], b[i]);
        return bits;
      }
      case Kind::kXor: {
        const std::vector<Lit> &a = Blast(e->kid(0));
        const std::vector<Lit> &b = Blast(e->kid(1));
        std::vector<Lit> bits(w);
        for (uint32_t i = 0; i < w; ++i)
            bits[i] = XorGate(a[i], b[i]);
        return bits;
      }
      case Kind::kNot: {
        std::vector<Lit> bits = Blast(e->kid(0));
        for (Lit &l : bits)
            l = ~l;
        return bits;
      }
      case Kind::kShl:
      case Kind::kLShr:
      case Kind::kAShr:
        return ShiftVector(e->kind(), Blast(e->kid(0)), Blast(e->kid(1)));
      case Kind::kConcat: {
        const std::vector<Lit> &high = Blast(e->kid(0));
        const std::vector<Lit> &low = Blast(e->kid(1));
        std::vector<Lit> bits = low;
        bits.insert(bits.end(), high.begin(), high.end());
        return bits;
      }
      case Kind::kExtract: {
        const std::vector<Lit> &in = Blast(e->kid(0));
        const uint32_t off = static_cast<uint32_t>(e->aux());
        return std::vector<Lit>(in.begin() + off, in.begin() + off + w);
      }
      case Kind::kZExt: {
        std::vector<Lit> bits = Blast(e->kid(0));
        bits.resize(w, ConstLit(false));
        return bits;
      }
      case Kind::kSExt: {
        std::vector<Lit> bits = Blast(e->kid(0));
        const Lit sign = bits.back();
        bits.resize(w, sign);
        return bits;
      }
      case Kind::kEq: {
        const std::vector<Lit> &a = Blast(e->kid(0));
        const std::vector<Lit> &b = Blast(e->kid(1));
        Lit acc = ConstLit(true);
        for (size_t i = 0; i < a.size(); ++i)
            acc = AndGate(acc, EqGate(a[i], b[i]));
        return {acc};
      }
      case Kind::kUlt:
        return {UltVector(Blast(e->kid(0)), Blast(e->kid(1)))};
      case Kind::kUle:
        return {~UltVector(Blast(e->kid(1)), Blast(e->kid(0)))};
      case Kind::kSlt: {
        std::vector<Lit> a = Blast(e->kid(0));
        std::vector<Lit> b = Blast(e->kid(1));
        a.back() = ~a.back();  // flip sign bits: signed -> unsigned order
        b.back() = ~b.back();
        return {UltVector(a, b)};
      }
      case Kind::kSle: {
        std::vector<Lit> a = Blast(e->kid(0));
        std::vector<Lit> b = Blast(e->kid(1));
        a.back() = ~a.back();
        b.back() = ~b.back();
        return {~UltVector(b, a)};
      }
      case Kind::kIte: {
        const std::vector<Lit> &cond = Blast(e->kid(0));
        const std::vector<Lit> &tv = Blast(e->kid(1));
        const std::vector<Lit> &ev = Blast(e->kid(2));
        std::vector<Lit> bits(w);
        for (uint32_t i = 0; i < w; ++i)
            bits[i] = MuxGate(cond[0], tv[i], ev[i]);
        return bits;
      }
    }
    ACHILLES_UNREACHABLE("blast: bad kind");
}

void
BitBlaster::AssertTrue(ExprRef e)
{
    ACHILLES_CHECK(e->width() == 1, "asserting non-boolean");
    const std::vector<Lit> &bits = Blast(e);
    solver_->AddUnit(bits[0]);
}

Lit
BitBlaster::ActivationLit(ExprRef e)
{
    ACHILLES_CHECK(e->width() == 1, "guarding non-boolean");
    auto it = guard_memo_.find(e);
    if (it != guard_memo_.end())
        return it->second;
    const Lit body = Blast(e)[0];
    // A guard is defined over its body: only a call assuming it (or a
    // cone reaching it) decides the assertion's circuit.
    const Lit guard(solver_->NewDefinedVar({body}), false);
    // If e blasts to constant-false, AddDefClause reduces (¬g ∨ false)
    // to the unit ¬g, so assuming g correctly yields UNSAT;
    // constant-true bodies make the clause vacuous and g a free literal.
    solver_->AddDefClause({~guard, body});
    // Guards branch to active first: models then satisfy as many
    // retractable assertions as possible, so the solver's cross-query
    // solution reuse keeps hitting as the assumption set drifts.
    solver_->SetPhase(guard.var(), true);
    guard_memo_.emplace(e, guard);
    return guard;
}

uint64_t
BitBlaster::VarValueFromModel(uint32_t var_id) const
{
    auto it = var_bits_.find(var_id);
    if (it == var_bits_.end())
        return 0;
    uint64_t value = 0;
    for (size_t i = 0; i < it->second.size(); ++i) {
        const Lit l = it->second[i];
        const bool bit = solver_->Value(l.var()) != l.negated();
        value |= static_cast<uint64_t>(bit) << i;
    }
    return value;
}

Model
BitBlaster::ExtractModel(const std::vector<uint32_t> &var_ids) const
{
    Model model;
    for (uint32_t id : var_ids)
        model.Set(id, VarValueFromModel(id));
    return model;
}

}  // namespace smt
}  // namespace achilles
