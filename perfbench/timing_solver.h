// perfbench -- home-solver timing decorator.
//
// Wraps the three virtual Check* entry points of smt::Solver: each
// override forwards to the base class and records the call, its wall
// latency and its verdict. Only the outermost call is recorded, so a
// batch sweep that falls back to per-group CheckSatAssuming calls
// counts once. The decorator reads a clock twice per call and changes
// no verdict, model or core.

#ifndef PERFBENCH_TIMING_SOLVER_H_
#define PERFBENCH_TIMING_SOLVER_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "smt/solver.h"

namespace perfbench {

/** What the decorator saw: one entry per outermost Check* call. */
struct SolverTally
{
    int64_t calls = 0;
    int64_t sat = 0;
    int64_t unsat = 0;
    int64_t unknown = 0;
    double busy_s = 0.0;
    std::vector<double> call_us;

    void
    Merge(const SolverTally &other)
    {
        calls += other.calls;
        sat += other.sat;
        unsat += other.unsat;
        unknown += other.unknown;
        busy_s += other.busy_s;
        call_us.insert(call_us.end(), other.call_us.begin(),
                       other.call_us.end());
    }
};

class TimingSolver : public achilles::smt::Solver
{
  public:
    using CheckResult = achilles::smt::CheckResult;
    using ExprRef = achilles::smt::ExprRef;
    using Model = achilles::smt::Model;

    using achilles::smt::Solver::Solver;

    CheckResult
    CheckSat(const std::vector<ExprRef> &assertions,
             Model *model = nullptr) override
    {
        Call call(this);
        CheckResult r = Solver::CheckSat(assertions, model);
        call.Verdict(r.status);
        return r;
    }

    CheckResult
    CheckSatAssuming(const std::vector<ExprRef> &base,
                     const std::vector<ExprRef> &extras,
                     Model *model = nullptr) override
    {
        Call call(this);
        CheckResult r = Solver::CheckSatAssuming(base, extras, model);
        call.Verdict(r.status);
        return r;
    }

    achilles::smt::BatchOutcome
    CheckSatBatch(
        const std::vector<ExprRef> &base,
        const std::vector<const std::vector<ExprRef> *> &groups) override
    {
        Call call(this);
        achilles::smt::BatchOutcome out = Solver::CheckSatBatch(base, groups);
        for (const CheckResult &r : out.verdicts)
            call.Verdict(r.status);
        return out;
    }

    const SolverTally &tally() const { return tally_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** Scope of one Check* call; records only at nesting depth 0. */
    class Call
    {
      public:
        explicit Call(TimingSolver *owner)
            : owner_(owner), outer_(owner->depth_++ == 0)
        {
            if (outer_)
                start_ = Clock::now();
        }
        Call(const Call &) = delete;
        Call &operator=(const Call &) = delete;

        void
        Verdict(achilles::smt::CheckStatus s)
        {
            if (!outer_)
                return;
            SolverTally &t = owner_->tally_;
            if (s == achilles::smt::CheckStatus::kSat)
                ++t.sat;
            else if (s == achilles::smt::CheckStatus::kUnsat)
                ++t.unsat;
            else
                ++t.unknown;
        }

        ~Call()
        {
            --owner_->depth_;
            if (!outer_)
                return;
            const double us =
                std::chrono::duration<double, std::micro>(Clock::now() -
                                                          start_)
                    .count();
            SolverTally &t = owner_->tally_;
            ++t.calls;
            t.busy_s += us * 1e-6;
            t.call_us.push_back(us);
        }

      private:
        TimingSolver *owner_;
        bool outer_;
        Clock::time_point start_;
    };

    int depth_ = 0;
    SolverTally tally_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_SOLVER_H_
