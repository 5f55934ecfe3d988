// Achilles reproduction -- SMT library.

#include "smt/solver.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "smt/bitblast.h"
#include "smt/interval.h"
#include "smt/query_cache.h"
#include "smt/sat.h"

namespace achilles {
namespace smt {

const char *
CheckResultName(CheckStatus s)
{
    switch (s) {
      case CheckStatus::kSat: return "sat";
      case CheckStatus::kUnsat: return "unsat";
      case CheckStatus::kUnknown: return "unknown";
    }
    ACHILLES_UNREACHABLE("bad CheckStatus");
}

/**
 * The persistent solving stack behind model-less queries: one SAT
 * instance accumulating the CNF of every expression node ever asserted,
 * one activation literal per assertion, learned clauses retained across
 * queries (ReduceDB-capped inside SatSolver), plus the guard registries
 * the cross-solver lemma exchange anchors on (fingerprint -> guarded
 * expression for imports, activation variable -> expression for
 * exports).
 */
struct Solver::IncrementalBackend
{
    struct FpHash
    {
        size_t
        operator()(const LemmaFingerprint &fp) const
        {
            return static_cast<size_t>(
                fp.first ^ (fp.second * 0x9e3779b97f4a7c15ull));
        }
    };

    SatSolver sat;
    BitBlaster blaster;
    /** Every expression that ever got an activation literal here. */
    std::unordered_set<ExprRef> guarded;
    /** Import anchor: fingerprint -> guarded expression (first wins on
     *  the astronomically unlikely 128-bit collision). */
    std::unordered_map<LemmaFingerprint, ExprRef, FpHash> guarded_by_fp;
    /** Export anchor: activation variable -> guarded expression. */
    std::unordered_map<uint32_t, ExprRef> expr_by_guard_var;

    IncrementalBackend() : blaster(&sat) {}
};

Solver::Solver(ExprContext *ctx, SolverConfig config,
               QueryCache *shared_cache, uint32_t shared_var_limit)
    : ctx_(ctx), config_(config), shared_cache_(shared_cache),
      shared_var_limit_(shared_var_limit)
{
    if (config_.enable_cache)
        cache_ = std::make_unique<QueryCache>(/*shards=*/1);
    if (config_.obs.metrics_on()) {
        obs_queries_ = config_.obs.CounterFor("solver.queries");
        obs_unknowns_ = config_.obs.CounterFor("solver.unknowns");
        obs_cache_hits_ = config_.obs.CounterFor("cache.hits");
        obs_cache_misses_ = config_.obs.CounterFor("cache.misses");
        obs_conflicts_ = config_.obs.DistributionFor("solver.conflicts");
        obs_core_size_ = config_.obs.DistributionFor("solver.core_size");
    }
}

Solver::~Solver() = default;

namespace {

LemmaFingerprint
FingerprintOf(ExprRef e)
{
    return {e->struct_hash(), e->struct_hash2()};
}

/** A core in `live` indices as the sorted fingerprints the query cache
 *  stores (`live` is duplicate-free, so they are too). */
QueryFingerprints
CoreFingerprints(const std::vector<ExprRef> &live,
                 const std::vector<uint32_t> &live_core)
{
    QueryFingerprints out;
    out.reserve(live_core.size());
    for (uint32_t k : live_core)
        out.push_back(FingerprintOf(live[k]));
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace

QueryCache *
Solver::KeyQuery(const std::vector<ExprRef> &live, QueryCacheKey *key,
                 QueryFingerprints *fingerprints)
{
    if (!config_.enable_cache)
        return nullptr;
    if (shared_cache_ != nullptr &&
        QueryCache::ComputeKey(live, shared_var_limit_, key, fingerprints))
        return shared_cache_;
    QueryCache::ComputeKey(live, std::numeric_limits<uint32_t>::max(), key,
                           fingerprints);
    return cache_.get();
}

void
Solver::CountProbe(const QueryCache *cache, bool hit)
{
    // The shared cache counts its own hits (exported once per run as
    // "exec.queries_cached"); the solver reports only its private one,
    // so no hit is counted under both names.
    if (hit) {
        obs_cache_hits_.Bump();
        if (cache == cache_.get())
            stats_.Bump("solver.cache_hits");
    } else {
        obs_cache_misses_.Bump();
    }
}

CheckResult
Solver::CheckSatExpr(ExprRef e, Model *model)
{
    std::vector<ExprRef> conjuncts;
    FlattenConjunction(e, &conjuncts);
    return CheckSat(conjuncts, model);
}

CheckResult
Solver::CheckSat(const std::vector<ExprRef> &assertions, Model *model)
{
    return CheckSatSets(assertions, nullptr, model);
}

CheckResult
Solver::CheckSatAssuming(const std::vector<ExprRef> &base,
                         const std::vector<ExprRef> &extras, Model *model)
{
    return CheckSatSets(base, &extras, model);
}

bool
Solver::Canonicalize(const std::vector<ExprRef> &base,
                     const std::vector<ExprRef> *extras,
                     std::vector<ExprRef> *live,
                     std::vector<uint32_t> *caller_index,
                     uint32_t *false_index) const
{
    // Collect live assertions tagged with their caller position (base
    // first, then extras) so unsat cores can be mapped back.
    std::vector<std::pair<ExprRef, uint32_t>> entries;
    entries.reserve(base.size() + (extras ? extras->size() : 0));
    uint32_t idx = 0;
    for (size_t part = 0; part < 2; ++part) {
        const std::vector<ExprRef> *assertions =
            part == 0 ? &base : extras;
        if (assertions == nullptr)
            continue;
        for (ExprRef e : *assertions) {
            ACHILLES_CHECK(e->width() == 1, "non-boolean assertion");
            if (e->IsFalse()) {
                *false_index = idx;
                return false;
            }
            if (!e->IsTrue())
                entries.emplace_back(e, idx);
            ++idx;
        }
    }
    // Deduplicate and order structurally. The order fixes the CNF
    // variable numbering of the fresh-instance path, so it must not
    // depend on pointer values: structural order makes the SAT instance
    // -- and therefore the model returned for satisfiable queries --
    // identical across runs and across the id-aligned worker contexts
    // of the parallel explorer. The incremental backend reuses it as a
    // deterministic assumption order. Ties break on caller position so
    // duplicates collapse onto their first occurrence.
    std::sort(entries.begin(), entries.end(),
              [](const std::pair<ExprRef, uint32_t> &a,
                 const std::pair<ExprRef, uint32_t> &b) {
                  const int c = StructuralCompare(a.first, b.first);
                  return c != 0 ? c < 0 : a.second < b.second;
              });
    live->reserve(entries.size());
    caller_index->reserve(entries.size());
    for (const auto &[e, pos] : entries) {
        if (!live->empty() && live->back() == e)
            continue;
        live->push_back(e);
        caller_index->push_back(pos);
    }
    return true;
}

CheckResult
Solver::CheckSatSets(const std::vector<ExprRef> &base,
                     const std::vector<ExprRef> *extras, Model *model)
{
    stats_.Bump("solver.queries");

    // Observability: one span per query on this solver's lane, finalized
    // with verdict/conflicts/core by `finish` below on every
    // return path. All of it is behind null-check branches -- with
    // config_.obs unset the query runs exactly as before.
    obs::ScopedSpan span(config_.obs.tracer, config_.obs.lane,
                         "solver.query", "solver");
    const bool obs_on = config_.obs.enabled();
    const int64_t obs_conflicts_before = sat_totals_.conflicts;
    const auto finish = [&](CheckResult result) -> CheckResult {
        obs_queries_.Bump();
        if (result.status == CheckStatus::kUnknown)
            obs_unknowns_.Bump();
        if (obs_on) {
            const int64_t conflicts =
                sat_totals_.conflicts - obs_conflicts_before;
            obs_conflicts_.Record(conflicts);
            span.AddArg("conflicts", conflicts);
            span.AddArg("assertions",
                        static_cast<int64_t>(
                            base.size() +
                            (extras != nullptr ? extras->size() : 0)));
            if (result.has_core) {
                obs_core_size_.Record(
                    static_cast<int64_t>(result.core.size()));
                span.AddArg("core", static_cast<int64_t>(result.core.size()));
            }
            span.SetStrArg("verdict", CheckResultName(result));
        }
        return result;
    };

    // Cores only accompany answers the model-less, unbudgeted
    // incremental path could have produced -- including the trivial
    // ones, so has_core remains a reliable proxy for "decided on the
    // core-producing path" (budgeted and model-producing queries are
    // always core-less, per the CheckResult contract).
    const bool incremental_path = model == nullptr &&
                                  config_.enable_incremental &&
                                  config_.unbudgeted();
    const bool core_path = incremental_path && config_.enable_cores;

    std::vector<ExprRef> live;
    std::vector<uint32_t> caller_index;
    uint32_t false_index = 0;
    if (!Canonicalize(base, extras, &live, &caller_index, &false_index)) {
        stats_.Bump("solver.trivial_unsat");
        if (model)
            *model = Model();
        CheckResult result(CheckStatus::kUnsat);
        if (core_path) {
            result.has_core = true;
            result.core.push_back(false_index);
        }
        return finish(result);
    }
    if (live.empty()) {
        stats_.Bump("solver.trivial_sat");
        if (model)
            *model = Model();
        return finish(CheckStatus::kSat);
    }

    // Cores are computed in canonical (live-vector) indices and cached
    // as assertion fingerprints; per call they are mapped to the
    // caller's positions (first occurrence per duplicated assertion, per
    // the CheckResult contract).
    const auto core_to_caller = [&](const std::vector<uint32_t> &live_core) {
        std::vector<uint32_t> out;
        out.reserve(live_core.size());
        for (uint32_t k : live_core)
            out.push_back(caller_index[k]);
        std::sort(out.begin(), out.end());
        return out;
    };

    QueryCacheKey key;
    QueryFingerprints fingerprints;
    QueryCache *const cache = KeyQuery(live, &key, &fingerprints);
    if (cache != nullptr) {
        // A kSat entry cached off the model-less incremental path cannot
        // serve a caller that wants a witness: that probe misses, and the
        // fresh solve below fills the entry's model in place.
        CheckStatus status;
        bool has_core = false;
        QueryFingerprints core;
        const bool hit =
            cache->Lookup(key, fingerprints, model != nullptr, &status,
                          model, core_path ? &has_core : nullptr, &core);
        CountProbe(cache, hit);
        if (hit) {
            CheckResult result(status);
            if (has_core) {
                std::vector<uint32_t> live_core;
                for (uint32_t k = 0; k < live.size(); ++k) {
                    if (std::binary_search(core.begin(), core.end(),
                                           FingerprintOf(live[k])))
                        live_core.push_back(k);
                }
                result.has_core = true;
                result.core = core_to_caller(live_core);
            }
            return finish(result);
        }
    }
    // Every decided answer below is published to the cache that was
    // probed (kUnknown is never stored) before it is returned.
    const auto decided = [&](CheckStatus status, const Model &out_model,
                             bool has_core,
                             const std::vector<uint32_t> &live_core) {
        if (cache != nullptr &&
            cache->Insert(key, fingerprints, status,
                          /*has_model=*/model != nullptr, out_model,
                          has_core,
                          has_core ? CoreFingerprints(live, live_core)
                                   : QueryFingerprints{}) &&
            cache == cache_.get()) {
            stats_.Bump("solver.cache_model_upgrades");
        }
        CheckResult result(status);
        if (has_core) {
            result.has_core = true;
            result.core = core_to_caller(live_core);
        }
        if (model)
            *model = out_model;
        return finish(result);
    };

    // Interval pre-check. On the core-producing path it runs in
    // attribution mode: the checker names the assertions that narrowed
    // the refuting interval (seed atoms map 1:1 to assertions), so
    // interval-refutable queries keep both the fast path and the core
    // every consumer downstream drops predicates with. (PR 3 used to
    // skip the pre-check here because the checker could prove but not
    // explain.)
    if (config_.use_interval_check) {
        IntervalChecker checker(ctx_);
        if (core_path) {
            std::vector<uint32_t> interval_core;
            if (checker.DefinitelyUnsatWithCore(live, &interval_core)) {
                stats_.Bump("solver.interval_unsat");
                stats_.Bump("solver.interval_cores");
                return decided(CheckStatus::kUnsat, Model(), true,
                               interval_core);
            }
        } else if (checker.DefinitelyUnsat(live)) {
            stats_.Bump("solver.interval_unsat");
            // Proof without attribution: no core on this arm.
            return decided(CheckStatus::kUnsat, Model(), false, {});
        }
    }

    CheckStatus status;
    bool got_core = false;
    std::vector<uint32_t> live_core;
    Model out_model;
    // The incremental path serves model-less, unlimited-budget queries
    // only. Model-producing queries need the fresh instance for
    // deterministic witness bytes; budgeted queries need it because a
    // conflict budget spent against history-dependent learned clauses
    // would make the kUnsat/kUnknown boundary depend on the query
    // stream, not the query.
    if (incremental_path) {
        status = SolveIncremental(live, &got_core, &live_core);
    } else {
        status = SolveFresh(live, &out_model);
    }

    if (config_.retain_models && status == CheckStatus::kSat) {
        if (incremental_path) {
            // The assignment is standing in the persistent instance;
            // extraction is deferred to the next StandingModel() read.
            standing_live_ = live;
        } else {
            for (const auto &[id, value] : out_model.values())
                standing_model_.Set(id, value);
            has_standing_model_ = true;
            standing_live_.clear();  // the fresh values are newer
        }
    }
    return decided(status, out_model, got_core, live_core);
}

CheckStatus
Solver::SolveFresh(const std::vector<ExprRef> &live, Model *out_model)
{
    stats_.Bump("solver.sat_calls");
    SatSolver sat;
    BitBlaster blaster(&sat);
    for (ExprRef e : live)
        blaster.AssertTrue(e);
    const SatStatus status = sat.Solve({}, config_.max_conflicts);
    sat_totals_ += sat.counters();
    stats_.Bump("solver.sat_conflicts", sat.counters().conflicts);
    stats_.Bump("solver.sat_decisions", sat.counters().decisions);
    stats_.Bump("solver.sat_queue_pushes", sat.counters().queue_pushes);

    switch (status) {
      case SatStatus::kUnsat:
        return CheckStatus::kUnsat;
      case SatStatus::kUnknown:
        return CheckStatus::kUnknown;
      case SatStatus::kSat: {
        std::unordered_set<uint32_t> vars;
        for (ExprRef e : live)
            ctx_->CollectVars(e, &vars);
        for (uint32_t id : vars)
            out_model->Set(id, blaster.VarValueFromModel(id));
        if (config_.validate_models) {
            for (ExprRef e : live) {
                ACHILLES_CHECK(EvaluateBool(e, *out_model),
                               "model validation failed for: ",
                               ctx_->ToString(e));
            }
        }
        return CheckStatus::kSat;
      }
    }
    ACHILLES_UNREACHABLE("bad SatStatus");
}

void
Solver::InstallExportHook()
{
    // Translate an all-guard clause back to the expressions it
    // implicates and hand the sorted fingerprints to the sink. The SAT
    // layer only exports clauses over variables marked shared, which
    // this facade marks for exactly the guards registered in
    // expr_by_guard_var, so the lookups cannot miss; the polarity
    // filter is the real semantic gate (only negated guards spell
    // "these assertions are jointly unsat").
    inc_->sat.SetLearntExportHook([this](const std::vector<Lit> &lits) {
        std::vector<LemmaFingerprint> fps;
        fps.reserve(lits.size());
        for (Lit l : lits) {
            if (!l.negated())
                return;
            auto it = inc_->expr_by_guard_var.find(l.var());
            if (it == inc_->expr_by_guard_var.end())
                return;
            fps.emplace_back(it->second->struct_hash(),
                             it->second->struct_hash2());
        }
        std::sort(fps.begin(), fps.end());
        fps.erase(std::unique(fps.begin(), fps.end()), fps.end());
        stats_.Bump("solver.lemmas_published");
        config_.clause_sink->PublishLemma(fps);
    });
}

void
Solver::InstallFetchedLemmas()
{
    for (FetchedLemma &lemma : fetched_lemmas_) {
        if (lemma.installed)
            continue;
        std::vector<Lit> clause;
        clause.reserve(lemma.fps.size());
        bool anchored = true;
        for (const LemmaFingerprint &fp : lemma.fps) {
            auto it = inc_->guarded_by_fp.find(fp);
            if (it == inc_->guarded_by_fp.end()) {
                anchored = false;
                break;
            }
            clause.push_back(~inc_->blaster.ActivationLit(it->second));
        }
        if (!anchored)
            continue;  // implicated assertions not asserted here (yet)
        lemma.installed = true;
        stats_.Bump("solver.lemmas_installed");
        inc_->sat.ImportClause(std::move(clause));
    }
}

void
Solver::EnsureIncrementalBackend()
{
    if (!inc_) {
        inc_ = std::make_unique<IncrementalBackend>();
        if (config_.clause_sink != nullptr)
            InstallExportHook();
    }
}

bool
Solver::GuardAssertions(const std::vector<ExprRef> &live,
                        std::vector<Lit> *assumptions)
{
    const bool exchange = config_.clause_sink != nullptr ||
                          config_.clause_source != nullptr;
    bool new_guards = false;
    assumptions->reserve(assumptions->size() + live.size());
    for (ExprRef e : live) {
        const Lit guard = inc_->blaster.ActivationLit(e);
        if (exchange && inc_->guarded.insert(e).second) {
            new_guards = true;
            inc_->expr_by_guard_var.emplace(guard.var(), e);
            inc_->guarded_by_fp.emplace(
                LemmaFingerprint{e->struct_hash(), e->struct_hash2()}, e);
            // Only assertions over the id-aligned shared prefix may
            // leave this solver: sibling contexts agree on what those
            // fingerprints mean (the query-cache rule).
            if (e->max_var_bound() <= config_.clause_share_var_limit)
                inc_->sat.SetVarShared(guard.var(), true);
        }
        assumptions->push_back(guard);
    }
    return new_guards;
}

void
Solver::SyncLemmaExchange(bool new_guards)
{
    if (config_.clause_source == nullptr)
        return;
    const size_t before = fetched_lemmas_.size();
    std::vector<std::vector<LemmaFingerprint>> fresh;
    config_.clause_source->FetchLemmas(&fresh);
    for (std::vector<LemmaFingerprint> &fps : fresh)
        fetched_lemmas_.push_back(FetchedLemma{std::move(fps), false});
    if (fetched_lemmas_.size() > before) {
        stats_.Bump("solver.lemmas_fetched",
                    static_cast<int64_t>(fetched_lemmas_.size() - before));
    }
    // Resolution can only change when a new lemma or a new guard
    // arrived; skipping the scan otherwise keeps the per-query cost
    // at two branch tests.
    if (new_guards || fetched_lemmas_.size() > before)
        InstallFetchedLemmas();
}

void
Solver::DrainIncrementalStats()
{
    const SatCounters delta = inc_->sat.counters() - inc_seen_;
    inc_seen_ = inc_->sat.counters();
    sat_totals_ += delta;
    stats_.Bump("solver.sat_conflicts", delta.conflicts);
    stats_.Bump("solver.sat_decisions", delta.decisions);
    stats_.Bump("solver.sat_queue_pushes", delta.queue_pushes);
    stats_.Bump("solver.trail_reuses", delta.trail_reuses);
}

CheckStatus
Solver::SolveIncremental(const std::vector<ExprRef> &live, bool *has_core,
                         std::vector<uint32_t> *core)
{
    *has_core = false;
    core->clear();
    EnsureIncrementalBackend();
    stats_.Bump("solver.incremental_sat_calls");
    inc_->sat.SetMinimizeCore(config_.enable_cores &&
                              config_.minimize_cores);
    inc_->sat.SetTrailReuse(config_.enable_trail_reuse);

    std::vector<Lit> assumptions;
    const bool new_guards = GuardAssertions(live, &assumptions);
    SyncLemmaExchange(new_guards);
    const SatStatus status =
        inc_->sat.Solve(assumptions, config_.max_conflicts);
    DrainIncrementalStats();

    switch (status) {
      case SatStatus::kUnsat:
        if (config_.enable_cores) {
            // Map core activation literals back to positions in `live`.
            // Both sequences are in assumption order, so a single merge
            // pass suffices and the indices come out ascending.
            const std::vector<Lit> &sat_core = inc_->sat.unsat_core();
            *has_core = true;
            core->reserve(sat_core.size());
            uint32_t k = 0;
            for (Lit l : sat_core) {
                while (k < assumptions.size() && assumptions[k] != l)
                    ++k;
                if (k == assumptions.size())
                    break;
                core->push_back(k++);
            }
            stats_.Bump("solver.cores_extracted");
            stats_.Bump("solver.core_literals",
                        static_cast<int64_t>(core->size()));
        }
        return CheckStatus::kUnsat;
      case SatStatus::kUnknown: return CheckStatus::kUnknown;
      case SatStatus::kSat: return CheckStatus::kSat;
    }
    ACHILLES_UNREACHABLE("bad SatStatus");
}

BatchOutcome
Solver::CheckSatBatch(const std::vector<ExprRef> &base,
                      const std::vector<const std::vector<ExprRef> *> &groups)
{
    BatchOutcome out;
    out.verdicts.reserve(groups.size());
    for (const std::vector<ExprRef> *group : groups)
        out.verdicts.push_back(CheckSatAssuming(base, *group));
    return out;
}

void
Solver::RefreshStandingModel()
{
    if (standing_live_.empty())
        return;
    // The pending assertions were guarded in the kSat that deferred
    // them, so their variable bits lie in its cone. A later SAT call
    // (a core-minimization probe answered by solution reuse) may have
    // overwritten some of them since: still a concrete assignment,
    // which is all the pre-filter needs.
    std::unordered_set<uint32_t> vars;
    for (ExprRef e : standing_live_)
        ctx_->CollectVars(e, &vars);
    for (uint32_t id : vars)
        standing_model_.Set(id, inc_->blaster.VarValueFromModel(id));
    has_standing_model_ = true;
    standing_live_.clear();
}

const Model *
Solver::StandingModel()
{
    if (!config_.retain_models)
        return nullptr;
    RefreshStandingModel();
    return has_standing_model_ ? &standing_model_ : nullptr;
}

}  // namespace smt
}  // namespace achilles
