// Achilles reproduction -- core library.

#include "core/server_explorer.h"

#include <algorithm>
#include <unordered_set>

#include "exec/worker.h"
#include "persist/snapshot.h"
#include "smt/eval.h"

namespace achilles {
namespace core {

namespace {

/**
 * True when every assertion evaluates true under `model` -- which,
 * because a Model is a total concrete assignment (absent variables read
 * as zero), proves the conjunction satisfiable. Nothing follows from a
 * false evaluation: the model just fails to witness this query.
 */
bool
AllTrueUnder(const std::vector<smt::ExprRef> &assertions,
             const smt::Model &model)
{
    for (smt::ExprRef e : assertions) {
        if (!smt::EvaluateBool(e, model))
            return false;
    }
    return true;
}

}  // namespace

/** Per-state payload: indices of client predicates still matching. */
struct ServerExplorer::LiveSet : public symexec::StateUserData
{
    std::vector<uint32_t> live;

    std::unique_ptr<symexec::StateUserData>
    Clone() const override
    {
        auto copy = std::make_unique<LiveSet>();
        copy->live = live;
        return copy;
    }
};

/**
 * Per-worker listener: bridge-translated copies of the predicate-match
 * and negation tables, private result sinks, and the worker's own
 * cached solver. The heavy lifting delegates to the owner's
 * HandleBranch/HandleAccept over this worker's plane.
 */
class ServerExplorer::WorkerListener : public symexec::Listener
{
  public:
    WorkerListener(ServerExplorer *owner, exec::WorkerContext *wc)
        : owner_(owner), wc_(wc)
    {
        // Translate the shared expression tables into this worker's
        // context (single-threaded: runs before worker threads start).
        match_.resize(owner->match_.size());
        for (size_t i = 0; i < owner->match_.size(); ++i) {
            match_[i].reserve(owner->match_[i].size());
            for (smt::ExprRef e : owner->match_[i])
                match_[i].push_back(wc->bridge->ToRemote(e));
        }
        negations_.reserve(owner->negation_exprs_.size());
        for (smt::ExprRef e : owner->negation_exprs_)
            negations_.push_back(e ? wc->bridge->ToRemote(e) : nullptr);
        // The engine's incoming message is the worker replica of the
        // home message; id alignment makes var_to_offset_ valid here.
        message_ = wc->incoming;
        for (size_t i = 0; i < message_.size(); ++i) {
            ACHILLES_CHECK(message_[i]->VarId() ==
                               owner->message_[i]->VarId(),
                           "message variables out of alignment");
        }
        prune_ = owner->config_.use_prune_index ? wc->prune_index
                                                : nullptr;
        match_fps_ = BuildMatchFps(prune_, match_);
    }

    Plane
    plane()
    {
        Plane p;
        p.ctx = &wc_->ctx;
        p.solver = wc_->solver.get();
        p.match = &match_;
        p.negations = &negations_;
        p.message = &message_;
        p.match_fps = &match_fps_;
        p.stats = &stats_;
        p.samples = &samples_;
        p.trojans = &trojans_;
        p.prune = prune_;
        p.worker_id = wc_->worker_id;
        // Worker w bumps/traces on obs lane 1 + w, matching the lane
        // numbering the ParallelEngine gives its engines and solvers.
        p.obs = owner_->config_.engine.obs.ForLane(wc_->worker_id + 1);
        return p;
    }

    bool
    OnBranch(symexec::State &state, smt::ExprRef constraint) override
    {
        Plane p = plane();
        return owner_->HandleBranch(p, state, constraint);
    }

    void
    OnAccept(symexec::State &state) override
    {
        Plane p = plane();
        owner_->HandleAccept(p, state);
    }

    exec::WorkerContext *wc() { return wc_; }
    StatsRegistry &stats() { return stats_; }
    std::vector<LiveSetSample> &samples() { return samples_; }
    std::vector<TrojanWitness> &trojans() { return trojans_; }

  private:
    ServerExplorer *owner_;
    exec::WorkerContext *wc_;
    std::vector<std::vector<smt::ExprRef>> match_;
    std::vector<smt::ExprRef> negations_;
    std::vector<smt::ExprRef> message_;
    std::vector<exec::PruneFpVec> match_fps_;
    exec::PruneIndex *prune_ = nullptr;
    StatsRegistry stats_;
    std::vector<LiveSetSample> samples_;
    std::vector<TrojanWitness> trojans_;
};

class ServerExplorer::WorkerFactory : public exec::WorkerListenerFactory
{
  public:
    explicit WorkerFactory(ServerExplorer *owner) : owner_(owner) {}

    std::unique_ptr<symexec::Listener>
    MakeListener(exec::WorkerContext *wc) override
    {
        auto listener = std::make_unique<WorkerListener>(owner_, wc);
        created_.push_back(listener.get());
        return listener;
    }

    /** Listeners in worker-id order (owned by the ParallelEngine). */
    const std::vector<WorkerListener *> &created() const
    {
        return created_;
    }

  private:
    ServerExplorer *owner_;
    std::vector<WorkerListener *> created_;
};

ServerExplorer::ServerExplorer(
    smt::ExprContext *ctx, smt::Solver *solver,
    const symexec::Program *server, const MessageLayout *layout,
    const std::vector<ClientPathPredicate> *preds,
    const std::vector<NegatedPredicate> *negations,
    const DifferentFromMatrix *different_from, ServerExplorerConfig config,
    std::vector<smt::ExprRef> message)
    : ctx_(ctx), solver_(solver), server_(server), layout_(layout),
      preds_(preds), negations_(negations), different_from_(different_from),
      config_(config), message_(std::move(message))
{
    ACHILLES_CHECK(preds_->size() == negations_->size(),
                   "negations out of sync with predicates");

    // The symbolic message the server is analyzed on. Every path
    // constrains these same variables; when negations were precomputed,
    // the caller passes the variables they were computed against.
    if (message_.empty()) {
        message_.reserve(layout_->length());
        for (uint32_t i = 0; i < layout_->length(); ++i)
            message_.push_back(ctx_->FreshVar("msg", 8));
    }
    ACHILLES_CHECK(message_.size() >= layout_->length(),
                   "message shorter than layout");
    for (uint32_t i = 0; i < message_.size(); ++i) {
        ACHILLES_CHECK(message_[i]->IsVar(),
                       "server message bytes must be variables");
        var_to_offset_.emplace(message_[i]->VarId(), i);
    }

    // Which byte offsets participate in the analysis (unmasked fields).
    std::vector<bool> analyzed_byte(layout_->length(), false);
    for (const FieldSpec &f : layout_->AnalyzedFields())
        for (uint32_t k = 0; k < f.size; ++k)
            analyzed_byte[f.offset + k] = true;

    // Pre-build, per client path predicate, the conjunction stating
    // "this server message is one of the predicate's messages":
    // byte equalities over analyzed bytes plus the client constraints.
    match_.resize(preds_->size());
    negation_exprs_.resize(preds_->size());
    for (size_t i = 0; i < preds_->size(); ++i) {
        const ClientPathPredicate &pred = (*preds_)[i];
        for (uint32_t k = 0; k < layout_->length(); ++k) {
            if (!analyzed_byte[k])
                continue;
            match_[i].push_back(
                ctx_->MakeEq(message_[k], pred.bytes[k]));
        }
        for (smt::ExprRef c : pred.constraints)
            match_[i].push_back(c);
        negation_exprs_[i] = (*negations_)[i].Usable()
                                 ? (*negations_)[i].Disjunction(ctx_)
                                 : nullptr;
    }

    if (config_.use_prune_index) {
        // The serial-run overlay (multi-worker runs share the
        // ParallelEngine's instance instead). One context, so every
        // expression is fingerprintable.
        exec::PruneIndexConfig prune_config;
        prune_config.overlay_cap = config_.prune_overlay_cap;
        home_prune_ = std::make_unique<exec::PruneIndex>(prune_config);
        home_match_fps_ = BuildMatchFps(home_prune_.get(), match_);
    }
}

ServerExplorer::Plane
ServerExplorer::HomePlane()
{
    Plane p;
    p.ctx = ctx_;
    p.solver = solver_;
    p.match = &match_;
    p.negations = &negation_exprs_;
    p.message = &message_;
    p.match_fps = &home_match_fps_;
    p.stats = &analysis_.stats;
    p.samples = &analysis_.live_samples;
    p.trojans = &analysis_.trojans;
    p.prune = home_prune_.get();
    p.worker_id = 0;
    p.obs = config_.engine.obs;
    return p;
}

std::vector<exec::PruneFpVec>
ServerExplorer::BuildMatchFps(
    const exec::PruneIndex *index,
    const std::vector<std::vector<smt::ExprRef>> &match)
{
    std::vector<exec::PruneFpVec> out(match.size());
    if (index == nullptr)
        return out;
    for (size_t i = 0; i < match.size(); ++i) {
        if (!index->Fingerprint(match[i], &out[i]))
            out[i].clear();  // empty marks "skip the index"
    }
    return out;
}

ServerExplorer::LiveSet *
ServerExplorer::GetLiveSet(symexec::State &state)
{
    auto *data = dynamic_cast<LiveSet *>(state.user_data());
    if (data == nullptr) {
        auto fresh = std::make_unique<LiveSet>();
        fresh->live.resize(preds_->size());
        for (size_t i = 0; i < preds_->size(); ++i)
            fresh->live[i] = static_cast<uint32_t>(i);
        data = fresh.get();
        state.SetUserData(std::move(fresh));
    }
    return data;
}

smt::CheckResult
ServerExplorer::PredicateMatches(Plane &plane, const symexec::State &state,
                                 size_t i)
{
    // pathS as the base, predicate i's match conjunction as the extras:
    // iterating i over the live set re-asserts the same base, which the
    // incremental solver backend turns into assumption flips over
    // already-blasted CNF.
    plane.stats->Bump("explorer.match_queries");
    return plane.solver->CheckSatAssuming(state.constraints(),
                                          (*plane.match)[i]);
}

bool
ServerExplorer::CoresUsable(const Plane &plane) const
{
    // Budgeted solvers (max_conflicts >= 0) can answer kUnknown;
    // nothing may be dropped off a core then (the no-drop-on-kUnknown
    // contract), so core consumption is reserved for unbudgeted
    // configurations where every core-guided decision coincides with a
    // kUnsat the solver would have produced.
    const smt::SolverConfig &solver_config = plane.solver->config();
    return config_.use_unsat_cores && solver_config.enable_cores &&
           solver_config.unbudgeted();
}

void
ServerExplorer::CoreGuidedDrops(Plane &plane, const symexec::State &state,
                                const smt::CheckResult &result, uint32_t i,
                                const std::vector<uint32_t> &live,
                                std::vector<uint8_t> *decided)
{
    // Split the core (caller indices over pathS ∥ match_i) back into
    // expressions.
    const std::vector<smt::ExprRef> &path = state.constraints();
    const std::vector<smt::ExprRef> &match_i = (*plane.match)[i];
    std::vector<smt::ExprRef> path_part;
    std::vector<smt::ExprRef> match_part;
    std::vector<smt::ExprRef> core_exprs;
    core_exprs.reserve(result.core.size());
    for (uint32_t idx : result.core) {
        if (idx < path.size()) {
            path_part.push_back(path[idx]);
            core_exprs.push_back(path_part.back());
        } else {
            ACHILLES_CHECK(idx - path.size() < match_i.size(),
                           "core index out of range");
            match_part.push_back(match_i[idx - path.size()]);
            core_exprs.push_back(match_part.back());
        }
    }

    // Rule 1 (verbatim transfer): a predicate whose match conjunction
    // contains every implicated match conjunct is refuted by the very
    // same core -- pathS is shared, so its query is UNSAT without
    // asking. Conjuncts are interned per plane context, so containment
    // is pointer membership. (Byte equalities over constant-valued
    // fields are shared across predicates, which is what makes this
    // fire: one refuted command byte kills every predicate of that
    // command.)
    for (uint32_t j : live) {
        if ((*decided)[j] != 0 || j == i)
            continue;
        if (smt::ContainsAllExprs((*plane.match)[j], match_part)) {
            (*decided)[j] = 3;
            plane.stats->Bump("explorer.core_subset_marks");
        }
    }

    // Rule 2 (field-localized conflict): when every implicated
    // constraint is confined to one independent field, the refutation
    // excludes a superset of predicate i's value set for that field, so
    // i's differentFrom value class dies with it -- the matrix rule the
    // branch-constraint path only reaches when the branch itself was
    // single-field.
    if (config_.use_different_from && different_from_ != nullptr) {
        std::string field;
        bool single = true;
        for (smt::ExprRef e : core_exprs) {
            for (const std::string &f : TouchedFields(plane, e)) {
                if (field.empty()) {
                    field = f;
                } else if (field != f) {
                    single = false;
                    break;
                }
            }
            if (!single)
                break;
        }
        if (single && !field.empty() &&
            different_from_->IsIndependentField(field)) {
            for (uint32_t j : live) {
                if ((*decided)[j] == 0 && j != i &&
                    !different_from_->Different(j, i, field)) {
                    (*decided)[j] = 3;
                    plane.stats->Bump("explorer.core_field_marks");
                }
            }
            // Densify the differentFrom overlay: the single-field core
            // becomes a mutable value-class edge any plane (any
            // worker) can take on later branches whose path contains
            // the implicated field-f constraints. Entries must
            // implicate the match side; a path-only core cannot arise
            // from a feasible state, but guard anyway.
            if (plane.prune != nullptr && !match_part.empty()) {
                exec::PruneFpVec path_fps, match_fps;
                if (plane.prune->Fingerprint(path_part, &path_fps) &&
                    plane.prune->Fingerprint(match_part, &match_fps)) {
                    plane.prune->RecordFieldCore(
                        plane.worker_id,
                        DifferentFromMatrix::FieldToken(field),
                        path_fps, match_fps);
                }
            }
        }
    }
}

smt::CheckResult
ServerExplorer::TrojanQuery(
    Plane &plane, const std::vector<smt::ExprRef> &path_constraints,
    const std::vector<uint32_t> &live, smt::Model *model)
{
    std::vector<smt::ExprRef> negations;
    negations.reserve(live.size());
    for (uint32_t i : live) {
        if ((*plane.negations)[i] == nullptr) {
            // An un-negatable live predicate blocks the whole query: we
            // cannot certify any message as outside its value set.
            plane.stats->Bump("explorer.blocked_by_unusable_negation");
            return smt::CheckResult::kUnsat;
        }
        negations.push_back((*plane.negations)[i]);
    }
    // Concrete pre-filter: a standing assignment satisfying the path
    // and every live negation proves the pruning query kSat outright
    // (keep the state) with zero solver work. Restricted to model-less
    // queries -- witness-producing ones must run the fresh-instance
    // path for their deterministic model bytes. Decision-identical:
    // the filter only ever answers an exact kSat the solver would have
    // answered too (or conservatively kept via kUnknown on a budgeted
    // solver), and it can never fire for an unsatisfiable query.
    if (model == nullptr && config_.use_concrete_prefilter) {
        const smt::Model *standing = plane.solver->StandingModel();
        if (standing != nullptr &&
            AllTrueUnder(path_constraints, *standing) &&
            AllTrueUnder(negations, *standing)) {
            plane.stats->Bump("explorer.prefilter_trojan_hits");
            return smt::CheckResult(smt::CheckStatus::kSat);
        }
    }
    plane.stats->Bump("explorer.trojan_queries");
    return plane.solver->CheckSatAssuming(path_constraints, negations,
                                          model);
}

std::vector<std::string>
ServerExplorer::TouchedFields(const Plane &plane, smt::ExprRef e) const
{
    std::unordered_set<uint32_t> vars;
    plane.ctx->CollectVars(e, &vars);
    std::vector<std::string> fields;
    for (uint32_t v : vars) {
        auto it = var_to_offset_.find(v);
        if (it == var_to_offset_.end())
            continue;
        const FieldSpec *f = layout_->FieldAtByte(it->second);
        if (f == nullptr)
            continue;
        if (std::find(fields.begin(), fields.end(), f->name) ==
            fields.end())
            fields.push_back(f->name);
    }
    return fields;
}

bool
ServerExplorer::HandleBranch(Plane &plane, symexec::State &state,
                             smt::ExprRef constraint)
{
    LiveSet *data = GetLiveSet(state);

    // Path fingerprints for the overlay probes, computed once per
    // branch; an un-fingerprintable constraint set -- a worker-local
    // variable -- just skips the index.
    exec::PruneFpVec path_fps;
    const bool path_fps_ok =
        plane.prune != nullptr && config_.use_unsat_cores &&
        plane.prune->Fingerprint(state.constraints(), &path_fps);

    // Only constraints over the message can change which client
    // predicates match (skipping others is conservative: we merely keep
    // predicates live longer).
    const std::vector<std::string> fields = TouchedFields(plane, constraint);
    if (!fields.empty() && config_.drop_client_predicates) {
        const bool single_independent_field =
            config_.use_different_from && fields.size() == 1 &&
            different_from_ != nullptr &&
            different_from_->IsIndependentField(fields[0]);

        const bool cores_usable = CoresUsable(plane);
        const bool overlay_usable =
            cores_usable && path_fps_ok &&
            config_.use_different_from && different_from_ != nullptr;
        // Concrete pre-filter context, computed once per branch: the
        // path-constraint evaluation is shared by every live predicate,
        // so each predicate costs only its own match conjuncts.
        const smt::Model *standing = config_.use_concrete_prefilter
                                         ? plane.solver->StandingModel()
                                         : nullptr;
        const bool path_holds =
            standing != nullptr &&
            AllTrueUnder(state.constraints(), *standing);
        int64_t prefilter_hits = 0;
        std::vector<uint32_t> survivors;
        survivors.reserve(data->live.size());
        // Per-predicate verdicts: 1 = drop via the differentFrom value
        // class, 2 = keep (matched), 3 = drop via an unsat core.
        std::vector<uint8_t> decided(preds_->size(), 0);
        for (uint32_t i : data->live) {
            if (decided[i] == 1) {
                plane.stats->Bump("explorer.difffrom_drops");
                continue;
            }
            if (decided[i] == 3) {
                plane.stats->Bump("explorer.core_drops");
                continue;
            }
            if (decided[i] == 2) {
                survivors.push_back(i);
                continue;
            }
            // The differentFrom overlay: a single-field core recorded
            // on an earlier branch (possibly by another worker) whose
            // path part this state contains refutes predicate i
            // outright, and names a field, so i's value class takes
            // the static fast path too -- exactly the decisions the
            // solver query below would have produced.
            std::string overlay_field;
            if (overlay_usable && !(*plane.match_fps)[i].empty() &&
                different_from_->OverlaySubsumed(
                    plane.prune, plane.worker_id, path_fps,
                    (*plane.match_fps)[i], &overlay_field)) {
                decided[i] = 3;
                plane.stats->Bump("explorer.overlay_drops");
                if (different_from_->IsIndependentField(overlay_field)) {
                    for (uint32_t j : data->live) {
                        if (decided[j] == 0 && j != i &&
                            !different_from_->Different(j, i,
                                                        overlay_field)) {
                            decided[j] = 3;
                            plane.stats->Bump(
                                "explorer.overlay_field_marks");
                        }
                    }
                }
                continue;
            }
            // Concrete pre-filter: the standing model satisfying pathS
            // and match_i proves the match query kSat -- keep i with no
            // solver call. kUnsat decisions are untouched (no
            // assignment satisfies an unsatisfiable query), so drops,
            // value-class marks and cores fire on exactly the same
            // queries as with the filter off.
            if (path_holds && AllTrueUnder((*plane.match)[i], *standing)) {
                ++prefilter_hits;
                survivors.push_back(i);
                decided[i] = 2;
                continue;
            }
            const smt::CheckResult r = PredicateMatches(plane, state, i);
            if (r != smt::CheckResult::kUnsat) {
                survivors.push_back(i);
                decided[i] = 2;
                continue;
            }
            decided[i] = 1;
            plane.stats->Bump("explorer.predicate_drops");
            if (single_independent_field) {
                // Everything in i's value class (and any j that has no
                // extra values for this field) dies with i.
                for (uint32_t j : data->live) {
                    if (decided[j] == 0 &&
                        !different_from_->Different(j, i, fields[0])) {
                        decided[j] = 1;
                    }
                }
            }
            // Core-guided transitive drops: everything the refutation
            // itself implicates dies with i, whatever the branch
            // constraint touched.
            if (cores_usable && r.has_core)
                CoreGuidedDrops(plane, state, r, i, data->live, &decided);
        }
        if (prefilter_hits > 0) {
            plane.stats->Bump("explorer.prefilter_hits", prefilter_hits);
            if (plane.obs.metrics_on()) {
                plane.obs.CounterFor("explorer.prefilter_hits")
                    .Bump(prefilter_hits);
            }
        }
        data->live = std::move(survivors);
    }

    plane.samples->push_back(
        LiveSetSample{state.depth(), data->live.size()});

    if (config_.prune_trojan_free_states) {
        const smt::CheckResult r =
            TrojanQuery(plane, state.constraints(), data->live, nullptr);
        if (r == smt::CheckResult::kUnsat) {
            plane.stats->Bump("explorer.states_pruned");
            obs::TraceInstant(plane.obs.tracer, plane.obs.lane,
                              "explorer.state_pruned", "explorer", "state",
                              static_cast<int64_t>(state.id()));
            return false;
        }
    }
    return true;
}

void
ServerExplorer::EmitTrojan(Plane &plane, const symexec::State &state,
                           const std::vector<uint32_t> &live)
{
    smt::Model model;
    const smt::CheckResult r =
        TrojanQuery(plane, state.constraints(), live, &model);
    if (r != smt::CheckResult::kSat) {
        plane.stats->Bump("explorer.accepting_without_trojans");
        return;
    }
    TrojanWitness witness;
    witness.server_path_id = state.id();
    witness.accept_label = state.accept_label;
    witness.definition = state.constraints();
    for (uint32_t i : live)
        witness.definition.push_back((*plane.negations)[i]);
    witness.concrete.reserve(plane.message->size());
    for (smt::ExprRef byte : *plane.message) {
        witness.concrete.push_back(
            static_cast<uint8_t>(smt::Evaluate(byte, model)));
        witness.message_vars.push_back(byte->VarId());
    }
    witness.bundled_with_valid = !live.empty();
    witness.discovered_at_seconds = timer_.Seconds();
    witness.path_depth = state.depth();
    plane.trojans->push_back(std::move(witness));
    plane.stats->Bump("explorer.trojans");
    obs::TraceInstant(plane.obs.tracer, plane.obs.lane,
                      "explorer.trojan_witness", "explorer", "path",
                      static_cast<int64_t>(state.id()));
}

void
ServerExplorer::HandleAccept(Plane &plane, symexec::State &state)
{
    LiveSet *data = GetLiveSet(state);
    EmitTrojan(plane, state, data->live);
}

bool
ServerExplorer::OnBranch(symexec::State &state, smt::ExprRef constraint)
{
    if (config_.mode == SearchMode::kAPosteriori)
        return true;
    Plane plane = HomePlane();
    return HandleBranch(plane, state, constraint);
}

void
ServerExplorer::OnAccept(symexec::State &state)
{
    if (config_.mode == SearchMode::kAPosteriori)
        return;
    Plane plane = HomePlane();
    HandleAccept(plane, state);
}

std::vector<symexec::PathResult>
ServerExplorer::RunParallel()
{
    exec::ParallelEngine engine(ctx_, server_, symexec::Mode::kServer,
                                config_.engine, solver_->config());
    exec::PruneIndexConfig prune_config;
    prune_config.overlay_cap = config_.prune_overlay_cap;
    engine.SetPruneIndexConfig(prune_config);
    engine.SetIncomingMessage(message_);
    // Warm-start wiring: the persist layer is injected from above
    // (exec must not depend on it). Restore runs single-threaded before
    // any worker starts; capture runs after every worker has joined.
    exec::ParallelEngine::KnowledgeHook restore;
    if (config_.knowledge_in != nullptr) {
        const persist::KnowledgeSnapshot *in = config_.knowledge_in;
        restore = [in](exec::PruneIndex *prune, smt::QueryCache *cache,
                       exec::ClauseExchange *exchange) {
            persist::RestoreKnowledge(*in, prune, cache, exchange);
        };
    }
    exec::ParallelEngine::KnowledgeHook capture;
    if (config_.knowledge_out != nullptr) {
        persist::KnowledgeSnapshot *out = config_.knowledge_out;
        capture = [out](exec::PruneIndex *prune, smt::QueryCache *cache,
                        exec::ClauseExchange *exchange) {
            persist::CaptureKnowledge(prune, cache, exchange, out);
        };
    }
    if (restore || capture)
        engine.SetKnowledgeHooks(std::move(restore), std::move(capture));
    WorkerFactory factory(this);
    const bool incremental = config_.mode == SearchMode::kIncremental;
    if (incremental)
        engine.SetListenerFactory(&factory);
    std::vector<symexec::PathResult> paths = engine.Run();
    analysis_.stats.Merge(engine.stats());

    if (!incremental)
        return paths;

    // Merge the worker-private sinks. Witness definitions live in the
    // worker contexts; translate them home so callers can re-solve them
    // against the home message variables, exactly as in a serial run.
    for (WorkerListener *listener : factory.created()) {
        analysis_.stats.Merge(listener->stats());
        analysis_.live_samples.insert(analysis_.live_samples.end(),
                                      listener->samples().begin(),
                                      listener->samples().end());
        for (TrojanWitness &witness : listener->trojans()) {
            for (smt::ExprRef &e : witness.definition)
                e = listener->wc()->bridge->ToHome(e);
            analysis_.trojans.push_back(std::move(witness));
        }
    }
    // Deterministic presentation regardless of schedule: witnesses by
    // (schedule-independent) accepting path id, samples by position.
    std::stable_sort(analysis_.trojans.begin(), analysis_.trojans.end(),
                     [](const TrojanWitness &a, const TrojanWitness &b) {
                         return a.server_path_id < b.server_path_id;
                     });
    std::stable_sort(analysis_.live_samples.begin(),
                     analysis_.live_samples.end(),
                     [](const LiveSetSample &a, const LiveSetSample &b) {
                         return a.path_length != b.path_length
                                    ? a.path_length < b.path_length
                                    : a.live_predicates < b.live_predicates;
                     });
    return paths;
}

ServerAnalysis
ServerExplorer::Run()
{
    timer_.Reset();
    // The home index serves serial runs and the a-posteriori
    // differencing pass; parallel incremental runs consult the
    // ParallelEngine's stores instead (restored via RunParallel's
    // hooks), so warming the home index there would only duplicate
    // capture output.
    const bool home_kb =
        home_prune_ != nullptr && (config_.engine.num_workers <= 1 ||
                                   config_.mode == SearchMode::kAPosteriori);
    if (home_kb && config_.knowledge_in != nullptr) {
        persist::RestoreKnowledge(*config_.knowledge_in, home_prune_.get(),
                                  nullptr, nullptr);
    }
    std::vector<symexec::PathResult> paths;
    if (config_.engine.num_workers > 1) {
        paths = RunParallel();
    } else {
        // Serial runs own their prune index here (parallel runs get
        // theirs from ParallelEngine, which registers its own gauges);
        // expose it to the heartbeat for the duration of the run, then
        // freeze so the gauges never outlive home_prune_ as live reads.
        const bool gauges = config_.engine.obs.metrics_on() &&
                            home_prune_ != nullptr;
        if (gauges) {
            obs::MetricsRegistry *reg = config_.engine.obs.registry;
            const exec::PruneIndex *prune = home_prune_.get();
            reg->RegisterGauge("prune.overlay_hits",
                               [prune] { return prune->overlay_hits(); });
            reg->RegisterGauge("prune.overlay_probes", [prune] {
                return prune->overlay_probes();
            });
        }
        symexec::Engine engine(ctx_, solver_, server_,
                               symexec::Mode::kServer, config_.engine);
        engine.SetIncomingMessage(message_);
        engine.SetListener(this);
        paths = engine.Run();
        analysis_.stats.Merge(engine.stats());
        if (gauges) {
            obs::MetricsRegistry *reg = config_.engine.obs.registry;
            const auto freeze = [reg](const std::string &name,
                                      int64_t value) {
                reg->RegisterGauge(name, [value] { return value; });
            };
            freeze("prune.overlay_hits", home_prune_->overlay_hits());
            freeze("prune.overlay_probes", home_prune_->overlay_probes());
        }
    }

    for (symexec::PathResult &path : paths) {
        if (path.outcome == symexec::PathOutcome::kAccepted)
            analysis_.accepting_paths.push_back(path);
    }

    if (config_.mode == SearchMode::kAPosteriori) {
        // Differencing after the fact: conjoin every predicate's
        // negation on each accepting path. Paths from a parallel run
        // are already home-translated, so this stays a serial pass on
        // the home solver either way.
        Plane plane = HomePlane();
        std::vector<uint32_t> all(preds_->size());
        for (size_t i = 0; i < all.size(); ++i)
            all[i] = static_cast<uint32_t>(i);
        for (const symexec::PathResult &path : analysis_.accepting_paths) {
            smt::Model model;
            if (TrojanQuery(plane, path.constraints, all, &model) !=
                smt::CheckResult::kSat) {
                continue;
            }
            TrojanWitness witness;
            witness.server_path_id = path.state_id;
            witness.accept_label = path.accept_label;
            witness.definition = path.constraints;
            for (uint32_t i : all)
                if (negation_exprs_[i] != nullptr)
                    witness.definition.push_back(negation_exprs_[i]);
            for (smt::ExprRef byte : message_) {
                witness.concrete.push_back(
                    static_cast<uint8_t>(smt::Evaluate(byte, model)));
                witness.message_vars.push_back(byte->VarId());
            }
            witness.bundled_with_valid = true;  // not tracked in this mode
            witness.discovered_at_seconds = timer_.Seconds();
            witness.path_depth = path.depth;
            analysis_.trojans.push_back(std::move(witness));
            analysis_.stats.Bump("explorer.trojans");
        }
    }

    if (home_kb && config_.knowledge_out != nullptr) {
        persist::CaptureKnowledge(home_prune_.get(), nullptr, nullptr,
                                  config_.knowledge_out);
    }
    if (home_prune_ != nullptr)
        home_prune_->ExportStats(&analysis_.stats);
    analysis_.seconds = timer_.Seconds();
    return std::move(analysis_);
}

}  // namespace core
}  // namespace achilles
