// Achilles reproduction -- core library.
//
// Phase 2 of Achilles: explore the server on an unconstrained symbolic
// message while incrementally searching for Trojan messages (paper
// Sections 3.2-3.3, Figure 7).
//
// For every execution state the explorer tracks the set of client path
// predicates whose messages can still trigger it. At each symbolic
// branch it:
//   1. re-checks which client predicates still match (dropping the rest,
//      transitively via the differentFrom matrix for independent-field
//      branches), and
//   2. checks whether the state can still be triggered by any Trojan
//      message (pathS ∧ negate(pathC_i) for the still-live i); if not,
//      the state is pruned from the exploration.
// When a state reaches accepting classification, the Trojan query is
// satisfiable by construction; its model is emitted as a concrete Trojan
// witness together with the defining symbolic expression.

#ifndef ACHILLES_CORE_SERVER_EXPLORER_H_
#define ACHILLES_CORE_SERVER_EXPLORER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/different_from.h"
#include "core/message.h"
#include "core/negate.h"
#include "core/path_predicate.h"
#include "exec/prune_index.h"
#include "smt/solver.h"
#include "support/stats.h"
#include "support/timer.h"
#include "symexec/engine.h"

namespace achilles {

namespace persist {
struct KnowledgeSnapshot;
}  // namespace persist

namespace core {

/** How Trojan messages are computed relative to the exploration. */
enum class SearchMode : uint8_t
{
    /** The paper's Achilles: incremental checks + pruning during the
     *  server exploration. */
    kIncremental,
    /** Section 6.4 baseline: plain symbolic execution first, Trojan
     *  differencing a posteriori on every accepting path. */
    kAPosteriori,
};

/** Explorer tunables (each optimization can be ablated independently). */
struct ServerExplorerConfig
{
    symexec::EngineConfig engine;
    SearchMode mode = SearchMode::kIncremental;
    /** Drop client predicates that stop matching a state (3.3, opt 1). */
    bool drop_client_predicates = true;
    /** Use the differentFrom matrix on independent-field branches
     *  (3.3, opt 2). */
    bool use_different_from = true;
    /** Prune states that no Trojan message can trigger (3.2). */
    bool prune_trojan_free_states = true;
    /**
     * Consume unsat cores from the solver to drop every predicate a
     * refutation transitively implicates (not just the one under test).
     * Core-guided drops only ever accelerate decisions the plain query
     * path would make identically (the core proves the sibling query
     * UNSAT outright, or re-enters the differentFrom value-class rule
     * with the core's field instead of the branch constraint's), so
     * live sets -- and therefore witness sets -- are bitwise identical
     * with the toggle on or off. Never consulted when the solver runs
     * budgeted queries (max_conflicts >= 0): a budget can answer
     * kUnknown, and nothing may be dropped on kUnknown.
     */
    bool use_unsat_cores = true;
    /**
     * Consult and feed the run's shared differentFrom overlay
     * (exec::PruneIndex). Every hit answers exactly what the skipped
     * solver query would have answered, so witness sets are bitwise
     * identical with the index on or off; like all core reuse it is
     * inert on budgeted solvers. Kept as a toggle separate from
     * use_different_from because it pays on fsp (119 overlay hits) and
     * the planned minimal reference configuration (ROADMAP item 4(a))
     * turns it off.
     */
    bool use_prune_index = true;
    /** Entry cap for the explorer-owned overlay (serial runs) and the
     *  ParallelEngine-owned one (multi-worker runs). */
    size_t prune_overlay_cap = 1024;
    /**
     * Concrete pre-filter over the solver's standing model: before any
     * solver call, evaluate the query's assertions under the last
     * satisfying assignment the solver left standing
     * (Solver::StandingModel, pure concrete evaluation via smt/eval).
     * A query every assertion of which evaluates true is kSat by
     * construction -- the standing values are a genuine assignment --
     * so match checks answer "still matches" and pruning checks answer
     * "still Trojan-triggerable" with zero solver work. The filter can
     * only ever answer kSat (no assignment satisfies an unsatisfiable
     * query), so kUnsat decisions -- drops, prunes, cores -- are taken
     * by exactly the same queries as with the filter off, and witness
     * sets are bitwise identical. On by default (it is a pure win on
     * every corpus protocol and witness-identical by construction);
     * ablation grids that count solver calls or cache entries turn it
     * off explicitly to measure the unfiltered stream.
     */
    bool use_concrete_prefilter = true;
    /**
     * Warm-start knowledge to import before exploring (null = cold
     * start). Serial runs restore into the home PruneIndex; parallel
     * runs restore into the ParallelEngine's shared stores before any
     * worker thread starts. Restored facts only ever skip queries whose
     * answers they already are, so witness sets are bitwise identical
     * to a cold run's at any worker count.
     */
    const persist::KnowledgeSnapshot *knowledge_in = nullptr;
    /** When set, the run's knowledge stores are captured (appended)
     *  here after exploration finishes. */
    persist::KnowledgeSnapshot *knowledge_out = nullptr;
};

/** A discovered Trojan message. */
struct TrojanWitness
{
    /** Id of the server path (engine state) that accepts it. */
    uint64_t server_path_id = 0;
    /** Label of the accept marker (or "" for the default rule). */
    std::string accept_label;
    /** Defining constraint set: server path condition + negations. */
    std::vector<smt::ExprRef> definition;
    /** A concrete example message (paper: emitted for fault injection). */
    std::vector<uint8_t> concrete;
    /** Variable ids of the message bytes the definition constrains
     *  (index == byte offset); lets callers re-solve the definition
     *  with extra pins or enumerate further Trojans. */
    std::vector<uint32_t> message_vars;
    /** True when valid (client-generatable) messages share this server
     *  path -- Figure 7's "bundled" case. */
    bool bundled_with_valid = false;
    /** Seconds into server analysis when this witness was produced. */
    double discovered_at_seconds = 0.0;
    /** Symbolic branch depth of the accepting path. */
    size_t path_depth = 0;
};

/** One (path length, live predicate count) sample for Figure 11. */
struct LiveSetSample
{
    size_t path_length = 0;
    size_t live_predicates = 0;
};

/** Result of the server analysis phase. */
struct ServerAnalysis
{
    std::vector<TrojanWitness> trojans;
    /** All accepting paths (for the classic-SE comparison). */
    std::vector<symexec::PathResult> accepting_paths;
    std::vector<LiveSetSample> live_samples;
    StatsRegistry stats;
    double seconds = 0.0;
};

/**
 * The server exploration + Trojan search driver.
 *
 * Usage: construct with the preprocessed client predicate data, then
 * Run(). The same instance is not reusable.
 *
 * With config.engine.num_workers > 1 the exploration runs on the
 * exec::ParallelEngine work-stealing pool: each worker evaluates the
 * incremental checks against bridge-translated predicate tables with
 * its own solver behind the shared query cache, and the merged analysis
 * (witness definitions re-homed, ordered by path id) is identical to a
 * serial run's.
 */
class ServerExplorer : public symexec::Listener
{
  public:
    /**
     * `message` must be the same symbolic byte variables the negations
     * were computed against (NegateOperator's server message); if empty,
     * fresh variables are created (only valid when `negations` is empty
     * or was produced for those variables).
     */
    ServerExplorer(smt::ExprContext *ctx, smt::Solver *solver,
                   const symexec::Program *server,
                   const MessageLayout *layout,
                   const std::vector<ClientPathPredicate> *preds,
                   const std::vector<NegatedPredicate> *negations,
                   const DifferentFromMatrix *different_from,
                   ServerExplorerConfig config = {},
                   std::vector<smt::ExprRef> message = {});

    /** Run the analysis to completion. */
    ServerAnalysis Run();

    /** The symbolic message byte variables the server is analyzed on. */
    const std::vector<smt::ExprRef> &message_bytes() const
    {
        return message_;
    }

    // symexec::Listener interface.
    bool OnBranch(symexec::State &state, smt::ExprRef constraint) override;
    void OnAccept(symexec::State &state) override;

  private:
    struct LiveSet;
    class WorkerListener;
    class WorkerFactory;
    friend class WorkerListener;

    /**
     * One data plane for the exploration logic: the context, solver and
     * per-predicate expression tables the logic runs against, plus the
     * sinks it writes to. The serial path uses a single home plane; with
     * num_workers > 1 each worker gets a plane of bridge-translated
     * expressions, its own solver (handed the run's shared query cache)
     * and private sinks, so the LiveSet bookkeeping and witness
     * emission never share mutable state across threads. Cross-plane
     * pruning knowledge flows only through the shared PruneIndex and
     * the shared query cache, in context-independent fingerprints.
     */
    struct Plane
    {
        smt::ExprContext *ctx;
        smt::Solver *solver;
        const std::vector<std::vector<smt::ExprRef>> *match;
        const std::vector<smt::ExprRef> *negations;
        const std::vector<smt::ExprRef> *message;
        /** Per-predicate sorted match fingerprints for overlay probes
         *  (empty vector = not fingerprintable, skip the index). */
        const std::vector<exec::PruneFpVec> *match_fps;
        StatsRegistry *stats;
        std::vector<LiveSetSample> *samples;
        std::vector<TrojanWitness> *trojans;
        /** The shared differentFrom overlay (null = disabled). */
        exec::PruneIndex *prune;
        size_t worker_id;
        /** Observability sinks addressed to this plane's lane (inert
         *  when the run carries none). */
        obs::ObsHandle obs;
    };

    Plane HomePlane();

    /** Live-set of a state, creating the full set on first touch. */
    LiveSet *GetLiveSet(symexec::State &state);

    /** Combined query: state constraints + client predicate i matches.
     *  The full outcome is returned so kUnsat cores can be consumed. */
    smt::CheckResult PredicateMatches(Plane &plane,
                                      const symexec::State &state,
                                      size_t i);

    /** True when core consumption off the plane's match-query solver
     *  is sound and enabled: the config toggle is on and the solver
     *  runs unbudgeted queries. */
    bool CoresUsable(const Plane &plane) const;

    /** Per-predicate sorted match fingerprints for a plane's tables
     *  (empty entries mark non-fingerprintable predicates). */
    static std::vector<exec::PruneFpVec> BuildMatchFps(
        const exec::PruneIndex *index,
        const std::vector<std::vector<smt::ExprRef>> &match);

    /**
     * Mark every still-undecided live predicate that the core of
     * predicate `i`'s refutation also refutes: predicates whose match
     * conjunction contains all implicated match conjuncts (the
     * refutation applies verbatim), and -- when the whole core touches
     * a single independent field -- predicate i's differentFrom value
     * class for that field.
     */
    void CoreGuidedDrops(Plane &plane, const symexec::State &state,
                         const smt::CheckResult &result, uint32_t i,
                         const std::vector<uint32_t> &live,
                         std::vector<uint8_t> *decided);

    /** Trojan query for a state; fills the model when sat. */
    smt::CheckResult TrojanQuery(
        Plane &plane, const std::vector<smt::ExprRef> &path_constraints,
        const std::vector<uint32_t> &live, smt::Model *model);

    /** Fields constrained by an expression (via message byte vars). */
    std::vector<std::string> TouchedFields(const Plane &plane,
                                           smt::ExprRef e) const;

    /** Core branch/accept logic, shared by serial and worker planes. */
    bool HandleBranch(Plane &plane, symexec::State &state,
                      smt::ExprRef constraint);
    void HandleAccept(Plane &plane, symexec::State &state);

    void EmitTrojan(Plane &plane, const symexec::State &state,
                    const std::vector<uint32_t> &live);

    /** Multi-worker variant of Run's exploration (num_workers > 1). */
    std::vector<symexec::PathResult> RunParallel();

    smt::ExprContext *ctx_;
    smt::Solver *solver_;
    const symexec::Program *server_;
    const MessageLayout *layout_;
    const std::vector<ClientPathPredicate> *preds_;
    const std::vector<NegatedPredicate> *negations_;
    const DifferentFromMatrix *different_from_;
    ServerExplorerConfig config_;

    std::vector<smt::ExprRef> message_;
    /** var id -> byte offset in the message. */
    std::unordered_map<uint32_t, uint32_t> var_to_offset_;
    /** Per predicate: match conjunction (byte equalities + client pcs). */
    std::vector<std::vector<smt::ExprRef>> match_;
    /** Per predicate: negation disjunction expr (null if unusable). */
    std::vector<smt::ExprRef> negation_exprs_;

    ServerAnalysis analysis_;
    /** The differentFrom overlay for serial runs and the a-posteriori
     *  pass (multi-worker runs use the ParallelEngine's instance). */
    std::unique_ptr<exec::PruneIndex> home_prune_;
    /** Home-plane match fingerprints (parallel planes build their
     *  own). */
    std::vector<exec::PruneFpVec> home_match_fps_;
    Timer timer_;
};

}  // namespace core
}  // namespace achilles

#endif  // ACHILLES_CORE_SERVER_EXPLORER_H_
