// Achilles reproduction -- core library.

#include "core/achilles.h"

#include "obs/trace.h"
#include "support/timer.h"

namespace achilles {
namespace core {

AchillesResult
RunAchilles(smt::ExprContext *ctx, smt::Solver *solver,
            const AchillesConfig &config)
{
    ACHILLES_CHECK(config.server != nullptr, "no server program");
    ACHILLES_CHECK(!config.clients.empty(), "no client programs");

    // Propagate the pipeline's obs handle into the phase configs unless
    // a caller already wired those explicitly.
    ClientExtractorConfig client_config = config.client_config;
    if (!client_config.engine.obs.enabled())
        client_config.engine.obs = config.obs;
    ServerExplorerConfig server_config = config.server_config;
    if (!server_config.engine.obs.enabled())
        server_config.engine.obs = config.obs;
    if (server_config.knowledge_in == nullptr)
        server_config.knowledge_in = config.knowledge_in;
    if (server_config.knowledge_out == nullptr)
        server_config.knowledge_out = config.knowledge_out;

    AchillesResult result;
    Timer timer;

    // Phase 1: client predicate extraction.
    {
        obs::ScopedSpan span(config.obs.tracer, config.obs.lane,
                             "phase.client_extraction", "pipeline");
        result.client_predicate = ExtractClientPredicate(
            ctx, solver, config.clients, config.layout, client_config);
        span.AddArg("paths", static_cast<int64_t>(
                                 result.client_predicate.paths.size()));
    }
    result.timings.client_extraction = timer.Seconds();
    result.preprocessing_stats.Set(
        "achilles.client_workers",
        static_cast<int64_t>(client_config.engine.num_workers));

    // Preprocessing: negations + differentFrom. The negate operator
    // needs the server's symbolic message up front, so the explorer is
    // constructed here (it creates the message variables) and the
    // negations are computed against it.
    timer.Reset();
    DifferentFromMatrix different_from(ctx, solver, &config.layout);
    // The server's symbolic message variables are created here and shared
    // between the negate operator (negations must constrain the same
    // variables the server paths do) and the explorer.
    std::vector<smt::ExprRef> server_message;
    for (uint32_t i = 0; i < config.layout.length(); ++i)
        server_message.push_back(ctx->FreshVar("msg", 8));

    {
        obs::ScopedSpan span(config.obs.tracer, config.obs.lane,
                             "phase.preprocessing", "pipeline");
        NegateOperator negate_op(ctx, solver, &config.layout,
                                 server_message);
        result.negations.reserve(result.client_predicate.paths.size());
        for (const ClientPathPredicate &pred :
             result.client_predicate.paths)
            result.negations.push_back(negate_op.Negate(pred));

        if (config.compute_different_from &&
            server_config.use_different_from) {
            different_from.Compute(result.client_predicate.paths,
                                   &negate_op);
            result.preprocessing_stats.Merge(different_from.stats());
        }
        result.negate_stats = negate_op.stats();
        // Carried into the run report, so --metrics-out sees them.
        const NegateStats &ns = result.negate_stats;
        auto set = [&](const char *name, size_t value) {
            result.preprocessing_stats.Set(name,
                                           static_cast<int64_t>(value));
        };
        set("negate.exact_predicates", ns.exact_predicates);
        set("negate.approx_predicates", ns.approx_predicates);
        set("negate.abandoned_fields", ns.abandoned_fields);
        set("negate.overlap_discarded", ns.overlap_discarded);
        set("negate.overlap_proved_injective", ns.overlap_proved_injective);
        span.AddArg("negations",
                    static_cast<int64_t>(result.negations.size()));
    }
    result.timings.preprocessing = timer.Seconds();

    // Phase 2: server analysis. With num_workers > 1 this phase -- the
    // dominant cost in the paper's Section 6.2 breakdown -- runs on the
    // work-stealing worker pool; the timing below is wall-clock either
    // way, so speedup shows up directly in the phase breakdown.
    timer.Reset();
    {
        obs::ScopedSpan span(config.obs.tracer, config.obs.lane,
                             "phase.server_analysis", "pipeline");
        ServerExplorer explorer(ctx, solver, config.server, &config.layout,
                                &result.client_predicate.paths,
                                &result.negations, &different_from,
                                server_config, server_message);
        result.server = explorer.Run();
        span.AddArg("trojans",
                    static_cast<int64_t>(result.server.trojans.size()));
    }
    result.timings.server_analysis = timer.Seconds();
    result.server.stats.Set(
        "achilles.server_workers",
        static_cast<int64_t>(server_config.engine.num_workers));

    // Fold the run's observability into the result: the merge-at-join
    // bags first, the live registry's aggregate last -- a few names
    // (e.g. solver.queries) exist in both, and the registry's value is
    // the run-wide total where the home solver's bag only saw the
    // serial phases.
    result.report.Add(result.preprocessing_stats);
    result.report.Add(result.server.stats);
    result.report.Add(solver->stats());
    if (config.obs.metrics_on())
        result.report.Add(*config.obs.registry);
    if (config.obs.tracing_on())
        result.report.AddTrace(*config.obs.tracer);
    return result;
}

}  // namespace core
}  // namespace achilles
