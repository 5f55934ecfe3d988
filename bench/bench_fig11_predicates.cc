// Achilles reproduction -- Figure 11.
//
// "Number of client path predicates that can trigger each execution
// path in the FSP server, as a function of the length of the path."
// The paper's curve starts at ~5,000 predicates (their client predicate
// count) and decays toward 1 as server paths specialize; ours starts at
// 32 (8 utilities x 4 path lengths under the length<5 bound) and must
// show the same monotone-decay shape: longer execution paths are
// triggered by fewer client predicates, so Trojan checks get cheaper.
//
// Ablation grids (both self-gating on witness identity and query
// counts, both emitting JSON for the CI trend gate):
//   --cores        unsat-core-guided predicate dropping on/off
//   --prune-index  the shared differentFrom overlay on/off
//   --prefilter    concrete pre-filtering against the solver's standing
//                  model on/off

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "proto/synth/synth_family.h"
#include "core/achilles.h"
#include "core/path_predicate.h"
#include "proto/fsp/fsp_protocol.h"
#include "support/parse.h"

using namespace achilles;

namespace {

/** Witness summary comparable across independent runs/configs. */
using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

struct ComparePoint
{
    int64_t solver_queries = 0;  ///< match + Trojan queries issued
    int64_t core_drops = 0;      ///< match queries skipped via cores
    std::vector<WitnessSummary> witnesses;
};

/**
 * One full pipeline run for the core-ablation grid. Cores are toggled
 * at both layers (SolverConfig::enable_cores so the no-cores run pays
 * no extraction cost, ServerExplorerConfig::use_unsat_cores for the
 * consumption), differentFrom independently so the grid can separate
 * what the static matrix already covers from what only the dynamic
 * cores find.
 */
ComparePoint
RunComparePoint(const std::vector<const symexec::Program *> &clients,
                const symexec::Program *server,
                const core::MessageLayout &layout, size_t workers,
                bool cores, bool difffrom)
{
    smt::ExprContext ctx;
    smt::SolverConfig solver_config;
    solver_config.enable_cores = cores;
    smt::Solver solver(&ctx, solver_config);

    core::AchillesConfig config;
    config.layout = layout;
    config.clients = clients;
    config.server = server;
    config.server_config.engine.num_workers = workers;
    config.server_config.use_unsat_cores = cores;
    config.server_config.use_different_from = difffrom;
    config.compute_different_from = difffrom;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    ComparePoint point;
    point.solver_queries =
        result.server.stats.Get("explorer.match_queries") +
        result.server.stats.Get("explorer.trojan_queries");
    point.core_drops = result.server.stats.Get("explorer.core_drops");
    core::CanonicalHasher hasher(&ctx);
    for (const core::TrojanWitness &t : result.server.trojans) {
        point.witnesses.emplace_back(t.accept_label, t.concrete,
                                     hasher.HashExprs(t.definition));
    }
    std::sort(point.witnesses.begin(), point.witnesses.end());
    return point;
}

/**
 * One pipeline run for the --prune-index ablation: the shared
 * differentFrom overlay toggled at the explorer while cores and the
 * static matrix stay on (production config).
 */
struct PrunePoint
{
    int64_t solver_queries = 0;   ///< match + Trojan queries issued
    int64_t overlay_drops = 0;    ///< match queries skipped via overlay
    int64_t cross_hits = 0;       ///< hits on another worker's entry
    std::vector<WitnessSummary> witnesses;
};

PrunePoint
RunPrunePoint(const std::vector<const symexec::Program *> &clients,
              const symexec::Program *server,
              const core::MessageLayout &layout, size_t workers,
              bool prune_index)
{
    smt::ExprContext ctx;
    smt::Solver solver(&ctx);

    core::AchillesConfig config;
    config.layout = layout;
    config.clients = clients;
    config.server = server;
    config.server_config.engine.num_workers = workers;
    config.server_config.use_prune_index = prune_index;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    PrunePoint point;
    point.solver_queries =
        result.server.stats.Get("explorer.match_queries") +
        result.server.stats.Get("explorer.trojan_queries");
    point.overlay_drops =
        result.server.stats.Get("explorer.overlay_drops");
    point.cross_hits =
        result.server.stats.Get("prune.cross_worker_hits");
    core::CanonicalHasher hasher(&ctx);
    for (const core::TrojanWitness &t : result.server.trojans) {
        point.witnesses.emplace_back(t.accept_label, t.concrete,
                                     hasher.HashExprs(t.definition));
    }
    std::sort(point.witnesses.begin(), point.witnesses.end());
    return point;
}

/**
 * The --prune-index comparison: the differentFrom overlay must reduce
 * solver queries on the FSP Trojan stream and on the guarded protocol
 * (in both, runtime single-field cores skip repeat predicate-match
 * refutations), with bitwise-identical witness sets at every worker
 * count in both configurations.
 */
bool
RunPruneIndexComparison(size_t num_clients)
{
    bench::Header("PruneIndex -- solver queries with/without the shared "
                  "differentFrom overlay");
    const std::vector<size_t> worker_counts{1, 2, 4, 8};
    bool witnesses_identical = true;
    bool never_more = true;      // <= everywhere (hits only skip work)
    bool serial_fewer = true;    // strict < at workers=1, both sections

    const std::vector<symexec::Program> fsp_clients =
        fsp::MakeAllClients();
    std::vector<const symexec::Program *> fsp_client_ptrs;
    for (size_t i = 0; i < fsp_clients.size() && i < num_clients; ++i)
        fsp_client_ptrs.push_back(&fsp_clients[i]);
    const symexec::Program fsp_server = fsp::MakeServer();
    const core::MessageLayout fsp_layout = fsp::MakeLayout();

    const symexec::Program guarded_client = synth::MakeGuardedClient(2);
    const std::vector<const symexec::Program *> guarded_clients{
        &guarded_client};
    const symexec::Program guarded_server =
        synth::MakeGuardedServer(2, 8);
    const core::MessageLayout guarded_layout = synth::MakeGuardedLayout();

    struct Section
    {
        const char *title;
        const char *tag;
        const std::vector<const symexec::Program *> *clients;
        const symexec::Program *server;
        const core::MessageLayout *layout;
    };
    const Section sections[] = {
        {"FSP (overlay: runtime single-field cores densify "
         "differentFrom)",
         "fsp", &fsp_client_ptrs, &fsp_server, &fsp_layout},
        {"guarded protocol (overlay only: sibling regions repeat the "
         "same single-field refutations)",
         "guarded", &guarded_clients, &guarded_server, &guarded_layout},
    };

    for (const Section &section : sections) {
        bench::Section(section.title);
        std::printf("  %8s %12s %12s %11s %9s %7s\n", "workers",
                    "q(no-index)", "q(index)", "reduction", "overlay",
                    "cross");
        for (size_t w : worker_counts) {
            const PrunePoint off = RunPrunePoint(
                *section.clients, section.server, *section.layout, w,
                /*prune_index=*/false);
            const PrunePoint on = RunPrunePoint(
                *section.clients, section.server, *section.layout, w,
                /*prune_index=*/true);
            const double reduction =
                off.solver_queries > 0
                    ? 100.0 *
                          static_cast<double>(off.solver_queries -
                                              on.solver_queries) /
                          static_cast<double>(off.solver_queries)
                    : 0.0;
            const double overlay_hit_rate =
                on.solver_queries + on.overlay_drops > 0
                    ? 100.0 * static_cast<double>(on.overlay_drops) /
                          static_cast<double>(on.solver_queries +
                                              on.overlay_drops)
                    : 0.0;
            std::printf(
                "  %8zu %12lld %12lld %10.1f%% %9lld %7lld\n", w,
                static_cast<long long>(off.solver_queries),
                static_cast<long long>(on.solver_queries), reduction,
                static_cast<long long>(on.overlay_drops),
                static_cast<long long>(on.cross_hits));
            witnesses_identical &= on.witnesses == off.witnesses;
            never_more &= on.solver_queries <= off.solver_queries;
            if (w == 1)
                serial_fewer &= on.solver_queries < off.solver_queries;

            const std::string suffix = std::string("/") + section.tag +
                                       "/workers=" + std::to_string(w);
            bench::JsonRecorder::Instance().Record(
                "fig11.prune_index_query_reduction_pct" + suffix,
                reduction);
            bench::JsonRecorder::Instance().Record(
                "fig11.overlay_hit_rate" + suffix, overlay_hit_rate);
            bench::JsonRecorder::Instance().Record(
                "fig11.prune_index_cross_hits" + suffix,
                static_cast<double>(on.cross_hits));
        }
    }
    bench::Metric("fig11.prune_witness_sets_identical",
                  witnesses_identical ? 1 : 0);
    bench::Note("hits answer exactly what the skipped query would have "
                "answered, so the index can reduce queries but never "
                "change a verdict; cross counts hits on entries another "
                "worker recorded (0 in serial runs)");

    const bool ok = witnesses_identical && never_more && serial_fewer;
    std::printf("\nPRUNE-INDEX: %s\n",
                ok ? "PASS (fewer queries, identical witness sets)"
                   : "MISMATCH");
    return ok;
}

/**
 * One pipeline run for the --prefilter ablation. Cores are off in both
 * arms, so the off arm issues exactly one match query per undecided
 * live guard and the hit rate is measured against the plain stream.
 */
struct PrefilterPoint
{
    int64_t solver_queries = 0;   ///< match + Trojan queries issued
    int64_t match_queries = 0;    ///< solver calls on the match stream
    int64_t prefilter_hits = 0;   ///< queries answered from the model
    std::vector<WitnessSummary> witnesses;
};

PrefilterPoint
RunPrefilterPoint(const std::vector<const symexec::Program *> &clients,
                  const symexec::Program *server,
                  const core::MessageLayout &layout, size_t workers,
                  bool prefilter)
{
    smt::ExprContext ctx;
    smt::SolverConfig solver_config;
    solver_config.enable_cores = false;
    smt::Solver solver(&ctx, solver_config);

    core::AchillesConfig config;
    config.layout = layout;
    config.clients = clients;
    config.server = server;
    config.server_config.engine.num_workers = workers;
    config.server_config.use_unsat_cores = false;
    config.server_config.use_concrete_prefilter = prefilter;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    PrefilterPoint point;
    point.match_queries =
        result.server.stats.Get("explorer.match_queries");
    point.solver_queries =
        point.match_queries +
        result.server.stats.Get("explorer.trojan_queries");
    point.prefilter_hits =
        result.server.stats.Get("explorer.prefilter_hits") +
        result.server.stats.Get("explorer.prefilter_trojan_hits");
    core::CanonicalHasher hasher(&ctx);
    for (const core::TrojanWitness &t : result.server.trojans) {
        point.witnesses.emplace_back(t.accept_label, t.concrete,
                                     hasher.HashExprs(t.definition));
    }
    std::sort(point.witnesses.begin(), point.witnesses.end());
    return point;
}

/**
 * The --prefilter comparison: at every worker count the pre-filter
 * must issue no more solver queries than the unfiltered stream, with
 * bitwise-identical witness sets in every cell (the pre-filter only
 * short-circuits kSat answers a fresh solver would also give).
 */
bool
RunPrefilterComparison(size_t num_clients)
{
    bench::Header("Concrete pre-filter -- solver queries with and "
                  "without the standing-model check");
    const std::vector<size_t> worker_counts{1, 2, 4, 8};
    bool witnesses_identical = true;
    bool never_more = true;

    const std::vector<symexec::Program> fsp_clients =
        fsp::MakeAllClients();
    std::vector<const symexec::Program *> fsp_client_ptrs;
    for (size_t i = 0; i < fsp_clients.size() && i < num_clients; ++i)
        fsp_client_ptrs.push_back(&fsp_clients[i]);
    const symexec::Program fsp_server = fsp::MakeServer();
    const core::MessageLayout fsp_layout = fsp::MakeLayout();

    const symexec::Program guarded_client = synth::MakeGuardedClient(2);
    const std::vector<const symexec::Program *> guarded_clients{
        &guarded_client};
    const symexec::Program guarded_server =
        synth::MakeGuardedServer(2, 8);
    const core::MessageLayout guarded_layout = synth::MakeGuardedLayout();

    struct Section
    {
        const char *title;
        const char *tag;
        const std::vector<const symexec::Program *> *clients;
        const symexec::Program *server;
        const core::MessageLayout *layout;
    };
    const Section sections[] = {
        {"FSP (standing models answer repeat-satisfiable guards)", "fsp",
         &fsp_client_ptrs, &fsp_server, &fsp_layout},
        {"guarded protocol (deep guard nests)", "guarded",
         &guarded_clients, &guarded_server, &guarded_layout},
    };

    for (const Section &section : sections) {
        bench::Section(section.title);
        std::printf("  %8s %12s %12s %9s %9s\n", "workers", "q(off)",
                    "q(on)", "prefilt", "hit rate");
        std::vector<WitnessSummary> reference;
        bool have_reference = false;
        for (size_t w : worker_counts) {
            const PrefilterPoint off = RunPrefilterPoint(
                *section.clients, section.server, *section.layout, w,
                /*prefilter=*/false);
            const PrefilterPoint on = RunPrefilterPoint(
                *section.clients, section.server, *section.layout, w,
                /*prefilter=*/true);
            const double prefilter_hit_rate =
                on.prefilter_hits + on.match_queries > 0
                    ? 100.0 * static_cast<double>(on.prefilter_hits) /
                          static_cast<double>(on.prefilter_hits +
                                              on.match_queries)
                    : 0.0;
            std::printf("  %8zu %12lld %12lld %9lld %8.1f%%\n", w,
                        static_cast<long long>(off.solver_queries),
                        static_cast<long long>(on.solver_queries),
                        static_cast<long long>(on.prefilter_hits),
                        prefilter_hit_rate);
            witnesses_identical &= on.witnesses == off.witnesses;
            // Worker-count invariance, both arms: one canonical witness
            // set per protocol across the whole grid.
            if (!have_reference) {
                reference = off.witnesses;
                have_reference = true;
            }
            witnesses_identical &= off.witnesses == reference;
            never_more &= on.solver_queries <= off.solver_queries;

            bench::JsonRecorder::Instance().Record(
                std::string("fig11.prefilter_hit_rate/") + section.tag +
                    "/workers=" + std::to_string(w),
                prefilter_hit_rate);
        }
    }
    bench::Metric("fig11.prefilter_witness_sets_identical",
                  witnesses_identical ? 1 : 0);
    bench::Note("the pre-filter answers a query only when the standing "
                "model concretely satisfies all of its assertions (a "
                "proof of kSat)");

    const bool ok = witnesses_identical && never_more;
    std::printf("\nPREFILTER: %s\n",
                ok ? "PASS (no extra queries, identical witness sets)"
                   : "MISMATCH");
    return ok;
}

// ---------------------------------------------------------------------
// Compound-dispatch protocol: the workload where cores strictly beat
// the static differentFrom matrix even when the matrix is on. Pairs of
// client subcommands share one command byte, and the server validates
// command and argument in a single compound branch. The branch
// constraint touches two fields, so the matrix's single-field
// transitive rule never applies; the unsat core isolates the shared
// command equality and drops the partner predicate without a query.
// ---------------------------------------------------------------------

constexpr uint32_t kCompoundCmds = 8;  // 2 preds per cmd -> 16 preds

core::MessageLayout
MakeCompoundLayout()
{
    core::MessageLayout layout(3);
    layout.AddField("cmd", 0, 1).AddField("arg", 1, 1).AddField("tag", 2,
                                                                 1);
    return layout;
}

symexec::Program
MakeCompoundClient()
{
    using symexec::ProgramBuilder;
    using symexec::Val;
    ProgramBuilder b("compound-client");
    b.Function("main", {}, 0, [&] {
        Val which = b.ReadInput("which", 8);
        Val arg = b.ReadInput("arg", 8);
        b.Array("msg", 8, 3);
        for (uint32_t i = 0; i < 2 * kCompoundCmds; ++i) {
            b.If(which == i, [&] {
                const uint32_t cmd = i / 2;
                const uint64_t lo = 20 * cmd + 8 * (i % 2);
                b.If(arg < lo, [&] { b.Halt(); });
                b.If(arg > lo + 12, [&] { b.Halt(); });
                b.Store("msg", Val::Const(8, 0), Val::Const(8, cmd));
                b.Store("msg", Val::Const(8, 1), arg);
                // Integrity tag over the argument: arg and tag share a
                // variable, so neither is an independent field.
                b.Store("msg", Val::Const(8, 2),
                        arg * Val::Const(8, 13) +
                            Val::Const(8, (7 * cmd) & 0xff));
                b.SendMessage("msg");
            });
        }
    });
    return b.Build();
}

symexec::Program
MakeCompoundServer()
{
    using symexec::ProgramBuilder;
    using symexec::Val;
    ProgramBuilder b("compound-server");
    b.Function("main", {}, 0, [&] {
        b.ReceiveMessage("msg", 3);
        Val cmd = b.Local(
            "cmd", 8, ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 0)));
        Val arg = b.Local(
            "arg", 8, ProgramBuilder::ArrayAt("msg", 8, Val::Const(8, 1)));
        // One compound validity check per handler, the way parsers fuse
        // dispatch and sanity tests; the tag is never validated (the
        // Trojan source).
        for (uint32_t k = 0; k < kCompoundCmds; ++k) {
            b.If((cmd == k) && (arg <= 200),
                 [&] { b.MarkAccept("h" + std::to_string(k)); });
        }
        b.MarkReject("bad");
    });
    return b.Build();
}

/**
 * The --cores comparison: at every worker count, the explorer with
 * core-guided dropping must issue fewer solver queries than without,
 * and the Trojan witness sets must be bitwise identical (cores only
 * accelerate drops that are already sound). Run both with the
 * differentFrom matrix on (production config; cores add whatever the
 * single-field rule missed) and off (isolation; the dynamic cores must
 * recover the transitive drops the static matrix would have given).
 */
bool
RunCoreComparison(size_t num_clients)
{
    bench::Header("Core-guided predicate dropping -- solver queries "
                  "with/without unsat cores");
    const std::vector<size_t> worker_counts{1, 2, 4, 8};
    bool witnesses_identical = true;
    bool fsp_no_regression = true;     // <= (single-field branches: the
                                       // matrix already finds every drop)
    bool fsp_isolation_fewer = true;   // strict <, matrix off
    bool compound_fewer = true;        // strict <, matrix ON

    const std::vector<symexec::Program> fsp_clients =
        fsp::MakeAllClients();
    std::vector<const symexec::Program *> fsp_client_ptrs;
    for (size_t i = 0; i < fsp_clients.size() && i < num_clients; ++i)
        fsp_client_ptrs.push_back(&fsp_clients[i]);
    const symexec::Program fsp_server = fsp::MakeServer();
    const core::MessageLayout fsp_layout = fsp::MakeLayout();

    const symexec::Program compound_client = MakeCompoundClient();
    const std::vector<const symexec::Program *> compound_clients{
        &compound_client};
    const symexec::Program compound_server = MakeCompoundServer();
    const core::MessageLayout compound_layout = MakeCompoundLayout();

    struct Section
    {
        const char *title;
        const char *tag;
        const std::vector<const symexec::Program *> *clients;
        const symexec::Program *server;
        const core::MessageLayout *layout;
        bool difffrom;
        bool *gate;
        bool strict;
    };
    const Section sections[] = {
        {"FSP, differentFrom matrix ON (production config)", "fsp",
         &fsp_client_ptrs, &fsp_server, &fsp_layout, true,
         &fsp_no_regression, false},
        {"FSP, differentFrom matrix OFF (core isolation: the dynamic "
         "drops must recover the matrix's)",
         "fsp_nodifffrom", &fsp_client_ptrs, &fsp_server, &fsp_layout,
         false, &fsp_isolation_fewer, true},
        {"compound dispatch, matrix ON (multi-field branches: only "
         "cores can drop transitively)",
         "compound", &compound_clients, &compound_server,
         &compound_layout, true, &compound_fewer, true},
    };

    for (const Section &section : sections) {
        bench::Section(section.title);
        std::printf("  %8s %12s %12s %11s %10s\n", "workers",
                    "q(no-cores)", "q(cores)", "reduction", "core-drop");
        for (size_t w : worker_counts) {
            const ComparePoint off = RunComparePoint(
                *section.clients, section.server, *section.layout, w,
                /*cores=*/false, section.difffrom);
            const ComparePoint on = RunComparePoint(
                *section.clients, section.server, *section.layout, w,
                /*cores=*/true, section.difffrom);
            const double reduction =
                off.solver_queries > 0
                    ? 100.0 *
                          static_cast<double>(off.solver_queries -
                                              on.solver_queries) /
                          static_cast<double>(off.solver_queries)
                    : 0.0;
            std::printf("  %8zu %12lld %12lld %10.1f%% %10lld\n", w,
                        static_cast<long long>(off.solver_queries),
                        static_cast<long long>(on.solver_queries),
                        reduction,
                        static_cast<long long>(on.core_drops));
            witnesses_identical &= on.witnesses == off.witnesses;
            *section.gate &=
                section.strict
                    ? on.solver_queries < off.solver_queries
                    : on.solver_queries <= off.solver_queries;

            const std::string suffix = std::string("/") + section.tag +
                                       "/workers=" + std::to_string(w);
            bench::JsonRecorder::Instance().Record(
                "fig11.solver_queries_nocores" + suffix,
                static_cast<double>(off.solver_queries));
            bench::JsonRecorder::Instance().Record(
                "fig11.solver_queries_cores" + suffix,
                static_cast<double>(on.solver_queries));
            bench::JsonRecorder::Instance().Record(
                "fig11.core_query_reduction_pct" + suffix, reduction);
        }
    }
    bench::Metric("fig11.core_witness_sets_identical",
                  witnesses_identical ? 1 : 0);
    bench::Note("FSP's branches are all single-field, so with the "
                "matrix on the cores merely tie it; the compound "
                "protocol's fused dispatch+sanity branches are the "
                "shape the matrix must skip and cores still prune");

    const bool ok = witnesses_identical && fsp_no_regression &&
                    fsp_isolation_fewer && compound_fewer;
    std::printf("\nCORES: %s\n",
                ok ? "PASS (fewer queries, identical witness sets)"
                   : "MISMATCH");
    return ok;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::ParseBenchArgs(argc, argv);
    bool compare = false;
    bool compare_prune = false;
    bool compare_prefilter = false;
    bool use_cores = true;
    size_t num_clients = 8;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cores") == 0)
            compare = true;
        else if (std::strcmp(argv[i], "--no-cores") == 0)
            use_cores = false;
        else if (std::strcmp(argv[i], "--prune-index") == 0)
            compare_prune = true;
        else if (std::strcmp(argv[i], "--prefilter") == 0)
            compare_prefilter = true;
        else if (std::strcmp(argv[i], "--json") == 0)
            compare = true;
        else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc)
            num_clients =
                CountFlagOrExit(argv[0], "--clients", argv[i + 1], 1);
    }

    bench::Header("Figure 11 -- client path predicates matching each "
                  "server path vs path length (FSP)");

    smt::ExprContext ctx;
    smt::SolverConfig solver_config;
    solver_config.enable_cores = use_cores;
    smt::Solver solver(&ctx, solver_config);

    const std::vector<symexec::Program> clients = fsp::MakeAllClients();
    const symexec::Program server = fsp::MakeServer();

    core::AchillesConfig config;
    config.layout = fsp::MakeLayout();
    for (const symexec::Program &c : clients)
        config.clients.push_back(&c);
    config.server = &server;
    // Disable pruning so the samples cover the whole exploration tree,
    // like the paper's figure (which plots incomplete paths too).
    config.server_config.prune_trojan_free_states = false;
    config.server_config.use_unsat_cores = use_cores;
    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    // Aggregate the (path length, live predicates) samples.
    std::map<size_t, std::vector<size_t>> by_length;
    for (const core::LiveSetSample &s : result.server.live_samples)
        by_length[s.path_length].push_back(s.live_predicates);

    bench::Section("per-length distribution of matching predicates");
    std::printf("%8s %10s %10s %10s %10s\n", "length", "samples", "min",
                "avg", "max");
    double first_avg = 0.0, last_avg = 0.0;
    size_t deep_max = 0;
    bool first = true;
    for (const auto &[length, samples] : by_length) {
        const size_t min_v =
            *std::min_element(samples.begin(), samples.end());
        const size_t max_v =
            *std::max_element(samples.begin(), samples.end());
        double avg = 0;
        for (size_t v : samples)
            avg += static_cast<double>(v);
        avg /= static_cast<double>(samples.size());
        std::printf("%8zu %10zu %10zu %10.1f %10zu\n", length,
                    samples.size(), min_v, avg, max_v);
        if (first) {
            first_avg = avg;
            first = false;
        }
        last_avg = avg;
        deep_max = max_v;
    }

    bench::Note("paper: starts at ~5,000 matching expressions (their "
                "client predicate count; ours is 32 at the same bound) "
                "and decays toward a handful as paths lengthen; the "
                "scatter is not strictly monotone in either version");
    bench::Note("the decay is what makes the per-branch Trojan check "
                "tractable (Section 3.3)");

    const size_t total_preds = result.client_predicate.paths.size();
    // Shape: deep paths match a small fraction of the predicate set.
    const bool ok = !by_length.empty() && last_avg < first_avg &&
                    deep_max * 4 <= total_preds;

    // Scaled variant: the synthetic protocol with 64 client path
    // predicates and binary command dispatch shows the same curve at a
    // magnitude closer to the paper's (their ~5,000 predicates).
    bench::Section("scaled variant (synthetic protocol, N = 64)");
    const symexec::Program sclient = synth::MakeClient(64);
    const symexec::Program sserver = synth::MakeServer(64);
    core::AchillesConfig sconfig;
    sconfig.layout = synth::MakeLayout();
    sconfig.clients = {&sclient};
    sconfig.server = &sserver;
    sconfig.server_config.prune_trojan_free_states = false;
    sconfig.server_config.use_unsat_cores = use_cores;
    const core::AchillesResult sresult =
        core::RunAchilles(&ctx, &solver, sconfig);
    std::map<size_t, std::pair<double, size_t>> sagg;  // len -> sum,count
    for (const core::LiveSetSample &s : sresult.server.live_samples) {
        sagg[s.path_length].first += static_cast<double>(
            s.live_predicates);
        sagg[s.path_length].second += 1;
    }
    std::printf("%8s %10s\n", "length", "avg");
    for (const auto &[length, sum_count] : sagg) {
        if (length % 2 == 0 || length < 4) {
            std::printf("%8zu %10.1f\n", length,
                        sum_count.first / sum_count.second);
        }
    }
    bench::Note("binary dispatch halves the live set per level: "
                "64 -> 32 -> 16 -> ... -> 1, the paper's decay at "
                "larger magnitude");

    std::printf("\nRESULT: %s (avg matching predicates decays "
                "%.1f -> %.1f; deepest max %zu of %zu)\n",
                ok ? "PASS (shape reproduced)" : "MISMATCH", first_avg,
                last_avg, deep_max, total_preds);

    // The --cores/--json ablation grid; its verdict gates the process
    // (CI runs it and fails on a witness diff or a query regression).
    bool cores_ok = true;
    if (compare)
        cores_ok = RunCoreComparison(num_clients);
    // The --prune-index ablation: the shared pruning knowledge base
    // on/off, gated on witness identity and a query reduction.
    bool prune_ok = true;
    if (compare_prune)
        prune_ok = RunPruneIndexComparison(num_clients);
    // The --prefilter ablation: the concrete pre-filter on/off, gated
    // on witness identity and no extra queries.
    bool prefilter_ok = true;
    if (compare_prefilter)
        prefilter_ok = RunPrefilterComparison(num_clients);
    bench::JsonRecorder::Instance().Flush();
    return ok && cores_ok && prune_ok && prefilter_ok ? 0 : 1;
}
