// Achilles reproduction -- parallel exploration subsystem benchmark.
//
// Sweeps the FSP server exploration (phase 2, the dominant cost in the
// paper's Section 6.2 breakdown) over 1/2/4/8 workers and reports the
// wall-clock speedup, the shared Trojan-query cache hit rate and the
// work-stealing counters. Also validates the subsystem's determinism
// guarantee: the Trojan witness sets (accept labels, definitions,
// concrete bytes) must be bitwise-identical at every worker count.
//
// Usage: bench_parallel [--clients N] [--workers 1,2,4,8]
//                       [--clause-exchange] [--lemma-cap N]
//                       [--json <path>] [--trace-out <path>]
//                       [--progress[=secs]] [--obs-overhead]
//
// Observability: `--trace-out` re-runs the max-worker point with the
// Chrome-trace recorder attached and writes the trace there (load it in
// chrome://tracing or ui.perfetto.dev); `--progress` attaches the live
// heartbeat to that run; with `--json`, the instrumented run's
// RunReport lands as the nested "metrics" record. `--obs-overhead`
// measures the full-instrumentation wall-clock cost at the max worker
// count -- two paired off/on runs, the minimum pairwise overhead,
// floored at zero -- and records it as obs.overhead_pct (the CI trend
// gate holds this under an absolute ceiling). Witness sets must stay
// identical with instrumentation on or off.
//
// `--clause-exchange` appends the learned-clause-exchange ablation:
// every multi-worker point of the sweep reruns with the cross-worker
// lemma pool disabled, reporting the on/off speedup and the lemma
// counters, and re-checking that witness sets match the serial run in
// both configurations.
//
// `--lemma-cap N` caps the shared lemma pool's live entries at N
// (0 = unbounded); the eviction counters land in the JSON records, and
// witness sets must stay identical at any cap -- eviction can only
// cost an acceleration, never a verdict.
//
// Every JSON record set includes one `parallel.swept/workers=N` marker
// per worker count actually run, so downstream consumers (the CI
// perf-trend gate) can intersect sweeps instead of comparing a point
// that one side never measured; records are flushed even when the
// sweep is truncated or the determinism check fails.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <fstream>

#include "bench/bench_util.h"
#include "core/achilles.h"
#include "obs/heartbeat.h"
#include "proto/fsp/fsp_protocol.h"
#include "support/parse.h"

using namespace achilles;
using namespace achilles::core;

namespace {

/** Witness summary comparable across independent runs. */
using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

struct SweepPoint
{
    size_t workers = 1;
    double seconds = 0.0;
    size_t trojans = 0;
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
    int64_t states_stolen = 0;
    int64_t lemmas_published = 0;
    int64_t lemmas_installed = 0;
    int64_t lemmas_evicted = 0;
    std::vector<WitnessSummary> witnesses;
    obs::RunReport report;
};

/** Observability attachments for one RunOnce invocation. */
struct ObsOptions
{
    bool metrics = false;
    bool tracing = false;
    double progress_secs = 0.0;  ///< 0 = heartbeat off
    std::string trace_path;      ///< written when tracing is on
};

/** `lemma_cap` < 0 keeps the SolverConfig default. */
SweepPoint
RunOnce(size_t workers, size_t num_clients, bool clause_exchange = true,
        int64_t lemma_cap = -1, const ObsOptions &obs_opts = {})
{
    smt::ExprContext ctx;
    smt::SolverConfig solver_config;
    solver_config.share_learned_clauses = clause_exchange;
    if (lemma_cap >= 0)
        solver_config.lemma_pool_cap = lemma_cap;

    // Lane 0 is the pipeline thread; workers own lanes 1..N.
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<obs::TraceRecorder> tracer;
    if (obs_opts.metrics)
        registry = std::make_unique<obs::MetricsRegistry>(workers + 1);
    if (obs_opts.tracing)
        tracer = std::make_unique<obs::TraceRecorder>(workers + 1);
    obs::ObsHandle obs_handle;
    obs_handle.registry = registry.get();
    obs_handle.tracer = tracer.get();
    solver_config.obs = obs_handle;

    smt::Solver solver(&ctx, solver_config);

    const std::vector<symexec::Program> clients = fsp::MakeAllClients();
    const symexec::Program server = fsp::MakeServer();

    AchillesConfig config;
    config.layout = fsp::MakeLayout();
    for (size_t i = 0; i < clients.size() && i < num_clients; ++i)
        config.clients.push_back(&clients[i]);
    config.server = &server;
    config.server_config.engine.num_workers = workers;
    config.obs = obs_handle;

    std::unique_ptr<obs::Heartbeat> heartbeat;
    if (registry != nullptr && obs_opts.progress_secs > 0) {
        heartbeat = std::make_unique<obs::Heartbeat>(
            registry.get(), obs_opts.progress_secs);
        heartbeat->Start();
    }

    const AchillesResult result = RunAchilles(&ctx, &solver, config);

    if (heartbeat != nullptr)
        heartbeat->Stop();
    if (tracer != nullptr && !obs_opts.trace_path.empty()) {
        std::ofstream out(obs_opts.trace_path);
        if (out.is_open())
            tracer->WriteChromeTrace(out);
        else
            obs::LogError("bench: cannot write " + obs_opts.trace_path);
    }

    SweepPoint point;
    point.report = result.report;
    point.workers = workers;
    point.seconds = result.timings.server_analysis;
    point.trojans = result.server.trojans.size();
    point.cache_hits = result.server.stats.Get("exec.queries_cached");
    point.cache_misses =
        result.server.stats.Get("exec.query_cache_misses");
    point.states_stolen = result.server.stats.Get("exec.states_stolen");
    point.lemmas_published =
        result.server.stats.Get("exec.lemmas_published");
    point.lemmas_installed =
        result.server.stats.Get("solver.lemmas_installed");
    point.lemmas_evicted = result.server.stats.Get("exec.lemmas_evicted");
    CanonicalHasher hasher(&ctx);
    for (const TrojanWitness &t : result.server.trojans) {
        point.witnesses.emplace_back(t.accept_label, t.concrete,
                                     hasher.HashExprs(t.definition));
    }
    std::sort(point.witnesses.begin(), point.witnesses.end());
    return point;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::ParseBenchArgs(argc, argv);
    size_t num_clients = 8;
    bool exchange_ablation = false;
    bool obs_overhead = false;
    double progress_secs = 0.0;
    std::string trace_path;
    int64_t lemma_cap = -1;
    std::vector<size_t> worker_counts{1, 2, 4, 8};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--clause-exchange") == 0)
            exchange_ablation = true;
        else if (std::strcmp(argv[i], "--obs-overhead") == 0)
            obs_overhead = true;
        else if (std::strcmp(argv[i], "--progress") == 0)
            progress_secs = 1.0;
        else if (std::strncmp(argv[i], "--progress=", 11) == 0)
            progress_secs =
                ProgressSecsOrExit(argv[0], "--progress", argv[i] + 11);
    }
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--clients") == 0) {
            num_clients =
                CountFlagOrExit(argv[0], "--clients", argv[i + 1], 1);
        } else if (std::strcmp(argv[i], "--lemma-cap") == 0) {
            lemma_cap = static_cast<int64_t>(CountFlagOrExit(
                argv[0], "--lemma-cap", argv[i + 1], 0, INT64_MAX));
        } else if (std::strcmp(argv[i], "--trace-out") == 0) {
            trace_path = argv[i + 1];
        } else if (std::strcmp(argv[i], "--workers") == 0) {
            // A comma-separated list; every entry is parsed strictly.
            worker_counts.clear();
            const std::string list = argv[i + 1];
            for (size_t start = 0;;) {
                const size_t comma = list.find(',', start);
                const std::string item =
                    list.substr(start, comma - start);
                worker_counts.push_back(CountFlagOrExit(
                    argv[0], "--workers", item.c_str(), 1, kMaxWorkers));
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        }
    }
    if (std::find(worker_counts.begin(), worker_counts.end(), 1u) ==
        worker_counts.end()) {
        // The sweep's speedup baseline is the serial run; force it in.
        worker_counts.insert(worker_counts.begin(), 1);
    }
    std::sort(worker_counts.begin(), worker_counts.end());
    worker_counts.erase(
        std::unique(worker_counts.begin(), worker_counts.end()),
        worker_counts.end());

    bench::Header("Parallel server exploration -- work-stealing scheduler "
                  "sweep (FSP)");
    bench::Note("phase 2 only; 1 worker = the serial in-engine worklist");

    std::vector<SweepPoint> points;
    for (size_t w : worker_counts)
        points.push_back(RunOnce(w, num_clients, true, lemma_cap));

    const SweepPoint &serial = points.front();

    bench::Section("sweep");
    std::printf("  %8s %12s %9s %10s %12s %9s\n", "workers", "seconds",
                "speedup", "trojans", "cache-hit%", "stolen");
    bool identical = true;
    for (const SweepPoint &p : points) {
        const double speedup =
            p.seconds > 0 ? serial.seconds / p.seconds : 0.0;
        const int64_t lookups = p.cache_hits + p.cache_misses;
        const double hit_rate =
            lookups > 0 ? 100.0 * static_cast<double>(p.cache_hits) /
                              static_cast<double>(lookups)
                        : 0.0;
        std::printf("  %8zu %12.3f %8.2fx %10zu %11.1f%% %9lld\n",
                    p.workers, p.seconds, speedup, p.trojans, hit_rate,
                    static_cast<long long>(p.states_stolen));
        identical &= p.witnesses == serial.witnesses;

        const std::string suffix =
            "/workers=" + std::to_string(p.workers);
        // Sweep marker first: a consumer must never compare a metric
        // at a worker count the other record set did not run.
        bench::JsonRecorder::Instance().Record(
            "parallel.swept" + suffix, 1.0);
        bench::JsonRecorder::Instance().Record(
            "parallel.server_seconds" + suffix, p.seconds);
        bench::JsonRecorder::Instance().Record(
            "parallel.speedup" + suffix, speedup);
        bench::JsonRecorder::Instance().Record(
            "parallel.cache_hit_rate" + suffix, hit_rate);
        bench::JsonRecorder::Instance().Record(
            "parallel.states_stolen" + suffix,
            static_cast<double>(p.states_stolen));
    }
    bench::Metric("parallel.trojans", static_cast<double>(serial.trojans));

    if (exchange_ablation) {
        bench::Section("clause-exchange ablation");
        std::printf("  %8s %10s %10s %9s %10s %10s\n", "workers",
                    "s(off)", "s(on)", "speedup", "published",
                    "installed");
        for (const SweepPoint &swept : points) {
            if (swept.workers <= 1)
                continue;  // no siblings, no exchange
            // Paired back-to-back runs (rather than reusing the main
            // sweep's timing) so the ratio is not polluted by drift
            // between sections.
            const SweepPoint off =
                RunOnce(swept.workers, num_clients,
                        /*clause_exchange=*/false, lemma_cap);
            const SweepPoint on =
                RunOnce(swept.workers, num_clients,
                        /*clause_exchange=*/true, lemma_cap);
            const double speedup =
                on.seconds > 0 ? off.seconds / on.seconds : 0.0;
            std::printf("  %8zu %10.3f %10.3f %8.2fx %10lld %10lld\n",
                        on.workers, off.seconds, on.seconds, speedup,
                        static_cast<long long>(on.lemmas_published),
                        static_cast<long long>(on.lemmas_installed));
            identical &= off.witnesses == serial.witnesses &&
                         on.witnesses == serial.witnesses;

            const std::string suffix =
                "/workers=" + std::to_string(on.workers);
            bench::JsonRecorder::Instance().Record(
                "parallel.clause_exchange_speedup" + suffix, speedup);
            bench::JsonRecorder::Instance().Record(
                "parallel.lemmas_published" + suffix,
                static_cast<double>(on.lemmas_published));
            bench::JsonRecorder::Instance().Record(
                "parallel.lemmas_installed" + suffix,
                static_cast<double>(on.lemmas_installed));
            bench::JsonRecorder::Instance().Record(
                "parallel.lemmas_evicted" + suffix,
                static_cast<double>(on.lemmas_evicted));
        }
        bench::Note("witness sets must match the serial run in both "
                    "configurations; lemma counts are small by design "
                    "(only <=2-literal refutations over the shared "
                    "prefix travel, and interval-refutable conflicts "
                    "never reach the SAT backend that exports)");
    }
    if (obs_overhead || progress_secs > 0 || !trace_path.empty()) {
        bench::Section("observability");
        const size_t max_workers = worker_counts.back();
        ObsOptions full;
        full.metrics = true;
        full.tracing = true;
        full.progress_secs = progress_secs;
        full.trace_path = trace_path;
        const SweepPoint instrumented =
            RunOnce(max_workers, num_clients, true, lemma_cap, full);
        identical &= instrumented.witnesses == serial.witnesses;
        std::printf("  instrumented run (%zu workers): %.3f s, "
                    "%lld trace events (%lld dropped)\n",
                    max_workers, instrumented.seconds,
                    static_cast<long long>(
                        instrumented.report.Get("obs.trace_events")),
                    static_cast<long long>(
                        instrumented.report.Get("obs.trace_dropped")));
        // The instrumented run's full observability summary rides the
        // JSON artifact as the nested "metrics" record.
        bench::RecordRunMetrics(instrumented.report);

        if (obs_overhead) {
            // Two paired off/on runs; the minimum pairwise overhead
            // discounts one-off scheduling noise, and the zero floor
            // keeps lucky negative deltas from masking a regression
            // elsewhere in the trend history.
            ObsOptions quiet = full;
            quiet.progress_secs = 0.0;  // no sampler thread in the
            quiet.trace_path.clear();   // timed region, no file I/O
            double overhead_pct = 1e9;
            for (int round = 0; round < 2; ++round) {
                const SweepPoint off =
                    RunOnce(max_workers, num_clients, true, lemma_cap);
                const SweepPoint on = RunOnce(max_workers, num_clients,
                                              true, lemma_cap, quiet);
                identical &= off.witnesses == serial.witnesses &&
                             on.witnesses == serial.witnesses;
                if (off.seconds > 0) {
                    overhead_pct = std::min(
                        overhead_pct, 100.0 *
                                          (on.seconds - off.seconds) /
                                          off.seconds);
                }
            }
            overhead_pct =
                overhead_pct >= 1e9 ? 0.0 : std::max(0.0, overhead_pct);
            bench::Metric("obs.overhead_pct", overhead_pct, "%");
        }
    }

    // Recorded after the ablation so the archived verdict covers every
    // witness-set comparison this process made.
    bench::Metric("parallel.witness_sets_identical", identical ? 1 : 0);

    bench::Section("determinism");
    if (identical) {
        std::printf("  witness sets (labels, definitions, concrete bytes) "
                    "are identical at every worker count\n");
    } else {
        std::printf("  ERROR: witness sets diverged across worker "
                    "counts\n");
    }
    bench::Note("speedup is bounded by the machine's core count; on a "
                "single-core container all worker counts serialize");
    // Flush explicitly: the perf-trajectory artifact must exist even
    // when the determinism gate fails the process (that is exactly the
    // run someone will want to inspect).
    bench::JsonRecorder::Instance().Flush();
    return identical ? 0 : 1;
}
