// Achilles reproduction -- command-line driver.
//
// Run the full pipeline (client predicate extraction, preprocessing,
// server exploration) on any registry protocol with the observability
// layer attached:
//
//   achilles_cli [--protocol <name>] [--spec <file>] [--list-protocols]
//                [--workers N] [--clients N]
//                [--metrics-out <path>] [--trace-out <path>]
//                [--progress[=secs]]
//                [--knowledge-load <path>] [--knowledge-save <path>]
//                [--knowledge-dir <dir>]
//
//   --protocol       registry protocol to analyze (default fsp); any
//                    name from --list-protocols, including the sampled
//                    synth/<cell>/s<seed> corpus entries
//   --spec           parse + register a wire-format spec file and
//                    analyze it (overrides --protocol)
//   --list-protocols print every registered protocol name and exit
//   --workers        server-exploration worker threads, 1 to 256
//                    (default 1)
//   --clients        client programs to include, at least 1 (default
//                    all)
//   --metrics-out    write the end-of-run RunReport as one JSON object
//   --trace-out      write the Chrome trace-event JSON (open the file in
//                    chrome://tracing or https://ui.perfetto.dev)
//   --progress       print a live progress heartbeat every second (or
//                    every `secs` with --progress=secs, 0 < secs <=
//                    86400)
//   --knowledge-load warm-start: restore the pruning knowledge base,
//                    lemma archive and query cache from a snapshot
//                    written by a previous run of the same protocol (a
//                    stale or corrupted snapshot degrades to a cold
//                    start, never a wrong answer)
//   --knowledge-save write the run's knowledge snapshot on exit
//   --knowledge-dir  both of the above, keyed automatically: the file
//                    is <dir>/knowledge-<fingerprint>.snap, named by
//                    the protocol's structural fingerprint so edited
//                    protocols never collide with their own history
//
// Log verbosity follows the ACHILLES_LOG environment variable
// (debug|info|warn|error|off). A malformed or out-of-range number exits
// with status 2 and a diagnostic before any work starts.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/achilles.h"
#include "obs/heartbeat.h"
#include "obs/log.h"
#include "persist/fingerprint.h"
#include "persist/snapshot.h"
#include "proto/registry.h"
#include "proto/spec/lower.h"
#include "support/parse.h"

using namespace achilles;

namespace {

void
Usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--protocol <name>] [--spec <file>] "
        "[--list-protocols]\n"
        "          [--workers N] [--clients N]\n"
        "          [--metrics-out <path>] [--trace-out <path>]\n"
        "          [--progress[=secs]]\n"
        "          [--knowledge-load <path>] [--knowledge-save <path>]\n"
        "          [--knowledge-dir <dir>]\n",
        argv0);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string protocol = "fsp";
    std::string spec_path;
    bool list_protocols = false;
    size_t workers = 1;
    size_t num_clients = static_cast<size_t>(-1);
    std::string metrics_path;
    std::string trace_path;
    double progress_secs = 0.0;
    std::string knowledge_load;
    std::string knowledge_save;
    std::string knowledge_dir;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (std::strcmp(arg, "--protocol") == 0 && has_value) {
            protocol = argv[++i];
        } else if (std::strcmp(arg, "--spec") == 0 && has_value) {
            spec_path = argv[++i];
        } else if (std::strcmp(arg, "--list-protocols") == 0) {
            list_protocols = true;
        } else if (std::strcmp(arg, "--workers") == 0 && has_value) {
            workers = CountFlagOrExit(argv[0], "--workers", argv[++i], 1,
                                      kMaxWorkers);
        } else if (std::strcmp(arg, "--clients") == 0 && has_value) {
            num_clients =
                CountFlagOrExit(argv[0], "--clients", argv[++i], 1);
        } else if (std::strcmp(arg, "--metrics-out") == 0 && has_value) {
            metrics_path = argv[++i];
        } else if (std::strcmp(arg, "--trace-out") == 0 && has_value) {
            trace_path = argv[++i];
        } else if (std::strcmp(arg, "--knowledge-load") == 0 &&
                   has_value) {
            knowledge_load = argv[++i];
        } else if (std::strcmp(arg, "--knowledge-save") == 0 &&
                   has_value) {
            knowledge_save = argv[++i];
        } else if (std::strcmp(arg, "--knowledge-dir") == 0 && has_value) {
            knowledge_dir = argv[++i];
        } else if (std::strcmp(arg, "--progress") == 0) {
            progress_secs = 1.0;
        } else if (std::strncmp(arg, "--progress=", 11) == 0) {
            progress_secs =
                ProgressSecsOrExit(argv[0], "--progress", arg + 11);
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            Usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown argument %s\n", argv[0],
                         arg);
            Usage(argv[0]);
            return 2;
        }
    }

    proto::ProtocolRegistry &registry = proto::ProtocolRegistry::Global();

    if (list_protocols) {
        for (const std::string &name : registry.Names()) {
            const auto factory = registry.Find(name);
            std::printf("%-32s %-12s %s\n", name.c_str(),
                        factory->info().family.c_str(),
                        factory->info().description.c_str());
        }
        return 0;
    }

    // A spec file joins the registry at load time and becomes the
    // analyzed protocol.
    if (!spec_path.empty()) {
        std::string error;
        if (!spec::RegisterSpecFile(spec_path, &registry, &protocol,
                                    &error)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
            return 2;
        }
    }

    const auto factory = registry.Find(protocol);
    if (factory == nullptr) {
        std::fprintf(stderr,
                     "%s: unknown protocol %s (try --list-protocols)\n",
                     argv[0], protocol.c_str());
        Usage(argv[0]);
        return 2;
    }

    // The bundle owns the layout and programs for the pipeline's
    // lifetime (AchillesConfig stores raw pointers).
    proto::ProtocolBundle bundle = factory->Make();
    if (num_clients < bundle.clients.size())
        bundle.clients.resize(num_clients);

    // Warm-start persistence. The snapshot key is the bundle's
    // structural fingerprint, computed after the --clients trim (a
    // different client subset means different predicates, so its
    // knowledge must not be shared).
    const uint64_t protocol_fp = persist::ProtocolFingerprint(bundle);
    if (!knowledge_dir.empty()) {
        char name[64];
        std::snprintf(name, sizeof(name), "/knowledge-%016llx.snap",
                      static_cast<unsigned long long>(protocol_fp));
        const std::string keyed = knowledge_dir + name;
        if (knowledge_load.empty())
            knowledge_load = keyed;
        if (knowledge_save.empty())
            knowledge_save = keyed;
    }
    persist::KnowledgeSnapshot warm_in;
    bool have_warm = false;
    if (!knowledge_load.empty()) {
        std::string error;
        if (persist::LoadSnapshot(knowledge_load, protocol_fp, &warm_in,
                                  &error)) {
            have_warm = true;
            std::printf("warm start: %zu entries from %s\n",
                        warm_in.TotalEntries(), knowledge_load.c_str());
        } else {
            // Missing/stale/corrupted snapshots cost the warm start,
            // nothing else.
            std::printf("cold start: %s (%s)\n", knowledge_load.c_str(),
                        error.c_str());
        }
    }
    persist::KnowledgeSnapshot warm_out;
    warm_out.protocol_fingerprint = protocol_fp;

    // Observability sinks: metrics whenever any obs output is wanted
    // (the heartbeat and the report both read the registry), tracing
    // only when a trace file was asked for. Lane 0 is this thread;
    // exploration workers own lanes 1..N.
    const bool want_metrics =
        !metrics_path.empty() || progress_secs > 0 || !trace_path.empty();
    std::unique_ptr<obs::MetricsRegistry> obs_registry;
    std::unique_ptr<obs::TraceRecorder> tracer;
    if (want_metrics)
        obs_registry = std::make_unique<obs::MetricsRegistry>(workers + 1);
    if (!trace_path.empty())
        tracer = std::make_unique<obs::TraceRecorder>(workers + 1);
    obs::ObsHandle obs_handle;
    obs_handle.registry = obs_registry.get();
    obs_handle.tracer = tracer.get();

    smt::ExprContext ctx;
    smt::SolverConfig solver_config;
    solver_config.obs = obs_handle;
    smt::Solver solver(&ctx, solver_config);

    core::AchillesConfig config;
    config.layout = bundle.layout;
    config.clients = bundle.ClientPtrs();
    config.server = &bundle.server;
    config.server_config.engine.num_workers = workers;
    config.obs = obs_handle;
    if (have_warm)
        config.knowledge_in = &warm_in;
    if (!knowledge_save.empty())
        config.knowledge_out = &warm_out;

    std::unique_ptr<obs::Heartbeat> heartbeat;
    if (obs_registry != nullptr && progress_secs > 0) {
        heartbeat = std::make_unique<obs::Heartbeat>(obs_registry.get(),
                                                     progress_secs);
        heartbeat->Start();
    }

    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    if (heartbeat != nullptr)
        heartbeat->Stop();

    std::printf("protocol %s (%s): %zu client(s), %zu worker(s)\n",
                protocol.c_str(), factory->info().family.c_str(),
                config.clients.size(), workers);
    std::printf("time: %.3f s (client %.3f + preprocess %.3f + "
                "server %.3f)\n",
                result.timings.Total(), result.timings.client_extraction,
                result.timings.preprocessing,
                result.timings.server_analysis);
    std::printf("Trojan witnesses: %zu\n", result.server.trojans.size());
    for (const core::TrojanWitness &t : result.server.trojans) {
        std::printf("  [%s] bytes:", t.accept_label.c_str());
        for (uint8_t b : t.concrete)
            std::printf(" %02x", b);
        std::printf("\n");
    }
    // Cross-check against the protocol's concrete counterpart where one
    // exists (fsp/pbft): every witness must be a real Trojan.
    if (const auto oracle = factory->MakeConcreteOracle()) {
        size_t confirmed = 0;
        for (const core::TrojanWitness &t : result.server.trojans)
            if (oracle(t.concrete))
                ++confirmed;
        std::printf("concrete oracle confirms %zu/%zu witnesses\n",
                    confirmed, result.server.trojans.size());
    }

    int status = 0;
    if (!knowledge_save.empty()) {
        std::string error;
        if (persist::SaveSnapshot(warm_out, knowledge_save, &error)) {
            std::printf("knowledge snapshot written to %s\n",
                        knowledge_save.c_str());
        } else {
            obs::LogError("cannot write snapshot: " + error);
            status = 1;
        }
    }
    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (out.is_open()) {
            result.report.WriteJson(out);
            std::printf("metrics written to %s\n", metrics_path.c_str());
        } else {
            obs::LogError("cannot write " + metrics_path);
            status = 1;
        }
    }
    if (tracer != nullptr) {
        std::ofstream out(trace_path);
        if (out.is_open()) {
            tracer->WriteChromeTrace(out);
            std::printf("trace written to %s (%lld events, %lld "
                        "dropped)\n",
                        trace_path.c_str(),
                        static_cast<long long>(tracer->TotalRetained()),
                        static_cast<long long>(tracer->TotalDropped()));
        } else {
            obs::LogError("cannot write " + trace_path);
            status = 1;
        }
    }
    return status;
}
