// perfbench -- cold-analysis benchmark program for the Achilles pipeline.
//
//   perfbench --workload fsp|deep|corpus --seed N --seconds S
//             [--trace-out FILE]
//             [--mutate flip|drop|relabel] [--plain-solver]
//
// Runs one workload as a closed loop of passes. A pass analyses each of
// the workload's protocols once, one cold analysis at a time: a fresh
// bundle (ProtocolFactory::Make), ExprContext and home solver, with no
// warm-start knowledge, because users pay that cold start on every run.
// Bundle and solver construction are timed apart from the analysis,
// like the body/start/end split of a run_bench harness: each analysis
// builds them a few times and runs on the last. The witness check runs
// after the timed region.
//
// Passes repeat until S seconds have gone by. With --trace-out every
// second pass records a Chrome trace and the metrics registry and
// writes the trace to FILE; the others run with observability off, so
// end-to-end times never include tracing. --mutate damages the first
// witness of each pass before the check (the benchmark's self-tests),
// --plain-solver drops the timing decorator from the home solver (the
// decorator's witness-digest test).
//
// Output: one JSON record per line on stdout (one per pass, then end);
// with --trace-out, one line per traced analysis holding its Chrome
// trace. perfbench/run.py turns these into the benchmark's metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/achilles.h"
#include "obs/obs.h"
#include "proto/registry.h"
#include "proto/synth/synth_family.h"
#include "reference.h"
#include "support/timer.h"
#include "timing_solver.h"

namespace perfbench {

namespace {

using namespace achilles;

/** Trace ring per track: large enough that no traced analysis of the
 *  three workloads wraps (run.py fails the run if one does). */
constexpr size_t kTraceRing = size_t{1} << 16;

/** Set-ups per analysis; the last one's bundle and solver run it. Over
 *  ten 30-second fsp runs, setup_s from one set-up per analysis spread
 *  35% (IQR/median) between runs; the median over five spread 6-9%. */
constexpr int kSetupReps = 5;

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    std::string trace_out;  // non-empty: alternate traced passes
    std::string mutate;
    bool plain_solver = false;
};

/** One protocol of a workload, with the reference its witnesses must
 *  meet. */
struct Subject
{
    std::shared_ptr<const proto::ProtocolFactory> factory;
    size_t workers = 1;
    Reference reference;
};

Subject
Sampled(const synth::FamilyKnobs &knobs, size_t workers)
{
    return Subject{synth::MakeFamilyFactory(knobs), workers,
                   Reference::ForSampled(synth::SampleParams(knobs))};
}

/**
 * The workloads. The seed reaches only the sampler; the pipeline sees
 * the generated protocols.
 *   fsp     FSP, 8 clients, 1 worker; no randomness, the seed is unused.
 *   deep    two depth-6 draws (fan-out 2, coupling 0.75, density 0.25)
 *           with draw seeds 2N and 2N+1, 4 workers.
 *   corpus  the default 24-cell sampler grid with draw seeds 5N..5N+4
 *           (N = 0 is the registered synth/<cell>/s0..s4 corpus),
 *           1 worker.
 */
std::vector<Subject>
MakeWorkload(const std::string &name, uint64_t seed)
{
    std::vector<Subject> out;
    if (name == "fsp") {
        auto factory = proto::ProtocolRegistry::Global().Find("fsp");
        out.push_back(Subject{
            factory, 1,
            Reference::ForOracle(factory->MakeConcreteOracle(),
                                 {{"fs-syscall", 112}})});
    } else if (name == "deep") {
        for (uint64_t k = 0; k < 2; ++k) {
            synth::FamilyKnobs knobs;
            knobs.dispatch_depth = 6;
            knobs.handler_fanout = 2;
            knobs.field_coupling = 0.75;
            knobs.validation_density = 0.25;
            knobs.seed = 2 * seed + k;
            out.push_back(Sampled(knobs, 4));
        }
    } else if (name == "corpus") {
        for (synth::FamilyKnobs knobs : synth::DefaultCorpus()) {
            knobs.seed += 5 * seed;
            out.push_back(Sampled(knobs, 1));
        }
    }
    return out;
}

double
CpuSeconds()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

/**
 * High-water RSS of this process image, in KiB. VmHWM rather than
 * getrusage's ru_maxrss: the latter also keeps the high-water mark of
 * the process image that exec replaced (the parent's memory after a
 * vfork), which is not this program's.
 */
double
PeakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6);
    return 0.0;
}

std::string
Quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
Num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** What one analysis left behind for the pass record. */
struct Analysis
{
    std::vector<double> make_s;   // ProtocolFactory::Make, per set-up
    std::vector<double> setup_s;  // Make + ExprContext + home solver
    double analysis_s = 0.0;
    double cpu_s = 0.0;
    core::PhaseTimings timings;
    size_t negations = 0;
    std::vector<Witness> witnesses;
    SolverTally tally;
    std::vector<std::pair<std::string, double>> report;
    std::string trace_json;
};

std::string
NumList(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + Num(v[i]);
    return out + "]";
}

/** What one analysis runs on, built fresh for it. */
struct Setup
{
    proto::ProtocolBundle bundle;
    std::unique_ptr<smt::ExprContext> ctx;
    std::unique_ptr<smt::Solver> solver;  // destroyed before ctx
};

Analysis
Analyse(const Subject &subject, bool traced, bool plain_solver)
{
    Analysis out;
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<obs::TraceRecorder> tracer;
    if (traced) {
        registry = std::make_unique<obs::MetricsRegistry>(subject.workers +
                                                          1);
        tracer = std::make_unique<obs::TraceRecorder>(subject.workers + 1,
                                                      kTraceRing);
    }
    obs::ObsHandle obs_handle;
    obs_handle.registry = registry.get();
    obs_handle.tracer = tracer.get();

    smt::SolverConfig solver_config;
    solver_config.obs = obs_handle;
    Setup s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s.solver.reset();
        s.ctx.reset();
        Timer setup;
        s.bundle = subject.factory->Make();
        out.make_s.push_back(setup.Seconds());
        s.ctx = std::make_unique<smt::ExprContext>();
        if (plain_solver)
            s.solver = std::make_unique<smt::Solver>(s.ctx.get(),
                                                     solver_config);
        else
            s.solver = std::make_unique<TimingSolver>(s.ctx.get(),
                                                      solver_config);
        out.setup_s.push_back(setup.Seconds());
    }

    core::AchillesConfig config;
    config.layout = s.bundle.layout;
    config.clients = s.bundle.ClientPtrs();
    config.server = &s.bundle.server;
    config.server_config.engine.num_workers = subject.workers;
    config.obs = obs_handle;

    const double cpu_start = CpuSeconds();
    Timer run;
    const core::AchillesResult result =
        core::RunAchilles(s.ctx.get(), s.solver.get(), config);
    out.analysis_s = run.Seconds();
    out.cpu_s = CpuSeconds() - cpu_start;

    out.timings = result.timings;
    out.negations = result.negations.size();
    for (const core::TrojanWitness &t : result.server.trojans)
        out.witnesses.push_back(Witness{t.accept_label, t.concrete});
    if (!plain_solver)
        out.tally = static_cast<const TimingSolver &>(*s.solver).tally();
    out.report = result.report.metrics();
    if (tracer != nullptr) {
        std::ostringstream os;
        tracer->WriteChromeTrace(os);
        out.trace_json = os.str();
        std::replace(out.trace_json.begin(), out.trace_json.end(), '\n',
                     ' ');
    }
    return out;
}

/** Self-test damage to a witness list; false if nothing to damage. */
bool
Mutate(const std::string &how, std::vector<Witness> *ws)
{
    if (ws->empty())
        return false;
    Witness &first = ws->front();
    if (how == "flip") {
        // The top bit of the first byte: every sampled server rejects a
        // command byte >= 64, and FSP's command byte is checked too.
        first.bytes[0] ^= 0x80;
    } else if (how == "drop") {
        ws->erase(ws->begin());
    } else if (how == "relabel") {
        std::string other = first.label + "~";
        for (const Witness &w : *ws)
            if (w.label != first.label) {
                other = w.label;
                break;
            }
        first.label = other;
    }
    return true;
}

/** Order-insensitive digest of one protocol's witness set. */
uint64_t
Digest(size_t protocol, const std::vector<Witness> &ws)
{
    uint64_t sum = 0;
    for (const Witness &w : ws) {
        uint64_t h = 1469598103934665603ull ^ protocol;
        auto mix = [&h](uint8_t b) {
            h ^= b;
            h *= 1099511628211ull;
        };
        for (char c : w.label)
            mix(static_cast<uint8_t>(c));
        mix(0);
        for (uint8_t b : w.bytes)
            mix(b);
        sum += h;
    }
    return sum;
}

void
RunPass(const Options &opt, const std::vector<Subject> &subjects,
        int index, bool traced, std::ofstream *trace_out)
{
    double analysis_s = 0, cpu_s = 0, client_s = 0, pre_s = 0,
           server_s = 0;
    std::vector<double> make_s(kSetupReps), setup_s(kSetupReps);
    size_t negations = 0;
    int failed = 0;
    bool mutated = opt.mutate.empty();
    std::vector<double> protocol_s;
    std::vector<std::string> failures;
    SolverTally tally;
    std::map<std::string, double> counts;
    uint64_t digest = 0;

    for (size_t i = 0; i < subjects.size(); ++i) {
        Analysis a = Analyse(subjects[i], traced, opt.plain_solver);
        for (int r = 0; r < kSetupReps; ++r) {
            make_s[r] += a.make_s[r];
            setup_s[r] += a.setup_s[r];
        }
        analysis_s += a.analysis_s;
        cpu_s += a.cpu_s;
        client_s += a.timings.client_extraction;
        pre_s += a.timings.preprocessing;
        server_s += a.timings.server_analysis;
        negations += a.negations;
        protocol_s.push_back(a.analysis_s);
        tally.Merge(a.tally);
        for (const auto &[name, value] : a.report)
            counts[name] += value;

        // Outside the timed region: damage (self-tests only), digest,
        // check.
        if (!mutated)
            mutated = Mutate(opt.mutate, &a.witnesses);
        digest += Digest(i, a.witnesses);
        const std::string why = subjects[i].reference.Check(a.witnesses);
        if (!why.empty()) {
            ++failed;
            failures.push_back(subjects[i].factory->info().name + ": " +
                               why);
        }
        if (trace_out != nullptr && traced)
            *trace_out << "{\"pass\":" << index << ",\"protocol\":" << i
                       << ",\"analysis_s\":" << Num(a.analysis_s)
                       << ",\"trace\":" << a.trace_json << "}\n";
    }

    char digest_hex[17];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    std::string line = "{\"record\":\"pass\",\"index\":" +
                       std::to_string(index) +
                       ",\"traced\":" + (traced ? "true" : "false");
    line += ",\"analysis_s\":" + Num(analysis_s);
    line += ",\"cpu_s\":" + Num(cpu_s);
    line += ",\"client_extraction_s\":" + Num(client_s);
    line += ",\"preprocessing_s\":" + Num(pre_s);
    line += ",\"server_analysis_s\":" + Num(server_s);
    line += ",\"protocol_s\":" + NumList(protocol_s);
    line += ",\"setup_s\":" + NumList(setup_s);
    line += ",\"make_s\":" + NumList(make_s);
    line += ",\"attempted\":" + std::to_string(subjects.size());
    line += ",\"failed\":" + std::to_string(failed);
    line += ",\"failures\":[";
    for (size_t i = 0; i < failures.size(); ++i)
        line += (i ? "," : "") + Quote(failures[i]);
    line += "],\"digest\":\"" + std::string(digest_hex) + "\"";
    line += ",\"negations\":" + std::to_string(negations);
    line += ",\"home\":{\"calls\":" + std::to_string(tally.calls);
    line += ",\"busy_s\":" + Num(tally.busy_s);
    line += ",\"sat\":" + std::to_string(tally.sat);
    line += ",\"unsat\":" + std::to_string(tally.unsat);
    line += ",\"unknown\":" + std::to_string(tally.unknown);
    line += ",\"call_us\":" + NumList(tally.call_us);
    line += "},\"counts\":{";
    bool first = true;
    for (const auto &[name, value] : counts) {
        line += (first ? "" : ",") + Quote(name) + ":" + Num(value);
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

int
Main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            opt.workload = argv[++i];
        else if (arg == "--seed" && has_value)
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--seconds" && has_value)
            opt.seconds = std::atof(argv[++i]);
        else if (arg == "--trace-out" && has_value)
            opt.trace_out = argv[++i];
        else if (arg == "--mutate" && has_value)
            opt.mutate = argv[++i];
        else if (arg == "--plain-solver")
            opt.plain_solver = true;
        else {
            std::fprintf(stderr, "perfbench: bad argument %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (!opt.mutate.empty() && opt.mutate != "flip" &&
        opt.mutate != "drop" && opt.mutate != "relabel") {
        std::fprintf(stderr, "perfbench: unknown mutation %s\n",
                     opt.mutate.c_str());
        return 2;
    }
    const std::vector<Subject> subjects =
        MakeWorkload(opt.workload, opt.seed);
    if (subjects.empty()) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    std::ofstream trace_out;
    if (!opt.trace_out.empty()) {
        trace_out.open(opt.trace_out);
        if (!trace_out.is_open()) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.trace_out.c_str());
            return 2;
        }
    }
    // Closed loop: the next pass starts when the previous one ends. A
    // traced run alternates untraced and traced passes and makes at
    // least one of each.
    const bool traced = trace_out.is_open();
    Timer clock;
    int index = 0;
    do {
        RunPass(opt, subjects, index, traced && index % 2 == 1,
                traced ? &trace_out : nullptr);
        ++index;
    } while (clock.Seconds() < opt.seconds || (traced && index < 2));

    const double peak_kb = PeakRssKb();
    if (peak_kb <= 0) {
        std::fprintf(stderr, "perfbench: no VmHWM in /proc/self/status\n");
        return 2;
    }
    std::printf("{\"record\":\"end\",\"peak_rss_mb\":%s}\n",
                Num(peak_kb / 1024.0).c_str());
    return 0;
}

}  // namespace

}  // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::Main(argc, argv);
}
