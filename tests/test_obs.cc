// Achilles reproduction -- tests.
//
// The observability layer (src/obs/): sharded metrics registry
// aggregation under concurrent bumps, distribution merge math across
// shards, trace-ring overflow accounting, heartbeat snapshot
// consistency through a test sink, RunReport folding, and the
// end-to-end contract -- Trojan witness sets are bitwise identical
// with instrumentation on or off at 1/2/4/8 workers. Runs under the
// TSan CI job (the registry's relaxed-atomic hot paths and the
// heartbeat's cross-thread sampling are exactly what it audits).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/achilles.h"
#include "obs/heartbeat.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "proto/fsp/fsp_protocol.h"
#include "support/stats.h"

namespace achilles {
namespace {

// ------------------------------------------------------ metrics registry

TEST(MetricsRegistryTest, CountersAggregateAcrossShards)
{
    obs::MetricsRegistry reg(4);
    auto c0 = reg.GetCounter(0, "x");
    auto c2 = reg.GetCounter(2, "x");
    c0.Bump(3);
    c2.Bump(4);
    const auto agg = reg.Aggregate();
    ASSERT_EQ(agg.count("x"), 1u);
    EXPECT_EQ(agg.at("x").value, 7);
}

TEST(MetricsRegistryTest, ShardIndicesWrapModuloWidth)
{
    obs::MetricsRegistry reg(2);
    auto c = reg.GetCounter(7, "x");  // 7 % 2 == shard 1
    c.Bump(5);
    EXPECT_EQ(reg.Aggregate().at("x").value, 5);
}

TEST(MetricsRegistryTest, DefaultConstructedHandlesAreInert)
{
    obs::MetricsRegistry::Counter c;
    obs::MetricsRegistry::Distribution d;
    c.Bump();
    d.Record(42);  // must not crash
}

TEST(MetricsRegistryTest, ConcurrentBumpsAreNeverLost)
{
    constexpr size_t kThreads = 8;
    constexpr int64_t kBumpsPerThread = 20000;
    obs::MetricsRegistry reg(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg, t] {
            auto c = reg.GetCounter(t, "concurrent");
            auto d = reg.GetDistribution(t, "dist");
            for (int64_t i = 0; i < kBumpsPerThread; ++i) {
                c.Bump();
                d.Record(i);
            }
        });
    }
    // Sample mid-run, as the heartbeat does: values must be readable
    // (and monotone) while writers are live.
    int64_t seen = 0;
    for (int round = 0; round < 50; ++round) {
        const auto agg = reg.Aggregate();
        const auto it = agg.find("concurrent");
        if (it != agg.end()) {
            EXPECT_GE(it->second.value, seen);
            seen = it->second.value;
        }
    }
    for (std::thread &t : threads)
        t.join();
    const auto agg = reg.Aggregate();
    EXPECT_EQ(agg.at("concurrent").value,
              static_cast<int64_t>(kThreads) * kBumpsPerThread);
    EXPECT_EQ(agg.at("dist").dist.count,
              static_cast<int64_t>(kThreads) * kBumpsPerThread);
}

TEST(MetricsRegistryTest, DistributionMergeMathSpansShards)
{
    obs::MetricsRegistry reg(3);
    auto d0 = reg.GetDistribution(0, "lat");
    auto d1 = reg.GetDistribution(1, "lat");
    auto d2 = reg.GetDistribution(2, "lat");
    d0.Record(10);
    d0.Record(20);
    d1.Record(-5);
    d2.Record(100);
    const auto snap = reg.Aggregate().at("lat").dist;
    EXPECT_EQ(snap.count, 4);
    EXPECT_EQ(snap.sum, 125);
    EXPECT_EQ(snap.min, -5);
    EXPECT_EQ(snap.max, 100);
    EXPECT_DOUBLE_EQ(snap.Mean(), 125.0 / 4.0);
}

TEST(MetricsRegistryTest, DistinctDistributionsDoNotAlias)
{
    // Regression: Aggregate() once forgot to advance the distribution
    // slot cursor, so every distribution reported the first one's data.
    obs::MetricsRegistry reg(2);
    auto a = reg.GetDistribution(0, "a");
    auto b = reg.GetDistribution(1, "b");
    auto c = reg.GetCounter(0, "c");  // interleaved kinds
    a.Record(5);
    a.Record(7);
    b.Record(100);
    c.Bump(3);
    const auto agg = reg.Aggregate();
    EXPECT_EQ(agg.at("a").dist.sum, 12);
    EXPECT_EQ(agg.at("b").dist.count, 1);
    EXPECT_EQ(agg.at("b").dist.sum, 100);
    EXPECT_EQ(agg.at("c").value, 3);
}

TEST(MetricsRegistryTest, GaugeReregistrationReplacesTheCallback)
{
    // The freeze-at-join pattern: a component's live gauge is replaced
    // by a constant when the component dies.
    obs::MetricsRegistry reg(1);
    std::atomic<int64_t> live{17};
    reg.RegisterGauge("g", [&live] {
        return live.load(std::memory_order_relaxed);
    });
    EXPECT_EQ(reg.Aggregate().at("g").value, 17);
    reg.RegisterGauge("g", [] { return int64_t{42}; });
    EXPECT_EQ(reg.Aggregate().at("g").value, 42);
}

TEST(MetricsRegistryTest, KindCollisionYieldsInertHandle)
{
    obs::MetricsRegistry reg(1);
    auto c = reg.GetCounter(0, "name");
    c.Bump();
    auto d = reg.GetDistribution(0, "name");  // wrong kind
    d.Record(99);                             // inert: no effect
    EXPECT_EQ(reg.Aggregate().at("name").value, 1);
}

// ----------------------------------------------------------- local stats

TEST(LocalStatsTest, ConcurrentBumpsAreSafe)
{
    // support/stats.h aliases StatsRegistry to this type; the old
    // std::map bag raced under exactly this pattern.
    StatsRegistry stats;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&stats] {
            for (int i = 0; i < 10000; ++i)
                stats.Bump("k");
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(stats.Get("k"), 40000);
}

TEST(LocalStatsTest, MergeSumsAndSelfMergeIsSafe)
{
    StatsRegistry a;
    StatsRegistry b;
    a.Bump("k", 2);
    b.Bump("k", 3);
    a.Merge(b);
    EXPECT_EQ(a.Get("k"), 5);
    a.Merge(a);
    EXPECT_EQ(a.Get("k"), 10);
}

// ----------------------------------------------------------- trace rings

TEST(TraceRecorderTest, RingOverflowIsCountedNotLost)
{
    obs::TraceRecorder rec(1, /*ring_capacity=*/8);
    for (int i = 0; i < 20; ++i) {
        obs::TraceEvent e;
        e.name = "ev";
        e.category = "t";
        e.start_us = i;
        rec.Record(0, e);
    }
    EXPECT_EQ(rec.TotalRetained(), 8);
    EXPECT_EQ(rec.DroppedOn(0), 12);
    EXPECT_EQ(rec.TotalDropped(), 12);
}

TEST(TraceRecorderTest, ChromeTraceCarriesTracksAndDropCounter)
{
    obs::TraceRecorder rec(2, /*ring_capacity=*/4);
    {
        obs::ScopedSpan span(&rec, 1, "work", "test");
        span.AddArg("n", 3);
        span.SetStrArg("verdict", "sat");
    }
    for (int i = 0; i < 10; ++i)
        obs::TraceInstant(&rec, 0, "tick", "test", "i", i);
    std::ostringstream os;
    rec.WriteChromeTrace(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"work\""), std::string::npos);
    EXPECT_NE(json.find("\"verdict\""), std::string::npos);
    // Track 0 wrapped: its drop counter event must be in the stream.
    EXPECT_NE(json.find("obs.trace_dropped"), std::string::npos);
}

TEST(TraceRecorderTest, ScopedSpanOnNullRecorderIsInert)
{
    obs::ScopedSpan span(nullptr, 0, "noop", "test");
    span.AddArg("k", 1);
    span.SetStrArg("s", "v");
    obs::TraceInstant(nullptr, 0, "noop", "test");
}

// ------------------------------------------------------------- heartbeat

TEST(HeartbeatTest, SampleReadsTheRegistrysAggregate)
{
    obs::MetricsRegistry reg(2);
    reg.GetCounter(0, "engine.steps").Bump(21);
    reg.GetCounter(1, "solver.queries").Bump(50);
    reg.GetCounter(1, "solver.unknowns").Bump(5);
    reg.RegisterGauge("engine.frontier", [] { return int64_t{7}; });
    reg.GetCounter(0, "cache.hits").Bump(10);
    reg.GetCounter(1, "cache.hits").Bump(20);
    reg.GetCounter(1, "cache.misses").Bump(10);

    obs::Heartbeat hb(&reg, /*interval_seconds=*/3600.0);
    const obs::HeartbeatSample sample = hb.Sample();
    EXPECT_EQ(sample.states_explored, 21);
    EXPECT_EQ(sample.frontier, 7);
    EXPECT_EQ(sample.queries, 50);
    EXPECT_DOUBLE_EQ(sample.cache_hit_rate, 75.0);
    EXPECT_DOUBLE_EQ(sample.unknown_rate, 10.0);
    EXPECT_FALSE(sample.Format().empty());
}

TEST(HeartbeatTest, SinkSeesMonotoneSamplesAndStopEmitsFinal)
{
    obs::MetricsRegistry reg(1);
    auto queries = reg.GetCounter(0, "solver.queries");

    std::atomic<int64_t> sample_count{0};
    std::atomic<int64_t> last_queries{-1};
    std::atomic<bool> monotone{true};
    obs::Heartbeat hb(&reg, /*interval_seconds=*/0.05,
                      [&](const obs::HeartbeatSample &s) {
                          if (s.queries < last_queries.load())
                              monotone = false;
                          last_queries = s.queries;
                          sample_count.fetch_add(1);
                      });
    hb.Start();
    for (int i = 0; i < 100; ++i) {
        queries.Bump();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    hb.Stop();
    // Stop() emits one final sample, so even a short run reports, and
    // that final sample has seen every bump that happened-before Stop.
    EXPECT_GE(sample_count.load(), 1);
    EXPECT_TRUE(monotone.load());
    EXPECT_EQ(last_queries.load(), 100);
}

// ------------------------------------------------------------ run report

TEST(RunReportTest, SetOverwritesAndPreservesInsertionOrder)
{
    obs::RunReport report;
    report.Set("b", 1.0);
    report.Set("a", 2.0);
    report.Set("b", 3.0);
    ASSERT_EQ(report.metrics().size(), 2u);
    EXPECT_EQ(report.metrics()[0].first, "b");
    EXPECT_DOUBLE_EQ(report.metrics()[0].second, 3.0);
    bool found = false;
    EXPECT_DOUBLE_EQ(report.Get("a", &found), 2.0);
    EXPECT_TRUE(found);
    report.Get("missing", &found);
    EXPECT_FALSE(found);
}

TEST(RunReportTest, RegistryDistributionsFlatten)
{
    obs::MetricsRegistry reg(1);
    reg.GetDistribution(0, "solver.conflicts").Record(10);
    reg.GetDistribution(0, "solver.conflicts").Record(30);
    obs::RunReport report;
    report.Add(reg);
    EXPECT_DOUBLE_EQ(report.Get("solver.conflicts.count"), 2.0);
    EXPECT_DOUBLE_EQ(report.Get("solver.conflicts.sum"), 40.0);
    EXPECT_DOUBLE_EQ(report.Get("solver.conflicts.min"), 10.0);
    EXPECT_DOUBLE_EQ(report.Get("solver.conflicts.max"), 30.0);
    EXPECT_DOUBLE_EQ(report.Get("solver.conflicts.mean"), 20.0);
}

TEST(RunReportTest, JsonIntegersPrintWithoutDecimalPoint)
{
    obs::RunReport report;
    report.Set("count", 42.0);
    report.Set("rate", 1.5);
    std::ostringstream os;
    report.WriteJson(os);
    EXPECT_EQ(os.str(), "{\"count\":42,\"rate\":1.5}");
}

// ------------------------------------------------- end-to-end identity

using WitnessSummary =
    std::tuple<std::string, std::vector<uint8_t>, uint64_t>;

std::vector<WitnessSummary>
RunFsp(size_t workers, bool instrumented, obs::RunReport *report_out,
       obs::HeartbeatSample *last_sample = nullptr)
{
    smt::ExprContext ctx;
    smt::SolverConfig solver_config;

    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<obs::TraceRecorder> tracer;
    obs::ObsHandle handle;
    if (instrumented) {
        registry = std::make_unique<obs::MetricsRegistry>(workers + 1);
        tracer = std::make_unique<obs::TraceRecorder>(workers + 1,
                                                      /*ring=*/1 << 10);
        handle.registry = registry.get();
        handle.tracer = tracer.get();
        solver_config.obs = handle;
    }
    smt::Solver solver(&ctx, solver_config);

    const std::vector<symexec::Program> clients = fsp::MakeAllClients();
    const symexec::Program server = fsp::MakeServer();
    core::AchillesConfig config;
    config.layout = fsp::MakeLayout();
    for (size_t i = 0; i < clients.size() && i < 4; ++i)
        config.clients.push_back(&clients[i]);
    config.server = &server;
    config.server_config.engine.num_workers = workers;
    config.obs = handle;

    // The heartbeat samples shard snapshots from its own thread while
    // the workers run -- exactly the cross-thread pattern TSan audits.
    std::unique_ptr<obs::Heartbeat> heartbeat;
    std::atomic<int64_t> sampled{0};
    if (instrumented) {
        // The last sample comes from Stop() on this thread, after the
        // sampler thread has been joined.
        heartbeat = std::make_unique<obs::Heartbeat>(
            registry.get(), 0.05,
            [&sampled, last_sample](const obs::HeartbeatSample &sample) {
                sampled.fetch_add(1);
                if (last_sample != nullptr)
                    *last_sample = sample;
            });
        heartbeat->Start();
    }

    const core::AchillesResult result =
        core::RunAchilles(&ctx, &solver, config);

    if (heartbeat != nullptr) {
        heartbeat->Stop();
        EXPECT_GE(sampled.load(), 1);
    }
    if (report_out != nullptr)
        *report_out = result.report;

    core::CanonicalHasher hasher(&ctx);
    std::vector<WitnessSummary> witnesses;
    for (const core::TrojanWitness &t : result.server.trojans) {
        witnesses.emplace_back(t.accept_label, t.concrete,
                               hasher.HashExprs(t.definition));
    }
    std::sort(witnesses.begin(), witnesses.end());
    return witnesses;
}

TEST(ObsPipelineTest, WitnessSetsAreIdenticalWithObsOnOrOff)
{
    const std::vector<WitnessSummary> baseline =
        RunFsp(/*workers=*/1, /*instrumented=*/false, nullptr);
    ASSERT_FALSE(baseline.empty());
    for (size_t workers : {1, 2, 4, 8}) {
        const std::vector<WitnessSummary> off =
            RunFsp(workers, false, nullptr);
        obs::RunReport report;
        const std::vector<WitnessSummary> on =
            RunFsp(workers, true, &report);
        EXPECT_EQ(off, baseline)
            << "uninstrumented run diverged at " << workers << " workers";
        EXPECT_EQ(on, baseline)
            << "instrumented run diverged at " << workers << " workers";

        // The instrumented run's report carries the live-layer
        // catalog: queries counted, spans recorded, states stepped.
        EXPECT_GT(report.Get("solver.queries"), 0.0);
        EXPECT_GT(report.Get("engine.steps"), 0.0);
        EXPECT_GT(report.Get("obs.trace_events"), 0.0);
        // Solver queries observed by the registry match the span
        // distribution's sample count.
        EXPECT_DOUBLE_EQ(report.Get("solver.conflicts.count"),
                         report.Get("solver.queries"));
    }
}

TEST(HeartbeatTest, CacheHitRateIsLiveSerialAndParallel)
{
    // Every solver counts its query-cache probes on its own lane, so the
    // heartbeat's cache= field is live in serial runs as well as
    // parallel ones (where the probes span private and shared caches).
    for (size_t workers : {1, 4}) {
        obs::RunReport report;
        obs::HeartbeatSample last;
        RunFsp(workers, /*instrumented=*/true, &report, &last);
        EXPECT_GT(report.Get("cache.hits"), 0.0) << workers << " workers";
        EXPECT_GT(report.Get("cache.misses"), 0.0)
            << workers << " workers";
        EXPECT_GT(last.cache_hit_rate, 0.0) << workers << " workers";
    }
}

}  // namespace
}  // namespace achilles
