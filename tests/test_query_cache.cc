// Achilles reproduction -- tests.
//
// The solver's query cache (smt/query_cache.h).
//
// Unsat cores: a kUnsat entry carries the fingerprints of its core,
// replays them re-anchored to each caller's assertion indices, gains a
// core it lacked from a later insert (the first core stays), never
// hands a core across a key collision, and keeps it through
// export/import and a snapshot round trip. Snapshots of the previous
// format version load as a clean cold start.
//
// The solver's one cache path: a serial solver's private cache upgrades
// model-less entries in place, replays cores in caller indices, keeps
// interval cores, and a worker solver keeps queries over worker-local variables out of the shared
// cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "exec/expr_transfer.h"
#include "persist/snapshot.h"
#include "smt/query_cache.h"
#include "smt/solver.h"
#include "support/stats.h"

namespace achilles {
namespace {

using smt::CheckResult;
using smt::CheckStatus;
using smt::ExprContext;
using smt::ExprRef;
using smt::Model;
using smt::QueryCache;
using smt::QueryCacheKey;
using smt::QueryFingerprints;
using smt::Solver;
using smt::SolverConfig;

std::string
TempPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t>
ReadFile(const std::string &path)
{
    std::vector<uint8_t> out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return out;
    uint8_t chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.insert(out.end(), chunk, chunk + n);
    std::fclose(f);
    return out;
}

/** Probe for a kUnsat verdict with core; returns whether it hit. */
bool
LookupCore(QueryCache *cache, const QueryCacheKey &key,
           const QueryFingerprints &fps, bool *has_core,
           QueryFingerprints *core)
{
    CheckStatus status = CheckStatus::kUnknown;
    *has_core = false;
    core->clear();
    return cache->Lookup(key, fps, /*want_model=*/false, &status, nullptr,
                         has_core, core);
}

TEST(QueryCacheCoreTest, CoresTranslateAcrossContexts)
{
    ExprContext home;
    ExprRef x = home.FreshVar("x", 8);
    ExprRef y = home.FreshVar("y", 8);
    ExprRef irrelevant = home.MakeEq(y, home.MakeConst(8, 5));
    ExprRef lt = home.MakeUlt(x, home.MakeConst(8, 10));
    ExprRef ge = home.MakeUge(x, home.MakeConst(8, 20));

    ExprContext remote;
    std::mutex mutex;
    exec::ExprBridge bridge(&home, &remote, &mutex);
    bridge.MirrorHomeVars();

    QueryCache cache;
    const uint32_t limit = home.NumVars();
    Solver home_solver(&home, {}, &cache, limit);
    Solver remote_solver(&remote, {}, &cache, limit);

    const CheckResult first =
        home_solver.CheckSat({irrelevant, lt, ge});
    ASSERT_EQ(first, CheckResult::kUnsat);
    ASSERT_TRUE(first.has_core);
    EXPECT_EQ(first.core, (std::vector<uint32_t>{1, 2}));
    EXPECT_EQ(cache.cores_recorded(), 1);

    // The remote solver's probe hits the shared entry and re-anchors
    // the fingerprint core to its own (reordered) assertion indices.
    const CheckResult hit = remote_solver.CheckSat(
        {bridge.ToRemote(ge), bridge.ToRemote(irrelevant),
         bridge.ToRemote(lt)});
    ASSERT_EQ(hit, CheckResult::kUnsat);
    ASSERT_TRUE(hit.has_core);
    EXPECT_EQ(hit.core, (std::vector<uint32_t>{0, 2}));
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.core_hits(), 1);

    // The counters keep the key names the benchmark reads.
    StatsRegistry stats;
    cache.ExportStats(&stats);
    EXPECT_EQ(stats.Get("prune.query_cores_recorded"), 1);
    EXPECT_EQ(stats.Get("prune.query_core_hits"), 1);
}

TEST(QueryCacheCoreTest, CorelessEntryGainsTheFirstCore)
{
    QueryCache cache;
    const QueryCacheKey key{21, 22};
    const QueryFingerprints fps{{1, 2}, {3, 4}};
    const QueryFingerprints core{{3, 4}};

    cache.Insert(key, fps, CheckStatus::kUnsat, /*has_model=*/false,
                 Model());
    bool has_core = false;
    QueryFingerprints out;
    ASSERT_TRUE(LookupCore(&cache, key, fps, &has_core, &out));
    EXPECT_FALSE(has_core);
    EXPECT_EQ(cache.core_hits(), 0);

    cache.Insert(key, fps, CheckStatus::kUnsat, /*has_model=*/false,
                 Model(), /*has_core=*/true, core);
    ASSERT_TRUE(LookupCore(&cache, key, fps, &has_core, &out));
    EXPECT_TRUE(has_core);
    EXPECT_EQ(out, core);

    // A later, different core of the same query does not replace it.
    cache.Insert(key, fps, CheckStatus::kUnsat, /*has_model=*/false,
                 Model(), /*has_core=*/true, QueryFingerprints{{1, 2}});
    ASSERT_TRUE(LookupCore(&cache, key, fps, &has_core, &out));
    EXPECT_EQ(out, core);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.cores_recorded(), 1);
}

TEST(QueryCacheCoreTest, KeyCollisionNeverReturnsAWrongCore)
{
    QueryCache cache;
    const QueryCacheKey key{7, 7};
    const QueryFingerprints fps_a{{1, 1}, {2, 2}};
    const QueryFingerprints fps_b{{1, 1}, {9, 9}};
    const QueryFingerprints core_a{{2, 2}};

    cache.Insert(key, fps_a, CheckStatus::kUnsat, /*has_model=*/false,
                 Model(), /*has_core=*/true, core_a);
    // Another assertion set on the same 128-bit key: a miss, no core.
    bool has_core = true;
    QueryFingerprints out;
    EXPECT_FALSE(LookupCore(&cache, key, fps_b, &has_core, &out));
    EXPECT_FALSE(has_core);
    EXPECT_TRUE(out.empty());

    // The colliding set cannot attach its core to the resident entry.
    cache.Insert(key, fps_b, CheckStatus::kUnsat, /*has_model=*/false,
                 Model(), /*has_core=*/true, QueryFingerprints{{9, 9}});
    EXPECT_EQ(cache.collisions(), 2);
    ASSERT_TRUE(LookupCore(&cache, key, fps_a, &has_core, &out));
    EXPECT_TRUE(has_core);
    EXPECT_EQ(out, core_a);
    EXPECT_EQ(cache.cores_recorded(), 1);
}

TEST(QueryCacheCoreTest, ExportImportKeepsTheCore)
{
    QueryCache source;
    const QueryFingerprints fps{{1, 1}, {2, 2}, {3, 3}};
    const QueryFingerprints core{{1, 1}, {3, 3}};
    const QueryCacheKey key = QueryCache::KeyFromFingerprints(fps);
    source.Insert(key, fps, CheckStatus::kUnsat, /*has_model=*/false,
                  Model(), /*has_core=*/true, core);

    std::vector<QueryCache::ExportedEntry> exported;
    source.Export(&exported);
    ASSERT_EQ(exported.size(), 1u);
    EXPECT_TRUE(exported[0].has_core);
    EXPECT_EQ(exported[0].core, core);

    QueryCache restored;
    EXPECT_EQ(restored.Import(exported), 1u);
    // Imported cores are knowledge, not this run's recordings.
    EXPECT_EQ(restored.cores_recorded(), 0);
    bool has_core = false;
    QueryFingerprints out;
    ASSERT_TRUE(LookupCore(&restored, key, fps, &has_core, &out));
    EXPECT_TRUE(has_core);
    EXPECT_EQ(out, core);
    EXPECT_EQ(restored.core_hits(), 1);

    // A core naming an assertion outside its query, or riding on a kSat
    // entry, is rejected with its entry.
    std::vector<QueryCache::ExportedEntry> bad(2);
    bad[0].fingerprints = {{5, 5}, {6, 6}};
    bad[0].status = CheckStatus::kUnsat;
    bad[0].has_core = true;
    bad[0].core = {{5, 5}, {7, 7}};
    bad[1].fingerprints = {{8, 8}};
    bad[1].status = CheckStatus::kSat;
    bad[1].has_core = true;
    bad[1].core = {{8, 8}};
    EXPECT_EQ(restored.Import(bad), 0u);
    EXPECT_EQ(restored.size(), 1u);
}

TEST(QueryCacheCoreTest, SnapshotRoundTripKeepsCoresByteIdentical)
{
    persist::KnowledgeSnapshot snap;
    snap.protocol_fingerprint = 0xc0ffee;
    QueryCache::ExportedEntry unsat;
    unsat.fingerprints = {{1, 1}, {2, 2}};
    unsat.status = CheckStatus::kUnsat;
    unsat.has_core = true;
    unsat.core = {{2, 2}};
    // The same query captured again without a core: the copy with the
    // core survives canonicalization.
    QueryCache::ExportedEntry coreless = unsat;
    coreless.has_core = false;
    coreless.core.clear();
    coreless.has_model = true;
    snap.queries = {coreless, unsat};
    QueryCache::ExportedEntry sat;
    sat.fingerprints = {{3, 3}};
    sat.status = CheckStatus::kSat;
    sat.has_model = true;
    sat.model_values = {{4, 0x41}};
    snap.queries.push_back(sat);

    const std::string p1 = TempPath("query_cores1.snap");
    const std::string p2 = TempPath("query_cores2.snap");
    std::string error;
    ASSERT_TRUE(persist::SaveSnapshot(snap, p1, &error)) << error;
    persist::KnowledgeSnapshot loaded;
    ASSERT_TRUE(persist::LoadSnapshot(p1, 0xc0ffee, &loaded, &error))
        << error;
    ASSERT_EQ(loaded.queries.size(), 2u);
    EXPECT_TRUE(loaded.queries[0].has_core);
    EXPECT_EQ(loaded.queries[0].core, unsat.core);
    EXPECT_FALSE(loaded.queries[1].has_core);

    ASSERT_TRUE(persist::SaveSnapshot(loaded, p2, &error)) << error;
    EXPECT_EQ(ReadFile(p1), ReadFile(p2));

    QueryCache restored;
    persist::RestoreKnowledge(loaded, nullptr, &restored, nullptr);
    bool has_core = false;
    QueryFingerprints out;
    ASSERT_TRUE(LookupCore(&restored,
                           QueryCache::KeyFromFingerprints(
                               unsat.fingerprints),
                           unsat.fingerprints, &has_core, &out));
    EXPECT_TRUE(has_core);
    EXPECT_EQ(out, unsat.core);
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

// ------------------------------------------- one cache, serial solver

TEST(SolverCacheTest, ModelLessEntryIsUpgradedInPlace)
{
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef q = ctx.MakeEq(ctx.MakeAdd(x, ctx.MakeConst(8, 1)),
                           ctx.MakeConst(8, 7));
    Solver solver(&ctx);

    // Model-less: decided on the incremental path, cached without one.
    ASSERT_EQ(solver.CheckSat({q}), CheckResult::kSat);
    // A witness-requesting caller cannot be served by that entry; the
    // fresh solve fills the model in place (one entry, one upgrade).
    Model m1;
    ASSERT_EQ(solver.CheckSat({q}, &m1), CheckResult::kSat);
    EXPECT_EQ(m1.Get(x->VarId()), 6u);
    EXPECT_EQ(solver.stats().Get("solver.cache_model_upgrades"), 1);
    EXPECT_EQ(solver.stats().Get("solver.cache_hits"), 0);

    // Now the entry serves model callers, bit-identically.
    Model m2;
    ASSERT_EQ(solver.CheckSat({q}, &m2), CheckResult::kSat);
    EXPECT_EQ(m2.Get(x->VarId()), 6u);
    EXPECT_EQ(solver.stats().Get("solver.cache_hits"), 1);
    EXPECT_EQ(solver.stats().Get("solver.cache_model_upgrades"), 1);
    EXPECT_EQ(solver.stats().Get("solver.queries"), 3);
}

TEST(SolverCacheTest, CoreIsReplayedInCallerIndices)
{
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef y = ctx.FreshVar("y", 8);
    ExprRef irrelevant = ctx.MakeEq(y, ctx.MakeConst(8, 5));
    // Refutable only by search: the interval check cannot see it.
    ExprRef a = ctx.MakeEq(ctx.MakeXor(x, y), ctx.MakeConst(8, 1));
    ExprRef b = ctx.MakeEq(x, y);
    SolverConfig config;
    config.use_interval_check = false;
    Solver solver(&ctx, config);

    const CheckResult first = solver.CheckSat({irrelevant, a, b});
    ASSERT_EQ(first, CheckResult::kUnsat);
    ASSERT_TRUE(first.has_core);
    EXPECT_EQ(first.core, (std::vector<uint32_t>{1, 2}));

    // Same set, reordered, with duplicates and a trivially-true
    // conjunct: a cache hit whose core names each implicated
    // assertion's first occurrence in this caller's vectors.
    const CheckResult hit = solver.CheckSatAssuming(
        {b, ctx.True(), irrelevant, b}, {a, irrelevant, a});
    ASSERT_EQ(hit, CheckResult::kUnsat);
    ASSERT_TRUE(hit.has_core);
    EXPECT_EQ(hit.core, (std::vector<uint32_t>{0, 4}));
    EXPECT_EQ(solver.stats().Get("solver.cache_hits"), 1);
    EXPECT_EQ(solver.stats().Get("solver.incremental_sat_calls"), 1);

    // A model-requesting caller gets the cached verdict without a core.
    Model m;
    const CheckResult with_model = solver.CheckSat({a, b}, &m);
    EXPECT_EQ(with_model, CheckResult::kUnsat);
    EXPECT_FALSE(with_model.has_core);
}

TEST(SolverCacheTest, IntervalRefutedEntryKeepsItsIntervalCore)
{
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 8);
    ExprRef y = ctx.FreshVar("y", 8);
    ExprRef irrelevant = ctx.MakeEq(y, ctx.MakeConst(8, 5));
    ExprRef lt = ctx.MakeUlt(x, ctx.MakeConst(8, 10));
    ExprRef ge = ctx.MakeUge(x, ctx.MakeConst(8, 20));
    Solver solver(&ctx);

    const CheckResult first = solver.CheckSat({lt, irrelevant, ge});
    ASSERT_EQ(first, CheckResult::kUnsat);
    ASSERT_TRUE(first.has_core);
    EXPECT_EQ(first.core, (std::vector<uint32_t>{0, 2}));
    EXPECT_EQ(solver.stats().Get("solver.interval_cores"), 1);

    const CheckResult hit = solver.CheckSat({ge, irrelevant, lt});
    ASSERT_EQ(hit, CheckResult::kUnsat);
    ASSERT_TRUE(hit.has_core);
    EXPECT_EQ(hit.core, (std::vector<uint32_t>{0, 2}));
    // Served by the cache: no second interval run, no SAT call.
    EXPECT_EQ(solver.stats().Get("solver.cache_hits"), 1);
    EXPECT_EQ(solver.stats().Get("solver.interval_unsat"), 1);
    EXPECT_EQ(solver.stats().Get("solver.sat_calls") +
                  solver.stats().Get("solver.incremental_sat_calls"),
              0);
}

TEST(SolverCacheTest, WorkerLocalQueriesStayInThePrivateCache)
{
    ExprContext ctx;
    ExprRef x = ctx.FreshVar("x", 8);
    const uint32_t limit = ctx.NumVars();
    // Created after the id-aligned prefix was fixed: worker-local.
    ExprRef local = ctx.FreshVar("local", 8);
    ExprRef shared_q = ctx.MakeUlt(x, ctx.MakeConst(8, 9));
    ExprRef local_q = ctx.MakeEq(local, x);

    QueryCache shared;
    Solver solver(&ctx, {}, &shared, limit);

    EXPECT_EQ(solver.CheckSat({local_q}), CheckResult::kSat);
    EXPECT_EQ(solver.CheckSat({local_q}), CheckResult::kSat);
    // Served by the private cache; the shared one never saw it.
    EXPECT_EQ(solver.stats().Get("solver.cache_hits"), 1);
    EXPECT_EQ(shared.size(), 0u);
    EXPECT_EQ(shared.hits() + shared.misses(), 0);

    // A query over the aligned prefix goes to the shared cache only.
    EXPECT_EQ(solver.CheckSat({shared_q}), CheckResult::kSat);
    EXPECT_EQ(solver.CheckSat({shared_q}), CheckResult::kSat);
    EXPECT_EQ(shared.size(), 1u);
    EXPECT_EQ(shared.hits(), 1);
    EXPECT_EQ(solver.stats().Get("solver.cache_hits"), 1);
    EXPECT_EQ(solver.stats().Get("solver.queries"), 4);
}

void
PutU32(std::vector<uint8_t> *buf, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
PutU64(std::vector<uint8_t> *buf, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

TEST(QueryCacheCoreTest, PreviousFormatVersionLoadsAsColdStart)
{
    // A well-formed version-1 file: the five sections of that layout
    // (Trojan cores, overlay, query cores, lemmas, queries), each an
    // empty counted vector under a valid CRC.
    ASSERT_EQ(persist::kSnapshotFormatVersion, 2u);
    std::vector<uint8_t> file = {'A', 'C', 'H', 'S', 'N', 'A', 'P', '\0'};
    PutU32(&file, 1);
    PutU64(&file, 0xc0ffee);
    PutU32(&file, 5);
    std::vector<uint8_t> empty_section;
    PutU64(&empty_section, 0);
    for (uint32_t tag = 1; tag <= 5; ++tag) {
        PutU32(&file, tag);
        PutU64(&file, empty_section.size());
        PutU32(&file, persist::Crc32(empty_section.data(),
                                     empty_section.size()));
        file.insert(file.end(), empty_section.begin(),
                    empty_section.end());
    }
    const std::string path = TempPath("version1.snap");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
    ASSERT_EQ(std::fclose(f), 0);

    persist::KnowledgeSnapshot out;
    out.lemmas.push_back({{1, 1}});  // must be cleared on failure
    std::string error;
    EXPECT_FALSE(persist::LoadSnapshot(path, 0xc0ffee, &out, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    EXPECT_TRUE(out.Empty());
    std::remove(path.c_str());
}

}  // namespace
}  // namespace achilles
