// Achilles reproduction -- parallel exploration subsystem.

#include "exec/query_cache.h"

#include <algorithm>

#include "support/hash.h"

namespace achilles {
namespace exec {

bool
QueryCache::ComputeKey(const std::vector<smt::ExprRef> &assertions,
                       uint32_t shared_var_limit, QueryCacheKey *out,
                       QueryFingerprints *fingerprints,
                       const std::vector<smt::ExprRef> *extras)
{
    // Deduplicate (nodes are interned, pointer identity == structural
    // identity within a context) so the key matches however the caller
    // happened to repeat or split conjuncts.
    std::vector<smt::ExprRef> unique_assertions;
    unique_assertions.reserve(assertions.size() +
                              (extras ? extras->size() : 0));
    unique_assertions.insert(unique_assertions.end(), assertions.begin(),
                             assertions.end());
    if (extras != nullptr) {
        unique_assertions.insert(unique_assertions.end(), extras->begin(),
                                 extras->end());
    }
    std::sort(unique_assertions.begin(), unique_assertions.end());
    unique_assertions.erase(
        std::unique(unique_assertions.begin(), unique_assertions.end()),
        unique_assertions.end());

    // Both fingerprints and the variable bound are precomputed per
    // node, so this is O(1) per assertion. The additive key alone is
    // collision-prone (sums of per-assertion hashes can coincide across
    // different sets), so the sorted per-assertion fingerprints travel
    // with it for verification on every Lookup/Insert.
    fingerprints->clear();
    fingerprints->reserve(unique_assertions.size());
    for (smt::ExprRef e : unique_assertions) {
        if (e->max_var_bound() > shared_var_limit)
            return false;
        fingerprints->emplace_back(e->struct_hash(), e->struct_hash2());
    }
    std::sort(fingerprints->begin(), fingerprints->end());
    *out = KeyFromFingerprints(*fingerprints);
    return true;
}

QueryCacheKey
QueryCache::KeyFromFingerprints(const QueryFingerprints &fingerprints)
{
    // Commutative accumulation keeps the key order-insensitive,
    // matching the logical conjunction the assertions denote -- and
    // makes the key a pure function of the sorted fingerprint vector,
    // which is what snapshot importers recompute it from.
    uint64_t lo = 0x51ed270b9f9f2b4dull +
                  0x632be59bd9b4e019ull * fingerprints.size();
    uint64_t hi = 0x8ebc6af09c88c6e3ull;
    for (const auto &fp : fingerprints) {
        lo += MixBits(fp.first ^ 0xa0761d6478bd642full);
        hi += MixBits(fp.second + 0xe7037ed1a0b428dbull);
    }
    QueryCacheKey key;
    key.lo = lo;
    key.hi = hi;
    return key;
}

QueryCache::QueryCache(size_t shards)
{
    if (shards == 0)
        shards = 1;
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

QueryCache::Shard &
QueryCache::ShardFor(const QueryCacheKey &key)
{
    return *shards_[static_cast<size_t>(key.lo) % shards_.size()];
}

bool
QueryCache::Lookup(const QueryCacheKey &key,
                   const QueryFingerprints &fingerprints, bool want_model,
                   smt::CheckStatus *status, smt::Model *model,
                   bool *has_core, QueryFingerprints *core)
{
    Shard &shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    const Entry &entry = it->second;
    if (entry.fingerprints != fingerprints) {
        collisions_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (want_model && entry.status == smt::CheckStatus::kSat &&
        !entry.has_model) {
        // Known-sat but no witness stored: the caller must re-solve on
        // the model-producing path (which will upgrade this entry).
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    *status = entry.status;
    if (model)
        *model = entry.model;
    if (has_core) {
        *has_core = entry.has_core;
        if (entry.has_core) {
            core_hits_.fetch_add(1, std::memory_order_relaxed);
            if (core)
                *core = entry.core;
        }
    }
    return true;
}

void
QueryCache::Insert(const QueryCacheKey &key,
                   const QueryFingerprints &fingerprints,
                   smt::CheckStatus status, bool has_model,
                   const smt::Model &model, bool has_core,
                   const QueryFingerprints &core)
{
    if (Put(key, fingerprints, status, has_model, model, has_core, core))
        cores_recorded_.fetch_add(1, std::memory_order_relaxed);
}

bool
QueryCache::Put(const QueryCacheKey &key,
                const QueryFingerprints &fingerprints,
                smt::CheckStatus status, bool has_model,
                const smt::Model &model, bool has_core,
                const QueryFingerprints &core)
{
    if (status == smt::CheckStatus::kUnknown)
        return false;  // may become decidable with a bigger budget
    // Only refutations carry cores.
    has_core = has_core && status == smt::CheckStatus::kUnsat;
    Shard &shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto [it, inserted] = shard.map.try_emplace(
        key, Entry{status, has_model, fingerprints, model, has_core,
                   has_core ? core : QueryFingerprints{}});
    if (inserted)
        return has_core;
    Entry &entry = it->second;
    if (entry.fingerprints != fingerprints) {
        // Key collision with a different assertion set: first one wins,
        // the loser simply stays uncached.
        collisions_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (has_model && !entry.has_model) {
        // Model upgrade. The fresh-instance path computes models as a
        // pure function of the query, so whichever worker performs the
        // upgrade stores the same bytes.
        entry.model = model;
        entry.has_model = true;
    }
    if (has_core && !entry.has_core) {
        // Core upgrade. Cores of the same query may differ across
        // solver histories; any of them proves the verdict, so the
        // first one stays.
        entry.core = core;
        entry.has_core = true;
        return true;
    }
    return false;
}

size_t
QueryCache::size() const
{
    size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->map.size();
    }
    return total;
}

void
QueryCache::ExportStats(StatsRegistry *stats) const
{
    stats->Bump("exec.queries_cached", hits());
    stats->Bump("exec.query_cache_misses", misses());
    stats->Bump("exec.query_cache_collisions", collisions());
    stats->Set("exec.query_cache_entries", static_cast<int64_t>(size()));
    stats->Bump("prune.query_cores_recorded", cores_recorded());
    stats->Bump("prune.query_core_hits", core_hits());
}

void
QueryCache::Export(std::vector<ExportedEntry> *out) const
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (const auto &[key, entry] : shard->map) {
            ExportedEntry exported;
            exported.fingerprints = entry.fingerprints;
            exported.status = entry.status;
            exported.has_model = entry.has_model;
            if (entry.has_model) {
                exported.model_values.reserve(entry.model.values().size());
                for (const auto &[id, value] : entry.model.values())
                    exported.model_values.emplace_back(id, value);
                // Deterministic bytes: the model map is unordered.
                std::sort(exported.model_values.begin(),
                          exported.model_values.end());
            }
            exported.has_core = entry.has_core;
            exported.core = entry.core;
            out->push_back(std::move(exported));
        }
    }
}

size_t
QueryCache::Import(const std::vector<ExportedEntry> &entries)
{
    size_t accepted = 0;
    for (const ExportedEntry &e : entries) {
        // Full verification on load: the key is recomputed from the
        // fingerprint vector (never read from the snapshot), kUnknown
        // is never imported (same rule as Insert), and a malformed
        // unsorted vector is rejected outright -- Lookup's equality
        // check against freshly sorted fingerprints could never hit it,
        // it would only squat on a key. A core must name assertions of
        // its own query: CachedSolver re-anchors only the fingerprints
        // it finds there, so a foreign one would shrink the core into
        // a claim the solver never proved.
        if (e.status == smt::CheckStatus::kUnknown)
            continue;
        if (!std::is_sorted(e.fingerprints.begin(), e.fingerprints.end()))
            continue;
        if (e.has_core &&
            (e.status != smt::CheckStatus::kUnsat ||
             !std::is_sorted(e.core.begin(), e.core.end()) ||
             !std::includes(e.fingerprints.begin(), e.fingerprints.end(),
                            e.core.begin(), e.core.end()))) {
            continue;
        }
        smt::Model model;
        for (const auto &[id, value] : e.model_values)
            model.Set(id, value);
        Put(KeyFromFingerprints(e.fingerprints), e.fingerprints, e.status,
            e.has_model, model, e.has_core, e.core);
        ++accepted;
    }
    return accepted;
}

CachedSolver::CachedSolver(smt::ExprContext *ctx, QueryCache *cache,
                           uint32_t shared_var_limit,
                           smt::SolverConfig config)
    : Solver(ctx, config), cache_(cache), shared_var_limit_(shared_var_limit)
{
}

smt::CheckResult
CachedSolver::CheckSat(const std::vector<smt::ExprRef> &assertions,
                       smt::Model *model)
{
    return CheckShared(assertions, nullptr, model);
}

smt::CheckResult
CachedSolver::CheckSatAssuming(const std::vector<smt::ExprRef> &base,
                               const std::vector<smt::ExprRef> &extras,
                               smt::Model *model)
{
    return CheckShared(base, &extras, model);
}

smt::CheckResult
CachedSolver::CheckShared(const std::vector<smt::ExprRef> &base,
                          const std::vector<smt::ExprRef> *extras,
                          smt::Model *model)
{
    QueryCacheKey key;
    QueryFingerprints fingerprints;
    if (cache_ == nullptr ||
        !QueryCache::ComputeKey(base, shared_var_limit_, &key,
                                &fingerprints, extras)) {
        return Solver::CheckSatSets(base, extras, model);
    }
    const auto assertion_at = [&](uint32_t idx) {
        return idx < base.size() ? base[idx]
                                 : (*extras)[idx - base.size()];
    };
    const size_t total =
        base.size() + (extras != nullptr ? extras->size() : 0);
    // Mirror the facade's contract: cores only surface to callers whose
    // query would have taken the core-producing path themselves, so a
    // budgeted or model-requesting caller never sees one off a shared
    // hit either.
    const bool core_path = model == nullptr &&
                           config().enable_incremental &&
                           config().unbudgeted() && config().enable_cores;

    smt::CheckStatus status;
    bool has_core = false;
    QueryFingerprints core_fps;
    if (cache_->Lookup(key, fingerprints, model != nullptr, &status,
                       model, core_path ? &has_core : nullptr,
                       core_path ? &core_fps : nullptr)) {
        // Counted once, in the cache's own hit counter (exported as
        // "exec.queries_cached" by ExportStats) -- a per-solver bump
        // here would double-count after the merge.
        smt::CheckResult result(status);
        if (has_core && core_path) {
            // Cores travel as context-independent structural
            // fingerprints; re-anchor them to this caller's assertion
            // indices (first occurrence per fingerprint, matching the
            // Solver contract for duplicated assertions).
            result.has_core = true;
            QueryFingerprints remaining = core_fps;
            for (uint32_t idx = 0;
                 idx < total && !remaining.empty(); ++idx) {
                const smt::ExprRef e = assertion_at(idx);
                const std::pair<uint64_t, uint64_t> fp(e->struct_hash(),
                                                       e->struct_hash2());
                auto it = std::find(remaining.begin(), remaining.end(),
                                    fp);
                if (it != remaining.end()) {
                    result.core.push_back(idx);
                    remaining.erase(it);
                }
            }
        }
        return result;
    }
    // Model-less queries run on the per-worker incremental backend and
    // publish model-less entries; a later model-requesting caller takes
    // the deterministic fresh-instance path and upgrades the entry.
    smt::CheckResult result = Solver::CheckSatSets(base, extras, model);
    QueryFingerprints out_core;
    if (result.has_core) {
        out_core.reserve(result.core.size());
        for (uint32_t idx : result.core) {
            const smt::ExprRef e = assertion_at(idx);
            out_core.emplace_back(e->struct_hash(), e->struct_hash2());
        }
        std::sort(out_core.begin(), out_core.end());
        out_core.erase(std::unique(out_core.begin(), out_core.end()),
                       out_core.end());
    }
    cache_->Insert(key, fingerprints, result.status,
                   /*has_model=*/model != nullptr,
                   model != nullptr ? *model : smt::Model(),
                   result.has_core, out_core);
    return result;
}

smt::BatchOutcome
CachedSolver::CheckSatBatch(
    const std::vector<smt::ExprRef> &base,
    const std::vector<const std::vector<smt::ExprRef> *> &groups)
{
    if (cache_ == nullptr)
        return Solver::CheckSatBatch(base, groups);

    // Probe the shared cache per group; only the residue is swept. A
    // group's key covers base ∥ group, exactly what CheckSatAssuming
    // would have computed, so point queries and sweeps share entries.
    struct Keyed
    {
        QueryCacheKey key;
        QueryFingerprints fingerprints;
        bool cacheable = false;
    };
    std::vector<Keyed> keyed(groups.size());
    smt::BatchOutcome out;
    out.verdicts.resize(groups.size());
    std::vector<size_t> residue;
    std::vector<const std::vector<smt::ExprRef> *> residue_groups;
    residue.reserve(groups.size());
    residue_groups.reserve(groups.size());
    for (size_t i = 0; i < groups.size(); ++i) {
        Keyed &k = keyed[i];
        k.cacheable = QueryCache::ComputeKey(base, shared_var_limit_,
                                             &k.key, &k.fingerprints,
                                             groups[i]);
        smt::CheckStatus status;
        if (k.cacheable &&
            cache_->Lookup(k.key, k.fingerprints, /*want_model=*/false,
                           &status, nullptr)) {
            // Status-only service, per the batch contract (no models,
            // no cores).
            out.verdicts[i] = status;
            continue;
        }
        residue.push_back(i);
        residue_groups.push_back(groups[i]);
    }
    if (residue.empty())
        return out;

    smt::BatchOutcome swept = Solver::CheckSatBatch(base, residue_groups);
    out.rounds = swept.rounds;
    for (size_t r = 0; r < residue.size(); ++r) {
        const size_t i = residue[r];
        out.verdicts[i] = swept.verdicts[r];
        const Keyed &k = keyed[i];
        if (k.cacheable &&
            out.verdicts[i].status != smt::CheckStatus::kUnknown) {
            // Model-less, core-less publication; a later model-
            // requesting point query upgrades the entry in place.
            cache_->Insert(k.key, k.fingerprints, out.verdicts[i].status,
                          /*has_model=*/false, smt::Model());
        }
    }
    return out;
}

}  // namespace exec
}  // namespace achilles
