// Achilles reproduction -- SMT library.

#include "smt/query_cache.h"

#include <algorithm>

#include "support/hash.h"

namespace achilles {
namespace smt {

bool
QueryCache::ComputeKey(const std::vector<ExprRef> &assertions,
                       uint32_t shared_var_limit, QueryCacheKey *out,
                       QueryFingerprints *fingerprints)
{
    // Both fingerprints and the variable bound are precomputed per
    // node, so this is O(1) per assertion. Nodes are interned, so a
    // repeated conjunct repeats its fingerprint and collapses here: the
    // key matches however the caller happened to repeat conjuncts. The
    // additive key alone is collision-prone (sums of per-assertion
    // hashes can coincide across different sets), so the sorted
    // per-assertion fingerprints travel with it for verification on
    // every Lookup/Insert.
    fingerprints->clear();
    fingerprints->reserve(assertions.size());
    for (ExprRef e : assertions) {
        if (e->max_var_bound() > shared_var_limit)
            return false;
        fingerprints->emplace_back(e->struct_hash(), e->struct_hash2());
    }
    std::sort(fingerprints->begin(), fingerprints->end());
    fingerprints->erase(
        std::unique(fingerprints->begin(), fingerprints->end()),
        fingerprints->end());
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
                   CheckStatus *status, Model *model,
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
    if (want_model && entry.status == CheckStatus::kSat &&
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

bool
QueryCache::Insert(const QueryCacheKey &key,
                   const QueryFingerprints &fingerprints,
                   CheckStatus status, bool has_model,
                   const Model &model, bool has_core,
                   const QueryFingerprints &core)
{
    const PutOutcome outcome =
        Put(key, fingerprints, status, has_model, model, has_core, core);
    if (outcome.core_attached)
        cores_recorded_.fetch_add(1, std::memory_order_relaxed);
    return outcome.model_upgraded;
}

QueryCache::PutOutcome
QueryCache::Put(const QueryCacheKey &key,
                const QueryFingerprints &fingerprints,
                CheckStatus status, bool has_model,
                const Model &model, bool has_core,
                const QueryFingerprints &core)
{
    PutOutcome outcome;
    if (status == CheckStatus::kUnknown)
        return outcome;  // may become decidable with a bigger budget
    // Only refutations carry cores.
    has_core = has_core && status == CheckStatus::kUnsat;
    Shard &shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto [it, inserted] = shard.map.try_emplace(
        key, Entry{status, has_model, fingerprints, model, has_core,
                   has_core ? core : QueryFingerprints{}});
    if (inserted) {
        outcome.core_attached = has_core;
        return outcome;
    }
    Entry &entry = it->second;
    if (entry.fingerprints != fingerprints) {
        // Key collision with a different assertion set: first one wins,
        // the loser simply stays uncached.
        collisions_.fetch_add(1, std::memory_order_relaxed);
        return outcome;
    }
    if (has_model && !entry.has_model) {
        // Model upgrade. The fresh-instance path computes models as a
        // pure function of the query, so whichever solver performs the
        // upgrade stores the same bytes.
        entry.model = model;
        entry.has_model = true;
        outcome.model_upgraded = entry.status == CheckStatus::kSat;
    }
    if (has_core && !entry.has_core) {
        // Core upgrade. Cores of the same query may differ across
        // solver histories; any of them proves the verdict, so the
        // first one stays.
        entry.core = core;
        entry.has_core = true;
        outcome.core_attached = true;
    }
    return outcome;
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
        // its own query: the solver re-anchors only the fingerprints
        // it finds there, so a foreign one would shrink the core into
        // a claim the solver never proved.
        if (e.status == CheckStatus::kUnknown)
            continue;
        if (!std::is_sorted(e.fingerprints.begin(), e.fingerprints.end()))
            continue;
        if (e.has_core &&
            (e.status != CheckStatus::kUnsat ||
             !std::is_sorted(e.core.begin(), e.core.end()) ||
             !std::includes(e.fingerprints.begin(), e.fingerprints.end(),
                            e.core.begin(), e.core.end()))) {
            continue;
        }
        Model model;
        for (const auto &[id, value] : e.model_values)
            model.Set(id, value);
        Put(KeyFromFingerprints(e.fingerprints), e.fingerprints, e.status,
            e.has_model, model, e.has_core, e.core);
        ++accepted;
    }
    return accepted;
}

}  // namespace smt
}  // namespace achilles
