// Achilles reproduction -- parallel exploration subsystem.

#include "exec/prune_index.h"

#include <algorithm>

namespace achilles {
namespace exec {

PruneIndex::PruneIndex(PruneIndexConfig config) : config_(config)
{
    // A cap below the shard count would overshoot with one entry per
    // shard; shrink the stripe count instead so the documented bound
    // holds exactly.
    size_t shards = std::max<size_t>(config_.shards, 1);
    const size_t cap = config_.overlay_cap;
    if (cap != 0 && cap < shards)
        shards = cap;
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    per_shard_cap_ = cap == 0 ? 0 : cap / shards;
}

bool
PruneIndex::Fingerprint(const std::vector<smt::ExprRef> &exprs,
                        PruneFpVec *out) const
{
    out->clear();
    out->reserve(exprs.size());
    for (smt::ExprRef e : exprs) {
        if (e == nullptr || e->max_var_bound() > config_.shared_var_limit)
            return false;
        out->emplace_back(e->struct_hash(), e->struct_hash2());
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
    return true;
}

PruneFp
PruneIndex::KeyOf(const Entry &e)
{
    // Sorted vectors: front() is the smallest fingerprint. An entry's
    // key must be contained in any query it subsumes, which is what
    // lets the probe confine itself to buckets keyed by its own
    // fingerprints.
    if (!e.path_part.empty())
        return e.path_part.front();
    if (!e.match_part.empty())
        return e.match_part.front();
    return PruneFp{0, 0};
}

PruneIndex::Shard &
PruneIndex::ShardFor(const PruneFp &key) const
{
    return *shards_[static_cast<size_t>(FpHash{}(key)) % shards_.size()];
}

void
PruneIndex::EvictHalf(Shard *shard)
{
    // ReduceDB-style halving: keep the more active half, breaking ties
    // toward younger entries, then rebuild the bucket map. Entries with
    // cross-worker hits since the last round are hot -- proven to
    // transfer between workers -- and are exempt from this round
    // unconditionally; the exemption is consumed (cross_hits reset), so
    // an entry that goes cold competes on (activity, stamp) next time.
    // A shard where more than half the entries are hot temporarily
    // exceeds the keep target; the next halving corrects that.
    std::vector<Entry> &entries = shard->entries;
    const size_t keep = (entries.size() + 1) / 2;
    std::vector<Entry> kept;
    kept.reserve(keep);
    std::vector<uint32_t> cold;
    cold.reserve(entries.size());
    for (uint32_t i = 0; i < entries.size(); ++i) {
        if (entries[i].cross_hits > 0) {
            entries[i].cross_hits = 0;
            hot_exemptions_.fetch_add(1, std::memory_order_relaxed);
            kept.push_back(std::move(entries[i]));
        } else {
            cold.push_back(i);
        }
    }
    std::sort(cold.begin(), cold.end(), [&](uint32_t a, uint32_t b) {
        if (entries[a].activity != entries[b].activity)
            return entries[a].activity > entries[b].activity;
        return entries[a].stamp > entries[b].stamp;
    });
    for (size_t i = 0; i < cold.size() && kept.size() < keep; ++i)
        kept.push_back(std::move(entries[cold[i]]));
    evictions_.fetch_add(
        static_cast<int64_t>(entries.size() - kept.size()),
        std::memory_order_relaxed);
    live_.fetch_sub(entries.size() - kept.size(),
                    std::memory_order_relaxed);
    entries = std::move(kept);
    shard->buckets.clear();
    for (uint32_t i = 0; i < entries.size(); ++i)
        shard->buckets[KeyOf(entries[i])].push_back(i);
}

void
PruneIndex::Record(size_t publisher, uint64_t field_token,
                   const PruneFpVec &path_part,
                   const PruneFpVec &match_part)
{
    Entry entry;
    entry.path_part = path_part;
    entry.match_part = match_part;
    entry.field_token = field_token;
    entry.publisher = publisher;
    const PruneFp key = KeyOf(entry);
    Shard &shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto bucket = shard.buckets.find(key);
    if (bucket != shard.buckets.end()) {
        for (uint32_t idx : bucket->second) {
            Entry &e = shard.entries[idx];
            if (e.field_token == field_token && e.path_part == path_part &&
                e.match_part == match_part) {
                // Re-discovery is the activity signal: a core proven
                // again was worth keeping.
                ++e.activity;
                return;
            }
        }
    }
    if (per_shard_cap_ != 0 && shard.entries.size() >= per_shard_cap_)
        EvictHalf(&shard);
    entry.stamp = shard.next_stamp++;
    shard.buckets[key].push_back(
        static_cast<uint32_t>(shard.entries.size()));
    shard.entries.push_back(std::move(entry));
    live_.fetch_add(1, std::memory_order_relaxed);
}

void
PruneIndex::RecordFieldCore(size_t publisher, uint64_t field_token,
                            const PruneFpVec &path_part,
                            const PruneFpVec &match_part)
{
    recorded_.fetch_add(1, std::memory_order_relaxed);
    Record(publisher, field_token, path_part, match_part);
}

bool
PruneIndex::OverlaySubsumes(size_t consumer, const PruneFpVec &path_set,
                            const PruneFpVec &match_set,
                            uint64_t *field_token)
{
    probes_.fetch_add(1, std::memory_order_relaxed);
    // The overlay is consulted on every match query but only ever
    // populated when a single-independent-field core is found; on
    // protocols where that never happens every probe used to hash the
    // query fingerprints and take a stripe lock just to scan nothing.
    // One relaxed load answers the common empty case instead (a racing
    // insert missed here would at worst have been a hit; missing it is
    // indistinguishable from probing before the insert).
    if (live_.load(std::memory_order_relaxed) == 0)
        return false;
    // Candidate bucket keys: an entry's key is its smallest path (else
    // match) fingerprint, which must be contained in the query for
    // subsumption, so probing every query fingerprint (plus the
    // empty-core key) covers all possible hits.
    auto probe_key = [&](const PruneFp &key) -> bool {
        Shard &shard = ShardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto bucket = shard.buckets.find(key);
        if (bucket == shard.buckets.end())
            return false;
        for (uint32_t idx : bucket->second) {
            Entry &e = shard.entries[idx];
            if (std::includes(path_set.begin(), path_set.end(),
                              e.path_part.begin(), e.path_part.end()) &&
                std::includes(match_set.begin(), match_set.end(),
                              e.match_part.begin(), e.match_part.end())) {
                ++e.activity;
                if (field_token != nullptr)
                    *field_token = e.field_token;
                hits_.fetch_add(1, std::memory_order_relaxed);
                if (e.publisher != consumer) {
                    ++e.cross_hits;
                    cross_hits_.fetch_add(1, std::memory_order_relaxed);
                }
                return true;
            }
        }
        return false;
    };
    for (const PruneFp &fp : path_set)
        if (probe_key(fp))
            return true;
    for (const PruneFp &fp : match_set)
        if (probe_key(fp))
            return true;
    return probe_key(PruneFp{0, 0});
}

void
PruneIndex::ExportOverlay(std::vector<ExportedEntry> *out) const
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (const Entry &e : shard->entries)
            out->push_back({e.path_part, e.match_part, e.field_token});
    }
}

void
PruneIndex::ImportOverlay(const std::vector<ExportedEntry> &entries)
{
    for (const ExportedEntry &e : entries) {
        Record(kImportedPublisher, e.field_token, e.path_part,
               e.match_part);
        imported_.fetch_add(1, std::memory_order_relaxed);
    }
}

size_t
PruneIndex::overlay_entries() const
{
    size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->entries.size();
    }
    return total;
}

void
PruneIndex::ExportStats(StatsRegistry *stats) const
{
    stats->Bump("prune.overlay_probes", Load(probes_));
    stats->Bump("prune.overlay_edges", Load(recorded_));
    stats->Bump("prune.overlay_hits", Load(hits_));
    stats->Bump("prune.cross_worker_hits", Load(cross_hits_));
    stats->Bump("prune.evictions", Load(evictions_));
    stats->Bump("prune.hot_exemptions", Load(hot_exemptions_));
    stats->Bump("prune.imported", Load(imported_));
    // Bumped, not Set: a run can export more than one index (the
    // ParallelEngine's shared instance plus the explorer's home one),
    // and the honest gauge is their sum -- a Set would let whichever
    // exports last clobber the other's entries.
    stats->Bump("prune.overlay_entries",
                static_cast<int64_t>(overlay_entries()));
}

}  // namespace exec
}  // namespace achilles
