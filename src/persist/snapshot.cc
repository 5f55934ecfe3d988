// Achilles reproduction -- warm-start knowledge persistence.

#include "persist/snapshot.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <functional>
#include <tuple>

namespace achilles {
namespace persist {

namespace {

constexpr char kMagic[8] = {'A', 'C', 'H', 'S', 'N', 'A', 'P', '\0'};

// Section tags. Unknown tags fail the load: a future writer's snapshot
// is not partially importable, per the all-or-nothing rule.
constexpr uint32_t kSectionOverlay = 1;
constexpr uint32_t kSectionLemmas = 2;
constexpr uint32_t kSectionQueries = 3;
constexpr uint32_t kNumSections = 3;

// ------------------------------------------------------------ encoding

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

void
PutFpVec(std::vector<uint8_t> *buf, const exec::PruneFpVec &fps)
{
    PutU64(buf, fps.size());
    for (const exec::PruneFp &fp : fps) {
        PutU64(buf, fp.first);
        PutU64(buf, fp.second);
    }
}

/** Bounds-checked little-endian reader; every defect latches ok=false
 *  and subsequent reads return zeros. */
struct Reader
{
    const uint8_t *data = nullptr;
    size_t size = 0;
    size_t pos = 0;
    bool ok = true;

    bool
    Need(size_t n)
    {
        if (!ok || size - pos < n) {
            ok = false;
            return false;
        }
        return true;
    }
    uint32_t
    U32()
    {
        if (!Need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }
    uint64_t
    U64()
    {
        if (!Need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }
    uint8_t
    U8()
    {
        if (!Need(1))
            return 0;
        return data[pos++];
    }
};

bool
GetFpVec(Reader *r, exec::PruneFpVec *out)
{
    const uint64_t count = r->U64();
    // Each fingerprint is 16 bytes; a count the remaining payload
    // cannot hold is a corruption, caught before any allocation.
    if (!r->ok || count > (r->size - r->pos) / 16) {
        r->ok = false;
        return false;
    }
    out->clear();
    out->reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t first = r->U64();
        const uint64_t second = r->U64();
        out->emplace_back(first, second);
    }
    if (!r->ok || !std::is_sorted(out->begin(), out->end())) {
        r->ok = false;
        return false;
    }
    return true;
}

// ---------------------------------------------------- section payloads

std::vector<uint8_t>
EncodeOverlay(const std::vector<exec::PruneIndex::ExportedEntry> &entries)
{
    std::vector<uint8_t> buf;
    PutU64(&buf, entries.size());
    for (const auto &e : entries) {
        PutU64(&buf, e.field_token);
        PutFpVec(&buf, e.path_part);
        PutFpVec(&buf, e.match_part);
    }
    return buf;
}

bool
DecodeOverlay(Reader *r,
              std::vector<exec::PruneIndex::ExportedEntry> *out)
{
    const uint64_t count = r->U64();
    if (!r->ok || count > (r->size - r->pos) / 24)
        return false;
    out->reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
        exec::PruneIndex::ExportedEntry e;
        e.field_token = r->U64();
        if (!GetFpVec(r, &e.path_part) || !GetFpVec(r, &e.match_part))
            return false;
        out->push_back(std::move(e));
    }
    return r->ok;
}

std::vector<uint8_t>
EncodeLemmas(const std::vector<exec::Lemma> &lemmas)
{
    std::vector<uint8_t> buf;
    PutU64(&buf, lemmas.size());
    for (const exec::Lemma &lemma : lemmas)
        PutFpVec(&buf, lemma);
    return buf;
}

bool
DecodeLemmas(Reader *r, std::vector<exec::Lemma> *out)
{
    const uint64_t count = r->U64();
    if (!r->ok || count > (r->size - r->pos) / 8)
        return false;
    out->reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
        exec::Lemma lemma;
        if (!GetFpVec(r, &lemma) || lemma.empty())
            return false;
        out->push_back(std::move(lemma));
    }
    return r->ok;
}

std::vector<uint8_t>
EncodeQueries(const std::vector<smt::QueryCache::ExportedEntry> &entries)
{
    std::vector<uint8_t> buf;
    PutU64(&buf, entries.size());
    for (const auto &e : entries) {
        PutFpVec(&buf, e.fingerprints);
        buf.push_back(static_cast<uint8_t>(e.status));
        buf.push_back(e.has_model ? 1 : 0);
        PutU64(&buf, e.model_values.size());
        for (const auto &[id, value] : e.model_values) {
            PutU32(&buf, id);
            PutU64(&buf, value);
        }
        buf.push_back(e.has_core ? 1 : 0);
        PutFpVec(&buf, e.core);
    }
    return buf;
}

bool
DecodeQueries(Reader *r,
              std::vector<smt::QueryCache::ExportedEntry> *out)
{
    // Smallest entry: three counts, status, has_model and has_core.
    const uint64_t count = r->U64();
    if (!r->ok || count > (r->size - r->pos) / 27)
        return false;
    out->reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
        smt::QueryCache::ExportedEntry e;
        if (!GetFpVec(r, &e.fingerprints))
            return false;
        const uint8_t status = r->U8();
        // Only decided verdicts are ever stored (Insert refuses
        // kUnknown); any other byte is corruption.
        if (status > 1)
            return false;
        e.status = static_cast<smt::CheckStatus>(status);
        e.has_model = r->U8() != 0;
        const uint64_t values = r->U64();
        if (!r->ok || values > (r->size - r->pos) / 12)
            return false;
        e.model_values.reserve(static_cast<size_t>(values));
        for (uint64_t k = 0; k < values; ++k) {
            const uint32_t id = r->U32();
            const uint64_t value = r->U64();
            e.model_values.emplace_back(id, value);
        }
        if (!std::is_sorted(e.model_values.begin(),
                            e.model_values.end())) {
            return false;
        }
        // A core explains a refutation and nothing else; the flag is a
        // plain boolean, and a core-less entry carries no fingerprints.
        const uint8_t has_core = r->U8();
        if (has_core > 1 || !GetFpVec(r, &e.core))
            return false;
        e.has_core = has_core != 0;
        if (e.has_core ? e.status != smt::CheckStatus::kUnsat
                       : !e.core.empty()) {
            return false;
        }
        out->push_back(std::move(e));
    }
    return r->ok;
}

// -------------------------------------------------- canonical ordering

void
Canonicalize(KnowledgeSnapshot *snap)
{
    // Deterministic bytes for identical knowledge: shard layout,
    // capture order and duplicate appends (engine stores + home index)
    // must not show in the file.
    const auto o_key = [](const exec::PruneIndex::ExportedEntry &e) {
        return std::tie(e.path_part, e.match_part, e.field_token);
    };
    std::sort(snap->overlay.begin(), snap->overlay.end(),
              [&](const auto &a, const auto &b) {
                  return o_key(a) < o_key(b);
              });
    snap->overlay.erase(std::unique(snap->overlay.begin(),
                                    snap->overlay.end(),
                                    [&](const auto &a, const auto &b) {
                                        return o_key(a) == o_key(b);
                                    }),
                        snap->overlay.end());
    std::sort(snap->lemmas.begin(), snap->lemmas.end());
    snap->lemmas.erase(
        std::unique(snap->lemmas.begin(), snap->lemmas.end()),
        snap->lemmas.end());
    // Queries: dedup by fingerprint vector, preferring the entry that
    // carries a core, then one that carries a model (a kSat entry never
    // has a core and a kUnsat model is empty, so this keeps the most
    // useful copy; models are pure functions of the query, so any
    // carrier has the same bytes), then the smallest core.
    const auto q_less = [](const smt::QueryCache::ExportedEntry &a,
                           const smt::QueryCache::ExportedEntry &b) {
        return std::make_tuple(std::cref(a.fingerprints), !a.has_core,
                               !a.has_model, std::cref(a.core)) <
               std::make_tuple(std::cref(b.fingerprints), !b.has_core,
                               !b.has_model, std::cref(b.core));
    };
    const auto q_same_query = [](const smt::QueryCache::ExportedEntry &a,
                                 const smt::QueryCache::ExportedEntry &b) {
        return a.fingerprints == b.fingerprints;
    };
    std::sort(snap->queries.begin(), snap->queries.end(), q_less);
    snap->queries.erase(std::unique(snap->queries.begin(),
                                    snap->queries.end(), q_same_query),
                        snap->queries.end());
}

void
AppendSection(std::vector<uint8_t> *file, uint32_t tag,
              const std::vector<uint8_t> &payload)
{
    PutU32(file, tag);
    PutU64(file, payload.size());
    PutU32(file, payload.empty()
                     ? Crc32(nullptr, 0)
                     : Crc32(payload.data(), payload.size()));
    file->insert(file->end(), payload.begin(), payload.end());
}

}  // namespace

uint32_t
Crc32(const uint8_t *data, size_t size)
{
    // IEEE 802.3 reflected polynomial, table built on first use.
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i)
        crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

bool
SaveSnapshot(const KnowledgeSnapshot &snapshot, const std::string &path,
             std::string *error)
{
    KnowledgeSnapshot canonical = snapshot;
    Canonicalize(&canonical);

    std::vector<uint8_t> file;
    file.insert(file.end(), kMagic, kMagic + sizeof(kMagic));
    PutU32(&file, kSnapshotFormatVersion);
    PutU64(&file, canonical.protocol_fingerprint);
    PutU32(&file, kNumSections);
    AppendSection(&file, kSectionOverlay,
                  EncodeOverlay(canonical.overlay));
    AppendSection(&file, kSectionLemmas, EncodeLemmas(canonical.lemmas));
    AppendSection(&file, kSectionQueries,
                  EncodeQueries(canonical.queries));

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        if (error)
            *error = "cannot open " + path + " for writing";
        return false;
    }
    const size_t written = std::fwrite(file.data(), 1, file.size(), f);
    const bool closed = std::fclose(f) == 0;
    if (written != file.size() || !closed) {
        if (error)
            *error = "short write to " + path;
        return false;
    }
    return true;
}

bool
LoadSnapshot(const std::string &path, uint64_t expected_fingerprint,
             KnowledgeSnapshot *out, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        *out = KnowledgeSnapshot{};
        return false;
    };

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return fail("cannot open " + path);
    std::vector<uint8_t> file;
    uint8_t chunk[1 << 16];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        file.insert(file.end(), chunk, chunk + n);
    std::fclose(f);

    Reader r{file.data(), file.size(), 0, true};
    if (!r.Need(sizeof(kMagic)) ||
        std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
        return fail("bad magic (not an Achilles snapshot)");
    }
    r.pos = sizeof(kMagic);
    const uint32_t version = r.U32();
    if (!r.ok || version != kSnapshotFormatVersion)
        return fail("unsupported format version " +
                    std::to_string(version));
    const uint64_t fingerprint = r.U64();
    if (!r.ok || fingerprint != expected_fingerprint) {
        // The common, silent miss: a snapshot of a different (or
        // edited) protocol. Its fingerprints would mean different
        // assertions; never import them.
        return fail("protocol fingerprint mismatch");
    }
    const uint32_t section_count = r.U32();
    if (!r.ok)
        return fail("truncated header");

    KnowledgeSnapshot snap;
    snap.protocol_fingerprint = fingerprint;
    bool seen[kNumSections + 1] = {};
    for (uint32_t s = 0; s < section_count; ++s) {
        const uint32_t tag = r.U32();
        const uint64_t payload_size = r.U64();
        const uint32_t crc = r.U32();
        if (!r.ok || payload_size > r.size - r.pos)
            return fail("truncated section header/payload");
        const uint8_t *payload = file.data() + r.pos;
        if (Crc32(payload, static_cast<size_t>(payload_size)) != crc)
            return fail("section CRC mismatch (tag " +
                        std::to_string(tag) + ")");
        if (tag == 0 || tag > kNumSections || seen[tag])
            return fail("unknown or duplicate section tag " +
                        std::to_string(tag));
        seen[tag] = true;
        Reader sec{payload, static_cast<size_t>(payload_size), 0, true};
        bool decoded = false;
        switch (tag) {
            case kSectionOverlay:
                decoded = DecodeOverlay(&sec, &snap.overlay);
                break;
            case kSectionLemmas:
                decoded = DecodeLemmas(&sec, &snap.lemmas);
                break;
            case kSectionQueries:
                decoded = DecodeQueries(&sec, &snap.queries);
                break;
        }
        // The payload must decode cleanly AND account for every byte;
        // trailing garbage means the size field and the content
        // disagree.
        if (!decoded || !sec.ok || sec.pos != sec.size)
            return fail("malformed section payload (tag " +
                        std::to_string(tag) + ")");
        r.pos += static_cast<size_t>(payload_size);
    }
    if (r.pos != r.size)
        return fail("trailing bytes after last section");

    *out = std::move(snap);
    return true;
}

void
RestoreKnowledge(const KnowledgeSnapshot &snapshot,
                 exec::PruneIndex *prune, smt::QueryCache *cache,
                 exec::ClauseExchange *exchange)
{
    if (prune != nullptr)
        prune->ImportOverlay(snapshot.overlay);
    if (cache != nullptr)
        cache->Import(snapshot.queries);
    if (exchange != nullptr)
        exchange->Import(snapshot.lemmas);
}

void
CaptureKnowledge(const exec::PruneIndex *prune,
                 const smt::QueryCache *cache,
                 const exec::ClauseExchange *exchange,
                 KnowledgeSnapshot *out)
{
    if (prune != nullptr)
        prune->ExportOverlay(&out->overlay);
    if (cache != nullptr)
        cache->Export(&out->queries);
    if (exchange != nullptr)
        exchange->Export(&out->lemmas);
}

}  // namespace persist
}  // namespace achilles
