#include "queries/semantic_cache.h"

#include <cstdio>
#include <cstring>

#include "common/metrics.h"
#include "common/serialize.h"
#include "common/trace.h"
#include "storage/sharded_store.h"
#include "vision/overlay.h"

namespace visualroad::queries {

namespace {

/// FNV-1a over a string, for stable persisted-entry file names.
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

constexpr uint32_t kPersistMagic = 0x43535256;  // "VRSC" little-endian.
constexpr uint32_t kPersistVersion = 2;
constexpr char kStorePrefix[] = "semcache/";

/// Registry instruments, shared process-wide (the cache itself may have
/// several instances; the metrics aggregate them, like the store counters).
struct Instruments {
  LruCacheMetrics lru;
  metrics::Counter& persisted;
  metrics::Counter& loaded;

  static Instruments& Get() {
    static Instruments* instruments = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      LruCacheMetrics lru;
      lru.hits = &registry.GetCounter(
          "vr_semcache_hits_total",
          "Semantic-cache lookups answered by a materialized entry");
      lru.misses = &registry.GetCounter(
          "vr_semcache_misses_total",
          "Semantic-cache lookups that ran the model (single-flight leader)");
      lru.coalesced = &registry.GetCounter(
          "vr_semcache_coalesced_total",
          "Semantic-cache lookups that waited on another caller's in-flight "
          "compute");
      lru.insertions = &registry.GetCounter("vr_semcache_insertions_total",
                                            "Semantic-cache entries published");
      lru.evictions = &registry.GetCounter(
          "vr_semcache_evictions_total",
          "Semantic-cache entries dropped to fit the byte budget");
      lru.bytes_in_use = &registry.GetGauge(
          "vr_semcache_bytes_in_use", "Resident bytes across semantic-cache entries");
      lru.entries = &registry.GetGauge("vr_semcache_entries",
                                       "Resident semantic-cache entries");
      return new Instruments{
          lru,
          registry.GetCounter("vr_semcache_persisted_total",
                              "Semantic-cache entries written through the "
                              "sharded store"),
          registry.GetCounter("vr_semcache_loaded_total",
                              "Semantic-cache entries recovered from the "
                              "sharded store")};
    }();
    return *instruments;
  }
};

}  // namespace

bool SemanticKey::operator==(const SemanticKey& other) const {
  // Threshold compares by bit pattern: any numeric difference is a distinct
  // materialization, and NaN never silently equals anything.
  uint64_t a, b;
  std::memcpy(&a, &threshold, sizeof(a));
  std::memcpy(&b, &other.threshold, sizeof(b));
  return stream == other.stream && model == other.model && a == b;
}

std::string SemanticKey::Serialized() const {
  uint64_t bits;
  std::memcpy(&bits, &threshold, sizeof(bits));
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%016llx|%016llx|",
                static_cast<unsigned long long>(stream),
                static_cast<unsigned long long>(bits));
  return std::string(buffer) + model;
}

void SemanticEntry::RecomputeBytes() {
  int64_t total = static_cast<int64_t>(sizeof(SemanticEntry)) +
                  static_cast<int64_t>(key.model.size());
  for (const auto& frame : detections) {
    total += static_cast<int64_t>(sizeof(frame)) +
             static_cast<int64_t>(frame.size()) *
                 static_cast<int64_t>(sizeof(vision::Detection));
  }
  bytes = total;
}

std::string ModelFingerprint(const vision::DetectorOptions& options,
                             const std::string& variant, int version) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "[in=%d,seed=%llu,recall=%g,fp=%g,jitter=%g,vis=%g,minpx=%d]@v%d",
                options.input_size,
                static_cast<unsigned long long>(options.seed),
                options.base_recall, options.false_positives_per_frame,
                options.box_jitter, options.min_visible_fraction,
                options.min_box_pixels, version);
  return variant + buffer;
}

void WriteSemanticEntry(ByteWriter& writer, const SemanticEntry& entry) {
  writer.U64(entry.key.stream);
  writer.Str(entry.key.model);
  writer.F64(entry.key.threshold);
  writer.I32(entry.width);
  writer.I32(entry.height);
  writer.F64(entry.fps);
  vision::WriteDetections(writer, entry.detections);
}

StatusOr<SemanticEntry> ReadSemanticEntry(ByteCursor& cursor) {
  SemanticEntry entry;
  entry.key.stream = cursor.U64();
  entry.key.model = cursor.Str();
  entry.key.threshold = cursor.F64();
  entry.width = cursor.I32();
  entry.height = cursor.I32();
  entry.fps = cursor.F64();
  if (!cursor.ok()) return Status::DataLoss("truncated semantic cache entry");
  VR_ASSIGN_OR_RETURN(entry.detections, vision::ReadDetections(cursor));
  entry.RecomputeBytes();
  return entry;
}

SemanticCache::SemanticCache(const SemanticCacheOptions& options)
    : store_(options.store), lru_(options.capacity_bytes, Instruments::Get().lru) {}

std::shared_ptr<const SemanticEntry> SemanticCache::Peek(
    const SemanticKey& key) const {
  return lru_.Peek(key.Serialized());
}

StatusOr<std::shared_ptr<const SemanticEntry>> SemanticCache::GetOrCompute(
    const SemanticKey& key, const ComputeFn& compute, Outcome* outcome) {
  const std::string id = key.Serialized();
  {
    TRACE_SPAN("semcache:probe");
    if (std::shared_ptr<const SemanticEntry> hit = lru_.Get(id)) {
      if (outcome != nullptr) *outcome = Outcome::kHit;
      return hit;
    }
  }
  return lru_.GetOrCompute(
      id,
      [&]() -> StatusOr<SemanticEntry> {
        TRACE_SPAN("semcache:populate");
        VR_ASSIGN_OR_RETURN(SemanticEntry entry, compute());
        if (!(entry.key == key)) {
          return Status::Internal("semantic compute returned a mismatched entry");
        }
        entry.RecomputeBytes();
        return entry;
      },
      outcome);
}

void SemanticCache::Insert(SemanticEntry entry) {
  entry.RecomputeBytes();
  const std::string id = entry.key.Serialized();
  lru_.Put(id, std::make_shared<const SemanticEntry>(std::move(entry)));
}

Status SemanticCache::Persist() {
  if (store_ == nullptr) return Status::Ok();
  TRACE_SPAN("semcache:persist");
  for (const std::shared_ptr<const SemanticEntry>& entry : lru_.Snapshot()) {
    ByteWriter writer;
    writer.U32(kPersistMagic);
    writer.U32(kPersistVersion);
    WriteSemanticEntry(writer, *entry);
    char name[64];
    std::snprintf(name, sizeof(name), "%s%016llx", kStorePrefix,
                  static_cast<unsigned long long>(Fnv1a(entry->key.Serialized())));
    VR_RETURN_IF_ERROR(store_->Put(name, writer.bytes()));
    ++persisted_;
    Instruments::Get().persisted.Increment();
  }
  return Status::Ok();
}

Status SemanticCache::LoadPersisted() {
  if (store_ == nullptr) return Status::Ok();
  TRACE_SPAN("semcache:load");
  const std::string prefix = kStorePrefix;
  for (const std::string& name : store_->List()) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    VR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, store_->Get(name));
    ByteCursor cursor(bytes);
    const uint32_t magic = cursor.U32();
    const uint32_t version = cursor.U32();
    if (!cursor.ok() || magic != kPersistMagic) {
      return Status::DataLoss("semantic cache entry header mismatch: " + name);
    }
    // A file another layout version wrote is stale, not corrupt. No build
    // from this one on reads an older layout, so that file is removed; a
    // newer one is left to the build that wrote it.
    if (version < kPersistVersion) {
      VR_RETURN_IF_ERROR(store_->Delete(name));
      continue;
    }
    if (version != kPersistVersion) continue;
    StatusOr<SemanticEntry> entry = ReadSemanticEntry(cursor);
    if (!entry.ok()) {
      return Status::DataLoss(entry.status().message() + ": " + name);
    }
    Insert(std::move(*entry));
    ++loaded_;
    Instruments::Get().loaded.Increment();
  }
  return Status::Ok();
}

SemanticCacheStats SemanticCache::stats() const {
  const LruCacheStats lru = lru_.stats();
  SemanticCacheStats out;
  out.hits = lru.hits;
  out.misses = lru.misses;
  out.coalesced = lru.coalesced;
  out.insertions = lru.insertions;
  out.evictions = lru.evictions;
  out.persisted = persisted_.load();
  out.loaded = loaded_.load();
  out.bytes_in_use = lru.bytes_in_use;
  out.entries = lru.entries;
  return out;
}

}  // namespace visualroad::queries
