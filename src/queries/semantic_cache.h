#ifndef VISUALROAD_QUERIES_SEMANTIC_CACHE_H_
#define VISUALROAD_QUERIES_SEMANTIC_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/status.h"
#include "vision/miniyolo.h"

namespace visualroad {
class ByteCursor;
class ByteWriter;
}  // namespace visualroad

namespace visualroad::storage {
class ShardedStore;
}  // namespace visualroad::storage

namespace visualroad::queries {

/// Identity of one materialized inference result set (DeepLens/VDMS-style
/// semantic caching: the decisive win at scale is never re-running the CNN,
/// so inference outputs are first-class stored objects keyed by exactly what
/// produced them).
///
/// `threshold` is part of the key and is compared exactly (bit pattern):
/// detections produced under one score floor are never reused to answer a
/// probe with a different floor, in either direction. Filtering a looser
/// result down to a stricter threshold would be numerically valid for score
/// cuts, but the floor also feeds the producing model's early-exit
/// behaviour; treating any mismatch as a miss keeps reuse provably exact.
struct SemanticKey {
  /// StreamIdentity() of the input bitstream the model consumed.
  uint64_t stream = 0;
  /// Model fingerprint including configuration and version; see
  /// ModelFingerprint(). A version bump changes the key, so stale entries
  /// become unreachable (and age out of the LRU) rather than being served.
  std::string model;
  /// Score floor the detections were materialized under (0 = raw output).
  double threshold = 0.0;

  bool operator==(const SemanticKey& other) const;
  /// Deterministic map key: hex stream id, model string, threshold bits.
  std::string Serialized() const;
};

/// One materialized inference result over a whole stream: per-frame
/// detections (unfiltered by object class, so queries over different classes
/// share one entry) plus the render metadata a consumer needs to rebuild a
/// box video without touching the decoder. Immutable once published;
/// concurrent readers share it by shared_ptr, so eviction never invalidates
/// a reader.
struct SemanticEntry {
  SemanticKey key;
  /// Source stream geometry, so a warm consumer renders without decoding.
  int width = 0;
  int height = 0;
  double fps = 0.0;
  /// detections[i] belongs to stream frame i.
  std::vector<std::vector<vision::Detection>> detections;
  /// Approximate resident size, for the byte budget.
  int64_t bytes = 0;

  /// Recomputes `bytes` from the detection payload.
  void RecomputeBytes();
  /// Whether the entry holds one detection list for each of the stream's
  /// `frame_count` frames. Entries also arrive from store files and shipped
  /// payloads, whose readers cannot know the stream's frame count, so a
  /// consumer checks this before indexing the detections by frame.
  bool Covers(int frame_count) const {
    return detections.size() == static_cast<size_t>(frame_count);
  }
};

/// The one byte layout of an entry, shared by the store files Persist()
/// writes and the distributed cache-shipping payload: key, geometry, then
/// the detection list (vision::WriteDetections).
void WriteSemanticEntry(ByteWriter& writer, const SemanticEntry& entry);
/// Reads an entry written by WriteSemanticEntry; DataLoss when the bytes run
/// out or a count exceeds them. Sets `bytes`.
StatusOr<SemanticEntry> ReadSemanticEntry(ByteCursor& cursor);
/// Smallest encoding of an entry (empty model, no frames), for bounding a
/// count of entries by the bytes left.
inline constexpr size_t kSemanticEntryMinBytes = 8 + 4 + 8 + 4 + 4 + 8 + 4;

/// Cumulative cache counters (mirrored into vr_semcache_* registry metrics).
struct SemanticCacheStats {
  int64_t hits = 0;         // Lookup answered by a ready entry.
  int64_t misses = 0;       // Caller computed (single-flight leader).
  int64_t coalesced = 0;    // Waited on another caller's in-flight compute.
  int64_t insertions = 0;   // Entries published.
  int64_t evictions = 0;    // Entries dropped to fit the byte budget.
  int64_t persisted = 0;    // Entries written through the sharded store.
  int64_t loaded = 0;       // Entries recovered from the sharded store.
  int64_t bytes_in_use = 0;
  int64_t entries = 0;
};

struct SemanticCacheOptions {
  /// Byte budget across all entries; least-recently-used entries are
  /// evicted beyond it.
  int64_t capacity_bytes = int64_t{64} << 20;
  /// Optional persistence substrate (borrowed; must outlive the cache).
  /// When set, Persist() writes every ready entry as one store file under
  /// "semcache/" and LoadPersisted() recovers them, so a warm semantic
  /// cache survives process restarts alongside the VSS segments.
  storage::ShardedStore* store = nullptr;
};

/// The semantic result store: a process-shareable, byte-budgeted LRU of
/// whole-stream inference results, one per SemanticKey, with single-flight
/// population and optional persistence through ShardedStore. Thread-safe;
/// the LruCache rules apply (common/lru_cache.h).
///
/// Reuse model:
///  - cross-query: Q2(c), Q7 and Q8 over the same stream and model share one
///    entry (detections are cached unfiltered; consumers apply their own
///    object-class cut);
///  - cross-tenant: server tenants execute on engines that point at one
///    shared cache, so tenant B's repeated dashboard query is answered from
///    tenant A's materialization;
///  - cross-process: the distributed coordinator ships Snapshot() to its
///    workers, which Insert what they receive.
class SemanticCache {
 public:
  explicit SemanticCache(const SemanticCacheOptions& options = {});

  SemanticCache(const SemanticCache&) = delete;
  SemanticCache& operator=(const SemanticCache&) = delete;

  /// How a GetOrCompute was satisfied.
  using Outcome = LruOutcome;

  /// Side-effect-free lookup: no stats movement, no LRU bump. The planner
  /// uses this so explaining a plan never changes cache behaviour. Exact
  /// threshold and model match only.
  std::shared_ptr<const SemanticEntry> Peek(const SemanticKey& key) const;

  /// Computes a fresh entry for `key`. Must return an entry whose key equals
  /// the request.
  using ComputeFn = std::function<StatusOr<SemanticEntry>()>;

  /// Lookup with single-flight population: a hit returns the ready entry;
  /// otherwise one caller runs `compute` while concurrent requesters of the
  /// same key share that in-flight compute (its entry or its error) instead
  /// of repeating the CNN.
  StatusOr<std::shared_ptr<const SemanticEntry>> GetOrCompute(
      const SemanticKey& key, const ComputeFn& compute,
      Outcome* outcome = nullptr);

  /// Publishes an entry, replacing any entry under the same key, as the most
  /// recently used one. Evicts LRU entries beyond the byte budget.
  void Insert(SemanticEntry entry);

  /// Writes every ready entry through the configured store (no-op Ok when no
  /// store is configured). Idempotent: entry files are named by key.
  Status Persist();

  /// Loads every persisted entry back into the cache (no-op Ok when no store
  /// is configured) and deletes the files an older layout version wrote.
  /// DataLoss when a file's header or entry is cut short or malformed.
  Status LoadPersisted();

  /// Every ready entry, most-recently-used first, as shared immutable
  /// snapshots. This is the export side of cache shipping: the distributed
  /// coordinator serialises the snapshot over the wire (kCacheImport) to
  /// pre-seed worker caches or warm a respawned replacement. Does not move
  /// stats or LRU recency.
  std::vector<std::shared_ptr<const SemanticEntry>> Snapshot() const {
    return lru_.Snapshot();
  }

  /// Drops every ready entry (a compute in flight still publishes).
  void Clear() { lru_.Clear(); }

  int64_t capacity_bytes() const { return lru_.capacity_bytes(); }

  SemanticCacheStats stats() const;

 private:
  storage::ShardedStore* const store_;
  /// Keyed by SemanticKey::Serialized().
  LruCache<std::string, SemanticEntry> lru_;
  std::atomic<int64_t> persisted_{0};
  std::atomic<int64_t> loaded_{0};
};

/// Canonical model fingerprint for cache keying: every DetectorOptions field
/// that changes the produced detections, a variant tag distinguishing
/// architecturally different consumers of the same options (e.g. the
/// cascade's two-model stack vs. a single detector), and an explicit
/// version. Bumping `version` invalidates all previously materialized
/// results for the model, which is the upgrade story: redeploying a model
/// must never serve the old model's cached outputs.
std::string ModelFingerprint(const vision::DetectorOptions& options,
                             const std::string& variant, int version = 1);

}  // namespace visualroad::queries

#endif  // VISUALROAD_QUERIES_SEMANTIC_CACHE_H_
