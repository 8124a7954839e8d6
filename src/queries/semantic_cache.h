#ifndef VISUALROAD_QUERIES_SEMANTIC_CACHE_H_
#define VISUALROAD_QUERIES_SEMANTIC_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "vision/miniyolo.h"

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

/// A half-open frame window [first, first + count).
struct FrameRange {
  int first = 0;
  int count = 0;
  int last() const { return first + count; }
  /// True when this range fully contains `other` (range subsumption: a
  /// cached [0,300) answers a [60,120) probe).
  bool Contains(const FrameRange& other) const {
    return first <= other.first && other.last() <= last();
  }
};

/// One materialized inference result: per-frame detections (unfiltered by
/// object class, so queries over different classes share one entry) plus the
/// render metadata a consumer needs to rebuild a box video without touching
/// the decoder. Immutable once published; concurrent readers share it by
/// shared_ptr, so eviction never invalidates a reader.
struct SemanticEntry {
  SemanticKey key;
  FrameRange range;
  /// Source stream geometry, so a warm consumer renders without decoding.
  int width = 0;
  int height = 0;
  double fps = 0.0;
  /// detections[i] belongs to absolute stream frame range.first + i.
  std::vector<std::vector<vision::Detection>> detections;
  /// Approximate resident size, for the byte budget.
  int64_t bytes = 0;

  /// Recomputes `bytes` from the detection payload.
  void RecomputeBytes();
};

/// Cumulative cache counters (mirrored into vr_semcache_* registry metrics).
struct SemanticCacheStats {
  int64_t hits = 0;         // Probe answered by a covering ready entry.
  int64_t misses = 0;       // Caller computed (single-flight leader).
  int64_t coalesced = 0;    // Waited on another caller's in-flight compute.
  int64_t insertions = 0;   // New entries published.
  int64_t extensions = 0;   // Inserts merged into an existing entry
                            // (incremental maintenance on the online path).
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
  /// `store_prefix` and LoadPersisted() recovers them, so a warm semantic
  /// cache survives process restarts alongside the VSS segments.
  storage::ShardedStore* store = nullptr;
  std::string store_prefix = "semcache/";
};

/// The semantic result store: a process-shareable, byte-budgeted LRU of
/// materialized per-frame inference results with range-subsumption lookups,
/// single-flight population, merge-on-insert incremental maintenance, and
/// optional persistence through ShardedStore. Thread-safe.
///
/// Reuse model:
///  - cross-query: Q2(c) and Q7 over the same stream and model share one
///    entry (detections are cached unfiltered; consumers apply their own
///    object-class cut);
///  - cross-tenant: server tenants execute on engines that point at one
///    shared cache, so tenant B's repeated dashboard query is answered from
///    tenant A's materialization;
///  - incremental: an insert adjacent to (or overlapping) an existing entry
///    extends that entry instead of invalidating it, which is how arriving
///    GOPs on the streaming path grow a cached result.
class SemanticCache {
 public:
  explicit SemanticCache(const SemanticCacheOptions& options = {});
  ~SemanticCache();

  SemanticCache(const SemanticCache&) = delete;
  SemanticCache& operator=(const SemanticCache&) = delete;

  /// The process-wide cache engines share when EngineOptions names no
  /// instance explicitly (mirrors GopCache::Global()).
  static SemanticCache& Global();

  /// How a GetOrCompute was satisfied.
  enum class Outcome { kHit, kMiss, kCoalesced };

  /// Non-populating lookup: the most-recently-used ready entry whose range
  /// contains `range`, or null. Bumps LRU recency on a hit. Exact threshold
  /// and model match only; ranges that merely touch (`[0,60)` probed with
  /// `[60,120)`) do not match.
  std::shared_ptr<const SemanticEntry> Probe(const SemanticKey& key,
                                             FrameRange range);

  /// Side-effect-free covering lookup: no stats movement, no LRU bump. The
  /// planner uses this so explaining a plan never changes cache behaviour.
  std::shared_ptr<const SemanticEntry> Peek(const SemanticKey& key,
                                            FrameRange range) const;

  /// Computes a fresh entry for exactly (key, range). Must return an entry
  /// whose key and range equal the request.
  using ComputeFn =
      std::function<StatusOr<SemanticEntry>()>;

  /// Covering lookup with single-flight population: a hit returns the
  /// covering entry; otherwise one caller runs `compute` while concurrent
  /// requesters of the same (key, range) block on that in-flight compute
  /// instead of repeating the CNN. The computed entry is published via
  /// Insert (merging with neighbours), and the returned entry covers
  /// `range`.
  StatusOr<std::shared_ptr<const SemanticEntry>> GetOrCompute(
      const SemanticKey& key, FrameRange range, const ComputeFn& compute,
      Outcome* outcome = nullptr);

  /// Publishes an entry, coalescing with same-key neighbours: an insert
  /// whose range is adjacent to or overlaps an existing entry extends that
  /// entry in place (counted as an extension, not an insertion); an insert
  /// fully covered by an existing entry only refreshes recency. Evicts LRU
  /// entries beyond the byte budget.
  void Insert(SemanticEntry entry);

  /// Detections of `range` sliced out of a covering entry, still unfiltered.
  static std::vector<std::vector<vision::Detection>> Slice(
      const SemanticEntry& entry, FrameRange range);

  /// Writes every ready entry through the configured store (no-op Ok when no
  /// store is configured). Idempotent: entry files are keyed by content.
  Status Persist();

  /// Loads every persisted entry under the configured prefix back into the
  /// cache (no-op Ok when no store is configured).
  Status LoadPersisted();

  /// Every ready entry, most-recently-used first, as shared immutable
  /// snapshots. This is the export side of cache shipping: the distributed
  /// coordinator serialises the snapshot over the wire (kCacheImport) to
  /// pre-seed worker caches or warm a respawned replacement. Does not move
  /// stats or LRU recency.
  std::vector<std::shared_ptr<const SemanticEntry>> Snapshot() const;

  /// Drops every ready entry (in-flight computes complete uncached).
  void Clear();

  int64_t capacity_bytes() const;

  SemanticCacheStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
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
