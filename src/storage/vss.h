#ifndef VISUALROAD_STORAGE_VSS_H_
#define VISUALROAD_STORAGE_VSS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/lru_cache.h"
#include "storage/sharded_store.h"
#include "storage/vss_policy.h"

namespace visualroad::storage {

/// Video Storage Service configuration.
struct VssOptions {
  /// Backing store for variant objects and the catalog. Borrowed; must
  /// outlive the service.
  ShardedStore* store = nullptr;
  /// Byte budget for persisted transcoded variants (base variants are not
  /// budgeted). 0 disables caching transcode results entirely.
  int64_t variant_cache_bytes = int64_t{256} << 20;
  /// Byte budget for assembled bitstreams kept resident in memory across
  /// reads (encoded bytes, typically ~1% of the decoded-GOP cache).
  int64_t resident_bytes = int64_t{128} << 20;
  /// A cached variant is compacted away when another materialized variant
  /// of the same resolution and no worse quality is at most this factor
  /// larger (reads pay at most the factor in extra bytes, storage drops).
  double compaction_byte_slack = 1.25;
  /// Optional deterministic fault source (not owned); lets transcode-on-read
  /// observe injected stalls.
  fault::FaultInjector* faults = nullptr;
  /// Deadline for a transcode-on-read, measured from read start. Once past
  /// it, the read degrades: the already-fetched nearest better variant is
  /// served directly (no transcode), counted in vr_vss_degraded_reads_total.
  /// 0 disables the deadline, which keeps results byte-identical to a
  /// fault-free build.
  std::chrono::milliseconds transcode_deadline{0};
};

/// Cumulative service counters (mirrored into the metrics registry as
/// vr_vss_*; see docs/OBSERVABILITY.md).
struct VssStats {
  int64_t reads = 0;
  int64_t range_reads = 0;
  /// Reads answered from the ingested bitstream.
  int64_t base_hits = 0;
  /// Reads answered from a persisted transcoded variant.
  int64_t variant_hits = 0;
  /// Reads answered from the in-memory resident stream cache.
  int64_t resident_hits = 0;
  int64_t transcodes = 0;
  /// Readers that waited on another reader's in-flight transcode.
  int64_t transcode_coalesced = 0;
  int64_t variants_persisted = 0;
  int64_t variants_evicted = 0;
  int64_t variants_compacted = 0;
  int64_t segments_fetched = 0;
  /// Bytes fetched from the store (segment payloads).
  int64_t bytes_fetched = 0;
  /// Current bytes persisted across all variants, base included.
  int64_t bytes_stored = 0;
  int64_t resident_evictions = 0;
  /// Reads that blew the transcode deadline and were served the nearest
  /// materialized better variant directly instead of the requested tier.
  int64_t degraded_reads = 0;
};

/// A range read: `video` holds the GOP-aligned covering segments, and
/// `first_frame` is the index of video->frames[0] within the logical
/// stream (0 whenever the whole stream was returned).
struct RangeRead {
  std::shared_ptr<const video::codec::EncodedVideo> video;
  int first_frame = 0;
};

/// The tiered video storage layer (after VSS, Haynes et al.): each logical
/// video is backed by one or more physical variants (resolution/QP tiers)
/// persisted through the ShardedStore as GOP-aligned segments. Reads are
/// served by a cost-based policy — the cheapest materialized variant
/// answers directly; otherwise the service transcodes on read from the
/// nearest better variant and may persist the result as a new variant
/// under an LRU byte budget. Thread-safe; concurrent readers of a missing
/// variant coalesce onto one in-flight materialization (single-flight).
class VideoStorageService {
 public:
  static StatusOr<std::unique_ptr<VideoStorageService>> Open(
      const VssOptions& options);

  VideoStorageService(const VideoStorageService&) = delete;
  VideoStorageService& operator=(const VideoStorageService&) = delete;

  /// Stores `video` as logical video `name` (its base variant), segmented
  /// at closed-GOP boundaries. Replaces any previous `name`, dropping its
  /// transcoded variants.
  Status Ingest(const std::string& name, const video::codec::EncodedVideo& video);

  /// Whole-stream read at `tier`. The result is immutable and shared with
  /// the resident cache; the base tier returns the ingested bitstream
  /// byte-for-byte.
  StatusOr<std::shared_ptr<const video::codec::EncodedVideo>> ReadVideo(
      const std::string& name, const VariantKey& tier);

  /// Range read of frames [first, first+count): when a materialized
  /// variant serves `tier` and the stream is not resident, only the
  /// covering GOP-aligned segments are fetched from the store. A missing
  /// tier materializes the whole variant (single-flight) first.
  StatusOr<RangeRead> ReadRange(const std::string& name, const VariantKey& tier,
                                int first, int count);

  /// Deferred compaction: drops cached variants dominated by another
  /// materialized variant (same resolution, no worse quality, at most
  /// compaction_byte_slack times the bytes). Returns variants dropped.
  StatusOr<int> Compact();

  bool Contains(const std::string& name) const;
  std::vector<std::string> List() const;
  /// Catalog snapshot of one logical video (frame count, fps, tiers).
  StatusOr<CatalogEntry> Describe(const std::string& name) const;
  /// The tier holding `name`'s ingested bitstream.
  StatusOr<VariantKey> BaseTier(const std::string& name) const;

  /// Drops the in-memory resident streams (benchmarks measure cold reads
  /// this way); persisted variants are untouched.
  void DropResident();

  VssStats stats() const;
  const VssOptions& options() const { return options_; }

 private:
  /// Shared state of one in-flight materialization. Waiters hold the
  /// shared_ptr across the wait, so the leader's outcome (success, failure,
  /// or deadline degradation) reaches them even after the flight entry is
  /// erased — a failed leader propagates its Status instead of leaving
  /// waiters to silently re-lead.
  struct Flight {
    bool done = false;
    bool degraded = false;
    Status status;
  };

  /// The budgeted size of a resident stream: its encoded bytes.
  struct StreamBytes {
    int64_t operator()(const video::codec::EncodedVideo& video) const {
      return video.TotalBytes();
    }
  };

  explicit VideoStorageService(const VssOptions& options);

  static std::string ObjectName(const std::string& name, const VariantKey& key);

  Status LoadCatalog();
  /// Serializes and persists the catalog. Caller holds mutex_.
  Status SaveCatalogLocked();

  /// Fetches `seg_count` segments of a variant starting at `seg_first` in
  /// one partial store read and reassembles the bitstream. Runs without
  /// mutex_ held; the caller pins the variant. Adds the payload bytes
  /// fetched to *bytes_fetched.
  StatusOr<video::codec::EncodedVideo> FetchSegments(const CatalogEntry& props,
                                                     const VariantInfo& variant,
                                                     size_t seg_first,
                                                     size_t seg_count,
                                                     int64_t* bytes_fetched) const;

  /// Whole-stream acquisition with single-flight materialization; the core
  /// of ReadVideo and the fallback of ReadRange.
  StatusOr<std::shared_ptr<const video::codec::EncodedVideo>> AcquireStream(
      const std::string& name, const VariantKey& tier);

  /// Transcodes `source_video` to `tier` (scale + re-encode at tier.qp).
  StatusOr<video::codec::EncodedVideo> Transcode(
      const video::codec::EncodedVideo& source_video, const CatalogEntry& props,
      const VariantKey& tier) const;

  /// Writes a variant object for `stream` and returns its catalog record.
  /// Runs without mutex_ held (the single-flight marker excludes rivals).
  StatusOr<VariantInfo> WriteVariantObject(const std::string& name,
                                           const VariantKey& key,
                                           const video::codec::EncodedVideo& stream,
                                           bool base) const;

  /// Applies the variant-cache byte budget; caller holds mutex_.
  void EvictVariantsLocked();

  std::set<std::pair<std::string, VariantKey>> PinnedLocked() const;

  /// Releases one pin on (name, key) and, when the last pin drops, executes
  /// any delete deferred while the variant was being read.
  void UnpinLocked(const std::string& name, const VariantKey& key);

  VssOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable inflight_cv_;
  std::map<std::string, CatalogEntry> catalog_;
  /// Streams being materialized, keyed (video, serving tier).
  std::map<std::pair<std::string, VariantKey>, std::shared_ptr<Flight>> inflight_;
  /// Variants a reader is currently fetching outside the lock; eviction
  /// and compaction skip them. Value is a fetch count.
  std::map<std::pair<std::string, VariantKey>, int> pins_;
  /// Stale variant objects whose delete was deferred because a reader still
  /// had the variant pinned (Ingest replaced the video mid-read). Executed
  /// by UnpinLocked when the last pin drops; cancelled when the same
  /// (name, key) is re-persisted (the store object was overwritten, so
  /// nothing stale remains).
  std::set<std::pair<std::string, VariantKey>> deferred_deletes_;
  /// Assembled streams kept in memory, keyed "<video>/<variant tag>".
  LruCache<std::string, video::codec::EncodedVideo, std::hash<std::string>,
           StreamBytes>
      resident_;
  uint64_t use_clock_ = 0;
  VssStats stats_;
};

/// Store object name under which the driver stages a camera's bitstream.
std::string CameraStreamName(int camera_id);

}  // namespace visualroad::storage

#endif  // VISUALROAD_STORAGE_VSS_H_
