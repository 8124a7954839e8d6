#ifndef VISUALROAD_STORAGE_VSS_H_
#define VISUALROAD_STORAGE_VSS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "storage/sharded_store.h"
#include "video/codec/codec.h"

namespace visualroad::storage {

/// Video Storage Service configuration.
struct VssOptions {
  /// Backing store for the stream objects and the catalog. Borrowed; must
  /// outlive the service.
  ShardedStore* store = nullptr;
  /// Byte budget for assembled bitstreams kept resident in memory across
  /// reads (encoded bytes, typically ~1% of the decoded-GOP cache).
  int64_t resident_bytes = int64_t{128} << 20;
};

/// Cumulative service counters (mirrored into the metrics registry as
/// vr_vss_*; see docs/OBSERVABILITY.md).
struct VssStats {
  int64_t reads = 0;
  int64_t range_reads = 0;
  /// Reads that fetched segments of the ingested bitstream from the store.
  int64_t base_hits = 0;
  /// Reads answered from the in-memory resident stream cache, readers that
  /// waited on another reader's fetch of the same stream included.
  int64_t resident_hits = 0;
  int64_t segments_fetched = 0;
  /// Bytes fetched from the store (segment payloads).
  int64_t bytes_fetched = 0;
  /// Current bytes persisted across all stream objects.
  int64_t bytes_stored = 0;
  int64_t resident_evictions = 0;
};

/// One GOP-aligned segment of a stream object: a contiguous byte range
/// holding whole closed GOPs, so a frame range decodes from segment bytes
/// alone.
struct SegmentInfo {
  int64_t offset = 0;
  int64_t length = 0;
  int first_frame = 0;
  int frame_count = 0;
};

/// Catalog record of one logical video: the ingested bitstream's header
/// fields, its identity and its segments.
struct CatalogEntry {
  std::string name;
  video::codec::Profile profile = video::codec::Profile::kH264Like;
  int width = 0;
  int height = 0;
  double fps = 30.0;
  int frame_count = 0;
  /// video::codec::StreamIdentity() of the ingested bitstream.
  uint64_t identity = 0;
  std::vector<SegmentInfo> segments;

  /// Size of the stream object in the store.
  int64_t Bytes() const;
};

/// A range read: `video` holds the GOP-aligned covering segments, and
/// `first_frame` is the index of video->frames[0] within the logical
/// stream (0 whenever the whole stream was returned).
struct RangeRead {
  std::shared_ptr<const video::codec::EncodedVideo> video;
  int first_frame = 0;
};

/// The video storage layer (after VSS, Haynes et al.): each logical video is
/// its ingested bitstream, persisted through the ShardedStore as one object
/// of GOP-aligned segments under a durable catalog. Whole-stream reads are
/// kept in a byte-budgeted resident cache; concurrent cold readers of one
/// stream share a single fetch. Thread-safe.
class VideoStorageService {
 public:
  static StatusOr<std::unique_ptr<VideoStorageService>> Open(
      const VssOptions& options);

  VideoStorageService(const VideoStorageService&) = delete;
  VideoStorageService& operator=(const VideoStorageService&) = delete;

  /// Stores `video` as logical video `name`, segmented at closed-GOP
  /// boundaries. Replaces any previous `name` and its resident stream.
  Status Ingest(const std::string& name, const video::codec::EncodedVideo& video);

  /// Whole-stream read: the ingested bitstream byte-for-byte, immutable and
  /// shared with the resident cache.
  StatusOr<std::shared_ptr<const video::codec::EncodedVideo>> ReadVideo(
      const std::string& name);

  /// Range read of frames [first, first+count): a resident stream answers
  /// whole; otherwise only the covering GOP-aligned segments are fetched
  /// from the store (a span covering every segment is a whole-stream read).
  StatusOr<RangeRead> ReadRange(const std::string& name, int first, int count);

  bool Contains(const std::string& name) const;
  /// Catalog snapshot of one logical video.
  StatusOr<CatalogEntry> Describe(const std::string& name) const;

  /// Drops the in-memory resident streams (benchmarks measure cold reads
  /// this way); the stored objects are untouched.
  void DropResident();

  VssStats stats() const;
  const VssOptions& options() const { return options_; }

 private:
  /// The budgeted size of a resident stream: its encoded bytes.
  struct StreamBytes {
    int64_t operator()(const video::codec::EncodedVideo& video) const {
      return video.TotalBytes();
    }
  };

  explicit VideoStorageService(const VssOptions& options);

  /// Resident-cache key of `entry`'s stream. It names the ingest, so a fetch
  /// of a replaced stream that lands late is never served as the new one.
  static std::string ResidentKey(const CatalogEntry& entry);

  /// The catalog record of `name`, or NotFound. Caller holds mutex_.
  StatusOr<std::shared_ptr<const CatalogEntry>> FindLocked(
      const std::string& name) const;

  Status LoadCatalog();
  /// Serializes and persists the catalog. Caller holds mutex_.
  Status SaveCatalogLocked();

  /// Fetches `seg_count` segments of `entry` starting at `seg_first` in one
  /// partial store read, reassembles the bitstream and counts the fetch.
  StatusOr<video::codec::EncodedVideo> FetchSegments(const CatalogEntry& entry,
                                                     size_t seg_first,
                                                     size_t seg_count);

  VssOptions options_;
  mutable std::mutex mutex_;
  /// Records are immutable: Ingest swaps in a new one, so a reader holding
  /// the old record keeps a consistent view of its segments.
  std::map<std::string, std::shared_ptr<const CatalogEntry>> catalog_;
  LruCache<std::string, video::codec::EncodedVideo, std::hash<std::string>,
           StreamBytes>
      resident_;
  VssStats stats_;
};

/// Logical video name under which the driver stages a camera's bitstream.
std::string CameraStreamName(int camera_id);

/// The one store object holding logical video `name`'s segments.
std::string StreamObjectName(const std::string& name);

}  // namespace visualroad::storage

#endif  // VISUALROAD_STORAGE_VSS_H_
