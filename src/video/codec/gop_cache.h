#ifndef VISUALROAD_VIDEO_CODEC_GOP_CACHE_H_
#define VISUALROAD_VIDEO_CODEC_GOP_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/lru_cache.h"
#include "common/status.h"
#include "video/codec/codec.h"
#include "video/frame.h"

namespace visualroad::video::codec {

/// One decoded closed GOP. Immutable once published to the cache; concurrent
/// readers share it by shared_ptr, so eviction never invalidates a reader.
struct DecodedGop {
  int first_frame = 0;
  std::vector<Frame> frames;
  int64_t bytes = 0;  // Decoded payload size, for the cache budget.
};

/// Cumulative counters of one cache: `misses` counts decodes run as the
/// single-flight leader, `coalesced` lookups that waited on one.
using GopCacheStats = LruCacheStats;

struct GopCacheOptions {
  /// Decoded-frame budget of the whole cache.
  int64_t capacity_bytes = int64_t{256} << 20;
};

/// LRU of decoded GOPs keyed by (stream identity, GOP start frame), with one
/// byte budget and single-flight decode: concurrent requesters of the same
/// cold GOP share the one in-flight decode, its frames or its error, instead
/// of repeating it. Thread-safe; the LruCache rules apply (common/lru_cache.h).
class GopCache {
 public:
  explicit GopCache(const GopCacheOptions& options = {});

  GopCache(const GopCache&) = delete;
  GopCache& operator=(const GopCache&) = delete;

  /// The process-wide cache every engine shares by default.
  static GopCache& Global();

  /// How a Get was satisfied.
  using Outcome = LruOutcome;

  /// Returns the decoded GOP of `encoded` starting at frame `start` and
  /// spanning `count` frames, decoding it (serially — GOPs are the unit of
  /// parallelism) on a miss. `identity` must be StreamIdentity(encoded).
  StatusOr<std::shared_ptr<const DecodedGop>> Get(const EncodedVideo& encoded,
                                                  uint64_t identity, int start,
                                                  int count,
                                                  Outcome* outcome = nullptr);

  /// Drops every ready entry (a decode in flight still publishes).
  void Clear() { lru_.Clear(); }

  int64_t capacity_bytes() const { return lru_.capacity_bytes(); }

  GopCacheStats stats() const { return lru_.stats(); }

 private:
  struct Key {
    uint64_t identity = 0;
    int start = 0;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  LruCache<Key, DecodedGop, KeyHash> lru_;
};

/// Full-bitstream identity hash (dimensions, profile, every payload byte) for
/// cache keying. Collision-resistant enough for a cache: a false hit needs an
/// FNV-1a collision across entire streams.
uint64_t StreamIdentity(const EncodedVideo& encoded);

/// Keyframe indices of `encoded`, i.e. the start of each closed GOP.
std::vector<int> GopStarts(const EncodedVideo& encoded);

/// Per-engine accounting, separate from the cache's own stats because the
/// cache is process-wide and shared.
struct GopCacheCounters {
  std::atomic<int64_t> hits{0};    // Served without decoding (hit or coalesced).
  std::atomic<int64_t> misses{0};  // This caller ran the decode.
  std::atomic<int64_t> frames_decoded{0};
};

/// Decode of a whole stream through `cache`. Returns a fresh Video assembled
/// from cached GOPs.
StatusOr<Video> CachedDecode(const EncodedVideo& encoded, GopCache& cache,
                             GopCacheCounters* counters = nullptr);

/// Range decode through `cache`: fetches only the GOPs overlapping
/// [first, first+count) and trims to the requested window.
StatusOr<Video> CachedDecodeRange(const EncodedVideo& encoded, int first, int count,
                                  GopCache& cache,
                                  GopCacheCounters* counters = nullptr);

}  // namespace visualroad::video::codec

#endif  // VISUALROAD_VIDEO_CODEC_GOP_CACHE_H_
