#include "video/codec/gop_cache.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace visualroad::video::codec {

namespace {

/// Registry instruments aggregating across every GopCache instance (tests
/// construct private caches besides Global()). Per-instance stats() remains
/// the exact per-cache view.
struct CacheMetrics {
  LruCacheMetrics lru;
  metrics::Histogram& decode_seconds;

  static CacheMetrics& Get() {
    static CacheMetrics* instruments = [] {
      metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
      LruCacheMetrics lru;
      lru.hits = &registry.GetCounter("vr_gop_cache_hits_total",
                                      "GOP cache lookups satisfied by a ready entry");
      lru.misses = &registry.GetCounter(
          "vr_gop_cache_misses_total",
          "GOP cache lookups that decoded as the single-flight leader");
      lru.coalesced = &registry.GetCounter(
          "vr_gop_cache_coalesced_total",
          "GOP cache lookups that waited on another caller's decode");
      lru.evictions = &registry.GetCounter("vr_gop_cache_evictions_total",
                                           "Cached GOPs dropped to fit the byte budget");
      lru.bytes_in_use = &registry.GetGauge(
          "vr_gop_cache_bytes_in_use", "Decoded bytes resident across all GOP caches");
      lru.entries = &registry.GetGauge(
          "vr_gop_cache_entries", "Ready GOP entries resident across all GOP caches");
      return new CacheMetrics{
          lru, registry.GetHistogram("vr_gop_decode_seconds",
                                     "Wall-clock duration of single-flight GOP decodes",
                                     {0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0})};
    }();
    return *instruments;
  }
};

/// Decoded footprint of one YUV 4:2:0 frame.
int64_t DecodedFrameBytes(int width, int height) {
  int64_t luma = static_cast<int64_t>(width) * height;
  int64_t chroma =
      static_cast<int64_t>((width + 1) / 2) * ((height + 1) / 2);
  return luma + 2 * chroma;
}

}  // namespace

size_t GopCache::KeyHash::operator()(const Key& key) const {
  uint64_t h = key.identity ^ (static_cast<uint64_t>(key.start) * 0x9e3779b97f4a7c15ull);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return static_cast<size_t>(h);
}

GopCache::GopCache(const GopCacheOptions& options)
    : lru_(options.capacity_bytes, CacheMetrics::Get().lru) {}

GopCache& GopCache::Global() {
  // Leaked intentionally: engine threads may outlive static destruction order.
  static GopCache* cache = new GopCache();
  return *cache;
}

StatusOr<std::shared_ptr<const DecodedGop>> GopCache::Get(
    const EncodedVideo& encoded, uint64_t identity, int start, int count,
    Outcome* outcome) {
  return lru_.GetOrCompute(
      Key{identity, start},
      [&]() -> StatusOr<DecodedGop> {
        // Serial decode: the GOP itself is the unit of parallelism here.
        Stopwatch decode_watch;
        StatusOr<Video> decoded = [&] {
          TRACE_SPAN("gop_decode");
          return DecodeRange(encoded, start, count, /*threads=*/1);
        }();
        CacheMetrics::Get().decode_seconds.Observe(decode_watch.ElapsedSeconds());
        if (!decoded.ok()) return decoded.status();
        DecodedGop gop;
        gop.first_frame = start;
        gop.frames = std::move(decoded->frames);
        gop.bytes = DecodedFrameBytes(encoded.width, encoded.height) *
                    static_cast<int64_t>(gop.frames.size());
        return gop;
      },
      outcome);
}

uint64_t StreamIdentity(const EncodedVideo& encoded) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis.
  auto mix_byte = [&h](uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  auto mix_int = [&](uint64_t value) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<uint8_t>(value >> (i * 8)));
  };
  mix_int(static_cast<uint64_t>(encoded.width));
  mix_int(static_cast<uint64_t>(encoded.height));
  mix_int(static_cast<uint64_t>(encoded.profile));
  mix_int(static_cast<uint64_t>(encoded.frames.size()));
  for (const EncodedFrame& frame : encoded.frames) {
    mix_byte(frame.keyframe ? 1 : 0);
    mix_byte(frame.qp);
    mix_int(frame.data.size());
    for (uint8_t byte : frame.data) mix_byte(byte);
  }
  return h;
}

std::vector<int> GopStarts(const EncodedVideo& encoded) {
  std::vector<int> starts;
  if (encoded.FrameCount() == 0) return starts;
  // Frame 0 always opens the first GOP; a malformed stream whose first frame
  // is not a keyframe fails inside the decoder, exactly as Decode() does.
  starts.push_back(0);
  for (int i = 1; i < encoded.FrameCount(); ++i) {
    if (encoded.frames[i].keyframe) starts.push_back(i);
  }
  return starts;
}

StatusOr<Video> CachedDecode(const EncodedVideo& encoded, GopCache& cache,
                             GopCacheCounters* counters) {
  return CachedDecodeRange(encoded, 0, encoded.FrameCount(), cache, counters);
}

StatusOr<Video> CachedDecodeRange(const EncodedVideo& encoded, int first, int count,
                                  GopCache& cache, GopCacheCounters* counters) {
  if (first < 0 || count < 0 || first + count > encoded.FrameCount()) {
    return Status::OutOfRange("decode range outside the encoded video");
  }
  Video out;
  out.fps = encoded.fps;
  out.frames.reserve(count);
  if (count == 0) return out;

  std::vector<int> starts = GopStarts(encoded);
  uint64_t identity = StreamIdentity(encoded);
  int total = encoded.FrameCount();
  int end = first + count;

  // First GOP whose range contains `first`: the last start <= first.
  size_t g = static_cast<size_t>(
      std::upper_bound(starts.begin(), starts.end(), first) - starts.begin() - 1);
  for (; g < starts.size() && starts[g] < end; ++g) {
    int begin = starts[g];
    int stop = g + 1 < starts.size() ? starts[g + 1] : total;
    GopCache::Outcome outcome = GopCache::Outcome::kMiss;
    VR_ASSIGN_OR_RETURN(
        std::shared_ptr<const DecodedGop> gop,
        cache.Get(encoded, identity, begin, stop - begin, &outcome));
    if (counters != nullptr) {
      if (outcome == GopCache::Outcome::kMiss) {
        counters->misses.fetch_add(1, std::memory_order_relaxed);
        counters->frames_decoded.fetch_add(static_cast<int64_t>(gop->frames.size()),
                                           std::memory_order_relaxed);
      } else {
        counters->hits.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (int i = std::max(begin, first); i < std::min(stop, end); ++i) {
      out.frames.push_back(gop->frames[static_cast<size_t>(i - begin)]);
    }
  }
  return out;
}

}  // namespace visualroad::video::codec
