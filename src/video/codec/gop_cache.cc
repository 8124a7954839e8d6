#include "video/codec/gop_cache.h"

#include <algorithm>
#include <condition_variable>
#include <list>
#include <mutex>
#include <unordered_map>
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
  metrics::Counter& hits;
  metrics::Counter& misses;
  metrics::Counter& coalesced;
  metrics::Counter& evictions;
  metrics::Gauge& bytes_in_use;
  metrics::Gauge& entries;
  metrics::Histogram& decode_seconds;

  static CacheMetrics& Get() {
    static CacheMetrics* instruments = [] {
      metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
      return new CacheMetrics{
          registry.GetCounter("vr_gop_cache_hits_total",
                              "GOP cache lookups satisfied by a ready entry"),
          registry.GetCounter(
              "vr_gop_cache_misses_total",
              "GOP cache lookups that decoded as the single-flight leader"),
          registry.GetCounter(
              "vr_gop_cache_coalesced_total",
              "GOP cache lookups that waited on another caller's decode"),
          registry.GetCounter("vr_gop_cache_evictions_total",
                              "Cached GOPs dropped to fit the byte budget"),
          registry.GetGauge("vr_gop_cache_bytes_in_use",
                            "Decoded bytes resident across all GOP caches"),
          registry.GetGauge("vr_gop_cache_entries",
                            "Ready GOP entries resident across all GOP caches"),
          registry.GetHistogram(
              "vr_gop_decode_seconds",
              "Wall-clock duration of single-flight GOP decodes",
              {0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0}),
      };
    }();
    return *instruments;
  }
};

struct Key {
  uint64_t identity = 0;
  int start = 0;

  bool operator==(const Key& other) const {
    return identity == other.identity && start == other.start;
  }
};

struct KeyHash {
  size_t operator()(const Key& key) const {
    uint64_t h = key.identity ^ (static_cast<uint64_t>(key.start) * 0x9e3779b97f4a7c15ull);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<size_t>(h);
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

struct GopCache::State {
  struct Entry {
    std::shared_ptr<const DecodedGop> value;  // Null while the decode is in flight.
    bool decoding = false;
    std::list<Key>::iterator lru_position;  // Valid only when `value` is set.
  };

  mutable std::mutex mutex;
  std::condition_variable ready;
  std::unordered_map<Key, Entry, KeyHash> entries;
  std::list<Key> lru;  // Front is the least recently used.
  int64_t bytes = 0;
  GopCacheStats stats;
};

GopCache::GopCache(const GopCacheOptions& options)
    : capacity_bytes_(std::max<int64_t>(options.capacity_bytes, 0)),
      state_(std::make_unique<State>()) {}

// Clearing takes this cache's share out of the process-wide gauges, which
// sum over every live cache.
GopCache::~GopCache() { Clear(); }

GopCache& GopCache::Global() {
  // Leaked intentionally: engine threads may outlive static destruction order.
  static GopCache* cache = new GopCache();
  return *cache;
}

void GopCache::EvictLocked() {
  State& state = *state_;
  while (state.bytes > capacity_bytes_ && !state.lru.empty()) {
    Key victim = state.lru.front();
    state.lru.pop_front();
    auto it = state.entries.find(victim);
    if (it != state.entries.end() && it->second.value != nullptr) {
      state.bytes -= it->second.value->bytes;
      CacheMetrics::Get().bytes_in_use.Add(
          -static_cast<double>(it->second.value->bytes));
      CacheMetrics::Get().entries.Add(-1.0);
      state.entries.erase(it);
      ++state.stats.evictions;
      CacheMetrics::Get().evictions.Increment();
    }
  }
}

StatusOr<std::shared_ptr<const DecodedGop>> GopCache::Get(
    const EncodedVideo& encoded, uint64_t identity, int start, int count,
    Outcome* outcome) {
  Key key{identity, start};
  State& state = *state_;

  bool waited = false;
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    for (;;) {
      auto it = state.entries.find(key);
      if (it == state.entries.end()) break;  // Cold (or a leader failed): lead.
      if (!it->second.decoding) {
        // Ready: refresh recency and share the entry.
        state.lru.splice(state.lru.end(), state.lru, it->second.lru_position);
        if (waited) {
          ++state.stats.coalesced;
          CacheMetrics::Get().coalesced.Increment();
          if (outcome) *outcome = Outcome::kCoalesced;
        } else {
          ++state.stats.hits;
          CacheMetrics::Get().hits.Increment();
          if (outcome) *outcome = Outcome::kHit;
        }
        return it->second.value;
      }
      waited = true;
      state.ready.wait(lock);
    }
    // Single-flight leader: publish the in-flight marker before decoding.
    state.entries[key].decoding = true;
    ++state.stats.misses;
    CacheMetrics::Get().misses.Increment();
    if (outcome) *outcome = Outcome::kMiss;
  }

  // Decode outside the lock; other keys proceed freely. Serial decode: the
  // GOP itself is the unit of parallelism here.
  Stopwatch decode_watch;
  StatusOr<Video> decoded = [&] {
    TRACE_SPAN("gop_decode");
    return DecodeRange(encoded, start, count, /*threads=*/1);
  }();
  CacheMetrics::Get().decode_seconds.Observe(decode_watch.ElapsedSeconds());

  std::unique_lock<std::mutex> lock(state.mutex);
  if (!decoded.ok()) {
    state.entries.erase(key);
    state.ready.notify_all();
    return decoded.status();
  }

  auto gop = std::make_shared<DecodedGop>();
  gop->first_frame = start;
  gop->frames = std::move(decoded->frames);
  gop->bytes = DecodedFrameBytes(encoded.width, encoded.height) *
               static_cast<int64_t>(gop->frames.size());

  auto it = state.entries.find(key);
  if (it == state.entries.end()) {
    // Clear() ran mid-decode; hand the result to the caller uncached.
    state.ready.notify_all();
    return std::shared_ptr<const DecodedGop>(gop);
  }
  it->second.decoding = false;
  it->second.value = gop;
  it->second.lru_position = state.lru.insert(state.lru.end(), key);
  state.bytes += gop->bytes;
  CacheMetrics::Get().bytes_in_use.Add(static_cast<double>(gop->bytes));
  CacheMetrics::Get().entries.Add(1.0);
  EvictLocked();
  state.ready.notify_all();
  return std::shared_ptr<const DecodedGop>(gop);
}

void GopCache::Clear() {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  // In-flight decodes stay: their leaders complete (uncached if the entry
  // vanished). Only ready entries are dropped.
  for (auto it = state.entries.begin(); it != state.entries.end();) {
    if (it->second.decoding) {
      ++it;
    } else {
      state.lru.erase(it->second.lru_position);
      state.bytes -= it->second.value->bytes;
      CacheMetrics::Get().bytes_in_use.Add(
          -static_cast<double>(it->second.value->bytes));
      CacheMetrics::Get().entries.Add(-1.0);
      it = state.entries.erase(it);
    }
  }
}

GopCacheStats GopCache::stats() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  GopCacheStats total = state_->stats;
  total.bytes_in_use = state_->bytes;
  total.entries = static_cast<int64_t>(state_->entries.size());
  return total;
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
