#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "video/codec/codec.h"
#include "video/codec/gop_cache.h"
#include "video/metrics.h"

namespace visualroad::video::codec {
namespace {

Video MakeVideo(int w, int h, int frames, uint64_t seed) {
  Video v;
  v.fps = 15;
  for (int f = 0; f < frames; ++f) {
    Frame frame(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        double value =
            128 + 80 * std::sin((x + f * 3 + static_cast<int>(seed)) * 0.13) *
                      std::cos((y + f) * 0.09);
        frame.SetPixel(x, y, static_cast<uint8_t>(value), 120, 130);
      }
    }
    v.frames.push_back(std::move(frame));
  }
  return v;
}

EncodedVideo EncodeOrDie(const Video& video, int gop_length) {
  EncoderConfig config;
  config.qp = 24;
  config.gop_length = gop_length;
  auto encoded = Encode(video, config);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  return *encoded;
}

TEST(GopCacheTest, StreamIdentityDistinguishesContent) {
  EncodedVideo a = EncodeOrDie(MakeVideo(32, 32, 4, 1), 4);
  EncodedVideo b = EncodeOrDie(MakeVideo(32, 32, 4, 2), 4);
  EXPECT_EQ(StreamIdentity(a), StreamIdentity(a));
  EXPECT_NE(StreamIdentity(a), StreamIdentity(b));
  // A single payload byte must change the identity.
  EncodedVideo c = a;
  ASSERT_FALSE(c.frames[1].data.empty());
  c.frames[1].data[0] ^= 1;
  EXPECT_NE(StreamIdentity(a), StreamIdentity(c));
}

TEST(GopCacheTest, GopStartsAreKeyframes) {
  EncodedVideo encoded = EncodeOrDie(MakeVideo(32, 32, 10, 3), 4);
  std::vector<int> starts = GopStarts(encoded);
  ASSERT_EQ(starts.size(), 3u);  // Frames 0, 4, 8.
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 4);
  EXPECT_EQ(starts[2], 8);
}

TEST(GopCacheTest, CachedDecodeMatchesDecode) {
  EncodedVideo encoded = EncodeOrDie(MakeVideo(48, 32, 11, 4), 4);
  auto plain = Decode(encoded);
  ASSERT_TRUE(plain.ok());
  GopCache cache;
  GopCacheCounters counters;
  auto cached = CachedDecode(encoded, cache, &counters);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ASSERT_EQ(cached->FrameCount(), plain->FrameCount());
  for (int i = 0; i < plain->FrameCount(); ++i) {
    EXPECT_TRUE(cached->frames[static_cast<size_t>(i)].SameContentAs(
        plain->frames[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(counters.misses.load(), 3);  // One per GOP.
  EXPECT_EQ(counters.hits.load(), 0);
  EXPECT_EQ(counters.frames_decoded.load(), 11);

  // The second pass is all hits — and still correct.
  auto again = CachedDecode(encoded, cache, &counters);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(counters.hits.load(), 3);
  EXPECT_EQ(counters.misses.load(), 3);
  GopCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.entries, 3);
  EXPECT_GT(stats.bytes_in_use, 0);
}

TEST(GopCacheTest, CachedDecodeRangeTrimsToWindow) {
  EncodedVideo encoded = EncodeOrDie(MakeVideo(48, 32, 12, 5), 4);
  auto full = Decode(encoded);
  ASSERT_TRUE(full.ok());
  GopCache cache;
  // [3, 9) spans GOPs starting at 0, 4, and 8.
  auto range = CachedDecodeRange(encoded, 3, 6, cache);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  ASSERT_EQ(range->FrameCount(), 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(range->frames[static_cast<size_t>(i)].SameContentAs(
        full->frames[static_cast<size_t>(3 + i)]));
  }
  EXPECT_EQ(cache.stats().entries, 3);
  EXPECT_FALSE(CachedDecodeRange(encoded, 8, 5, cache).ok());
  EXPECT_FALSE(CachedDecodeRange(encoded, -1, 2, cache).ok());
}

TEST(GopCacheTest, EvictsLeastRecentlyUsedFirst) {
  EncodedVideo encoded = EncodeOrDie(MakeVideo(32, 32, 12, 6), 4);
  uint64_t identity = StreamIdentity(encoded);
  // Capacity fits exactly two decoded 4-frame GOPs of 32x32 YUV420 (1536
  // bytes per frame).
  GopCacheOptions options;
  options.capacity_bytes = 2 * 4 * 1536;
  GopCache cache(options);

  ASSERT_TRUE(cache.Get(encoded, identity, 0, 4).ok());
  ASSERT_TRUE(cache.Get(encoded, identity, 4, 4).ok());
  EXPECT_EQ(cache.stats().entries, 2);
  // Touch GOP 0 so GOP 4 becomes the LRU victim.
  GopCache::Outcome outcome;
  ASSERT_TRUE(cache.Get(encoded, identity, 0, 4, &outcome).ok());
  EXPECT_EQ(outcome, GopCache::Outcome::kHit);
  // Inserting GOP 8 evicts GOP 4, not GOP 0.
  ASSERT_TRUE(cache.Get(encoded, identity, 8, 4).ok());
  EXPECT_EQ(cache.stats().evictions, 1);
  ASSERT_TRUE(cache.Get(encoded, identity, 0, 4, &outcome).ok());
  EXPECT_EQ(outcome, GopCache::Outcome::kHit) << "LRU victim was wrong";
  ASSERT_TRUE(cache.Get(encoded, identity, 4, 4, &outcome).ok());
  EXPECT_EQ(outcome, GopCache::Outcome::kMiss) << "GOP 4 should have been evicted";
}

TEST(GopCacheTest, ClearDropsEntriesAndBytes) {
  EncodedVideo encoded = EncodeOrDie(MakeVideo(32, 32, 8, 7), 4);
  GopCache cache;
  ASSERT_TRUE(CachedDecode(encoded, cache).ok());
  EXPECT_GT(cache.stats().entries, 0);
  cache.Clear();
  GopCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes_in_use, 0);
  // Re-decode works and misses again.
  GopCacheCounters counters;
  ASSERT_TRUE(CachedDecode(encoded, cache, &counters).ok());
  EXPECT_EQ(counters.misses.load(), 2);
}

TEST(GopCacheTest, DestroyedCacheLeavesTheResidentGauges) {
  // The resident gauges sum over live caches: destroying one subtracts
  // exactly its share.
  auto& registry = metrics::MetricsRegistry::Global();
  metrics::Gauge& bytes = registry.GetGauge("vr_gop_cache_bytes_in_use", "");
  metrics::Gauge& entries = registry.GetGauge("vr_gop_cache_entries", "");
  const double bytes_before = bytes.Value();
  const double entries_before = entries.Value();
  {
    GopCache cache;
    ASSERT_TRUE(CachedDecode(EncodeOrDie(MakeVideo(32, 32, 8, 9), 4), cache).ok());
    EXPECT_EQ(bytes.Value() - bytes_before,
              static_cast<double>(cache.stats().bytes_in_use));
    EXPECT_EQ(entries.Value() - entries_before, 2.0);
  }
  EXPECT_EQ(bytes.Value(), bytes_before);
  EXPECT_EQ(entries.Value(), entries_before);
}

TEST(GopCacheTest, KeepsAGopAsLargeAsTheWholeBudget) {
  // The budget is the whole cache's, not a share of it: a GOP that fits the
  // capacity (here exactly) stays resident, and the second read hits.
  EncodedVideo encoded = EncodeOrDie(MakeVideo(32, 32, 4, 8), 4);
  uint64_t identity = StreamIdentity(encoded);
  GopCacheOptions options;
  options.capacity_bytes = 4 * 1536;
  GopCache cache(options);
  GopCache::Outcome outcome;
  ASSERT_TRUE(cache.Get(encoded, identity, 0, 4, &outcome).ok());
  EXPECT_EQ(outcome, GopCache::Outcome::kMiss);
  ASSERT_TRUE(cache.Get(encoded, identity, 0, 4, &outcome).ok());
  EXPECT_EQ(outcome, GopCache::Outcome::kHit);
  GopCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes_in_use, cache.capacity_bytes());
}

TEST(GopCacheTest, SingleFlightCoalescesConcurrentDecodes) {
  EncodedVideo encoded = EncodeOrDie(MakeVideo(64, 48, 6, 9), 6);
  uint64_t identity = StreamIdentity(encoded);
  constexpr int kThreads = 8;
  GopCache cache;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto gop = cache.Get(encoded, identity, 0, 6);
      if (!gop.ok() || (*gop)->frames.size() != 6u) ++failures;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  GopCacheStats stats = cache.stats();
  // Exactly one thread decoded; everyone else was served the in-flight or
  // cached result.
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1);
}

TEST(GopCacheTest, ConcurrentMixedWorkloadStaysConsistent) {
  // Stress: many threads, several streams, tiny capacity (constant eviction
  // churn), interleaved Clear calls. Run under TSan via the tsan preset.
  std::vector<EncodedVideo> streams;
  std::vector<Video> plains;
  for (int s = 0; s < 3; ++s) {
    streams.push_back(
        EncodeOrDie(MakeVideo(32, 32, 8, 20 + static_cast<uint64_t>(s)), 4));
    auto plain = Decode(streams.back());
    ASSERT_TRUE(plain.ok());
    plains.push_back(*plain);
  }
  GopCacheOptions options;
  options.capacity_bytes = 3 * 4 * 1536;  // Fits ~3 GOPs; constant pressure.
  GopCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kIterations = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        size_t s = static_cast<size_t>((t + i) % 3);
        if (t == 0 && i % 10 == 9) cache.Clear();
        auto decoded = CachedDecode(streams[s], cache);
        if (!decoded.ok() ||
            decoded->FrameCount() != plains[s].FrameCount()) {
          ++mismatches;
          continue;
        }
        // Spot-check one frame per iteration to keep the stress fast.
        int f = (t * 7 + i) % decoded->FrameCount();
        if (!decoded->frames[static_cast<size_t>(f)].SameContentAs(
                plains[s].frames[static_cast<size_t>(f)])) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  GopCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.coalesced + stats.misses,
            static_cast<int64_t>(kThreads) * kIterations * 2);
  EXPECT_LE(stats.bytes_in_use, cache.capacity_bytes());
}

}  // namespace
}  // namespace visualroad::video::codec
