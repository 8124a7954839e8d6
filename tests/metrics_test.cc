#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "driver/datasets.h"
#include "queries/semantic_cache.h"
#include "driver/vcd.h"
#include "storage/vss.h"
#include "systems/video_source.h"
#include "video/codec/codec.h"
#include "video/codec/gop_cache.h"

namespace visualroad {
namespace {

using metrics::Counter;
using metrics::FormatMetricValue;
using metrics::Gauge;
using metrics::Histogram;
using metrics::MetricsRegistry;

// --- Instruments ---

TEST(MetricsTest, GetIsGetOrCreate) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("vr_test_ops_total", "Ops", "kind=\"read\"");
  Counter& b = registry.GetCounter("vr_test_ops_total", "Ops", "kind=\"read\"");
  Counter& c = registry.GetCounter("vr_test_ops_total", "Ops", "kind=\"write\"");
  EXPECT_EQ(&a, &b);      // Same (name, labels) -> same instrument.
  EXPECT_NE(&a, &c);      // Another label set is another instrument.
  a.Increment(2);
  EXPECT_DOUBLE_EQ(b.Value(), 2.0);
  EXPECT_DOUBLE_EQ(c.Value(), 0.0);
}

TEST(MetricsTest, CounterConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("vr_test_total", "Test");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Integer counts are exact in a double up to 2^53.
  EXPECT_DOUBLE_EQ(counter.Value(), 1.0 * kThreads * kPerThread);
}

TEST(MetricsTest, GaugeSetAddAndHighWaterMark) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(5);
  gauge.Add(-12);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.0);
  gauge.SetMax(2);  // Lower: no effect.
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.0);
  gauge.SetMax(7);
  EXPECT_DOUBLE_EQ(gauge.Value(), 7.0);
}

TEST(MetricsTest, HistogramBucketsAreCumulative) {
  Histogram histogram({0.25, 1.0, 4.0});
  histogram.Observe(0.125);
  histogram.Observe(0.5);
  histogram.Observe(0.5);
  histogram.Observe(100.0);
  EXPECT_EQ(histogram.CumulativeCount(0), 1);  // <= 0.25
  EXPECT_EQ(histogram.CumulativeCount(1), 3);  // <= 1.0
  EXPECT_EQ(histogram.CumulativeCount(2), 3);  // <= 4.0
  EXPECT_EQ(histogram.CumulativeCount(3), 4);  // +Inf
  EXPECT_EQ(histogram.TotalCount(), 4);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 101.125);
}

TEST(MetricsTest, FormatMetricValueIntegersHaveNoDecimalPoint) {
  EXPECT_EQ(FormatMetricValue(0), "0");
  EXPECT_EQ(FormatMetricValue(42), "42");
  EXPECT_EQ(FormatMetricValue(-3), "-3");
  EXPECT_EQ(FormatMetricValue(1e6), "1000000");
  EXPECT_EQ(FormatMetricValue(0.25), "0.25");
  EXPECT_EQ(FormatMetricValue(1.5), "1.5");
}

// --- Prometheus exposition ---

TEST(MetricsTest, PrometheusTextMatchesGolden) {
  MetricsRegistry registry;
  registry.GetCounter("vr_test_ops_total", "Operations", "kind=\"read\"")
      .Increment(3);
  registry.GetCounter("vr_test_ops_total", "Operations", "kind=\"write\"")
      .Increment();
  registry.GetGauge("vr_test_bytes_in_use", "Resident bytes").Set(1024);
  Histogram& histogram = registry.GetHistogram(
      "vr_test_latency_seconds", "Latency", {0.25, 1.0});
  histogram.Observe(0.125);  // Dyadic values keep the sum exact.
  histogram.Observe(0.5);
  histogram.Observe(5.0);

  // Families and label sets export in lexicographic order, so the text is
  // deterministic and comparable against a golden string.
  const std::string expected =
      "# HELP vr_test_bytes_in_use Resident bytes\n"
      "# TYPE vr_test_bytes_in_use gauge\n"
      "vr_test_bytes_in_use 1024\n"
      "# HELP vr_test_latency_seconds Latency\n"
      "# TYPE vr_test_latency_seconds histogram\n"
      "vr_test_latency_seconds_bucket{le=\"0.25\"} 1\n"
      "vr_test_latency_seconds_bucket{le=\"1\"} 2\n"
      "vr_test_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "vr_test_latency_seconds_sum 5.625\n"
      "vr_test_latency_seconds_count 3\n"
      "# HELP vr_test_ops_total Operations\n"
      "# TYPE vr_test_ops_total counter\n"
      "vr_test_ops_total{kind=\"read\"} 3\n"
      "vr_test_ops_total{kind=\"write\"} 1\n";
  EXPECT_EQ(registry.PrometheusText(), expected);

  std::vector<std::string> names = registry.MetricNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "vr_test_bytes_in_use");
  EXPECT_EQ(names[1], "vr_test_latency_seconds");
  EXPECT_EQ(names[2], "vr_test_ops_total");
}

TEST(MetricsTest, GlobalRegistryIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

// --- Registry/docs sync ---

video::codec::EncodedVideo EncodeTestVideo(int frames, int gop_length) {
  video::Video video;
  video.fps = 15;
  for (int f = 0; f < frames; ++f) {
    video::Frame frame(32, 32);
    for (int y = 0; y < 32; ++y) {
      for (int x = 0; x < 32; ++x) {
        double value = 128 + 80 * std::sin((x + f * 3) * 0.13) * std::cos(y * 0.09);
        frame.SetPixel(x, y, static_cast<uint8_t>(value), 120, 130);
      }
    }
    video.frames.push_back(std::move(frame));
  }
  video::codec::EncoderConfig config;
  config.qp = 24;
  config.gop_length = gop_length;
  auto encoded = video::codec::Encode(video, config);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  return *encoded;
}

/// Every metric name registered in the Global() registry must be documented
/// in docs/OBSERVABILITY.md. Registration is lazy (a metric exists once its
/// subsystem first reports), so the test first exercises every instrumented
/// subsystem — pools, codec, GOP cache, the online feed, all three engines,
/// generator, driver — then walks MetricNames().
TEST(MetricsDocsSyncTest, EveryRegisteredMetricIsDocumented) {
  // Thread pool (vr_pool_*).
  {
    ThreadPool pool(2);
    for (int i = 0; i < 4; ++i) pool.Submit([] {});
    ASSERT_TRUE(pool.Wait().ok());
  }

  // Codec encode/decode including mid-GOP warmup, via the GOP cache
  // (vr_codec_*, vr_gop_cache_*, vr_gop_decode_seconds).
  {
    video::codec::EncodedVideo encoded = EncodeTestVideo(/*frames=*/8,
                                                         /*gop_length=*/4);
    video::codec::GopCache cache;
    uint64_t identity = video::codec::StreamIdentity(encoded);
    auto miss = cache.Get(encoded, identity, 0, 4);
    ASSERT_TRUE(miss.ok()) << miss.status().ToString();
    auto hit = cache.Get(encoded, identity, 0, 4);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    // Decode starting mid-GOP so warmup frames are consumed.
    auto warm = video::codec::DecodeRange(encoded, 6, 2);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }

  // Online feed concealment (vr_rtp_frames_concealed_total): a channel
  // that loses every frame after the first.
  {
    video::codec::EncodedVideo encoded = EncodeTestVideo(/*frames=*/2,
                                                         /*gop_length=*/2);
    fault::FaultProfile profile;
    profile.prob(fault::Site::kRtpLoss) = 1.0;
    fault::FaultInjector injector(profile, /*seed=*/1);
    systems::VideoSource source =
        systems::VideoSource::Online(&encoded, 10000.0, &injector);
    while (!source.AtEnd()) ASSERT_TRUE(source.Next().ok());
    EXPECT_EQ(source.frames_degraded(), 1);
  }

  // Generator, driver, and engine metrics (vr_generator_*, vr_driver_*,
  // vr_engine_*): one tiny end-to-end Q1 batch per engine.
  {
    sim::CityConfig config;
    config.scale_factor = 1;
    config.width = 96;
    config.height = 54;
    config.duration_seconds = 1.0;
    config.fps = 15;
    config.seed = 77;
    auto dataset = driver::PrepareDataset(config);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

    driver::VcdOptions vcd_options;
    vcd_options.validate = false;
    vcd_options.batch_size_override = 1;
    vcd_options.output_mode = systems::OutputMode::kStreaming;
    driver::VisualCityDriver vcd(*dataset, vcd_options);
    systems::EngineOptions engine_options;
    engine_options.threads = 2;
    std::unique_ptr<systems::Vdbms> engines[3] = {
        systems::MakeBatchEngine(engine_options),
        systems::MakePipelineEngine(engine_options),
        systems::MakeCascadeEngine(engine_options)};
    for (auto& engine : engines) {
      auto result = vcd.RunQueryBatch(*engine, queries::QueryId::kQ1);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      engine->Quiesce();
    }
  }

  // Storage service metrics (vr_store_*, vr_vss_*): ingest into a sharded
  // store, range-read, and read whole streams.
  {
    namespace fs = std::filesystem;
    std::string root = (fs::temp_directory_path() / "vr_metrics_vss").string();
    storage::StoreOptions store_options;
    store_options.root = root;
    store_options.block_size = 512;
    store_options.metrics_label = "metrics_test";
    auto store = storage::ShardedStore::Open(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    storage::VssOptions vss_options;
    vss_options.store = &*store;
    vss_options.resident_bytes = 0;
    auto vss = storage::VideoStorageService::Open(vss_options);
    ASSERT_TRUE(vss.ok()) << vss.status().ToString();
    video::codec::EncodedVideo encoded = EncodeTestVideo(/*frames=*/8,
                                                         /*gop_length=*/4);
    ASSERT_TRUE((*vss)->Ingest("cam", encoded).ok());
    ASSERT_TRUE((*vss)->ReadRange("cam", 5, 2).ok());
    ASSERT_TRUE((*vss)->ReadVideo("cam").ok());
    // A degraded datanode exercises the fail-over counter.
    ASSERT_TRUE(store->DisableNode(0).ok());
    (*vss)->DropResident();
    auto read = (*vss)->ReadVideo("cam");
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    std::error_code ec;
    fs::remove_all(root, ec);
  }

  // Semantic result store (vr_semcache_*): one insert and one lookup
  // registers the whole instrument family.
  {
    queries::SemanticCache semcache;
    queries::SemanticEntry entry;
    entry.key.stream = 0x5e;
    entry.key.model = "metrics-test";
    entry.detections.resize(4);
    entry.RecomputeBytes();
    semcache.Insert(std::move(entry));
    EXPECT_NE(semcache.Peek({0x5e, "metrics-test", 0.0}), nullptr);
  }

  std::ifstream docs(std::string(VISUALROAD_SOURCE_DIR) +
                     "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(docs.good()) << "docs/OBSERVABILITY.md missing";
  std::stringstream buffer;
  buffer << docs.rdbuf();
  const std::string text = buffer.str();

  std::vector<std::string> undocumented;
  for (const std::string& name : MetricsRegistry::Global().MetricNames()) {
    if (text.find("`" + name + "`") == std::string::npos) {
      undocumented.push_back(name);
    }
  }
  std::string joined;
  for (const std::string& name : undocumented) joined += name + " ";
  EXPECT_TRUE(undocumented.empty())
      << "metrics registered but not documented in docs/OBSERVABILITY.md: "
      << joined;
}

}  // namespace
}  // namespace visualroad
