// Tests for the semantic result store (src/queries/semantic_cache.h) and the
// measured-selectivity planner (src/queries/plan.h), plus the engine-level
// guarantees the pair provides: a warm cache answers a repeated Q2(c) with
// zero decoder invocations and byte-identical output, and cached detections
// are shared across queries.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/serialize.h"
#include "driver/datasets.h"
#include "queries/plan.h"
#include "queries/semantic_cache.h"
#include "simulation/recorded_corpus.h"
#include "storage/sharded_store.h"
#include "systems/vdbms.h"
#include "video/codec/gop_cache.h"

namespace visualroad::queries {
namespace {

namespace fs = std::filesystem;

SemanticKey TestKey(double threshold = 0.0, const std::string& model = "model-a") {
  SemanticKey key;
  key.stream = 0x1234;
  key.model = model;
  key.threshold = threshold;
  return key;
}

// One synthetic detection per frame whose box encodes the frame number, so
// frames are checkable.
SemanticEntry MakeEntry(const SemanticKey& key, int frames) {
  SemanticEntry entry;
  entry.key = key;
  entry.width = 64;
  entry.height = 36;
  entry.fps = 15.0;
  for (int f = 0; f < frames; ++f) {
    vision::Detection det;
    det.box = RectI{f, 0, f + 1, 1};
    det.score = 0.9;
    entry.detections.push_back({det});
  }
  entry.RecomputeBytes();
  return entry;
}

// A lookup that counts a hit and refreshes recency, and fails the test if
// it has to compute.
std::shared_ptr<const SemanticEntry> Touch(SemanticCache& cache,
                                           const SemanticKey& key) {
  auto result = cache.GetOrCompute(key, []() -> StatusOr<SemanticEntry> {
    ADD_FAILURE() << "expected a ready entry";
    return Status::NotFound("not cached");
  });
  return result.ok() ? *result : nullptr;
}

// --- Registry gauges ---

TEST(SemanticCacheTest, ResidentGaugesSumOverLiveInstances) {
  // Several caches may live in one process (engines without an injected
  // cache own a private one), so the resident gauges are the sum over live
  // instances, and a destroyed cache takes its share with it.
  auto& registry = metrics::MetricsRegistry::Global();
  metrics::Gauge& bytes = registry.GetGauge("vr_semcache_bytes_in_use", "");
  metrics::Gauge& entries = registry.GetGauge("vr_semcache_entries", "");
  const double bytes_before = bytes.Value();
  const double entries_before = entries.Value();

  auto first = std::make_unique<SemanticCache>();
  SemanticCache second;
  first->Insert(MakeEntry(TestKey(), 10));
  second.Insert(MakeEntry(TestKey(), 30));
  const int64_t first_bytes = first->stats().bytes_in_use;
  const int64_t second_bytes = second.stats().bytes_in_use;
  ASSERT_GT(first_bytes, 0);
  ASSERT_GT(second_bytes, first_bytes);
  EXPECT_EQ(bytes.Value() - bytes_before,
            static_cast<double>(first_bytes + second_bytes));
  EXPECT_EQ(entries.Value() - entries_before, 2.0);

  first.reset();
  EXPECT_EQ(bytes.Value() - bytes_before, static_cast<double>(second_bytes));
  EXPECT_EQ(entries.Value() - entries_before, 1.0);
  second.Clear();
  EXPECT_EQ(bytes.Value(), bytes_before);
  EXPECT_EQ(entries.Value(), entries_before);
}

// --- Key discrimination ---

TEST(SemanticCacheTest, ThresholdMismatchMissesInBothDirections) {
  SemanticCache cache;
  cache.Insert(MakeEntry(TestKey(0.25), 60));
  // A stricter lookup must not reuse a looser materialization...
  EXPECT_EQ(cache.Peek(TestKey(0.50)), nullptr);
  // ...and a looser lookup must not reuse a stricter one.
  cache.Insert(MakeEntry(TestKey(0.50), 60));
  EXPECT_EQ(cache.Peek(TestKey(0.10)), nullptr);
  // Exact threshold still matches.
  EXPECT_NE(cache.Peek(TestKey(0.25)), nullptr);
  EXPECT_NE(cache.Peek(TestKey(0.50)), nullptr);
}

TEST(SemanticCacheTest, ModelVersionBumpInvalidatesOldEntries) {
  vision::DetectorOptions options;
  std::string v1 = ModelFingerprint(options, "miniyolo", /*version=*/1);
  std::string v2 = ModelFingerprint(options, "miniyolo", /*version=*/2);
  ASSERT_NE(v1, v2);

  SemanticCache cache;
  cache.Insert(MakeEntry(TestKey(0.0, v1), 60));
  // Redeploying the model (version bump) must never serve v1's outputs.
  EXPECT_EQ(cache.Peek(TestKey(0.0, v2)), nullptr);
  EXPECT_NE(cache.Peek(TestKey(0.0, v1)), nullptr);
}

TEST(SemanticCacheTest, FingerprintCoversDetectorConfiguration) {
  vision::DetectorOptions base;
  vision::DetectorOptions resized = base;
  resized.input_size = 224;
  EXPECT_NE(ModelFingerprint(base, "miniyolo"), ModelFingerprint(resized, "miniyolo"));
  EXPECT_NE(ModelFingerprint(base, "miniyolo"), ModelFingerprint(base, "cascade48+96"));
}

// --- Single-flight population ---

TEST(SemanticCacheTest, SingleFlightRunsComputeOnce) {
  SemanticCache cache;
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<SemanticCache::Outcome> outcomes(kThreads);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        auto result = cache.GetOrCompute(
            TestKey(),
            [&]() -> StatusOr<SemanticEntry> {
              ++computes;
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
              return MakeEntry(TestKey(), 30);
            },
            &outcomes[i]);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ((*result)->detections.size(), 30u);
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(computes.load(), 1);
  int misses = 0;
  for (auto outcome : outcomes) {
    if (outcome == SemanticCache::Outcome::kMiss) ++misses;
  }
  EXPECT_EQ(misses, 1);
}

// --- Re-insert ---

TEST(SemanticCacheTest, ReinsertUnderTheSameKeyReplacesTheEntry) {
  SemanticEntry a = MakeEntry(TestKey(0.0, "model-a"), 60);
  SemanticEntry b = MakeEntry(TestKey(0.0, "model-b"), 60);
  SemanticEntry again = MakeEntry(TestKey(0.0, "model-a"), 10);
  SemanticCacheOptions options;
  options.capacity_bytes = a.bytes + b.bytes;
  SemanticCache cache(options);
  cache.Insert(a);
  cache.Insert(b);
  cache.Insert(again);  // Replaces model-a's entry and makes it the newest.
  SemanticCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.insertions, 3);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.bytes_in_use, again.bytes + b.bytes);
  auto entry = cache.Peek(TestKey(0.0, "model-a"));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->detections.size(), 10u);
  // The re-insert refreshed recency: model-b is now the LRU victim.
  cache.Insert(MakeEntry(TestKey(0.0, "model-c"), 60));
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_NE(cache.Peek(TestKey(0.0, "model-a")), nullptr);
  EXPECT_EQ(cache.Peek(TestKey(0.0, "model-b")), nullptr);
}

// --- Byte budget / LRU ---

TEST(SemanticCacheTest, LeastRecentlyUsedEntryIsEvictedOverBudget) {
  SemanticEntry a = MakeEntry(TestKey(0.0, "model-a"), 50);
  SemanticEntry b = MakeEntry(TestKey(0.0, "model-b"), 50);
  SemanticEntry c = MakeEntry(TestKey(0.0, "model-c"), 50);

  SemanticCacheOptions options;
  options.capacity_bytes = a.bytes + b.bytes + c.bytes / 2;
  SemanticCache cache(options);
  cache.Insert(a);
  cache.Insert(b);
  // Touch a so b becomes the LRU victim.
  EXPECT_NE(Touch(cache, TestKey(0.0, "model-a")), nullptr);
  cache.Insert(c);
  EXPECT_GE(cache.stats().evictions, 1);
  EXPECT_NE(cache.Peek(TestKey(0.0, "model-a")), nullptr);
  EXPECT_EQ(cache.Peek(TestKey(0.0, "model-b")), nullptr);
  EXPECT_NE(cache.Peek(TestKey(0.0, "model-c")), nullptr);
}

// --- Persistence ---

TEST(SemanticCacheTest, PersistAndLoadRoundTripThroughShardedStore) {
  std::string root =
      (fs::temp_directory_path() / "vr_semcache_persist_test").string();
  fs::remove_all(root);
  storage::StoreOptions store_options;
  store_options.root = root;
  auto store = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  SemanticCacheOptions options;
  options.store = &*store;
  {
    SemanticCache cache(options);
    cache.Insert(MakeEntry(TestKey(0.25), 60));
    cache.Insert(MakeEntry(TestKey(0.0, "model-b"), 30));
    ASSERT_TRUE(cache.Persist().ok());
    EXPECT_EQ(cache.stats().persisted, 2);
  }
  // A file another layout version wrote is skipped, not an error; an older
  // version's file is deleted (nothing reads it again), a newer one is kept.
  for (uint32_t version : {1u, 3u}) {
    ByteWriter other;
    other.U32(0x43535256);  // "VRSC".
    other.U32(version);
    other.U64(7);
    ASSERT_TRUE(
        store->Put("semcache/v" + std::to_string(version), other.bytes()).ok());
  }
  SemanticCache recovered(options);
  ASSERT_TRUE(recovered.LoadPersisted().ok());
  EXPECT_EQ(recovered.stats().loaded, 2);
  EXPECT_FALSE(store->Get("semcache/v1").ok());
  EXPECT_TRUE(store->Get("semcache/v3").ok());
  auto hit = Touch(recovered, TestKey(0.25));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->width, 64);
  EXPECT_EQ(hit->fps, 15.0);
  ASSERT_EQ(hit->detections.size(), 60u);
  EXPECT_EQ(hit->detections[5][0].box.x0, 5);
  EXPECT_DOUBLE_EQ(hit->detections[5][0].score, 0.9);
  auto other = Touch(recovered, TestKey(0.0, "model-b"));
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->detections.size(), 30u);
  fs::remove_all(root);
}

TEST(SemanticCacheTest, PersistedCountsBeyondFileAreDataLoss) {
  std::string root =
      (fs::temp_directory_path() / "vr_semcache_count_test").string();
  fs::remove_all(root);
  storage::StoreOptions store_options;
  store_options.root = root;
  auto store = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  SemanticCacheOptions options;
  options.store = &*store;

  // An entry (magic "VRSC", version 2) whose detection list claims `frames`
  // frames.
  auto header = [](uint32_t frames) {
    ByteWriter writer;
    writer.U32(0x43535256);
    writer.U32(2);
    writer.U64(7);
    writer.Str("");
    writer.F64(0.25);
    writer.I32(64);
    writer.I32(36);
    writer.F64(15.0);
    writer.U32(frames);
    return writer;
  };
  ByteWriter frames = header(1u << 24);  // 48 bytes claiming 2^24 frames.
  ByteWriter detections = header(1);  // One frame claiming 2^20-1 boxes.
  detections.U32((1u << 20) - 1);
  ASSERT_EQ(frames.bytes().size(), 48u);
  for (const ByteWriter* file : {&frames, &detections}) {
    ASSERT_TRUE(store->Put("semcache/claims", file->bytes()).ok());
    SemanticCache cache(options);
    Status loaded = cache.LoadPersisted();
    EXPECT_EQ(loaded.code(), StatusCode::kDataLoss) << loaded.ToString();
  }
  fs::remove_all(root);
}

TEST(SemanticCacheTest, PersistedHeaderCutShortIsDataLoss) {
  std::string root =
      (fs::temp_directory_path() / "vr_semcache_header_test").string();
  fs::remove_all(root);
  storage::StoreOptions store_options;
  store_options.root = root;
  auto store = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  SemanticCacheOptions options;
  options.store = &*store;

  // The 8-byte header (magic "VRSC", version 2) cut inside the magic, before
  // the version and inside it: a version not fully read is corrupt, not
  // another layout's file to skip.
  ByteWriter header;
  header.U32(0x43535256);
  header.U32(2);
  for (size_t size : {size_t{2}, size_t{4}, size_t{6}}) {
    std::vector<uint8_t> bytes = header.bytes();
    bytes.resize(size);
    ASSERT_TRUE(store->Put("semcache/cut", bytes).ok());
    SemanticCache cache(options);
    Status loaded = cache.LoadPersisted();
    EXPECT_EQ(loaded.code(), StatusCode::kDataLoss) << size << ": " << loaded.ToString();
    EXPECT_TRUE(store->Get("semcache/cut").ok());
  }
  fs::remove_all(root);
}

// --- Peek is side-effect free ---

TEST(SemanticCacheTest, PeekMovesNoStatsAndKeepsLruOrder) {
  SemanticEntry a = MakeEntry(TestKey(0.0, "model-a"), 60);
  SemanticEntry b = MakeEntry(TestKey(0.0, "model-b"), 60);
  SemanticCacheOptions options;
  options.capacity_bytes = a.bytes + b.bytes;
  SemanticCache cache(options);
  cache.Insert(a);
  cache.Insert(b);
  SemanticCacheStats before = cache.stats();
  EXPECT_NE(cache.Peek(TestKey(0.0, "model-a")), nullptr);
  EXPECT_EQ(cache.Peek(TestKey(0.0, "model-c")), nullptr);
  SemanticCacheStats after = cache.stats();
  EXPECT_EQ(before.hits, after.hits);
  EXPECT_EQ(before.misses, after.misses);
  // Peeking at a did not make it recent: it is still the LRU victim.
  cache.Insert(MakeEntry(TestKey(0.0, "model-c"), 10));
  EXPECT_EQ(cache.Peek(TestKey(0.0, "model-a")), nullptr);
  EXPECT_NE(cache.Peek(TestKey(0.0, "model-b")), nullptr);
}

// --- Planner ---

class PlannerTest : public ::testing::Test {
 protected:
  PlanContext Context() {
    PlanContext context;
    context.meta.identity = 0x1234;
    context.meta.frame_count = 150;
    context.meta.width = 64;
    context.meta.height = 36;
    context.meta.fps = 15.0;
    return context;
  }

  QueryInstance Q2c() {
    QueryInstance instance;
    instance.id = QueryId::kQ2c;
    instance.object_class = sim::ObjectClass::kVehicle;
    return instance;
  }
};

TEST_F(PlannerTest, UnmeasuredStagesKeepStaticOrder) {
  PlanContext context = Context();
  context.stages = {"diff", "cheap", "full"};
  QueryPlan plan = PlanQuery(Q2c(), context);
  ASSERT_EQ(plan.stages.size(), 3u);
  EXPECT_EQ(plan.stages[0].name, "diff");
  EXPECT_EQ(plan.stages[1].name, "cheap");
  EXPECT_EQ(plan.stages[2].name, "full");
  for (const PlanStage& stage : plan.stages) EXPECT_TRUE(stage.enabled);
}

TEST_F(PlannerTest, UselessPrefilterIsDisabledOnlyWhenWellMeasured) {
  SelectivityTracker tracker;
  PlanContext context = Context();
  context.tracker = &tracker;
  context.stages = {"cheap", "full"};

  // Below kMinMeasuredAttempts the zero selectivity is treated as noise.
  tracker.Record("cheap", kMinMeasuredAttempts - 1, 0, 0.01);
  QueryPlan plan = PlanQuery(Q2c(), context);
  EXPECT_TRUE(plan.stages[0].enabled);

  // One more attempt crosses the confidence floor: now it is disabled.
  tracker.Record("cheap", 1, 0, 0.001);
  plan = PlanQuery(Q2c(), context);
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_EQ(plan.stages[0].name, "cheap");
  EXPECT_FALSE(plan.stages[0].enabled);
  // The anchor stage always survives.
  EXPECT_TRUE(plan.stages[1].enabled);
}

TEST_F(PlannerTest, MeasuredPrefiltersKeepTheEngineOrder) {
  // The plan lists the stages in the order the engine runs them, however
  // their measured costs compare: the cascade engine has one fixed order.
  SelectivityTracker tracker;
  // "coarse" resolves 80% at 10us/frame (12.5us per resolved frame);
  // "fine" resolves 90% at 100us/frame (111us per resolved frame).
  tracker.Record("fine", 100, 90, 100e-6 * 100);
  tracker.Record("coarse", 100, 80, 10e-6 * 100);
  PlanContext context = Context();
  context.tracker = &tracker;
  context.stages = {"fine", "coarse", "anchor"};
  QueryPlan plan = PlanQuery(Q2c(), context);
  ASSERT_EQ(plan.stages.size(), 3u);
  EXPECT_EQ(plan.stages[0].name, "fine");
  EXPECT_EQ(plan.stages[1].name, "coarse");
  EXPECT_EQ(plan.stages[2].name, "anchor");
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(plan.stages[i].measured) << plan.stages[i].name;
    EXPECT_TRUE(plan.stages[i].enabled) << plan.stages[i].name;
  }
  EXPECT_NE(ExplainPlan(plan).find("stages=[fine("), std::string::npos);
}

TEST_F(PlannerTest, TemporalPushdownTrimsTheDecodeWindow) {
  QueryInstance q1;
  q1.id = QueryId::kQ1;
  q1.q1_t1 = 2.0;
  q1.q1_t2 = 4.0;
  PlanContext context = Context();
  QueryPlan plan = PlanQuery(q1, context);
  EXPECT_EQ(plan.first_frame, 30);
  EXPECT_EQ(plan.first_frame + plan.frame_count, 60);

  // An engine that decodes eagerly must not claim the trimmed window.
  context.temporal_pushdown = false;
  plan = PlanQuery(q1, context);
  EXPECT_EQ(plan.first_frame, 0);
  EXPECT_EQ(plan.frame_count, 150);
}

TEST_F(PlannerTest, WarmCacheCollapsesThePlanToALookup) {
  SemanticCache cache;
  SemanticKey key = TestKey();
  key.stream = 0x1234;
  PlanContext context = Context();
  context.cache = &cache;
  context.key = key;
  context.stages = {"miniyolo96"};

  QueryPlan cold = PlanQuery(Q2c(), context);
  EXPECT_TRUE(cold.semcache_enabled);
  EXPECT_FALSE(cold.semcache_warm);
  std::string cold_text = ExplainPlan(cold);
  EXPECT_NE(cold_text.find("semcache=cold"), std::string::npos);

  // An entry short of the stream's 150 frames is recomputed on use.
  cache.Insert(MakeEntry(key, 75));
  EXPECT_FALSE(PlanQuery(Q2c(), context).semcache_warm);

  cache.Insert(MakeEntry(key, 150));
  QueryPlan warm = PlanQuery(Q2c(), context);
  EXPECT_TRUE(warm.semcache_warm);
  EXPECT_EQ(warm.frame_count, 0);  // No decode needed.
  std::string warm_text = ExplainPlan(warm);
  EXPECT_NE(warm_text.find("semcache=warm"), std::string::npos);
  EXPECT_NE(warm_text.find("decode=skipped"), std::string::npos);
}

// --- Engine-level guarantees ---

class SemCacheEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CityConfig config;
    config.scale_factor = 1;
    config.width = 96;
    config.height = 54;
    config.duration_seconds = 1.0;
    config.fps = 15;
    config.seed = 47;
    auto dataset = driver::PrepareDataset(config);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = new sim::Dataset(std::move(dataset).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static QueryInstance Q2c() {
    QueryInstance instance;
    instance.id = QueryId::kQ2c;
    instance.video_index = 0;
    instance.object_class = sim::ObjectClass::kVehicle;
    return instance;
  }

  static sim::Dataset* dataset_;
};

sim::Dataset* SemCacheEngineTest::dataset_ = nullptr;

TEST_F(SemCacheEngineTest, WarmQ2cDecodesNothingAndMatchesCacheOffByteForByte) {
  video::codec::GopCache off_gops, on_gops;
  SemanticCache semcache;

  systems::EngineOptions off_options;
  off_options.gop_cache = &off_gops;
  auto engine_off = systems::MakePipelineEngine(off_options);

  systems::EngineOptions on_options;
  on_options.gop_cache = &on_gops;
  on_options.semantic_cache = &semcache;
  auto engine_on = systems::MakePipelineEngine(on_options);

  auto baseline = engine_off->Execute(Q2c(), *dataset_,
                                      systems::OutputMode::kWrite, "");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  systems::EngineStats cold_stats;
  auto cold = engine_on->Execute(Q2c(), *dataset_, systems::OutputMode::kWrite,
                                 "", &cold_stats);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold_stats.frames_decoded, 0);

  // Drop decoded GOPs so a decode on the warm path would be visible in the
  // codec counters rather than absorbed by the GOP cache.
  on_gops.Clear();
  systems::EngineStats warm_stats;
  auto warm = engine_on->Execute(Q2c(), *dataset_, systems::OutputMode::kWrite,
                                 "", &warm_stats);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // Zero decoder invocations on the warm path.
  EXPECT_EQ(warm_stats.frames_decoded, 0);
  EXPECT_EQ(warm_stats.cache_misses, 0);
  EXPECT_EQ(semcache.stats().hits, 1);

  // Byte-identical output bitstream and identical detections vs cache off.
  ASSERT_EQ(warm->video.FrameCount(), baseline->video.FrameCount());
  for (int f = 0; f < warm->video.FrameCount(); ++f) {
    EXPECT_EQ(warm->video.frames[static_cast<size_t>(f)].data,
              baseline->video.frames[static_cast<size_t>(f)].data)
        << "frame " << f;
  }
  ASSERT_EQ(warm->detections.size(), baseline->detections.size());
  for (size_t f = 0; f < warm->detections.size(); ++f) {
    ASSERT_EQ(warm->detections[f].size(), baseline->detections[f].size());
    for (size_t d = 0; d < warm->detections[f].size(); ++d) {
      EXPECT_EQ(warm->detections[f][d].score, baseline->detections[f][d].score);
      EXPECT_EQ(warm->detections[f][d].box.x0, baseline->detections[f][d].box.x0);
    }
  }
}

TEST_F(SemCacheEngineTest, Q7ReusesQ2cDetectionsAcrossQueries) {
  video::codec::GopCache gops;
  SemanticCache semcache;
  systems::EngineOptions options;
  options.gop_cache = &gops;
  options.semantic_cache = &semcache;
  auto engine = systems::MakePipelineEngine(options);

  auto boxes = engine->Execute(Q2c(), *dataset_, systems::OutputMode::kStreaming, "");
  ASSERT_TRUE(boxes.ok()) << boxes.status().ToString();
  ASSERT_EQ(semcache.stats().misses, 1);

  QueryInstance q7;
  q7.id = QueryId::kQ7;
  q7.video_index = 0;
  q7.object_class = sim::ObjectClass::kVehicle;
  // Drop decoded GOPs so Q7's pixel work shows up as real decodes.
  gops.Clear();
  systems::EngineStats q7_stats;
  auto masked = engine->Execute(q7, *dataset_, systems::OutputMode::kStreaming,
                                "", &q7_stats);
  ASSERT_TRUE(masked.ok()) << masked.status().ToString();
  // Q7 still decodes (it masks real pixels) but runs no full-model CNN:
  // the detections come from Q2(c)'s materialization.
  EXPECT_GT(q7_stats.frames_decoded, 0);
  EXPECT_EQ(q7_stats.cnn_frames_full, 0);
  EXPECT_EQ(semcache.stats().hits, 1);
}

TEST_F(SemCacheEngineTest, PipelineWithoutInjectedCacheRunsTheCnnOncePerDistinctStream) {
  // Table 9's duplicates corpus: every traffic stream is the same bitstream.
  // With no cache injected the pipeline engine keeps a private semantic
  // cache, so the second stream's Q2(c) is answered without the CNN.
  sim::Dataset duplicates = sim::MakeDuplicateCorpus(*dataset_, 2);
  ASSERT_GE(duplicates.TrafficAssets().size(), 2u);
  video::codec::GopCache gops;
  systems::EngineOptions options;
  options.gop_cache = &gops;
  auto engine = systems::MakePipelineEngine(options);

  QueryInstance second = Q2c();
  second.video_index = 1;
  systems::EngineStats first_stats, second_stats;
  ASSERT_TRUE(engine
                  ->Execute(Q2c(), duplicates, systems::OutputMode::kStreaming, "",
                            &first_stats)
                  .ok());
  ASSERT_TRUE(engine
                  ->Execute(second, duplicates, systems::OutputMode::kStreaming, "",
                            &second_stats)
                  .ok());
  EXPECT_GT(first_stats.cnn_frames_full, 0);
  EXPECT_EQ(second_stats.cnn_frames_full, 0);
  EXPECT_GT(second_stats.cache_hits, 0);
}

TEST_F(SemCacheEngineTest, ExplainReportsCacheTemperature) {
  video::codec::GopCache gops;
  SemanticCache semcache;
  systems::EngineOptions options;
  options.gop_cache = &gops;
  options.semantic_cache = &semcache;
  auto engine = systems::MakePipelineEngine(options);

  std::string cold = engine->Explain(Q2c(), *dataset_);
  EXPECT_NE(cold.find("semcache=cold"), std::string::npos) << cold;

  ASSERT_TRUE(
      engine->Execute(Q2c(), *dataset_, systems::OutputMode::kStreaming, "").ok());
  std::string warm = engine->Explain(Q2c(), *dataset_);
  EXPECT_NE(warm.find("semcache=warm"), std::string::npos) << warm;
  EXPECT_NE(warm.find("decode=skipped"), std::string::npos) << warm;

  // Explain is a Peek: repeating it moved no hit/miss counters beyond the
  // one miss the executed query recorded.
  EXPECT_EQ(semcache.stats().misses, 1);
  EXPECT_EQ(semcache.stats().hits, 0);
}

TEST_F(SemCacheEngineTest, ExplainPlansQ8PerTrafficStream) {
  // Q8 decodes every traffic stream and detects on each through the cache,
  // so its plan names the inference stage per stream, and the cache answers
  // exactly the streams Q2(c) warmed.
  video::codec::GopCache gops;
  SemanticCache semcache;
  systems::EngineOptions options;
  options.gop_cache = &gops;
  options.semantic_cache = &semcache;
  auto engine = systems::MakePipelineEngine(options);

  const size_t streams = dataset_->TrafficAssets().size();
  ASSERT_GE(streams, 2u);
  for (size_t v = 0; v < streams; v += 2) {
    QueryInstance warm = Q2c();
    warm.video_index = static_cast<int>(v);
    ASSERT_TRUE(
        engine->Execute(warm, *dataset_, systems::OutputMode::kStreaming, "").ok());
  }
  QueryInstance q8;
  q8.id = QueryId::kQ8;
  const std::string explain = engine->Explain(q8, *dataset_);
  const std::string prefix = std::string(engine->name()) + ": ";
  ASSERT_EQ(explain.compare(0, prefix.size(), prefix), 0) << explain;

  std::vector<std::string> plans;
  for (size_t begin = prefix.size();;) {
    const size_t end = explain.find("; ", begin);
    plans.push_back(explain.substr(begin, end - begin));
    if (end == std::string::npos) break;
    begin = end + 2;
  }
  ASSERT_EQ(plans.size(), streams) << explain;
  for (size_t v = 0; v < streams; ++v) {
    const std::string& plan = plans[v];
    EXPECT_EQ(plan.rfind("Q8 frames=", 0), 0u) << plan;
    if (v % 2 == 0) {
      EXPECT_NE(plan.find("semcache=warm stages=[semcache]"), std::string::npos)
          << plan;
    } else {
      EXPECT_NE(plan.find("semcache=cold stages=[miniyolo"), std::string::npos)
          << plan;
    }
  }
}

}  // namespace
}  // namespace visualroad::queries
