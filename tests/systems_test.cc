#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "driver/datasets.h"
#include "driver/validation.h"
#include "systems/vdbms.h"
#include "systems/video_source.h"
#include "video/codec/gop_cache.h"
#include "video/metrics.h"

namespace visualroad::systems {
namespace {

using queries::QueryId;
using queries::QueryInstance;

class SystemsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CityConfig config;
    config.scale_factor = 1;
    config.width = 96;
    config.height = 54;
    config.duration_seconds = 1.0;
    config.fps = 15;
    config.seed = 31;
    auto dataset = driver::PrepareDataset(config);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = new sim::Dataset(std::move(dataset).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  QueryInstance Sample(QueryId id, uint64_t seed = 5) {
    Pcg32 rng = SubStream(seed, "systems-test", static_cast<uint64_t>(id));
    queries::SamplerOptions options;
    options.max_upsample_exponent = 2;
    auto instance = queries::SampleQueryInstance(id, *dataset_, rng, options);
    EXPECT_TRUE(instance.ok());
    return *instance;
  }

  static sim::Dataset* dataset_;
};

sim::Dataset* SystemsTest::dataset_ = nullptr;

// --- VideoSource ---

TEST_F(SystemsTest, OnlineSourceIsForwardOnlyAndThrottled) {
  const video::codec::EncodedVideo& stream =
      dataset_->assets[0].container.video;
  // 100x real time keeps the test fast while still exercising the sleep
  // path: 15 frames at 15 fps = 1 simulated second = ~10ms wall.
  VideoSource source = VideoSource::Online(&stream, 100.0);
  auto start = std::chrono::steady_clock::now();
  int frames = 0;
  while (!source.AtEnd()) {
    ASSERT_TRUE(source.Next().ok());
    ++frames;
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(frames, stream.FrameCount());
  // Last frame available at (frames-1)/fps / 100 seconds.
  EXPECT_GE(elapsed, (frames - 1) / stream.fps / 100.0 * 0.8);
}

TEST_F(SystemsTest, OnlineSourcePacingAnchorsAtFirstRead) {
  // Regression: the pacing clock starts at the first Next(), not at
  // construction — a source built ahead of consumption must not release an
  // instant backlog of "overdue" frames.
  const video::codec::EncodedVideo& stream =
      dataset_->assets[0].container.video;
  VideoSource source = VideoSource::Online(&stream, 100.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto start = std::chrono::steady_clock::now();
  int frames = 0;
  while (!source.AtEnd()) {
    ASSERT_TRUE(source.Next().ok());
    ++frames;
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(frames, stream.FrameCount());
  EXPECT_GE(elapsed, (frames - 1) / stream.fps / 100.0 * 0.8);
  // Past the end the feed reports OutOfRange instead of blocking.
  EXPECT_EQ(source.Next().status().code(), StatusCode::kOutOfRange);
}

TEST_F(SystemsTest, OnlinePacingClampsBurstAfterStall) {
  // Regression: a consumer that stalled for many frame periods used to get
  // the whole backlog released instantly. A live feed cannot replay frames
  // the consumer slept through, so after a long stall delivery must resume
  // paced at the frame rate (small catch-up allowance aside).
  const video::codec::EncodedVideo& stream =
      dataset_->assets[0].container.video;
  ASSERT_GE(stream.FrameCount(), 12);
  // fps 15 x multiplier 13.33 => one frame every ~5 ms.
  VideoSource source = VideoSource::Online(&stream, 200.0 / stream.fps);
  ASSERT_TRUE(source.Next().ok());
  ASSERT_TRUE(source.Next().ok());
  // Stall for ~20 frame periods.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto resume = std::chrono::steady_clock::now();
  int frames = 0;
  while (!source.AtEnd()) {
    ASSERT_TRUE(source.Next().ok());
    ++frames;
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - resume).count();
  EXPECT_EQ(frames, stream.FrameCount() - 2);
  // With the clamp, at most ~4 frames arrive instantly; the rest are paced
  // at 5 ms each. Without it, the whole tail would arrive in ~0 s.
  double frame_seconds = 1.0 / 200.0;
  EXPECT_GE(elapsed, (frames - 5) * frame_seconds * 0.8);
}

TEST_F(SystemsTest, OnlineChannelLossFreezesFramesDeterministically) {
  const video::codec::EncodedVideo& stream =
      dataset_->assets[0].container.video;
  auto profile = fault::ProfileByName("lossy");
  ASSERT_TRUE(profile.ok());
  profile->jitter_delay = std::chrono::microseconds(10);

  auto run = [&](uint64_t seed) {
    fault::FaultInjector injector(*profile, seed);
    VideoSource source = VideoSource::Online(&stream, 10000.0, &injector);
    std::vector<const video::codec::EncodedFrame*> delivered;
    while (!source.AtEnd()) {
      auto frame = source.Next();
      EXPECT_TRUE(frame.ok());
      delivered.push_back(*frame);
    }
    EXPECT_EQ(static_cast<int>(delivered.size()), stream.FrameCount());
    // A lost frame is concealed by repeating the previous delivery, so the
    // consumer still sees one decodable frame per capture slot.
    int repeats = 0;
    for (size_t i = 1; i < delivered.size(); ++i) {
      if (delivered[i] == delivered[i - 1]) ++repeats;
    }
    EXPECT_EQ(repeats, source.frames_degraded());
    return source.frames_degraded();
  };
  int first = run(29);
  EXPECT_GT(first, 0);  // The lossy profile dropped something.
  EXPECT_EQ(first, run(29));  // Same seed, same freeze-frame schedule.
}

// --- Engine capabilities ---

TEST_F(SystemsTest, EngineSupportMatrix) {
  EngineOptions options;
  auto batch = MakeBatchEngine(options);
  auto pipeline = MakePipelineEngine(options);
  auto cascade = MakeCascadeEngine(options);
  for (QueryId id : queries::AllQueries()) {
    EXPECT_TRUE(batch->Supports(id));
    EXPECT_TRUE(pipeline->Supports(id));
  }
  EXPECT_TRUE(cascade->Supports(QueryId::kQ1));
  EXPECT_TRUE(cascade->Supports(QueryId::kQ2c));
  EXPECT_FALSE(cascade->Supports(QueryId::kQ2a));
  EXPECT_FALSE(cascade->Supports(QueryId::kQ9));
}

TEST_F(SystemsTest, ExplainShowsEachEnginesPlan) {
  EngineOptions options;
  auto batch = MakeBatchEngine(options);
  auto pipeline = MakePipelineEngine(options);
  auto cascade = MakeCascadeEngine(options);

  // Only the lazy engines push Q1's window into the decoder; the eager
  // batch engine decodes the whole stream.
  QueryInstance q1 = Sample(QueryId::kQ1);
  auto asset = detail::InputAsset(q1, *dataset_);
  ASSERT_TRUE(asset.ok());
  const video::codec::EncodedVideo& meta = (*asset)->container.video;
  const int first = std::clamp(static_cast<int>(q1.q1_t1 * meta.fps), 0,
                               meta.FrameCount() - 1);
  const int last = std::clamp(static_cast<int>(std::ceil(q1.q1_t2 * meta.fps)),
                              first + 1, meta.FrameCount());
  const std::string whole = "Q1 frames=[0," + std::to_string(meta.FrameCount()) + ")";
  const std::string window = "Q1 frames=[" + std::to_string(first) + "," +
                             std::to_string(last) + ")";
  EXPECT_NE(batch->Explain(q1, *dataset_).find(whole), std::string::npos);
  EXPECT_NE(pipeline->Explain(q1, *dataset_).find(window), std::string::npos);
  EXPECT_NE(cascade->Explain(q1, *dataset_).find(window), std::string::npos);

  // Each engine plans its own inference stages.
  QueryInstance q2c = Sample(QueryId::kQ2c);
  EXPECT_NE(batch->Explain(q2c, *dataset_).find("stages=[miniyolo224]"),
            std::string::npos);
  EXPECT_NE(pipeline->Explain(q2c, *dataset_).find("stages=[miniyolo96]"),
            std::string::npos);
  EXPECT_NE(cascade->Explain(q2c, *dataset_)
                .find("stages=[cascade.diff cascade.cheap cascade.full]"),
            std::string::npos);
  EXPECT_EQ(cascade->Explain(Sample(QueryId::kQ2a), *dataset_), "");
}

TEST_F(SystemsTest, EngineNamesAreDistinct) {
  EngineOptions options;
  EXPECT_STRNE(MakeBatchEngine(options)->name(),
               MakePipelineEngine(options)->name());
  EXPECT_STRNE(MakePipelineEngine(options)->name(),
               MakeCascadeEngine(options)->name());
}

// --- Cross-engine output equivalence (parameterised over engine x query) ---

enum class EngineKind { kBatch, kPipeline, kCascade };

std::unique_ptr<Vdbms> MakeEngine(EngineKind kind, const EngineOptions& options) {
  switch (kind) {
    case EngineKind::kBatch:
      return MakeBatchEngine(options);
    case EngineKind::kPipeline:
      return MakePipelineEngine(options);
    case EngineKind::kCascade:
      return MakeCascadeEngine(options);
  }
  return nullptr;
}

struct EngineQueryCase {
  EngineKind engine;
  QueryId query;
};

/// FNV-1a over every field of every detection, frame boundaries included.
uint64_t DetectionsDigest(const std::vector<std::vector<vision::Detection>>& frames) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t value) {
    h ^= value;
    h *= 1099511628211ull;
  };
  for (const std::vector<vision::Detection>& frame : frames) {
    mix(frame.size());
    for (const vision::Detection& d : frame) {
      uint64_t score_bits;
      std::memcpy(&score_bits, &d.score, sizeof(score_bits));
      mix(static_cast<uint64_t>(d.object_class));
      mix(static_cast<uint64_t>(static_cast<uint32_t>(d.box.x0)));
      mix(static_cast<uint64_t>(static_cast<uint32_t>(d.box.y0)));
      mix(static_cast<uint64_t>(static_cast<uint32_t>(d.box.x1)));
      mix(static_cast<uint64_t>(static_cast<uint32_t>(d.box.y1)));
      mix(score_bits);
      mix(static_cast<uint64_t>(static_cast<uint32_t>(d.entity_id)));
    }
  }
  return h;
}

/// Output digests pinned for every supported (engine, query) pair: the
/// encoded result's StreamIdentity and the detections' digest. They pin the
/// engines' exact outputs, so a refactor of the engines must not move them.
/// 0x171bb79dc8e18503 is the identity of an empty EncodedVideo: the sampled
/// Q8 plate is never recognised in this dataset, so the non-empty Q8 result
/// is pinned by TrackingDeterministicTest.EnginesMatchTheReference instead.
/// 0x14650fb0739d0383 is the digest of an empty detection list.
struct OutputDigest {
  uint64_t video;
  uint64_t detections;
};

const std::map<std::pair<EngineKind, QueryId>, OutputDigest>& PinnedDigests() {
  static const auto* digests =
      new std::map<std::pair<EngineKind, QueryId>, OutputDigest>{
          {{EngineKind::kBatch, QueryId::kQ1},
           {0xe3d7d04c6d6f79d4ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kBatch, QueryId::kQ2a},
           {0xd710da7c48138727ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kBatch, QueryId::kQ2b},
           {0x9a03a9ee3369dc4dull, 0x14650fb0739d0383ull}},
          {{EngineKind::kBatch, QueryId::kQ2c},
           {0x5056e06e01432936ull, 0xad3a39d1faa0264cull}},
          {{EngineKind::kBatch, QueryId::kQ2d},
           {0x7c3f0fc9d6117786ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kBatch, QueryId::kQ3},
           {0xc6b8f8f2159caeebull, 0x14650fb0739d0383ull}},
          {{EngineKind::kBatch, QueryId::kQ4},
           {0xb0b76285edd4c99cull, 0x14650fb0739d0383ull}},
          {{EngineKind::kBatch, QueryId::kQ5},
           {0x3b98a2bccdcebbc4ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kBatch, QueryId::kQ6a},
           {0x6b4a204d38911fd9ull, 0xad3a39d1faa0264cull}},
          {{EngineKind::kBatch, QueryId::kQ6b},
           {0xea73b7b4b506568eull, 0x14650fb0739d0383ull}},
          {{EngineKind::kBatch, QueryId::kQ7},
           {0x986a0ea59e76dbe2ull, 0x6e5774eecbd49f92ull}},
          {{EngineKind::kBatch, QueryId::kQ8},
           {0x171bb79dc8e18503ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kBatch, QueryId::kQ9},
           {0x4c3a8cec2145b0a8ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kBatch, QueryId::kQ10},
           {0xa60435744afd4823ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kPipeline, QueryId::kQ1},
           {0xe3d7d04c6d6f79d4ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kPipeline, QueryId::kQ2a},
           {0xd710da7c48138727ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kPipeline, QueryId::kQ2b},
           {0x9a03a9ee3369dc4dull, 0x14650fb0739d0383ull}},
          {{EngineKind::kPipeline, QueryId::kQ2c},
           {0x5056e06e01432936ull, 0xad3a39d1faa0264cull}},
          {{EngineKind::kPipeline, QueryId::kQ2d},
           {0x7c3f0fc9d6117786ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kPipeline, QueryId::kQ3},
           {0xc6b8f8f2159caeebull, 0x14650fb0739d0383ull}},
          {{EngineKind::kPipeline, QueryId::kQ4},
           {0xb0b76285edd4c99cull, 0x14650fb0739d0383ull}},
          {{EngineKind::kPipeline, QueryId::kQ5},
           {0x3b98a2bccdcebbc4ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kPipeline, QueryId::kQ6a},
           {0x6b4a204d38911fd9ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kPipeline, QueryId::kQ6b},
           {0xea73b7b4b506568eull, 0x14650fb0739d0383ull}},
          {{EngineKind::kPipeline, QueryId::kQ7},
           {0x986a0ea59e76dbe2ull, 0xd843f024431332b7ull}},
          {{EngineKind::kPipeline, QueryId::kQ8},
           {0x171bb79dc8e18503ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kPipeline, QueryId::kQ9},
           {0x4c3a8cec2145b0a8ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kPipeline, QueryId::kQ10},
           {0xa60435744afd4823ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kCascade, QueryId::kQ1},
           {0xe3d7d04c6d6f79d4ull, 0x14650fb0739d0383ull}},
          {{EngineKind::kCascade, QueryId::kQ2c},
           {0x5056e06e01432936ull, 0xad3a39d1faa0264cull}},
      };
  return *digests;
}

class EngineQueryMatrix : public SystemsTest,
                          public ::testing::WithParamInterface<EngineQueryCase> {};

TEST_P(EngineQueryMatrix, OutputValidatesAgainstReference) {
  const EngineQueryCase& param = GetParam();
  EngineOptions options;
  auto engine = MakeEngine(param.engine, options);
  if (!engine->Supports(param.query)) GTEST_SKIP() << "unsupported";

  QueryInstance instance = Sample(param.query);
  auto output = engine->Execute(instance, *dataset_, OutputMode::kWrite, "");
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  ASSERT_TRUE(output->produced || !output->detections.empty() ||
              output->video.FrameCount() == 0);

  queries::ValidationKind kind = queries::ValidationFor(param.query);
  if (kind == queries::ValidationKind::kFrame && output->video.FrameCount() > 0) {
    queries::ReferenceContext context;
    context.dataset = dataset_;
    video::Video input;
    if (param.query != QueryId::kQ9 && param.query != QueryId::kQ10) {
      auto asset = detail::InputAsset(instance, *dataset_);
      ASSERT_TRUE(asset.ok());
      auto decoded = video::codec::Decode((*asset)->container.video);
      ASSERT_TRUE(decoded.ok());
      input = std::move(decoded).value();
    }
    auto reference = queries::RunReference(context, instance, input);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    double threshold = param.query == QueryId::kQ9 ? video::kStitchingPsnrDb
                                                   : video::kValidationPsnrDb;
    auto stats = driver::FrameValidate(output->video, reference->video, threshold);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->passed, stats->checked)
        << "mean " << stats->mean_psnr_db << " dB, min " << stats->min_psnr_db;
  }
  if (kind == queries::ValidationKind::kSemantic && !output->detections.empty()) {
    auto asset = detail::InputAsset(instance, *dataset_);
    ASSERT_TRUE(asset.ok());
    auto stats = driver::SemanticValidate(output->detections, (*asset)->ground_truth,
                                          instance.object_class);
    ASSERT_TRUE(stats.ok());
    // A tiny batch can consist solely of the detector's rare false
    // positives; only assert the pass rate once the sample is meaningful.
    if (stats->checked >= 5) {
      EXPECT_GE(stats->PassRate(), 0.8);
    }
  }

  const uint64_t video = video::codec::StreamIdentity(output->video);
  const uint64_t detections = DetectionsDigest(output->detections);
  auto pinned = PinnedDigests().find({param.engine, param.query});
  ASSERT_NE(pinned, PinnedDigests().end())
      << "no pinned digest; this run produced {0x" << std::hex << video << "ull, 0x"
      << detections << "ull}";
  EXPECT_EQ(video, pinned->second.video) << std::hex << "0x" << video;
  EXPECT_EQ(detections, pinned->second.detections) << std::hex << "0x" << detections;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineQueryMatrix,
    ::testing::Values(
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ1},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ2a},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ2b},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ2c},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ2d},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ3},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ4},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ5},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ6a},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ6b},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ7},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ8},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ9},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ10},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ1},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ2a},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ2b},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ2c},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ2d},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ3},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ4},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ5},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ6a},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ6b},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ7},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ8},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ9},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ10},
        EngineQueryCase{EngineKind::kCascade, QueryId::kQ1},
        EngineQueryCase{EngineKind::kCascade, QueryId::kQ2c}));

// --- Engine-specific behaviours ---

TEST_F(SystemsTest, Q8CountsEveryScannedFrameAsDecodedAndDetected) {
  // Q8 decodes every traffic stream and runs the detector on every frame.
  QueryInstance instance = Sample(QueryId::kQ8);
  const int64_t scanned = detail::InputFrameCount(instance, *dataset_);
  ASSERT_GT(scanned, 0);
  for (EngineKind kind : {EngineKind::kBatch, EngineKind::kPipeline}) {
    // A private cache starts cold whatever other tests left in Global().
    video::codec::GopCache cache;
    EngineOptions options;
    options.gop_cache = &cache;
    auto engine = MakeEngine(kind, options);
    EngineStats stats;
    ASSERT_TRUE(
        engine->Execute(instance, *dataset_, OutputMode::kStreaming, "", &stats).ok());
    EXPECT_EQ(stats.frames_decoded, scanned) << engine->name();
    EXPECT_EQ(stats.cnn_frames_full, scanned) << engine->name();
  }
}


TEST_F(SystemsTest, CascadeRejectsUnsupportedQueries) {
  EngineOptions options;
  auto cascade = MakeCascadeEngine(options);
  QueryInstance instance = Sample(QueryId::kQ2a);
  auto output = cascade->Execute(instance, *dataset_, OutputMode::kWrite, "");
  ASSERT_FALSE(output.ok());
  EXPECT_EQ(output.status().code(), StatusCode::kUnimplemented);
}

TEST_F(SystemsTest, CascadeSkipsRedundantFrames) {
  // A private cache keeps the decode counters independent of whatever other
  // tests have left in the process-wide one.
  video::codec::GopCache cache;
  EngineOptions options;
  options.gop_cache = &cache;
  auto cascade = MakeCascadeEngine(options);
  QueryInstance instance = Sample(QueryId::kQ2c);
  auto output = cascade->Execute(instance, *dataset_, OutputMode::kStreaming, "");
  ASSERT_TRUE(output.ok());
  EngineStats stats = cascade->stats();
  // Every input frame is decoded; not every one runs the full CNN.
  EXPECT_GT(stats.frames_decoded, 0);
  EXPECT_LT(stats.cnn_frames_full, stats.frames_decoded);
}

TEST_F(SystemsTest, PipelineCachesDecodedContent) {
  // A private cache keeps hit/miss expectations deterministic regardless of
  // what other tests have cached process-wide.
  video::codec::GopCache cache;
  EngineOptions options;
  options.gop_cache = &cache;
  auto pipeline = MakePipelineEngine(options);
  QueryInstance instance = Sample(QueryId::kQ2a);
  ASSERT_TRUE(
      pipeline->Execute(instance, *dataset_, OutputMode::kStreaming, "").ok());
  ASSERT_TRUE(
      pipeline->Execute(instance, *dataset_, OutputMode::kStreaming, "").ok());
  EngineStats stats = pipeline->stats();
  EXPECT_GE(stats.cache_hits, 1);
  // Quiesce clears the cache: the next run misses again.
  pipeline->Quiesce();
  ASSERT_TRUE(
      pipeline->Execute(instance, *dataset_, OutputMode::kStreaming, "").ok());
  EXPECT_GE(pipeline->stats().cache_misses, 2);
}

TEST_F(SystemsTest, BatchEngineFailsQ4UnderTightMemory) {
  EngineOptions options;
  options.memory_fail_bytes = 1 << 17;  // 128 KB ceiling: any upsample dies.
  auto batch = MakeBatchEngine(options);
  QueryInstance instance = Sample(QueryId::kQ4);
  auto output = batch->Execute(instance, *dataset_, OutputMode::kStreaming, "");
  ASSERT_FALSE(output.ok());
  EXPECT_EQ(output.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(SystemsTest, BatchEngineSpillsUnderMemoryPressure) {
  EngineOptions options;
  options.memory_budget_bytes = 1 << 16;  // Tiny budget: immediate pressure.
  auto batch = MakeBatchEngine(options);
  QueryInstance instance = Sample(QueryId::kQ2a);
  ASSERT_TRUE(batch->Execute(instance, *dataset_, OutputMode::kStreaming, "").ok());
  EXPECT_GT(batch->stats().chunked_redecodes, 0);
}

TEST_F(SystemsTest, ConcurrentBatchEnginesKeepTheirSpillsApart) {
  // Two batch engines in one process, both under memory pressure, spill at
  // the same time. Each spill must read back exactly what its own engine
  // wrote, so every output matches that engine's solo run.
  EngineOptions options;
  options.memory_budget_bytes = 64 << 10;
  QueryInstance first = Sample(QueryId::kQ2a);
  QueryInstance second = first;
  second.video_index =
      (first.video_index + 1) % static_cast<int>(dataset_->TrafficAssets().size());
  auto solo = [&](const QueryInstance& instance) {
    auto output =
        MakeBatchEngine(options)->Execute(instance, *dataset_, OutputMode::kWrite, "");
    EXPECT_TRUE(output.ok()) << output.status().ToString();
    return output.ok() ? video::codec::StreamIdentity(output->video) : 0;
  };
  const uint64_t first_expected = solo(first);
  const uint64_t second_expected = solo(second);
  ASSERT_NE(first_expected, second_expected);

  auto first_engine = MakeBatchEngine(options);
  auto second_engine = MakeBatchEngine(options);
  for (int round = 0; round < 20; ++round) {
    std::optional<StatusOr<QueryOutput>> first_output, second_output;
    std::thread other([&] {
      second_output = second_engine->Execute(second, *dataset_, OutputMode::kWrite, "");
    });
    first_output = first_engine->Execute(first, *dataset_, OutputMode::kWrite, "");
    other.join();
    ASSERT_TRUE(first_output->ok()) << first_output->status().ToString();
    ASSERT_TRUE(second_output->ok()) << second_output->status().ToString();
    EXPECT_EQ(video::codec::StreamIdentity((*first_output)->video), first_expected)
        << "round " << round;
    EXPECT_EQ(video::codec::StreamIdentity((*second_output)->video), second_expected)
        << "round " << round;
  }
  EXPECT_GT(first_engine->stats().chunked_redecodes, 0);
  EXPECT_GT(second_engine->stats().chunked_redecodes, 0);
}

TEST_F(SystemsTest, WriteModePersistsContainer) {
  EngineOptions options;
  auto pipeline = MakePipelineEngine(options);
  QueryInstance instance = Sample(QueryId::kQ5);
  std::string dir =
      (std::filesystem::temp_directory_path() / "vr_systems_test").string();
  auto output = pipeline->Execute(instance, *dataset_, OutputMode::kWrite, dir);
  ASSERT_TRUE(output.ok());
  ASSERT_FALSE(output->written_path.empty());
  auto container = video::container::ReadContainerFile(output->written_path);
  ASSERT_TRUE(container.ok());
  EXPECT_EQ(container->video.FrameCount(), output->video.FrameCount());
  std::filesystem::remove_all(dir);
}

TEST_F(SystemsTest, StreamingModeDiscardsResults) {
  EngineOptions options;
  auto pipeline = MakePipelineEngine(options);
  QueryInstance instance = Sample(QueryId::kQ5);
  auto output = pipeline->Execute(instance, *dataset_, OutputMode::kStreaming, "");
  ASSERT_TRUE(output.ok());
  EXPECT_FALSE(output->produced);
  EXPECT_EQ(output->video.FrameCount(), 0);
  EXPECT_TRUE(output->written_path.empty());
}

TEST_F(SystemsTest, InvalidVideoIndexRejected) {
  EngineOptions options;
  auto batch = MakeBatchEngine(options);
  QueryInstance instance = Sample(QueryId::kQ2a);
  instance.video_index = 999;
  EXPECT_FALSE(batch->Execute(instance, *dataset_, OutputMode::kWrite, "").ok());
}

TEST_F(SystemsTest, BatchDetectorRunsLargerNetworkThanPipeline) {
  // The architectural difference behind the Q2(c) gap: the batch engine's
  // framework path must burn more arithmetic per frame.
  EngineOptions options;
  vision::MiniYolo reference_net(options.detector);
  vision::DetectorOptions batch_options = options.detector;
  batch_options.input_size = 224;
  vision::MiniYolo batch_net(batch_options);
  EXPECT_GT(batch_net.MacsPerFrame(), 4 * reference_net.MacsPerFrame());
}

}  // namespace
}  // namespace visualroad::systems
