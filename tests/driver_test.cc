#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "driver/datasets.h"
#include "driver/report.h"
#include "driver/validation.h"
#include "driver/vcd.h"
#include "storage/sharded_store.h"
#include "storage/vss.h"
#include "systems/video_source.h"
#include "video/codec/gop_cache.h"

namespace visualroad::driver {
namespace {

using queries::QueryId;

class DriverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CityConfig config;
    config.scale_factor = 1;
    config.width = 96;
    config.height = 54;
    config.duration_seconds = 1.0;
    config.fps = 15;
    config.seed = 41;
    auto dataset = PrepareDataset(config);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = new sim::Dataset(std::move(dataset).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static sim::Dataset* dataset_;
};

sim::Dataset* DriverTest::dataset_ = nullptr;

// --- Named datasets ---

TEST(DatasetsTest, TableTwoConfigurations) {
  std::vector<NamedDataset> configs = PregeneratedConfigs();
  ASSERT_EQ(configs.size(), 6u);
  EXPECT_EQ(configs[0].name, "1k-short");
  EXPECT_EQ(configs[0].config.scale_factor, 2);
  EXPECT_EQ(configs[1].name, "1k-long");
  EXPECT_EQ(configs[1].config.scale_factor, 4);
  // Resolution doubles from 1k to 2k to 4k (proportional scaling).
  EXPECT_EQ(configs[2].config.width, 2 * configs[0].config.width);
  EXPECT_EQ(configs[4].config.width, 4 * configs[0].config.width);
  // Long runs are 4x the short duration, as 60 min is 4 x 15 min.
  EXPECT_DOUBLE_EQ(configs[1].config.duration_seconds,
                   4.0 * configs[0].config.duration_seconds);
}

TEST(DatasetsTest, RandomCaptionsAreNonOverlapping) {
  Pcg32 rng(5, 5);
  video::WebVttDocument document = GenerateRandomCaptions(rng, 30.0);
  ASSERT_GT(document.cues.size(), 3u);
  for (size_t i = 1; i < document.cues.size(); ++i) {
    EXPECT_GE(document.cues[i].start_seconds, document.cues[i - 1].end_seconds);
  }
  for (const video::WebVttCue& cue : document.cues) {
    EXPECT_LT(cue.start_seconds, cue.end_seconds);
    EXPECT_LE(cue.end_seconds, 30.0);
    EXPECT_FALSE(cue.text.empty());
  }
}

TEST_F(DriverTest, CaptionTracksAttachedToEveryAsset) {
  for (const sim::VideoAsset& asset : dataset_->assets) {
    const video::container::MetadataTrack* track = asset.container.FindTrack("WVTT");
    ASSERT_NE(track, nullptr);
    auto parsed = video::ParseWebVtt(
        std::string(track->payload.begin(), track->payload.end()));
    EXPECT_TRUE(parsed.ok());
  }
}

TEST(DatasetsTest, CaptionAttachmentIsIdempotent) {
  sim::Dataset dataset;
  dataset.assets.emplace_back();
  dataset.assets[0].container.video.fps = 15;
  AttachCaptionTracks(dataset, 1);
  AttachCaptionTracks(dataset, 1);
  int tracks = 0;
  for (const auto& track : dataset.assets[0].container.tracks) {
    if (track.kind == "WVTT") ++tracks;
  }
  EXPECT_EQ(tracks, 1);
}

// --- Validation math ---

TEST(ValidationTest, FrameValidatePassesIdenticalVideo) {
  video::Video reference;
  reference.fps = 15;
  for (int f = 0; f < 4; ++f) {
    video::Frame frame(32, 32);
    for (int y = 0; y < 32; ++y) {
      for (int x = 0; x < 32; ++x) {
        frame.SetPixel(x, y, static_cast<uint8_t>((x * 7 + y * 3 + f) & 0xFF), 120,
                       140);
      }
    }
    reference.frames.push_back(std::move(frame));
  }
  video::codec::EncoderConfig config;
  config.qp = 8;  // Near-lossless.
  auto encoded = video::codec::Encode(reference, config);
  ASSERT_TRUE(encoded.ok());
  auto stats = FrameValidate(*encoded, reference, 40.0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->checked, 4);
  EXPECT_EQ(stats->passed, 4);
  EXPECT_GT(stats->mean_psnr_db, 40.0);
}

TEST(ValidationTest, FrameValidateFailsCorruptedVideo) {
  video::Video reference;
  reference.fps = 15;
  video::Frame frame(32, 32);
  frame.Fill(100, 120, 140);
  reference.frames.push_back(frame);
  // "Engine output": a very different frame.
  video::Video wrong;
  wrong.fps = 15;
  video::Frame bad(32, 32);
  bad.Fill(30, 90, 200);
  wrong.frames.push_back(bad);
  video::codec::EncoderConfig config;
  config.qp = 8;
  auto encoded = video::codec::Encode(wrong, config);
  ASSERT_TRUE(encoded.ok());
  auto stats = FrameValidate(*encoded, reference, 40.0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->passed, 0);
}

TEST(ValidationTest, FrameValidateRejectsCountMismatch) {
  video::Video reference;
  reference.fps = 15;
  reference.frames.resize(3, video::Frame(16, 16));
  video::codec::EncoderConfig config;
  video::Video shorter = reference;
  shorter.frames.pop_back();
  auto encoded = video::codec::Encode(shorter, config);
  ASSERT_TRUE(encoded.ok());
  EXPECT_FALSE(FrameValidate(*encoded, reference, 40.0).ok());
}

TEST(ValidationTest, SemanticValidateUsesJaccardThreshold) {
  std::vector<sim::FrameGroundTruth> truth(1);
  sim::GroundTruthBox gt;
  gt.entity_id = 1001;
  gt.object_class = sim::ObjectClass::kVehicle;
  gt.box = {10, 10, 50, 50};
  truth[0].boxes.push_back(gt);

  std::vector<std::vector<vision::Detection>> detections(1);
  vision::Detection close;  // IoU well above 0.5.
  close.object_class = sim::ObjectClass::kVehicle;
  close.box = {12, 12, 52, 52};
  vision::Detection far;  // Disjoint.
  far.object_class = sim::ObjectClass::kVehicle;
  far.box = {70, 70, 90, 90};
  detections[0] = {close, far};

  auto stats = SemanticValidate(detections, truth, sim::ObjectClass::kVehicle, 0.5);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->checked, 2);
  EXPECT_EQ(stats->passed, 1);
}

TEST(ValidationTest, SemanticValidateIgnoresOtherClasses) {
  std::vector<sim::FrameGroundTruth> truth(1);
  std::vector<std::vector<vision::Detection>> detections(1);
  vision::Detection pedestrian;
  pedestrian.object_class = sim::ObjectClass::kPedestrian;
  pedestrian.box = {0, 0, 5, 5};
  detections[0].push_back(pedestrian);
  auto stats = SemanticValidate(detections, truth, sim::ObjectClass::kVehicle, 0.5);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->checked, 0);
}

TEST(ValidationTest, StatsMergeCombinesCorrectly) {
  ValidationStats a, b;
  a.checked = 2;
  a.passed = 2;
  a.min_psnr_db = 42;
  a.mean_psnr_db = 45;
  a.max_psnr_db = 48;
  b.checked = 2;
  b.passed = 1;
  b.min_psnr_db = 30;
  b.mean_psnr_db = 35;
  b.max_psnr_db = 40;
  a.Merge(b);
  EXPECT_EQ(a.checked, 4);
  EXPECT_EQ(a.passed, 3);
  EXPECT_DOUBLE_EQ(a.min_psnr_db, 30);
  EXPECT_DOUBLE_EQ(a.max_psnr_db, 48);
  EXPECT_DOUBLE_EQ(a.mean_psnr_db, 40);
  EXPECT_DOUBLE_EQ(a.PassRate(), 0.75);
}

TEST(ValidationTest, PerfectDetectorApIsOne) {
  std::vector<sim::FrameGroundTruth> truth(2);
  std::vector<std::vector<vision::Detection>> detections(2);
  for (int f = 0; f < 2; ++f) {
    sim::GroundTruthBox gt;
    gt.entity_id = 1001;
    gt.object_class = sim::ObjectClass::kVehicle;
    gt.box = {10, 10, 40, 40};
    gt.visible_fraction = 1.0;
    truth[static_cast<size_t>(f)].boxes.push_back(gt);
    vision::Detection d;
    d.object_class = sim::ObjectClass::kVehicle;
    d.box = gt.box;
    d.score = 0.9;
    detections[static_cast<size_t>(f)].push_back(d);
  }
  EXPECT_NEAR(AveragePrecision(detections, truth, sim::ObjectClass::kVehicle), 1.0,
              1e-9);
}

TEST(ValidationTest, FalsePositivesDepressAp) {
  std::vector<sim::FrameGroundTruth> truth(1);
  sim::GroundTruthBox gt;
  gt.object_class = sim::ObjectClass::kVehicle;
  gt.box = {10, 10, 40, 40};
  gt.visible_fraction = 1.0;
  truth[0].boxes.push_back(gt);

  std::vector<std::vector<vision::Detection>> detections(1);
  vision::Detection fp;  // Ranked above the true positive.
  fp.object_class = sim::ObjectClass::kVehicle;
  fp.box = {60, 60, 90, 90};
  fp.score = 0.95;
  vision::Detection tp;
  tp.object_class = sim::ObjectClass::kVehicle;
  tp.box = gt.box;
  tp.score = 0.5;
  detections[0] = {fp, tp};
  double ap = AveragePrecision(detections, truth, sim::ObjectClass::kVehicle);
  EXPECT_LT(ap, 0.75);
  EXPECT_GT(ap, 0.2);
}

TEST(ValidationTest, MissedObjectsDepressAp) {
  std::vector<sim::FrameGroundTruth> truth(1);
  for (int i = 0; i < 2; ++i) {
    sim::GroundTruthBox gt;
    gt.object_class = sim::ObjectClass::kVehicle;
    gt.box = {10 + 50 * i, 10, 40 + 50 * i, 40};
    gt.visible_fraction = 1.0;
    truth[0].boxes.push_back(gt);
  }
  std::vector<std::vector<vision::Detection>> detections(1);
  vision::Detection d;
  d.object_class = sim::ObjectClass::kVehicle;
  d.box = {10, 10, 40, 40};
  d.score = 0.9;
  detections[0].push_back(d);  // Only one of two objects found.
  EXPECT_NEAR(AveragePrecision(detections, truth, sim::ObjectClass::kVehicle), 0.5,
              1e-9);
}

TEST(ValidationTest, ApZeroWhenNoPositives) {
  std::vector<sim::FrameGroundTruth> truth(1);
  std::vector<std::vector<vision::Detection>> detections(1);
  EXPECT_DOUBLE_EQ(AveragePrecision(detections, truth, sim::ObjectClass::kVehicle),
                   0.0);
}

// --- VCD ---

TEST_F(DriverTest, BatchSizeIsFourTimesScale) {
  VcdOptions options;
  VisualCityDriver vcd(*dataset_, options);
  EXPECT_EQ(vcd.BatchSize(), 4 * dataset_->config.scale_factor);
  options.batch_size_override = 2;
  VisualCityDriver overridden(*dataset_, options);
  EXPECT_EQ(overridden.BatchSize(), 2);
}

TEST_F(DriverTest, BatchSamplingDeterministicAcrossDrivers) {
  VcdOptions options;
  VisualCityDriver a(*dataset_, options), b(*dataset_, options);
  auto batch_a = a.SampleBatch(QueryId::kQ1);
  auto batch_b = b.SampleBatch(QueryId::kQ1);
  ASSERT_TRUE(batch_a.ok());
  ASSERT_TRUE(batch_b.ok());
  ASSERT_EQ(batch_a->size(), batch_b->size());
  for (size_t i = 0; i < batch_a->size(); ++i) {
    EXPECT_EQ((*batch_a)[i].q1_rect, (*batch_b)[i].q1_rect);
    EXPECT_EQ((*batch_a)[i].video_index, (*batch_b)[i].video_index);
  }
}

TEST_F(DriverTest, DifferentSeedsDifferentBatches) {
  VcdOptions a_options, b_options;
  b_options.seed = a_options.seed + 1;
  VisualCityDriver a(*dataset_, a_options), b(*dataset_, b_options);
  auto batch_a = a.SampleBatch(QueryId::kQ1);
  auto batch_b = b.SampleBatch(QueryId::kQ1);
  ASSERT_TRUE(batch_a.ok());
  ASSERT_TRUE(batch_b.ok());
  bool differ = false;
  for (size_t i = 0; i < batch_a->size(); ++i) {
    if (!((*batch_a)[i].q1_rect == (*batch_b)[i].q1_rect)) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST_F(DriverTest, RunQueryBatchMeasuresAndValidates) {
  VcdOptions options;
  options.batch_size_override = 2;
  VisualCityDriver vcd(*dataset_, options);
  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  auto result = vcd.RunQueryBatch(*engine, QueryId::kQ1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->instances, 2);
  EXPECT_EQ(result->succeeded, 2);
  EXPECT_GT(result->total_seconds, 0.0);
  EXPECT_GT(result->frames_per_second, 0.0);
  EXPECT_GT(result->validation.checked, 0);
  EXPECT_EQ(result->validation.passed, result->validation.checked);
}

TEST_F(DriverTest, UnsupportedQueryReportedNotFailed) {
  VcdOptions options;
  options.batch_size_override = 2;
  VisualCityDriver vcd(*dataset_, options);
  systems::EngineOptions engine_options;
  auto cascade = systems::MakeCascadeEngine(engine_options);
  auto result = vcd.RunQueryBatch(*cascade, QueryId::kQ3);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->Supported());
  EXPECT_EQ(result->failed, 0);
}

TEST_F(DriverTest, StreamingModeSkipsValidation) {
  VcdOptions options;
  options.batch_size_override = 1;
  options.output_mode = systems::OutputMode::kStreaming;
  VisualCityDriver vcd(*dataset_, options);
  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  auto result = vcd.RunQueryBatch(*engine, QueryId::kQ2a);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->succeeded, 1);
  EXPECT_EQ(result->validation.checked, 0);
}

TEST_F(DriverTest, ParallelInstancesMatchSerialResults) {
  VcdOptions serial_options;
  serial_options.batch_size_override = 4;
  VcdOptions parallel_options = serial_options;
  parallel_options.parallel_instances = 4;

  systems::EngineOptions engine_options;
  auto serial_engine = systems::MakeBatchEngine(engine_options);
  auto parallel_engine = systems::MakeBatchEngine(engine_options);
  ASSERT_TRUE(parallel_engine->ConcurrentSafe());

  VisualCityDriver serial_vcd(*dataset_, serial_options);
  VisualCityDriver parallel_vcd(*dataset_, parallel_options);
  auto serial = serial_vcd.RunQueryBatch(*serial_engine, QueryId::kQ1);
  auto parallel = parallel_vcd.RunQueryBatch(*parallel_engine, QueryId::kQ1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(serial->parallel_instances, 1);
  EXPECT_EQ(parallel->parallel_instances, 4);
  EXPECT_GT(parallel->pool_stats.tasks_executed, 0);
  // Outcome aggregation and validation must not depend on how the batch was
  // scheduled.
  EXPECT_EQ(parallel->succeeded, serial->succeeded);
  EXPECT_EQ(parallel->failed, serial->failed);
  EXPECT_EQ(parallel->unsupported, serial->unsupported);
  EXPECT_EQ(parallel->validation.checked, serial->validation.checked);
  EXPECT_EQ(parallel->validation.passed, serial->validation.passed);
  EXPECT_NEAR(parallel->validation.mean_psnr_db, serial->validation.mean_psnr_db,
              1e-9);
}

// All three shipped engines are ConcurrentSafe now, so the serial-fallback
// path needs an engine that deliberately is not.
class SerialOnlyEngine : public systems::Vdbms {
 public:
  const char* name() const override { return "SerialOnlyEngine"; }
  bool Supports(QueryId) const override { return true; }
  systems::EngineStats stats() const override { return {}; }
  // Inherits ConcurrentSafe() == false.
  StatusOr<systems::QueryOutput> Execute(
      const queries::QueryInstance&, const sim::Dataset&, systems::OutputMode,
      const std::string&, systems::EngineStats* call_stats = nullptr) override {
    if (call_stats != nullptr) *call_stats = {};
    return systems::QueryOutput{};
  }
};

TEST_F(DriverTest, ParallelRequestFallsBackForUnsafeEngine) {
  VcdOptions options;
  options.batch_size_override = 2;
  options.parallel_instances = 4;
  VisualCityDriver vcd(*dataset_, options);
  SerialOnlyEngine engine;
  ASSERT_FALSE(engine.ConcurrentSafe());
  auto result = vcd.RunQueryBatch(engine, QueryId::kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The engine did not declare Execute() thread-safe, so the measured window
  // ran serially even though the driver was configured for parallelism.
  EXPECT_EQ(result->parallel_instances, 1);
  EXPECT_EQ(result->succeeded, 2);
}

TEST_F(DriverTest, PipelineAndCascadeRunParallelBatches) {
  // Since the GOP cache rework, all three engines opt into instance-level
  // parallelism; fanned-out batches must report what serial ones would.
  struct Case {
    std::unique_ptr<systems::Vdbms> serial;
    std::unique_ptr<systems::Vdbms> parallel;
    QueryId id;
  };
  systems::EngineOptions engine_options;
  Case cases[] = {
      {systems::MakePipelineEngine(engine_options),
       systems::MakePipelineEngine(engine_options), QueryId::kQ2a},
      {systems::MakeCascadeEngine(engine_options),
       systems::MakeCascadeEngine(engine_options), QueryId::kQ2c},
  };
  for (Case& c : cases) {
    ASSERT_TRUE(c.parallel->ConcurrentSafe());
    VcdOptions serial_options;
    serial_options.batch_size_override = 4;
    VcdOptions parallel_options = serial_options;
    parallel_options.parallel_instances = 4;
    VisualCityDriver serial_vcd(*dataset_, serial_options);
    VisualCityDriver parallel_vcd(*dataset_, parallel_options);
    auto serial = serial_vcd.RunQueryBatch(*c.serial, c.id);
    auto parallel = parallel_vcd.RunQueryBatch(*c.parallel, c.id);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(serial->parallel_instances, 1);
    EXPECT_EQ(parallel->parallel_instances, 4);
    EXPECT_EQ(parallel->succeeded, serial->succeeded);
    EXPECT_EQ(parallel->failed, serial->failed);
    EXPECT_EQ(parallel->validation.checked, serial->validation.checked);
    EXPECT_EQ(parallel->validation.passed, serial->validation.passed);
    EXPECT_NEAR(parallel->validation.mean_psnr_db,
                serial->validation.mean_psnr_db, 1e-9);
  }
}

TEST_F(DriverTest, BatchResultCarriesEngineCacheCounters) {
  VcdOptions options;
  options.batch_size_override = 3;
  VisualCityDriver vcd(*dataset_, options);
  systems::EngineOptions engine_options;
  video::codec::GopCache cache;
  engine_options.gop_cache = &cache;
  auto engine = systems::MakePipelineEngine(engine_options);
  auto result = vcd.RunQueryBatch(*engine, QueryId::kQ2a);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The window's decode demand shows up as cache traffic: at least one cold
  // miss, and repeat instances against the same few inputs produce hits.
  EXPECT_GT(result->engine_stats.cache_misses, 0);
  EXPECT_GT(result->engine_stats.frames_decoded, 0);
  std::string report = FormatBenchmarkReport({*result});
  EXPECT_NE(report.find("Cache"), std::string::npos);
  EXPECT_NE(report.find("% hit"), std::string::npos);
}

TEST_F(DriverTest, NoneInjectorBatchMatchesNoInjectorBatch) {
  // Faults-off byte-identity at the driver level: attaching a zero-
  // probability injector must not change any outcome, and the robustness
  // accounting must stay at zero.
  auto none = fault::ProfileByName("none");
  ASSERT_TRUE(none.ok());
  fault::FaultInjector injector(*none, 41);

  VcdOptions plain_options;
  plain_options.batch_size_override = 2;
  plain_options.execution_mode = systems::ExecutionMode::kOnline;
  plain_options.online_rate_multiplier = 10000.0;
  VcdOptions injected_options = plain_options;
  injected_options.faults = &injector;

  systems::EngineOptions engine_options;
  auto plain_engine = systems::MakePipelineEngine(engine_options);
  auto injected_engine = systems::MakePipelineEngine(engine_options);
  VisualCityDriver plain_vcd(*dataset_, plain_options);
  VisualCityDriver injected_vcd(*dataset_, injected_options);
  auto plain = plain_vcd.RunQueryBatch(*plain_engine, QueryId::kQ1);
  auto injected = injected_vcd.RunQueryBatch(*injected_engine, QueryId::kQ1);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(injected.ok()) << injected.status().ToString();

  EXPECT_EQ(injected->succeeded, plain->succeeded);
  EXPECT_EQ(injected->failed, plain->failed);
  EXPECT_EQ(injected->validation.checked, plain->validation.checked);
  EXPECT_EQ(injected->validation.passed, plain->validation.passed);
  EXPECT_NEAR(injected->validation.mean_psnr_db, plain->validation.mean_psnr_db,
              1e-9);
  EXPECT_EQ(injected->frames_degraded, 0);
  EXPECT_EQ(injected->retries, 0);
  EXPECT_EQ(plain->frames_degraded, 0);
  EXPECT_EQ(plain->retries, 0);
  // A clean run renders a "-" in the Faults column.
  std::string report = FormatBenchmarkReport({*injected});
  EXPECT_NE(report.find("Faults"), std::string::npos);
  EXPECT_EQ(report.find("degraded"), std::string::npos);
}

TEST_F(DriverTest, LossyOnlineBatchReportsDegradedFrames) {
  auto lossy = fault::ProfileByName("lossy");
  ASSERT_TRUE(lossy.ok());
  lossy->jitter_delay = std::chrono::microseconds(10);

  auto run = [&](uint64_t seed) {
    fault::FaultInjector injector(*lossy, seed);
    VcdOptions options;
    options.batch_size_override = 2;
    options.execution_mode = systems::ExecutionMode::kOnline;
    options.online_rate_multiplier = 10000.0;
    options.faults = &injector;
    options.validate = false;  // The feed is lossy; measure, don't validate.
    VisualCityDriver vcd(*dataset_, options);
    systems::EngineOptions engine_options;
    auto engine = systems::MakePipelineEngine(engine_options);
    auto result = vcd.RunQueryBatch(*engine, QueryId::kQ1);
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->frames_degraded : int64_t{-1};
  };

  int64_t first = run(47);
  // The lossy channel froze some frames, the batch still completed, and the
  // count reproduces under the same seed.
  EXPECT_GT(first, 0);
  EXPECT_EQ(first, run(47));

  fault::FaultInjector injector(*lossy, 47);
  VcdOptions options;
  options.batch_size_override = 1;
  options.execution_mode = systems::ExecutionMode::kOnline;
  options.online_rate_multiplier = 10000.0;
  options.faults = &injector;
  options.validate = false;
  VisualCityDriver vcd(*dataset_, options);
  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  auto result = vcd.RunQueryBatch(*engine, QueryId::kQ1);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->frames_degraded, 0);
  std::string report = FormatBenchmarkReport({*result});
  EXPECT_NE(report.find("degraded"), std::string::npos);
}

TEST_F(DriverTest, DegradedReadsAttributeToTheReadingThreadOnly) {
  // Regression: the batch accounting used to take a before/after delta of
  // the *global* degraded counter around the measured window, so frames
  // degraded on an unrelated thread sharing the injector were billed to the
  // batch. The thread-scoped accounting must attribute them to the reading
  // thread and nothing else.
  namespace fs = std::filesystem;
  auto profile = fault::ProfileByName("lossy");
  ASSERT_TRUE(profile.ok());
  profile->jitter_delay = std::chrono::microseconds(10);
  fault::FaultInjector injector(*profile, 41);

  std::string root = (fs::temp_directory_path() / "vr_driver_degraded").string();
  std::error_code ec;
  fs::remove_all(root, ec);
  storage::StoreOptions store_options;
  store_options.root = root;
  store_options.block_size = 8192;
  store_options.metrics_label = "driver_degraded";
  auto store = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  storage::VssOptions vss_options;
  vss_options.store = &*store;
  auto vss = storage::VideoStorageService::Open(vss_options);
  ASSERT_TRUE(vss.ok()) << vss.status().ToString();

  VcdOptions options;
  options.batch_size_override = 3;
  options.validate = false;
  options.storage = vss->get();
  options.faults = &injector;
  VisualCityDriver vcd(*dataset_, options);
  ASSERT_TRUE(vcd.StageStorage().ok());

  systems::EngineOptions engine_options;
  engine_options.vss = vss->get();
  auto engine = systems::MakePipelineEngine(engine_options);

  // A neighbour thread drains the online feed of a traffic stream through
  // the lossy channel, so freeze-frame concealment degrades some of its
  // frames. The batch itself reads offline through the storage service and
  // never degrades.
  const video::codec::EncodedVideo* stream =
      &dataset_->TrafficAssets().front()->container.video;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> neighbor_degraded{0};
  std::atomic<int64_t> sources_degraded{0};
  std::thread neighbor([&] {
    int64_t before = fault::ThreadDegraded();
    int drains = 0;
    while ((!stop.load() || drains < 4) && drains < 64) {
      systems::VideoSource source =
          systems::VideoSource::Online(stream, 10000.0, &injector);
      while (!source.AtEnd()) {
        auto frame = source.Next();
        ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      }
      sources_degraded += source.frames_degraded();
      ++drains;
    }
    neighbor_degraded = fault::ThreadDegraded() - before;
  });
  auto result = vcd.RunQueryBatch(*engine, QueryId::kQ1);
  stop = true;
  neighbor.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(neighbor_degraded.load(), 0);
  // Every frame the neighbour's sources degraded is billed to the neighbour...
  EXPECT_EQ(neighbor_degraded.load(), sources_degraded.load());
  // ...and none of them leaked into the batch's robustness accounting.
  EXPECT_EQ(result->frames_degraded, 0);
  fs::remove_all(root, ec);
}

TEST_F(DriverTest, StagingOverAnotherDatasetServesTheNewStreams) {
  // Regression: staging skipped a stream whose catalog entry had the same
  // frame count, so a store reused for another city kept serving the old
  // streams and every query validated against the wrong video.
  namespace fs = std::filesystem;
  sim::CityConfig other_config = dataset_->config;
  other_config.seed = dataset_->config.seed + 1;
  auto other = PrepareDataset(other_config);
  ASSERT_TRUE(other.ok()) << other.status().ToString();

  std::string root = (fs::temp_directory_path() /
                      ("vr_driver_restage_" + std::to_string(::getpid())))
                         .string();
  std::error_code ec;
  fs::remove_all(root, ec);
  storage::StoreOptions store_options;
  store_options.root = root;
  store_options.block_size = 8192;
  store_options.metrics_label = "driver_restage";
  auto store = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  storage::VssOptions vss_options;
  vss_options.store = &*store;
  auto vss = storage::VideoStorageService::Open(vss_options);
  ASSERT_TRUE(vss.ok()) << vss.status().ToString();

  VcdOptions options;
  options.batch_size_override = 2;
  options.storage = vss->get();
  ASSERT_TRUE(VisualCityDriver(*other, options).StageStorage().ok());

  VisualCityDriver vcd(*dataset_, options);
  ASSERT_TRUE(vcd.StageStorage().ok());
  systems::EngineOptions engine_options;
  engine_options.vss = vss->get();
  auto engine = systems::MakePipelineEngine(engine_options);
  auto result = vcd.RunQueryBatch(*engine, QueryId::kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->validation.checked, 0);
  EXPECT_EQ(result->validation.passed, result->validation.checked);

  // Staging the same dataset again writes nothing.
  const int64_t written = store->stats().bytes_written;
  ASSERT_TRUE(vcd.StageStorage().ok());
  EXPECT_EQ(store->stats().bytes_written, written);
  fs::remove_all(root, ec);
}

TEST_F(DriverTest, PoolStatsArePerBatchDeltas) {
  // Regression: the driver used to build a fresh ThreadPool per batch, so
  // PoolStats were per-batch by accident. With the driver-lifetime pool,
  // each result must still report the *delta* for its own window — a
  // second batch that shows cumulative task counts is the bug.
  VcdOptions options;
  options.batch_size_override = 4;
  options.parallel_instances = 4;
  options.validate = false;
  VisualCityDriver vcd(*dataset_, options);
  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);

  auto first = vcd.RunQueryBatch(*engine, QueryId::kQ2a);
  auto second = vcd.RunQueryBatch(*engine, QueryId::kQ2a);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // One task per instance in both windows (grain 1): cumulative counting
  // would report 8 for the second batch.
  EXPECT_EQ(first->pool_stats.tasks_submitted, 4);
  EXPECT_EQ(first->pool_stats.tasks_executed, 4);
  EXPECT_EQ(second->pool_stats.tasks_submitted, 4);
  EXPECT_EQ(second->pool_stats.tasks_executed, 4);
  // The queue peak is also per-window (reset between batches).
  EXPECT_LE(first->pool_stats.queue_peak, 4);
  EXPECT_LE(second->pool_stats.queue_peak, 4);
}

// Fails every second Execute call, so a batch splits cleanly into
// attempted-and-succeeded versus attempted-and-failed instances.
class EveryOtherFailsEngine : public systems::Vdbms {
 public:
  const char* name() const override { return "EveryOtherFailsEngine"; }
  bool Supports(QueryId) const override { return true; }
  bool ConcurrentSafe() const override { return false; }
  systems::EngineStats stats() const override { return {}; }
  StatusOr<systems::QueryOutput> Execute(
      const queries::QueryInstance&, const sim::Dataset&, systems::OutputMode,
      const std::string&, systems::EngineStats* call_stats = nullptr) override {
    if (call_stats != nullptr) *call_stats = {};
    if (++calls_ % 2 == 0) return Status::Internal("synthetic failure");
    return systems::QueryOutput{};
  }

 private:
  int calls_ = 0;
};

TEST_F(DriverTest, ThroughputCountsAttemptedFramesGoodputOnlySucceeded) {
  // Regression: frames_per_second used to divide succeeded-only frames by a
  // wall clock that included the failed instances, understating throughput
  // exactly when instances failed. Attempted throughput and goodput are now
  // separate numbers.
  VcdOptions options;
  options.batch_size_override = 4;
  options.validate = false;
  VisualCityDriver vcd(*dataset_, options);
  EveryOtherFailsEngine engine;
  auto result = vcd.RunQueryBatch(engine, QueryId::kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->succeeded, 2);
  ASSERT_EQ(result->failed, 2);
  ASSERT_GT(result->total_seconds, 0.0);

  // Every Q1 instance reads one whole traffic stream, and all streams in
  // this dataset have the same frame count, so attempted = 2x goodput.
  EXPECT_GT(result->attempted_frames, 0);
  EXPECT_NEAR(result->frames_per_second,
              static_cast<double>(result->attempted_frames) /
                  result->total_seconds,
              1e-6);
  EXPECT_NEAR(result->goodput_frames_per_second,
              result->frames_per_second / 2.0, 1e-6);
  std::string report = FormatBenchmarkReport({*result});
  EXPECT_NE(report.find("Goodput"), std::string::npos);
}

TEST_F(DriverTest, PerCallEngineStatsReportIndependentWindows) {
  // Regression: engine stats used to be sampled as before/after snapshots of
  // the engine's cumulative counters, so two concurrent (or even sequential
  // interleaved) windows conflated each other's work. The per-call out-param
  // must carry exactly one call's counters, and the calls must sum to the
  // engine's cumulative totals.
  systems::EngineOptions engine_options;
  video::codec::GopCache cache;
  engine_options.gop_cache = &cache;
  auto engine = systems::MakePipelineEngine(engine_options);
  // The vr_engine_* registry counters move by exactly the engine's stats().
  auto counter = [](const char* name) {
    return &metrics::MetricsRegistry::Global().GetCounter(name, "",
                                                          "engine=\"pipeline\"");
  };
  const std::vector<std::pair<metrics::Counter*, int64_t systems::EngineStats::*>>
      published = {
          {counter("vr_engine_frames_decoded_total"), &systems::EngineStats::frames_decoded},
          {counter("vr_engine_frames_encoded_total"), &systems::EngineStats::frames_encoded},
          {counter("vr_engine_cache_hits_total"), &systems::EngineStats::cache_hits},
          {counter("vr_engine_cache_misses_total"), &systems::EngineStats::cache_misses},
          {counter("vr_engine_chunked_redecodes_total"),
           &systems::EngineStats::chunked_redecodes},
          {counter("vr_engine_cnn_frames_full_total"), &systems::EngineStats::cnn_frames_full},
          {counter("vr_engine_cnn_frames_cheap_total"),
           &systems::EngineStats::cnn_frames_cheap},
          {counter("vr_engine_cnn_frames_skipped_total"),
           &systems::EngineStats::cnn_frames_skipped},
      };
  metrics::Counter* queries = counter("vr_engine_queries_total");
  const double queries_before = queries->Value();
  std::vector<double> before;
  for (const auto& [registry_counter, field] : published) {
    before.push_back(registry_counter->Value());
  }

  VcdOptions options;
  options.batch_size_override = 1;
  VisualCityDriver vcd(*dataset_, options);
  auto batch = vcd.SampleBatch(QueryId::kQ2a);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  const queries::QueryInstance& instance = batch->front();

  systems::EngineStats first, second;
  ASSERT_TRUE(engine
                  ->Execute(instance, *dataset_, systems::OutputMode::kWrite,
                            "", &first)
                  .ok());
  ASSERT_TRUE(engine
                  ->Execute(instance, *dataset_, systems::OutputMode::kWrite,
                            "", &second)
                  .ok());
  EXPECT_GT(first.frames_decoded, 0);
  // The second, warm call hits the GOP cache the first call populated.
  EXPECT_GT(second.cache_hits, 0);

  systems::EngineStats sum = first;
  sum.Add(second);
  systems::EngineStats cumulative = engine->stats();
  EXPECT_EQ(sum.frames_decoded, cumulative.frames_decoded);
  EXPECT_EQ(sum.frames_encoded, cumulative.frames_encoded);
  EXPECT_EQ(sum.cache_hits, cumulative.cache_hits);
  EXPECT_EQ(sum.cache_misses, cumulative.cache_misses);
  EXPECT_EQ(sum.chunked_redecodes, cumulative.chunked_redecodes);
  EXPECT_EQ(sum.cnn_frames_full, cumulative.cnn_frames_full);
  EXPECT_EQ(sum.cnn_frames_cheap, cumulative.cnn_frames_cheap);
  EXPECT_EQ(sum.cnn_frames_skipped, cumulative.cnn_frames_skipped);

  EXPECT_EQ(queries->Value() - queries_before, 2.0);
  for (size_t i = 0; i < published.size(); ++i) {
    const auto& [registry_counter, field] = published[i];
    EXPECT_EQ(registry_counter->Value() - before[i],
              static_cast<double>(cumulative.*field))
        << "counter " << i;
  }
}

// --- Report formatting ---

TEST(ReportTest, TextTableAlignsColumns) {
  TextTable table;
  table.SetHeader({"A", "LongHeader"});
  table.AddRow({"xxxxx", "1"});
  table.AddRow({"y", "22"});
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("A      LongHeader"), std::string::npos);
  EXPECT_NE(rendered.find("xxxxx"), std::string::npos);
  EXPECT_NE(rendered.find("-----"), std::string::npos);
}

TEST(ReportTest, FormatSecondsAdaptsUnits) {
  EXPECT_EQ(FormatSeconds(0.128), "128ms");
  EXPECT_EQ(FormatSeconds(3.42), "3.42s");
  EXPECT_EQ(FormatSeconds(250.0), "250s");
}

TEST(ReportTest, FormatRatioMatchesPaperStyle) {
  EXPECT_EQ(FormatRatio(0.9), "0.9x");
  EXPECT_EQ(FormatRatio(26.0), "26x");
  EXPECT_EQ(FormatRatio(1.04), "1.0x");
}

TEST(ReportTest, BenchmarkReportListsQueries) {
  std::vector<QueryBatchResult> results(1);
  results[0].id = QueryId::kQ2b;
  results[0].engine = "TestEngine";
  results[0].instances = 4;
  results[0].succeeded = 4;
  results[0].total_seconds = 1.5;
  results[0].frames_per_second = 120;
  std::string report = FormatBenchmarkReport(results);
  EXPECT_NE(report.find("Q2(b)"), std::string::npos);
  EXPECT_NE(report.find("TestEngine"), std::string::npos);
  EXPECT_NE(report.find("1.50s"), std::string::npos);
}

TEST(ReportTest, FormatPoolStatsReportsEfficiency) {
  PoolStats stats;
  stats.tasks_executed = 72;
  stats.busy_seconds = 3.2;
  stats.queue_peak = 64;
  stats.tasks_failed = 0;
  std::string line = FormatPoolStats(stats, 8, 0.5);
  EXPECT_NE(line.find("8 threads"), std::string::npos);
  EXPECT_NE(line.find("72 tasks"), std::string::npos);
  EXPECT_NE(line.find("80% efficient"), std::string::npos);
  EXPECT_NE(line.find("queue peak 64"), std::string::npos);
}

TEST(ReportTest, BenchmarkReportShowsParallelColumn) {
  std::vector<QueryBatchResult> results(2);
  results[0].id = QueryId::kQ1;
  results[0].engine = "BatchEngine";
  results[0].instances = 4;
  results[0].succeeded = 4;
  results[0].total_seconds = 2.0;
  results[0].parallel_instances = 4;
  results[0].pool_stats.busy_seconds = 6.0;
  results[1].id = QueryId::kQ2a;
  results[1].engine = "BatchEngine";
  results[1].instances = 4;
  results[1].succeeded = 4;
  results[1].total_seconds = 2.0;
  std::string report = FormatBenchmarkReport(results);
  EXPECT_NE(report.find("Parallel"), std::string::npos);
  EXPECT_NE(report.find("4 thr, 75% busy"), std::string::npos);
}

TEST(ReportTest, ReportShowsNaForMemoryFailures) {
  std::vector<QueryBatchResult> results(1);
  results[0].id = QueryId::kQ4;
  results[0].engine = "BatchEngine";
  results[0].instances = 4;
  results[0].failed = 4;
  results[0].resource_exhausted = 4;
  std::string report = FormatBenchmarkReport(results);
  EXPECT_NE(report.find("N/A (out of memory)"), std::string::npos);
}

}  // namespace
}  // namespace visualroad::driver
