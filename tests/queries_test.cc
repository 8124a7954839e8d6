#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>

#include "driver/datasets.h"
#include "driver/validation.h"
#include "queries/reference.h"
#include "queries/semantic_cache.h"
#include "storage/sharded_store.h"
#include "systems/vdbms.h"
#include "video/codec/gop_cache.h"
#include "video/image_ops.h"
#include "video/metrics.h"

namespace visualroad::queries {
namespace {

using video::Video;

/// Shared fixture: one small generated dataset for the whole binary.
class QueriesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CityConfig config;
    config.scale_factor = 1;
    config.width = 96;
    config.height = 54;
    config.duration_seconds = 1.0;
    config.fps = 15;
    config.seed = 21;
    auto dataset = driver::PrepareDataset(config);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = new sim::Dataset(std::move(dataset).value());
    auto decoded = video::codec::Decode(
        dataset_->TrafficAssets()[0]->container.video);
    ASSERT_TRUE(decoded.ok());
    input_ = new Video(std::move(decoded).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete input_;
    dataset_ = nullptr;
    input_ = nullptr;
  }

  ReferenceContext Context() const {
    ReferenceContext context;
    context.dataset = dataset_;
    return context;
  }

  static sim::Dataset* dataset_;
  static Video* input_;
};

sim::Dataset* QueriesTest::dataset_ = nullptr;
Video* QueriesTest::input_ = nullptr;

// --- Metadata ---

TEST(QueryMetaTest, NamesAndOrder) {
  EXPECT_STREQ(QueryName(QueryId::kQ1), "Q1");
  EXPECT_STREQ(QueryName(QueryId::kQ2c), "Q2(c)");
  EXPECT_STREQ(QueryName(QueryId::kQ10), "Q10");
  EXPECT_EQ(AllQueries().front(), QueryId::kQ1);
  EXPECT_EQ(AllQueries().back(), QueryId::kQ10);
  EXPECT_EQ(AllQueries().size(), static_cast<size_t>(kQueryCount));
}

TEST(QueryMetaTest, MicrobenchmarkClassification) {
  EXPECT_TRUE(IsMicrobenchmark(QueryId::kQ1));
  EXPECT_TRUE(IsMicrobenchmark(QueryId::kQ6b));
  EXPECT_FALSE(IsMicrobenchmark(QueryId::kQ7));
  EXPECT_FALSE(IsMicrobenchmark(QueryId::kQ9));
}

TEST(QueryMetaTest, ValidationKinds) {
  EXPECT_EQ(ValidationFor(QueryId::kQ1), ValidationKind::kFrame);
  EXPECT_EQ(ValidationFor(QueryId::kQ2c), ValidationKind::kSemantic);
  EXPECT_EQ(ValidationFor(QueryId::kQ2d), ValidationKind::kSemantic);
  EXPECT_EQ(ValidationFor(QueryId::kQ9), ValidationKind::kFrame);
  EXPECT_EQ(ValidationFor(QueryId::kQ8), ValidationKind::kNone);
}

// --- Parameter sampling (Table 3 domains) ---

class SamplerDomains : public QueriesTest,
                       public ::testing::WithParamInterface<uint64_t> {};

TEST_P(SamplerDomains, AllQueriesRespectDomains) {
  Pcg32 rng = SubStream(GetParam(), "sampler-test");
  for (QueryId id : AllQueries()) {
    auto instance = SampleQueryInstance(id, *dataset_, rng);
    ASSERT_TRUE(instance.ok()) << QueryName(id);
    const QueryInstance& q = *instance;
    int rx = dataset_->config.width, ry = dataset_->config.height;
    switch (id) {
      case QueryId::kQ1:
        EXPECT_GE(q.q1_rect.x0, 0);
        EXPECT_LT(q.q1_rect.x0, q.q1_rect.x1);
        EXPECT_LE(q.q1_rect.x1, rx);
        EXPECT_GE(q.q1_rect.y0, 0);
        EXPECT_LT(q.q1_rect.y0, q.q1_rect.y1);
        EXPECT_LE(q.q1_rect.y1, ry);
        EXPECT_GE(q.q1_t1, 0.0);
        EXPECT_LE(q.q1_t1, q.q1_t2);
        EXPECT_LE(q.q1_t2, dataset_->config.duration_seconds);
        break;
      case QueryId::kQ2b:
        EXPECT_GE(q.q2b_d, 3);
        EXPECT_LE(q.q2b_d, 21);
        EXPECT_EQ(q.q2b_d % 2, 1);
        break;
      case QueryId::kQ2d:
        EXPECT_GE(q.q2d_m, 2);
        EXPECT_LE(q.q2d_m, 60);
        EXPECT_GT(q.q2d_epsilon, 0.0);
        EXPECT_LT(q.q2d_epsilon, 1.0);
        break;
      case QueryId::kQ3: {
        EXPECT_GT(q.q3_dx, 0);
        EXPECT_GT(q.q3_dy, 0);
        EXPECT_FALSE(q.q3_bitrates.empty());
        for (int64_t bitrate : q.q3_bitrates) {
          EXPECT_GE(bitrate, int64_t{1} << 16);
          EXPECT_LE(bitrate, int64_t{1} << 22);
        }
        break;
      }
      case QueryId::kQ4:
      case QueryId::kQ5: {
        // Power of two in [2, 32].
        EXPECT_EQ(q.q45_alpha & (q.q45_alpha - 1), 0);
        EXPECT_GE(q.q45_alpha, 2);
        EXPECT_LE(q.q45_alpha, 32);
        EXPECT_EQ(q.q45_beta & (q.q45_beta - 1), 0);
        break;
      }
      case QueryId::kQ8:
        EXPECT_EQ(q.q8_plate.size(), 6u);
        break;
      case QueryId::kQ10:
        for (int64_t bitrate : q.q10_bitrates) {
          EXPECT_TRUE(bitrate == (int64_t{1} << 21) || bitrate == (int64_t{1} << 17));
        }
        EXPECT_GT(q.q10_client_width, 0);
        break;
      default:
        break;
    }
    if (id != QueryId::kQ9 && id != QueryId::kQ10) {
      EXPECT_GE(q.video_index, 0);
      EXPECT_LT(q.video_index, static_cast<int>(dataset_->TrafficAssets().size()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerDomains,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u));

TEST_F(QueriesTest, SamplerIsDeterministic) {
  Pcg32 a = SubStream(7, "x"), b = SubStream(7, "x");
  auto ia = SampleQueryInstance(QueryId::kQ1, *dataset_, a);
  auto ib = SampleQueryInstance(QueryId::kQ1, *dataset_, b);
  ASSERT_TRUE(ia.ok());
  ASSERT_TRUE(ib.ok());
  EXPECT_EQ(ia->q1_rect, ib->q1_rect);
  EXPECT_DOUBLE_EQ(ia->q1_t1, ib->q1_t1);
}

TEST_F(QueriesTest, SamplerCapsUpsampleExponent) {
  SamplerOptions options;
  options.max_upsample_exponent = 2;
  Pcg32 rng = SubStream(9, "cap");
  for (int i = 0; i < 50; ++i) {
    auto instance = SampleQueryInstance(QueryId::kQ4, *dataset_, rng, options);
    ASSERT_TRUE(instance.ok());
    EXPECT_LE(instance->q45_alpha, 4);
    EXPECT_LE(instance->q45_beta, 4);
  }
}

TEST_F(QueriesTest, Q8SamplesSightedPlateWhenAvailable) {
  // Collect every plate the dataset ever sighted.
  std::set<std::string> sighted;
  std::set<std::string> all_plates;
  for (const sim::VideoAsset* asset : dataset_->TrafficAssets()) {
    for (const sim::FrameGroundTruth& frame : asset->ground_truth) {
      for (const sim::GroundTruthBox& box : frame.boxes) {
        if (!box.plate.empty()) all_plates.insert(box.plate);
        if (box.plate_visible) sighted.insert(box.plate);
      }
    }
  }
  Pcg32 rng = SubStream(13, "plates");
  auto instance = SampleQueryInstance(QueryId::kQ8, *dataset_, rng);
  ASSERT_TRUE(instance.ok());
  if (!sighted.empty()) {
    EXPECT_TRUE(sighted.count(instance->q8_plate)) << instance->q8_plate;
  } else if (!all_plates.empty()) {
    EXPECT_TRUE(all_plates.count(instance->q8_plate));
  }
}

// --- Query kernels ---

TEST_F(QueriesTest, Q1SelectCropsSpaceAndTime) {
  auto result = SelectQuery(*input_, {10, 10, 50, 40}, 0.2, 0.8);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Width(), 40);
  EXPECT_EQ(result->Height(), 30);
  // [0.2, 0.8) s at 15 fps: frames 3..12 -> 9 or 10 frames.
  EXPECT_GE(result->FrameCount(), 9);
  EXPECT_LE(result->FrameCount(), 10);
  // Content must match a manual crop of the corresponding source frame.
  auto manual = video::Crop(input_->frames[3], {10, 10, 50, 40});
  ASSERT_TRUE(manual.ok());
  EXPECT_TRUE(result->frames[0].SameContentAs(*manual));
}

TEST_F(QueriesTest, Q1RejectsInvertedTime) {
  EXPECT_FALSE(SelectQuery(*input_, {0, 0, 8, 8}, 0.9, 0.1).ok());
}

TEST_F(QueriesTest, Q2aGrayscaleDropsChroma) {
  Video gray = GrayscaleQuery(*input_);
  ASSERT_EQ(gray.FrameCount(), input_->FrameCount());
  for (int f = 0; f < gray.FrameCount(); ++f) {
    const video::Frame& frame = gray.frames[static_cast<size_t>(f)];
    EXPECT_EQ(frame.U(10, 10), 128);
    EXPECT_EQ(frame.V(30, 20), 128);
    EXPECT_EQ(frame.Y(10, 10), input_->frames[static_cast<size_t>(f)].Y(10, 10));
  }
}

TEST_F(QueriesTest, Q2bBlurSmoothsFrames) {
  auto blurred = BlurQuery(*input_, 9);
  ASSERT_TRUE(blurred.ok());
  // Blur reduces luma variance.
  auto variance = [](const video::Frame& frame) {
    double sum = 0, sq = 0;
    for (uint8_t v : frame.y_plane()) {
      sum += v;
      sq += static_cast<double>(v) * v;
    }
    double n = static_cast<double>(frame.y_plane().size());
    double mean = sum / n;
    return sq / n - mean * mean;
  };
  EXPECT_LT(variance(blurred->frames[0]), variance(input_->frames[0]));
}

TEST_F(QueriesTest, Q2cBoxesMatchDetections) {
  vision::MiniYolo detector;
  const sim::VideoAsset* asset = dataset_->TrafficAssets()[0];
  auto result =
      BoxesQuery(*input_, asset->ground_truth, sim::ObjectClass::kVehicle, detector);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->video.FrameCount(), input_->FrameCount());
  ASSERT_EQ(result->detections.size(), static_cast<size_t>(input_->FrameCount()));
  video::Yuv color = vision::ClassColor(sim::ObjectClass::kVehicle);
  for (int f = 0; f < result->video.FrameCount(); ++f) {
    for (const vision::Detection& d : result->detections[static_cast<size_t>(f)]) {
      EXPECT_EQ(d.object_class, sim::ObjectClass::kVehicle);
      if (!d.box.Empty()) {
        int cx = (d.box.x0 + d.box.x1) / 2, cy = (d.box.y0 + d.box.y1) / 2;
        EXPECT_EQ(result->video.frames[static_cast<size_t>(f)].Y(cx, cy), color.y);
      }
    }
  }
}

TEST_F(QueriesTest, Q6aOverlayKeepsBaseWhereOmega) {
  vision::MiniYolo detector;
  const sim::VideoAsset* asset = dataset_->TrafficAssets()[0];
  auto boxes =
      BoxesQuery(*input_, asset->ground_truth, sim::ObjectClass::kVehicle, detector);
  ASSERT_TRUE(boxes.ok());
  auto merged = UnionBoxesQuery(*input_, boxes->video);
  ASSERT_TRUE(merged.ok());
  // Find a frame/pixel where the box video is omega: output == input there.
  const video::Frame& box_frame = boxes->video.frames[0];
  const video::Frame& in_frame = input_->frames[0];
  const video::Frame& out_frame = merged->frames[0];
  for (int y = 0; y < box_frame.height(); y += 7) {
    for (int x = 0; x < box_frame.width(); x += 7) {
      video::Yuv box_pixel{box_frame.Y(x, y), box_frame.U(x, y), box_frame.V(x, y)};
      if (video::IsOmega(box_pixel)) {
        EXPECT_EQ(out_frame.Y(x, y), in_frame.Y(x, y));
      } else {
        EXPECT_EQ(out_frame.Y(x, y), box_pixel.y);
      }
    }
  }
}

TEST_F(QueriesTest, Q6bCaptionsAppearAtCueTimes) {
  video::WebVttDocument captions;
  video::WebVttCue cue;
  cue.start_seconds = 0.0;
  cue.end_seconds = 0.4;
  cue.line_percent = 50;
  cue.position_percent = 50;
  cue.text = "TEST";
  captions.cues.push_back(cue);
  auto merged = UnionCaptionsQuery(*input_, captions);
  ASSERT_TRUE(merged.ok());
  // Frame 0 (t=0) differs from input; the last frame (t>0.4) matches it.
  EXPECT_FALSE(merged->frames[0].SameContentAs(input_->frames[0]));
  EXPECT_TRUE(merged->frames.back().SameContentAs(input_->frames.back()));
}

TEST_F(QueriesTest, ReferenceQ5HalvesResolution) {
  QueryInstance instance;
  instance.id = QueryId::kQ5;
  instance.video_index = 0;
  instance.q45_alpha = 2;
  instance.q45_beta = 2;
  auto result = RunReference(Context(), instance, *input_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->video.Width(), input_->Width() / 2);
  EXPECT_EQ(result->video.Height(), input_->Height() / 2);
}

TEST_F(QueriesTest, ReferenceQ4Doubles) {
  QueryInstance instance;
  instance.id = QueryId::kQ4;
  instance.video_index = 0;
  instance.q45_alpha = 2;
  instance.q45_beta = 2;
  auto result = RunReference(Context(), instance, *input_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->video.Width(), input_->Width() * 2);
}

TEST_F(QueriesTest, ReferenceQ3PreservesResolutionApproximately) {
  QueryInstance instance;
  instance.id = QueryId::kQ3;
  instance.video_index = 0;
  instance.q3_dx = input_->Width() / 2;
  instance.q3_dy = input_->Height() / 2;
  instance.q3_bitrates = {int64_t{1} << 20, int64_t{1} << 18};
  auto result = RunReference(Context(), instance, *input_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->video.Width(), input_->Width());
  EXPECT_EQ(result->video.Height(), input_->Height());
  auto psnr = video::MeanPsnr(*input_, result->video);
  ASSERT_TRUE(psnr.ok());
  EXPECT_GT(*psnr, 25.0);
}

TEST_F(QueriesTest, ReferenceQ7ComposesWithoutError) {
  QueryInstance instance;
  instance.id = QueryId::kQ7;
  instance.video_index = 0;
  instance.object_class = sim::ObjectClass::kVehicle;
  instance.q2d_m = 5;
  instance.q2d_epsilon = 0.2;
  auto result = RunReference(Context(), instance, *input_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->video.FrameCount(), input_->FrameCount());
}

TEST_F(QueriesTest, Q9StitchHasPanoramaShape) {
  auto stitched = StitchQuery(Context(), 0);
  ASSERT_TRUE(stitched.ok());
  EXPECT_EQ(stitched->Width(), PanoramaWidth(dataset_->config));
  EXPECT_EQ(stitched->Height(), PanoramaHeight(dataset_->config));
  EXPECT_EQ(stitched->FrameCount(), 15);
}

TEST_F(QueriesTest, Q9MissingGroupFails) {
  EXPECT_FALSE(StitchQuery(Context(), 99).ok());
}

TEST_F(QueriesTest, Q10ProducesClientResolution) {
  auto stitched = StitchQuery(Context(), 0);
  ASSERT_TRUE(stitched.ok());
  std::array<int64_t, 9> bitrates;
  for (size_t i = 0; i < 9; ++i) {
    bitrates[i] = i % 3 == 0 ? (int64_t{1} << 21) : (int64_t{1} << 17);
  }
  auto result = TileStreamQuery(*stitched, bitrates, 96, 48,
                                video::codec::Profile::kH264Like);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Width(), 96);
  EXPECT_EQ(result->Height(), 48);
}

TEST_F(QueriesTest, Q8UnknownPlateYieldsEmptyVideo) {
  auto result = TrackingQuery(Context(), "??????", nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->FrameCount(), 0);
}

/// Builds a synthetic one-video dataset in which a known plate is painted
/// onto a "vehicle" region for a known frame range — a deterministic Q8
/// scenario independent of simulation randomness.
sim::Dataset MakeSyntheticTrackingDataset(const std::string& plate,
                                          int plate_first, int plate_last) {
  const int w = 160, h = 90, frames = 12;
  video::Video raw;
  raw.fps = 15;
  sim::VideoAsset asset;
  asset.camera.kind = sim::CameraKind::kTraffic;
  for (int f = 0; f < frames; ++f) {
    video::Frame frame(w, h);
    frame.Fill(90, 120, 136);
    sim::FrameGroundTruth truth;
    // A large, fully visible "vehicle" box every frame.
    sim::GroundTruthBox box;
    box.entity_id = 1001;
    box.object_class = sim::ObjectClass::kVehicle;
    box.box = {30, 20, 130, 80};
    box.visible_fraction = 1.0;
    box.plate = plate;
    if (f >= plate_first && f <= plate_last) {
      // Paint the plate interior into the vehicle box (the canonical grid).
      std::vector<float> tmpl = vision::RenderPlateTemplate(plate, 76, 18);
      for (int y = 0; y < 18; ++y) {
        for (int x = 0; x < 76; ++x) {
          bool dark = tmpl[static_cast<size_t>(y) * 76 + x] < 0.5f;
          frame.SetPixel(50 + x, 45 + y, dark ? 25 : 230, 128, 128);
        }
      }
      box.plate_visible = true;
      box.plate_box = {50, 45, 126, 63};
    }
    truth.boxes.push_back(box);
    asset.ground_truth.push_back(std::move(truth));
    raw.frames.push_back(std::move(frame));
  }
  video::codec::EncoderConfig codec;
  codec.qp = 8;  // Near-lossless so the painted plate survives.
  asset.container.video = *video::codec::Encode(raw, codec);

  sim::Dataset dataset;
  dataset.config.scale_factor = 1;
  dataset.config.width = w;
  dataset.config.height = h;
  dataset.config.fps = 15;
  dataset.assets.push_back(std::move(asset));
  return dataset;
}

TEST_F(QueriesTest, Q8TrackingSegmentsAreOrderedAndConcatenated) {
  // Two painted sightings of one plate on two traffic videos. The second
  // video's sighting enters first, so ordering by entry time puts it first.
  sim::Dataset dataset = MakeSyntheticTrackingDataset("KR7W2P", 6, 9);
  dataset.assets.push_back(
      std::move(MakeSyntheticTrackingDataset("KR7W2P", 1, 4).assets[0]));
  ReferenceContext context;
  context.dataset = &dataset;
  context.detector_options.base_recall = 0.999;
  context.detector_options.box_jitter = 0.01;
  std::vector<TrackingSegment> segments;
  auto result = TrackingQuery(context, "KR7W2P", &segments);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(segments.size(), 2u);
  EXPECT_EQ(segments.front().asset_index, 1);
  EXPECT_EQ(segments.back().asset_index, 0);

  // The result is the segments' source frames, back to back in order.
  std::vector<Video> decoded;
  for (const sim::VideoAsset& asset : dataset.assets) {
    auto video = video::codec::Decode(asset.container.video);
    ASSERT_TRUE(video.ok()) << video.status().ToString();
    decoded.push_back(std::move(video).value());
  }
  int total_frames = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    const TrackingSegment& segment = segments[i];
    EXPECT_LE(segment.first_frame, segment.last_frame);
    if (i > 0) {
      EXPECT_LE(segments[i - 1].first_frame, segment.first_frame);
    }
    for (int f = segment.first_frame; f <= segment.last_frame; ++f) {
      ASSERT_LT(total_frames, result->FrameCount());
      EXPECT_EQ(result->frames[static_cast<size_t>(total_frames)].y_plane(),
                decoded[static_cast<size_t>(segment.asset_index)]
                    .frames[static_cast<size_t>(f)]
                    .y_plane());
      ++total_frames;
    }
  }
  EXPECT_EQ(result->FrameCount(), total_frames);
}

TEST(TrackingDeterministicTest, FindsThePaintedSegment) {
  sim::Dataset dataset = MakeSyntheticTrackingDataset("KR7W2P", 3, 8);
  ReferenceContext context;
  context.dataset = &dataset;
  // This test exercises segment formation, not detector noise: make the
  // region proposals near-certain.
  context.detector_options.base_recall = 0.999;
  context.detector_options.box_jitter = 0.01;
  std::vector<TrackingSegment> segments;
  auto result = TrackingQuery(context, "KR7W2P", &segments);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(segments.size(), 1u);
  // The recogniser should find the plate within a frame of the painted
  // range (the detector's per-frame miss probability can clip an endpoint).
  EXPECT_NEAR(segments[0].first_frame, 3, 1);
  EXPECT_NEAR(segments[0].last_frame, 8, 1);
  EXPECT_EQ(result->FrameCount(),
            segments[0].last_frame - segments[0].first_frame + 1);
}

TEST(TrackingDeterministicTest, WrongPlateFindsNothing) {
  sim::Dataset dataset = MakeSyntheticTrackingDataset("KR7W2P", 3, 8);
  ReferenceContext context;
  context.dataset = &dataset;
  context.detector_options.base_recall = 0.999;
  context.detector_options.box_jitter = 0.01;
  std::vector<TrackingSegment> segments;
  auto result = TrackingQuery(context, "XX9QQ4", &segments);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(segments.empty());
  EXPECT_EQ(result->FrameCount(), 0);
}

/// The encoded Q8 result both general engines produce over the painted-plate
/// dataset with a near-certain detector.
constexpr uint64_t kPinnedEngineQ8 = 0x46bb137a40795b4cull;

/// Q8 on the two general engines over the painted-plate dataset: each finds
/// the segment, matches the reference frame for frame, and encodes the same
/// pinned stream.
TEST(TrackingDeterministicTest, EnginesMatchTheReference) {
  sim::Dataset dataset = MakeSyntheticTrackingDataset("KR7W2P", 3, 8);
  ReferenceContext context;
  context.dataset = &dataset;
  context.detector_options.base_recall = 0.999;
  context.detector_options.box_jitter = 0.01;
  auto reference = TrackingQuery(context, "KR7W2P", nullptr);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->FrameCount(), 0);

  QueryInstance instance;
  instance.id = QueryId::kQ8;
  instance.q8_plate = "KR7W2P";
  for (auto make : {systems::MakeBatchEngine, systems::MakePipelineEngine}) {
    video::codec::GopCache gops;
    systems::EngineOptions options;
    options.detector = context.detector_options;
    options.gop_cache = &gops;
    std::unique_ptr<systems::Vdbms> engine = make(options);
    auto output = engine->Execute(instance, dataset, systems::OutputMode::kWrite, "");
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    auto stats =
        driver::FrameValidate(output->video, *reference, video::kValidationPsnrDb);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->checked, reference->FrameCount()) << engine->name();
    EXPECT_EQ(stats->passed, stats->checked) << engine->name();
    EXPECT_EQ(video::codec::StreamIdentity(output->video), kPinnedEngineQ8)
        << engine->name() << ": 0x" << std::hex
        << video::codec::StreamIdentity(output->video);
  }
}

/// Q2(c) over every traffic stream fills an injected semantic cache with the
/// detections Q8 reads: Q8 then runs no full-CNN frame and encodes the same
/// pinned stream.
TEST(TrackingDeterministicTest, CacheWarmedByQ2cSkipsTheDetector) {
  sim::Dataset dataset = MakeSyntheticTrackingDataset("KR7W2P", 3, 8);
  QueryInstance boxes;
  boxes.id = QueryId::kQ2c;
  QueryInstance track;
  track.id = QueryId::kQ8;
  track.q8_plate = "KR7W2P";
  for (auto make : {systems::MakeBatchEngine, systems::MakePipelineEngine}) {
    video::codec::GopCache gops;
    SemanticCache semantic;
    systems::EngineOptions options;
    options.detector.base_recall = 0.999;
    options.detector.box_jitter = 0.01;
    options.gop_cache = &gops;
    options.semantic_cache = &semantic;
    std::unique_ptr<systems::Vdbms> engine = make(options);
    for (size_t v = 0; v < dataset.TrafficAssets().size(); ++v) {
      boxes.video_index = static_cast<int>(v);
      ASSERT_TRUE(
          engine->Execute(boxes, dataset, systems::OutputMode::kStreaming, "").ok());
    }
    systems::EngineStats stats;
    auto output =
        engine->Execute(track, dataset, systems::OutputMode::kWrite, "", &stats);
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    EXPECT_EQ(stats.cnn_frames_full, 0) << engine->name();
    EXPECT_EQ(semantic.stats().hits, static_cast<int64_t>(dataset.TrafficAssets().size()))
        << engine->name();
    EXPECT_EQ(video::codec::StreamIdentity(output->video), kPinnedEngineQ8)
        << engine->name();
  }
}

/// Entries also reach a semantic cache from store files, whose reader cannot
/// know a stream's frame count. A persisted entry short of its stream is not
/// served: the plan stays cold, and Q8 and Q2(c) each recompute the stream's
/// detections, produce what they produce without it, and replace it.
TEST(TrackingDeterministicTest, PersistedEntryShortOfItsStreamIsRecomputed) {
  sim::Dataset dataset = MakeSyntheticTrackingDataset("KR7W2P", 3, 8);
  const std::string root =
      (std::filesystem::temp_directory_path() / "vr_semcache_short_entry_test")
          .string();
  std::filesystem::remove_all(root);
  storage::StoreOptions store_options;
  store_options.root = root;
  auto store = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  SemanticCacheOptions cache_options;
  cache_options.store = &*store;

  QueryInstance boxes;
  boxes.id = QueryId::kQ2c;
  QueryInstance track;
  track.id = QueryId::kQ8;
  track.q8_plate = "KR7W2P";
  auto make_engine = [](video::codec::GopCache& gops, SemanticCache& semantic) {
    systems::EngineOptions options;
    options.detector.base_recall = 0.999;
    options.detector.box_jitter = 0.01;
    options.gop_cache = &gops;
    options.semantic_cache = &semantic;
    return systems::MakePipelineEngine(options);
  };

  // Q2(c) into an empty cache materializes the stream's entry; persist a copy
  // cut to half the stream under the same key.
  video::codec::GopCache seed_gops;
  SemanticCache seeded(cache_options);
  auto expected_boxes = make_engine(seed_gops, seeded)
                            ->Execute(boxes, dataset, systems::OutputMode::kWrite, "");
  ASSERT_TRUE(expected_boxes.ok()) << expected_boxes.status().ToString();
  ASSERT_EQ(seeded.Snapshot().size(), 1u);
  SemanticEntry cut = *seeded.Snapshot()[0];
  const size_t frames = cut.detections.size();
  ASSERT_EQ(frames, 12u);
  cut.detections.resize(frames / 2);
  seeded.Insert(cut);
  ASSERT_TRUE(seeded.Persist().ok());

  for (const QueryInstance& query : {track, boxes}) {
    video::codec::GopCache gops;
    SemanticCache recovered(cache_options);
    ASSERT_TRUE(recovered.LoadPersisted().ok());
    ASSERT_EQ(recovered.Peek(cut.key)->detections.size(), frames / 2);
    std::unique_ptr<systems::Vdbms> engine = make_engine(gops, recovered);
    const std::string plan = engine->Explain(boxes, dataset);
    EXPECT_NE(plan.find("semcache=cold"), std::string::npos) << plan;
    auto output = engine->Execute(query, dataset, systems::OutputMode::kWrite, "");
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    const uint64_t expected = query.id == QueryId::kQ8
                                  ? kPinnedEngineQ8
                                  : video::codec::StreamIdentity(expected_boxes->video);
    EXPECT_EQ(video::codec::StreamIdentity(output->video), expected)
        << QueryName(query.id);
    EXPECT_EQ(recovered.Peek(cut.key)->detections.size(), frames);
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace visualroad::queries
