#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "common/random.h"
#include "common/serialize.h"
#include "simulation/city.h"
#include "simulation/render/scene_renderer.h"
#include "video/color.h"
#include "video/metrics.h"
#include "vision/alpr.h"
#include "vision/background.h"
#include "vision/convnet.h"
#include "vision/font.h"
#include "vision/miniyolo.h"
#include "vision/overlay.h"
#include "vision/stitcher.h"
#include "vision/tiling.h"

namespace visualroad::vision {
namespace {

using video::Frame;
using video::Video;

Frame GradientFrame(int w, int h, int shift = 0) {
  Frame frame(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      frame.SetPixel(x, y, static_cast<uint8_t>((x * 3 + y * 2 + shift) & 0xFF),
                     static_cast<uint8_t>(100 + (x & 15)),
                     static_cast<uint8_t>(150 - (y & 15)));
    }
  }
  return frame;
}

Video GradientVideo(int w, int h, int frames) {
  Video v;
  v.fps = 15;
  for (int f = 0; f < frames; ++f) v.frames.push_back(GradientFrame(w, h, f * 4));
  return v;
}

// --- Tensor & convnet ---

TEST(TensorTest, IndexingIsChw) {
  Tensor t(2, 3, 4);
  t.At(1, 2, 3) = 7.5f;
  EXPECT_FLOAT_EQ(t.Channel(1)[2 * 4 + 3], 7.5f);
  EXPECT_EQ(t.size(), 24u);
}

TEST(ConvTest, OutputShapeWithPaddingAndStride) {
  Conv2d conv(3, 8, 3, 1, 1);
  Tensor input(3, 16, 20);
  Tensor output = conv.Forward(input);
  EXPECT_EQ(output.channels(), 8);
  EXPECT_EQ(output.height(), 16);
  EXPECT_EQ(output.width(), 20);
}

TEST(ConvTest, StrideTwoHalvesSpatialSize) {
  Conv2d conv(1, 4, 3, 2, 2);
  Tensor input(1, 16, 16);
  Tensor output = conv.Forward(input);
  EXPECT_EQ(output.height(), 8);
  EXPECT_EQ(output.width(), 8);
}

TEST(ConvTest, DeterministicWeights) {
  Conv2d a(3, 4, 3, 1, 55), b(3, 4, 3, 1, 55);
  Tensor input(3, 8, 8);
  for (size_t i = 0; i < input.data().size(); ++i) {
    input.data()[i] = static_cast<float>(i % 13) * 0.1f;
  }
  Tensor out_a = a.Forward(input);
  Tensor out_b = b.Forward(input);
  EXPECT_EQ(out_a.data(), out_b.data());
}

TEST(ConvTest, ZeroInputGivesBiasOutput) {
  constexpr int kIn = 2, kOut = 3, kKernel = 3;
  Conv2d conv(kIn, kOut, kKernel, 1, 9);
  Tensor input(kIn, 6, 6);
  Tensor output = conv.Forward(input);
  // The biases, drawn from the stream the constructor draws from: every
  // weight first, then one bias per output channel.
  Pcg32 rng = SubStream(9, "conv-weights");
  double scale = std::sqrt(2.0 / (kIn * kKernel * kKernel));
  for (int i = 0; i < kOut * kIn * kKernel * kKernel; ++i) rng.NextGaussian(0.0, scale);
  // Every spatial position of a channel, border included, is that
  // channel's bias exactly.
  for (int c = 0; c < kOut; ++c) {
    float bias = static_cast<float>(rng.NextGaussian(0.0, 0.01));
    ASSERT_NE(bias, 0.0f);
    for (int y = 0; y < output.height(); ++y) {
      for (int x = 0; x < output.width(); ++x) {
        EXPECT_EQ(output.At(c, y, x), bias) << "channel " << c << " at " << x << "," << y;
      }
    }
  }
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

/// FNV-1a over a tensor's shape and the bytes of its values, continuing
/// from `h`.
uint64_t TensorDigest(const Tensor& tensor, uint64_t h = kFnvOffset) {
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (int dim : {tensor.channels(), tensor.height(), tensor.width()}) {
    mix(static_cast<uint8_t>(dim & 0xFF));
    mix(static_cast<uint8_t>(dim >> 8));
  }
  const auto* bytes = reinterpret_cast<const uint8_t*>(tensor.data().data());
  for (size_t i = 0; i < tensor.size() * sizeof(float); ++i) mix(bytes[i]);
  return h;
}

// Pins Conv2d's output bits for every kernel and stride over shapes down to
// 1x1, inputs narrower or shorter than the kernel included. A faster loop
// must add each output's in-range taps in the same order, so none of these
// may move.
TEST(ConvTest, ForwardDigestsArePinned) {
  struct Case {
    int kernel;
    int stride;
    uint64_t digest;
  };
  constexpr Case kPinned[] = {
      {1, 1, 0x9eb1d6796b3c67bbull}, {1, 2, 0xa075d5e76dcc468dull},
      {1, 3, 0x4991462c0a21a0efull}, {3, 1, 0x054325e90cb6e824ull},
      {3, 2, 0xb457a6459a9b92c1ull}, {3, 3, 0xfb4b07726f98b400ull},
      {5, 1, 0x96cd4075594cc321ull}, {5, 2, 0xc7c8e79f8503a4beull},
      {5, 3, 0x88318e75aab02dbaull},
  };
  constexpr std::pair<int, int> kShapes[] = {{1, 1}, {1, 2},  {2, 1},   {2, 2},
                                             {3, 5}, {7, 4}, {13, 17}, {33, 31}};
  for (const Case& c : kPinned) {
    Conv2d conv(3, 4, c.kernel, c.stride, 100 + c.kernel * 10 + c.stride);
    Pcg32 rng = SubStream(7, "conv-digest-input");
    uint64_t h = kFnvOffset;
    for (auto [height, width] : kShapes) {
      Tensor input(3, height, width);
      for (float& v : input.data()) v = static_cast<float>(rng.NextDouble(-1.0, 1.0));
      h = TensorDigest(conv.Forward(input), h);
    }
    EXPECT_EQ(h, c.digest) << "kernel " << c.kernel << " stride " << c.stride
                           << ": 0x" << std::hex << h;
  }
}

TEST(ConvTest, MacsAccounting) {
  Conv2d conv(3, 8, 3, 1, 1);
  EXPECT_EQ(conv.MacsFor(10, 10), static_cast<int64_t>(8) * 3 * 9 * 100);
  // Strided layers count the outputs Forward makes: 7x7 at stride 2 gives
  // 4x4, and 7x5 at stride 3 gives 3x2.
  Conv2d stride2(3, 8, 3, 2, 1);
  Tensor input(3, 7, 7);
  Tensor output = stride2.Forward(input);
  ASSERT_EQ(output.height(), 4);
  ASSERT_EQ(output.width(), 4);
  EXPECT_EQ(stride2.MacsFor(7, 7), static_cast<int64_t>(8) * 3 * 9 * 16);
  Conv2d stride3(3, 8, 3, 3, 1);
  output = stride3.Forward(Tensor(3, 7, 5));
  ASSERT_EQ(output.height(), 3);
  ASSERT_EQ(output.width(), 2);
  EXPECT_EQ(stride3.MacsFor(7, 5), static_cast<int64_t>(8) * 3 * 9 * 6);
}

TEST(ConvnetTest, MaxPoolTakesMaxima) {
  Tensor input(1, 4, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) input.At(0, y, x) = static_cast<float>(y * 4 + x);
  }
  Tensor output = MaxPool2x2(input);
  EXPECT_EQ(output.height(), 2);
  EXPECT_FLOAT_EQ(output.At(0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(output.At(0, 1, 1), 15.0f);
}

TEST(ConvnetTest, LeakyReluScalesNegatives) {
  Tensor t(1, 1, 4);
  t.data() = {-10.0f, -1.0f, 0.0f, 5.0f};
  LeakyRelu(t);
  EXPECT_FLOAT_EQ(t.data()[0], -1.0f);
  EXPECT_FLOAT_EQ(t.data()[1], -0.1f);
  EXPECT_FLOAT_EQ(t.data()[2], 0.0f);
  EXPECT_FLOAT_EQ(t.data()[3], 5.0f);
}

// --- MiniYolo ---

sim::FrameGroundTruth MakeTruth(std::initializer_list<sim::GroundTruthBox> boxes) {
  sim::FrameGroundTruth truth;
  truth.boxes = boxes;
  return truth;
}

sim::GroundTruthBox MakeBox(int32_t id, sim::ObjectClass cls, RectI rect,
                            double visibility) {
  sim::GroundTruthBox box;
  box.entity_id = id;
  box.object_class = cls;
  box.box = rect;
  box.visible_fraction = visibility;
  return box;
}

TEST(MiniYoloTest, ForwardProducesGridActivations) {
  MiniYolo detector;
  Tensor grid = detector.Forward(GradientFrame(96, 54));
  EXPECT_EQ(grid.channels(), 8);
  EXPECT_EQ(grid.height(), 12);
  EXPECT_EQ(grid.width(), 12);
  EXPECT_GT(detector.MacsPerFrame(), 1000000);
}

// Pins the network's output bits on one frame at the three input sizes the
// engines run: cascade-sized, the pipeline's reference 96 and the batch
// engine's 224.
TEST(MiniYoloTest, ForwardDigestsArePinned) {
  constexpr std::pair<int, uint64_t> kPinned[] = {
      {48, 0x80ed0d96b03029bcull},
      {96, 0x976b91a9fe84e4a2ull},
      {224, 0xbb8ed1bd3b5fdebdull}};
  Frame frame = GradientFrame(160, 90);
  for (auto [size, digest] : kPinned) {
    DetectorOptions options;
    options.input_size = size;
    uint64_t h = TensorDigest(MiniYolo(options).Forward(frame));
    EXPECT_EQ(h, digest) << "input " << size << ": 0x" << std::hex << h;
  }
}

TEST(MiniYoloTest, DetectsClearlyVisibleObjects) {
  MiniYolo detector;
  Frame frame = GradientFrame(160, 90);
  auto truth = MakeTruth({MakeBox(1001, sim::ObjectClass::kVehicle,
                                  {40, 30, 100, 70}, 1.0)});
  int detected = 0;
  for (int f = 0; f < 40; ++f) {
    for (const Detection& d : detector.Detect(frame, truth, f)) {
      if (d.entity_id == 1001) ++detected;
    }
  }
  EXPECT_GT(detected, 25);  // High recall for large fully-visible objects.
}

TEST(MiniYoloTest, NeverDetectsHeavilyOccludedObjects) {
  MiniYolo detector;
  Frame frame = GradientFrame(160, 90);
  auto truth = MakeTruth({MakeBox(1001, sim::ObjectClass::kVehicle,
                                  {40, 30, 100, 70}, 0.05)});
  for (int f = 0; f < 20; ++f) {
    for (const Detection& d : detector.Detect(frame, truth, f)) {
      EXPECT_NE(d.entity_id, 1001);
    }
  }
}

TEST(MiniYoloTest, NeverDetectsTinyObjects) {
  MiniYolo detector;
  Frame frame = GradientFrame(160, 90);
  auto truth = MakeTruth({MakeBox(1001, sim::ObjectClass::kVehicle,
                                  {40, 30, 42, 32}, 1.0)});
  for (int f = 0; f < 20; ++f) {
    EXPECT_TRUE(detector.Detect(frame, truth, f).empty() ||
                detector.Detect(frame, truth, f)[0].entity_id != 1001);
  }
}

TEST(MiniYoloTest, DeterministicPerFrameAndEntity) {
  MiniYolo a, b;
  Frame frame = GradientFrame(160, 90);
  auto truth = MakeTruth({MakeBox(1001, sim::ObjectClass::kVehicle,
                                  {40, 30, 100, 70}, 0.8),
                          MakeBox(2002, sim::ObjectClass::kPedestrian,
                                  {110, 20, 130, 60}, 0.9)});
  for (int f = 0; f < 10; ++f) {
    auto da = a.Detect(frame, truth, f);
    auto db = b.Detect(frame, truth, f);
    ASSERT_EQ(da.size(), db.size());
    for (size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].box, db[i].box);
      EXPECT_DOUBLE_EQ(da[i].score, db[i].score);
    }
  }
}

TEST(MiniYoloTest, EmptyTruthYieldsAtMostFalsePositives) {
  MiniYolo detector;
  Frame frame = GradientFrame(160, 90);
  sim::FrameGroundTruth empty;
  int false_positives = 0;
  for (int f = 0; f < 200; ++f) {
    false_positives += static_cast<int>(detector.Detect(frame, empty, f).size());
  }
  // Around options.false_positives_per_frame * 200 = ~8.
  EXPECT_LT(false_positives, 30);
}

TEST(MiniYoloTest, ScoresSortedDescending) {
  MiniYolo detector;
  Frame frame = GradientFrame(160, 90);
  auto truth = MakeTruth({MakeBox(1001, sim::ObjectClass::kVehicle,
                                  {10, 10, 60, 50}, 1.0),
                          MakeBox(1002, sim::ObjectClass::kVehicle,
                                  {80, 30, 140, 80}, 0.5)});
  auto detections = detector.Detect(frame, truth, 3);
  for (size_t i = 1; i < detections.size(); ++i) {
    EXPECT_GE(detections[i - 1].score, detections[i].score);
  }
}

TEST(MiniYoloTest, ClassColorsAreDistinctNonOmega) {
  video::Yuv vehicle = ClassColor(sim::ObjectClass::kVehicle);
  video::Yuv pedestrian = ClassColor(sim::ObjectClass::kPedestrian);
  EXPECT_FALSE(video::IsOmega(vehicle));
  EXPECT_FALSE(video::IsOmega(pedestrian));
  EXPECT_NE(vehicle, pedestrian);
}

// --- Font & overlay ---

TEST(FontTest, TextWidthScalesLinearly) {
  EXPECT_EQ(TextWidth("AB", 1), 11);
  EXPECT_EQ(TextWidth("AB", 2), 22);
  EXPECT_EQ(TextWidth("", 3), 0);
  EXPECT_EQ(TextHeight(2), 14);
}

TEST(FontTest, DrawTextWritesInkInsideBounds) {
  Frame frame(64, 32);
  DrawText(frame, "HI", 4, 4, 2, {235, 128, 128});
  int ink = 0;
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 64; ++x) {
      if (frame.Y(x, y) == 235) ++ink;
    }
  }
  EXPECT_GT(ink, 20);
}

TEST(FontTest, DrawTextClipsAtEdges) {
  Frame frame(16, 8);
  DrawText(frame, "WWWWWW", -10, -3, 3, {235, 128, 128});  // Mostly off-frame.
  SUCCEED();  // No crash; clipping handled.
}

TEST(OverlayTest, DetectionFrameFillsClassColor) {
  Detection detection;
  detection.object_class = sim::ObjectClass::kVehicle;
  detection.box = {10, 10, 20, 20};
  detection.score = 0.9;
  Frame frame = RenderDetectionFrame(32, 32, {detection});
  video::Yuv expected = ClassColor(sim::ObjectClass::kVehicle);
  EXPECT_EQ(frame.Y(15, 15), expected.y);
  EXPECT_EQ(frame.Y(5, 5), video::kOmega.y);
  EXPECT_EQ(frame.U(5, 5), video::kOmega.u);
}

TEST(OverlayTest, HigherScoreWinsOverlap) {
  Detection low, high;
  low.object_class = sim::ObjectClass::kVehicle;
  low.box = {0, 0, 20, 20};
  low.score = 0.3;
  high.object_class = sim::ObjectClass::kPedestrian;
  high.box = {10, 10, 30, 30};
  high.score = 0.9;
  Frame frame = RenderDetectionFrame(32, 32, {low, high});
  video::Yuv pedestrian = ClassColor(sim::ObjectClass::kPedestrian);
  EXPECT_EQ(frame.Y(15, 15), pedestrian.y);  // Overlap region.
}

TEST(OverlayTest, CaptionFrameRespectsCueSettings) {
  video::WebVttDocument captions;
  video::WebVttCue cue;
  cue.start_seconds = 0;
  cue.end_seconds = 10;
  cue.line_percent = 50;
  cue.position_percent = 50;
  cue.text = "X";
  captions.cues.push_back(cue);
  Frame frame = RenderCaptionFrame(64, 64, captions, 1.0);
  // Ink near the centre, omega at the corner.
  int centre_ink = 0;
  for (int y = 24; y < 40; ++y) {
    for (int x = 24; x < 40; ++x) {
      if (frame.Y(x, y) > 200) ++centre_ink;
    }
  }
  EXPECT_GT(centre_ink, 3);
  EXPECT_EQ(frame.Y(0, 0), video::kOmega.y);
}

TEST(OverlayTest, InactiveCuesRenderNothing) {
  video::WebVttDocument captions;
  video::WebVttCue cue;
  cue.start_seconds = 5;
  cue.end_seconds = 6;
  cue.text = "LATE";
  captions.cues.push_back(cue);
  Frame frame = RenderCaptionFrame(32, 32, captions, 1.0);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      EXPECT_EQ(frame.Y(x, y), video::kOmega.y);
    }
  }
}

TEST(OverlayTest, DetectionSerializationRoundTrips) {
  std::vector<std::vector<Detection>> per_frame(2);
  Detection d;
  d.object_class = sim::ObjectClass::kPedestrian;
  d.box = {1, 2, 3, 4};
  d.score = 0.75;
  d.entity_id = 2007;
  per_frame[0].push_back(d);
  auto parsed = ParseDetections(SerializeDetections(per_frame));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  ASSERT_EQ((*parsed)[0].size(), 1u);
  EXPECT_EQ((*parsed)[0][0].box, (RectI{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ((*parsed)[0][0].score, 0.75);
  EXPECT_EQ((*parsed)[0][0].entity_id, 2007);
  EXPECT_TRUE((*parsed)[1].empty());
}

TEST(OverlayTest, DetectionFrameCountBeyondPayloadIsDataLoss) {
  auto parsed = ParseDetections({0xFF, 0xFF, 0xFF, 0xFF});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
}

TEST(OverlayTest, DetectionCountBeyondPayloadIsDataLoss) {
  // One frame claiming 2^24, then 2^32-1, detections with none present.
  for (uint32_t claimed : {1u << 24, 0xFFFFFFFFu}) {
    ByteWriter payload;
    payload.U32(1);
    payload.U32(claimed);
    auto parsed = ParseDetections(payload.bytes());
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
  }
}

// --- Background masking ---

class BackgroundEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackgroundEquivalence, RunningMatchesNaive) {
  int m = GetParam();
  Video input = GradientVideo(32, 24, 12);
  // Add a moving bright block so some pixels are dynamic.
  for (int f = 0; f < input.FrameCount(); ++f) {
    for (int y = 0; y < 6; ++y) {
      for (int x = 0; x < 6; ++x) {
        input.frames[static_cast<size_t>(f)].SetY((f * 2 + x) % 32, (y + f) % 24, 250);
      }
    }
  }
  auto running = MaskBackgroundRunning(input, m, 0.15);
  auto naive = MaskBackgroundNaive(input, m, 0.15);
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(running->FrameCount(), naive->FrameCount());
  for (int f = 0; f < running->FrameCount(); ++f) {
    EXPECT_TRUE(running->frames[static_cast<size_t>(f)].SameContentAs(
        naive->frames[static_cast<size_t>(f)]))
        << "frame " << f << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, BackgroundEquivalence,
                         ::testing::Values(1, 2, 3, 5, 12, 40));

TEST(BackgroundTest, StaticVideoFullyMasked) {
  Video input;
  input.fps = 15;
  Frame constant(16, 16);
  constant.Fill(100, 110, 120);
  for (int i = 0; i < 6; ++i) input.frames.push_back(constant);
  auto masked = MaskBackgroundRunning(input, 4, 0.2);
  ASSERT_TRUE(masked.ok());
  for (const Frame& frame : masked->frames) {
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 16; ++x) {
        EXPECT_EQ(frame.Y(x, y), video::kOmega.y);
      }
    }
  }
}

TEST(BackgroundTest, RejectsBadParameters) {
  Video input = GradientVideo(8, 8, 3);
  EXPECT_FALSE(MaskBackgroundRunning(input, 0, 0.2).ok());
  EXPECT_FALSE(MaskBackgroundRunning(input, 3, 0.0).ok());
  EXPECT_FALSE(MaskBackgroundRunning(input, 3, 1.0).ok());
  Video empty;
  EXPECT_FALSE(MaskBackgroundRunning(empty, 3, 0.2).ok());
}

// --- ALPR ---

TEST(AlprTest, TemplateHasPlateStructure) {
  std::vector<float> tmpl = RenderPlateTemplate("ABC123", 38, 9);
  // Border cells are white (1), some interior cells dark (0).
  EXPECT_FLOAT_EQ(tmpl[0], 1.0f);
  int dark = 0;
  for (float v : tmpl) {
    if (v < 0.5f) ++dark;
  }
  EXPECT_GT(dark, 30);
}

/// Paints a plate into a frame at the given rectangle using the canonical
/// layout (mirrors the simulator's plate shader).
void PaintPlate(Frame& frame, const std::string& plate, const RectI& rect) {
  std::vector<float> tmpl = RenderPlateTemplate(plate, rect.Width(), rect.Height());
  for (int y = 0; y < rect.Height(); ++y) {
    for (int x = 0; x < rect.Width(); ++x) {
      bool dark = tmpl[static_cast<size_t>(y) * rect.Width() + x] < 0.5f;
      frame.SetPixel(rect.x0 + x, rect.y0 + y, dark ? 25 : 230, 128, 128);
    }
  }
}

TEST(AlprTest, FindsPaintedPlate) {
  Frame frame = GradientFrame(160, 90);
  PaintPlate(frame, "QW3RT9", {60, 40, 98, 49});
  PlateRecognizer recognizer;
  PlateSearchResult result = recognizer.FindPlate(frame, {40, 25, 120, 70}, "QW3RT9");
  EXPECT_TRUE(result.found);
  EXPECT_GT(result.score, 0.7);
  EXPECT_LT(std::abs(result.box.x0 - 60), 8);
}

TEST(AlprTest, RejectsWrongPlate) {
  Frame frame = GradientFrame(160, 90);
  PaintPlate(frame, "QW3RT9", {60, 40, 98, 49});
  PlateRecognizer recognizer;
  PlateSearchResult wrong = recognizer.FindPlate(frame, {40, 25, 120, 70}, "ZZZZZZ");
  PlateSearchResult right = recognizer.FindPlate(frame, {40, 25, 120, 70}, "QW3RT9");
  EXPECT_GT(right.score, wrong.score + 0.1);
}

TEST(AlprTest, NoPlateNoMatch) {
  Frame frame = GradientFrame(160, 90);
  PlateRecognizer recognizer;
  PlateSearchResult result = recognizer.FindPlate(frame, {10, 10, 150, 80}, "AB12CD");
  EXPECT_FALSE(result.found);
}

TEST(AlprTest, ReadPlateRecoversLargeGlyphs) {
  Frame frame(200, 60);
  frame.Fill(80, 128, 128);
  PaintPlate(frame, "H7K2M4", {10, 10, 162, 46});  // 4 px per glyph column.
  PlateRecognizer recognizer;
  auto read = recognizer.ReadPlate(frame, {10, 10, 162, 46});
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "H7K2M4");
}

TEST(AlprTest, ReadPlateRejectsTinyRegions) {
  Frame frame = GradientFrame(32, 32);
  PlateRecognizer recognizer;
  EXPECT_FALSE(recognizer.ReadPlate(frame, {0, 0, 4, 2}).ok());
}

TEST(AlprTest, MalformedQueryPlateNotFound) {
  Frame frame = GradientFrame(64, 64);
  PlateRecognizer recognizer;
  EXPECT_FALSE(recognizer.FindPlate(frame, {0, 0, 64, 64}, "ABC").found);
}

// --- Stitcher ---

TEST(StitcherTest, StitchedPanoramaMatchesDirectRender) {
  // Render four 120-degree faces of a scene and a direct equirect sample of
  // the same scene; the stitch should be close.
  sim::Tile tile(sim::TilePoolEntry(1), 91);
  sim::PanoramicRig rig;
  rig.position = {100, 100, 7};
  rig.base_yaw = 0.4;
  rig.face_intrinsics = {96, 54, 120.0};
  auto cameras = rig.Faces();

  std::array<Frame, 4> faces;
  for (int f = 0; f < 4; ++f) {
    sim::RenderOptions options;
    options.weather_effects = false;  // Pixel-deterministic geometry only.
    sim::Framebuffer fb =
        RenderScene(tile, cameras[static_cast<size_t>(f)], 0, 99, options);
    faces[static_cast<size_t>(f)] = video::RgbToFrame(fb.color);
  }
  auto pano = StitchEquirect({&faces[0], &faces[1], &faces[2], &faces[3]}, cameras,
                             192, 96, rig.base_yaw);
  ASSERT_TRUE(pano.ok());
  EXPECT_EQ(pano->width(), 192);
  EXPECT_EQ(pano->height(), 96);
  // The horizon band should contain plenty of non-black content from all
  // four directions.
  int bright = 0;
  for (int x = 0; x < 192; ++x) {
    if (pano->Y(x, 48) > 30) ++bright;
  }
  EXPECT_GT(bright, 96);
}

TEST(StitcherTest, EveryOutputPixelCoveredByAFace) {
  // With 120-degree faces at 90-degree spacing, no output pixel should be
  // left at the black fallback when faces contain a bright constant.
  sim::PanoramicRig rig;
  rig.face_intrinsics = {64, 64, 120.0};
  auto cameras = rig.Faces();
  Frame bright(64, 64);
  bright.Fill(200, 128, 128);
  auto pano = StitchEquirect({&bright, &bright, &bright, &bright}, cameras, 128, 64,
                             0.0);
  ASSERT_TRUE(pano.ok());
  // The equatorial band is covered by the faces; extreme poles exceed the
  // faces' vertical FOV and may clamp, so check the middle half.
  for (int y = 16; y < 48; ++y) {
    for (int x = 0; x < 128; ++x) {
      EXPECT_GT(pano->Y(x, y), 150) << "(" << x << ", " << y << ")";
    }
  }
}

TEST(StitcherTest, RejectsMissingFaces) {
  sim::PanoramicRig rig;
  auto cameras = rig.Faces();
  Frame frame(8, 8);
  EXPECT_FALSE(
      StitchEquirect({&frame, nullptr, &frame, &frame}, cameras, 16, 8, 0.0).ok());
}

TEST(StitcherTest, VideoStitchProcessesAllFrames) {
  sim::PanoramicRig rig;
  rig.face_intrinsics = {32, 32, 120.0};
  auto cameras = rig.Faces();
  Video face;
  face.fps = 15;
  face.frames.resize(3, Frame(32, 32));
  auto pano = StitchEquirectVideo({&face, &face, &face, &face}, cameras, 64, 32, 0.0);
  ASSERT_TRUE(pano.ok());
  EXPECT_EQ(pano->FrameCount(), 3);
}

// --- Tiling ---

TEST(TilingTest, PartitionReassembleRoundTrip) {
  Video input = GradientVideo(48, 36, 3);
  auto tiles = PartitionVideo(input, 16, 12);
  ASSERT_TRUE(tiles.ok());
  EXPECT_EQ(tiles->size(), 9u);
  auto reassembled = ReassembleTiles(*tiles, 3, 3);
  ASSERT_TRUE(reassembled.ok());
  ASSERT_EQ(reassembled->FrameCount(), 3);
  for (int f = 0; f < 3; ++f) {
    EXPECT_TRUE(reassembled->frames[static_cast<size_t>(f)].SameContentAs(
        input.frames[static_cast<size_t>(f)]));
  }
}

TEST(TilingTest, UnevenEdgesHandled) {
  Video input = GradientVideo(50, 38, 2);
  auto tiles = PartitionVideo(input, 16, 12);
  ASSERT_TRUE(tiles.ok());
  EXPECT_EQ(tiles->size(), 16u);  // ceil(50/16) x ceil(38/12) = 4 x 4.
  auto reassembled = ReassembleTiles(*tiles, 4, 4);
  ASSERT_TRUE(reassembled.ok());
  EXPECT_EQ(reassembled->Width(), 50);
  EXPECT_EQ(reassembled->Height(), 38);
  EXPECT_TRUE(reassembled->frames[0].SameContentAs(input.frames[0]));
}

TEST(TilingTest, ReassembleRejectsWrongShape) {
  Video input = GradientVideo(32, 32, 1);
  auto tiles = PartitionVideo(input, 16, 16);
  ASSERT_TRUE(tiles.ok());
  EXPECT_FALSE(ReassembleTiles(*tiles, 3, 2).ok());
}

TEST(TilingTest, TiledReencodeApproximatesInput) {
  Video input = GradientVideo(48, 36, 4);
  int64_t bytes = 0;
  auto result = TiledReencode(input, 16, 12, {1 << 20},
                              video::codec::Profile::kH264Like, &bytes);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Width(), 48);
  EXPECT_GT(bytes, 0);
  auto psnr = video::MeanPsnr(input, *result);
  ASSERT_TRUE(psnr.ok());
  EXPECT_GT(*psnr, 30.0);
}

TEST(TilingTest, LowerBitrateSmallerPayload) {
  Video input = GradientVideo(48, 36, 6);
  // Make it noisy enough that rate control has something to squeeze.
  Pcg32 rng(3, 3);
  for (Frame& frame : input.frames) {
    for (uint8_t& s : frame.y_plane()) {
      s = static_cast<uint8_t>(std::clamp<int>(s + static_cast<int>(rng.NextBounded(64)) - 32, 0, 255));
    }
  }
  int64_t high_bytes = 0, low_bytes = 0;
  auto high = TiledReencode(input, 24, 18, {1 << 22},
                            video::codec::Profile::kH264Like, &high_bytes);
  auto low = TiledReencode(input, 24, 18, {1 << 15},
                           video::codec::Profile::kH264Like, &low_bytes);
  ASSERT_TRUE(high.ok());
  ASSERT_TRUE(low.ok());
  EXPECT_LT(low_bytes, high_bytes);
}

TEST(TilingTest, RejectsEmptyBitrates) {
  Video input = GradientVideo(32, 32, 1);
  EXPECT_FALSE(
      TiledReencode(input, 16, 16, {}, video::codec::Profile::kH264Like).ok());
}

}  // namespace
}  // namespace visualroad::vision
