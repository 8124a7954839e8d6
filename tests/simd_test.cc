#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/random.h"
#include "simulation/render/scene_renderer.h"
#include "simulation/tile.h"
#include "video/codec/codec.h"
#include "video/codec/motion.h"
#include "video/color.h"
#include "video/image_ops.h"
#include "video/kernels/kernels.h"
#include "vision/background.h"

// Byte-identity suite for the runtime-dispatched SIMD kernel layer
// (DESIGN.md section 13). Every test runs once per SIMD level the host CPU
// supports and asserts the output is bit-for-bit what the scalar kernels
// produce: the vector paths are required to preserve rounding, saturation,
// and early-exit decisions exactly, so goldens and determinism guarantees
// hold regardless of dispatch.

namespace visualroad {
namespace {

namespace kernels = video::kernels;

class SimdLevelTest : public testing::TestWithParam<SimdLevel> {
 protected:
  void TearDown() override {
    kernels::SetSimdLevelForTest(RequestedSimdLevel());
  }
};

INSTANTIATE_TEST_SUITE_P(AllLevels, SimdLevelTest,
                         testing::ValuesIn(AvailableSimdLevels()),
                         [](const testing::TestParamInfo<SimdLevel>& info) {
                           return SimdLevelName(info.param);
                         });

// Deterministic content with enough motion and texture to exercise inter
// prediction, early exits, and the masking threshold on both sides.
video::Video MakeVideo(int w, int h, int frames) {
  Pcg32 rng(77, 3);
  video::Video v;
  v.fps = 15;
  for (int f = 0; f < frames; ++f) {
    video::Frame frame(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        double value = 120 + 70 * std::sin((x + 3 * f) * 0.11) *
                                 std::cos((y + f) * 0.07) +
                       rng.NextGaussian(0, 4);
        if (value < 0) value = 0;
        if (value > 255) value = 255;
        frame.SetPixel(x, y, static_cast<uint8_t>(value),
                       static_cast<uint8_t>(110 + ((x + f) % 32)),
                       static_cast<uint8_t>(150 - ((y + f) % 32)));
      }
    }
    v.frames.push_back(std::move(frame));
  }
  return v;
}

bool FramesIdentical(const video::Frame& a, const video::Frame& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         a.y_plane() == b.y_plane() && a.u_plane() == b.u_plane() &&
         a.v_plane() == b.v_plane();
}

// --- Kernel-level bitwise identity (direct table comparison) ---

TEST_P(SimdLevelTest, SadMatchesScalarIncludingEarlyExit) {
  const kernels::KernelTable& scalar = kernels::KernelsFor(SimdLevel::kScalar);
  const kernels::KernelTable& table = kernels::KernelsFor(GetParam());
  Pcg32 rng(11, 1);
  constexpr int kStride = 80;
  std::vector<uint8_t> cur(kStride * 48), ref(kStride * 48);
  for (uint8_t& v : cur) v = static_cast<uint8_t>(rng.NextInt(0, 255));
  for (uint8_t& v : ref) v = static_cast<uint8_t>(rng.NextInt(0, 255));
  // 8, 16 and 32 are the vectorised widths; 4 and 12 take the scalar path.
  for (int size : {4, 8, 12, 16, 32}) {
    for (int trial = 0; trial < 40; ++trial) {
      int cx = rng.NextInt(0, kStride - size);
      int cy = rng.NextInt(0, 48 - size);
      int rx = rng.NextInt(0, kStride - size);
      int ry = rng.NextInt(0, 48 - size);
      // Bounds span "never exits" through "exits on the first row" so the
      // per-row early-exit decision itself is compared, not just final SADs.
      for (int64_t bound :
           {static_cast<int64_t>(INT64_MAX), static_cast<int64_t>(100000),
            static_cast<int64_t>(size * 40), static_cast<int64_t>(1)}) {
        int64_t expected =
            scalar.sad_bounded(&cur[cy * kStride + cx], kStride,
                               &ref[ry * kStride + rx], kStride, size, bound);
        int64_t actual =
            table.sad_bounded(&cur[cy * kStride + cx], kStride,
                              &ref[ry * kStride + rx], kStride, size, bound);
        ASSERT_EQ(expected, actual)
            << "size " << size << " bound " << bound << " trial " << trial;
      }
    }
  }
}

TEST_P(SimdLevelTest, DctQuantPipelineBitwiseIdentical) {
  const kernels::KernelTable& scalar = kernels::KernelsFor(SimdLevel::kScalar);
  const kernels::KernelTable& table = kernels::KernelsFor(GetParam());
  Pcg32 rng(12, 2);
  for (int trial = 0; trial < 60; ++trial) {
    int16_t block[64];
    for (int16_t& v : block) v = static_cast<int16_t>(rng.NextInt(-255, 255));

    double coeff_s[64], coeff_v[64];
    scalar.forward_dct(block, coeff_s);
    table.forward_dct(block, coeff_v);
    ASSERT_EQ(0, std::memcmp(coeff_s, coeff_v, sizeof(coeff_s))) << trial;

    double step = 0.25 + 0.5 * trial;
    int16_t levels_s[64], levels_v[64];
    scalar.quantize(coeff_s, step, levels_s);
    table.quantize(coeff_s, step, levels_v);
    ASSERT_EQ(0, std::memcmp(levels_s, levels_v, sizeof(levels_s))) << trial;

    double recon_s[64], recon_v[64];
    scalar.dequantize(levels_s, step, recon_s);
    table.dequantize(levels_s, step, recon_v);
    ASSERT_EQ(0, std::memcmp(recon_s, recon_v, sizeof(recon_s))) << trial;

    int16_t out_s[64], out_v[64];
    scalar.inverse_dct(recon_s, out_s);
    table.inverse_dct(recon_s, out_v);
    ASSERT_EQ(0, std::memcmp(out_s, out_v, sizeof(out_s))) << trial;
  }
}

TEST_P(SimdLevelTest, ColorRowKernelsBitwiseIdentical) {
  const kernels::KernelTable& scalar = kernels::KernelsFor(SimdLevel::kScalar);
  const kernels::KernelTable& table = kernels::KernelsFor(GetParam());
  Pcg32 rng(13, 3);
  // Odd width so every vector variant has a scalar tail to get right.
  constexpr int kN = 257;
  std::vector<uint8_t> rgb(kN * 3);
  for (uint8_t& v : rgb) v = static_cast<uint8_t>(rng.NextInt(0, 255));
  std::vector<uint8_t> ys(kN), us(kN), vs(kN), yv(kN), uv(kN), vv(kN);
  scalar.rgb_to_yuv_row(rgb.data(), kN, ys.data(), us.data(), vs.data());
  table.rgb_to_yuv_row(rgb.data(), kN, yv.data(), uv.data(), vv.data());
  EXPECT_EQ(ys, yv);
  EXPECT_EQ(us, uv);
  EXPECT_EQ(vs, vv);

  std::vector<uint8_t> luma(kN), cb(kN / 2 + 1), cr(kN / 2 + 1);
  for (uint8_t& v : luma) v = static_cast<uint8_t>(rng.NextInt(0, 255));
  for (uint8_t& v : cb) v = static_cast<uint8_t>(rng.NextInt(0, 255));
  for (uint8_t& v : cr) v = static_cast<uint8_t>(rng.NextInt(0, 255));
  std::vector<uint8_t> rgb_s(kN * 3), rgb_v(kN * 3);
  scalar.yuv_to_rgb_row(luma.data(), cb.data(), cr.data(), kN, rgb_s.data());
  table.yuv_to_rgb_row(luma.data(), cb.data(), cr.data(), kN, rgb_v.data());
  EXPECT_EQ(rgb_s, rgb_v);
}

TEST_P(SimdLevelTest, MaskAndAccumulateRowsBitwiseIdentical) {
  const kernels::KernelTable& scalar = kernels::KernelsFor(SimdLevel::kScalar);
  const kernels::KernelTable& table = kernels::KernelsFor(GetParam());
  Pcg32 rng(14, 4);
  constexpr int kN = 251;
  std::vector<uint8_t> pv(kN), pb(kN);
  for (int i = 0; i < kN; ++i) {
    pv[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
    // Small perturbations keep the relative difference near the threshold;
    // forced zeros exercise the pv==0 guard (static iff pb==0 too).
    pb[i] = static_cast<uint8_t>(std::clamp(
        pv[i] + static_cast<int>(rng.NextInt(-12, 12)), 0, 255));
    if (i % 17 == 0) pv[i] = 0;
    if (i % 34 == 0) pb[i] = 0;
  }
  for (double epsilon : {0.01, 0.1, 0.5}) {
    std::vector<uint8_t> mask_s(kN), mask_v(kN);
    scalar.mask_static_row(pv.data(), pb.data(), epsilon, kN, mask_s.data());
    table.mask_static_row(pv.data(), pb.data(), epsilon, kN, mask_v.data());
    EXPECT_EQ(mask_s, mask_v) << "epsilon " << epsilon;
  }

  std::vector<uint8_t> src(kN);
  for (uint8_t& v : src) v = static_cast<uint8_t>(rng.NextInt(0, 255));
  std::vector<uint32_t> acc_s(kN), acc_v(kN);
  for (int i = 0; i < kN; ++i) acc_s[i] = acc_v[i] = rng.NextInt(0, 1000);
  for (int sign : {1, -1, -1, 1}) {
    scalar.accumulate_row(src.data(), kN, sign, acc_s.data());
    table.accumulate_row(src.data(), kN, sign, acc_v.data());
    ASSERT_EQ(acc_s, acc_v) << "sign " << sign;
  }
}

TEST_P(SimdLevelTest, RasterSpanBitwiseIdentical) {
  const kernels::KernelTable& scalar = kernels::KernelsFor(SimdLevel::kScalar);
  const kernels::KernelTable& table = kernels::KernelsFor(GetParam());
  // A triangle with partial span coverage so valid/invalid transitions land
  // mid-vector; per-vertex 1/z and attribute/z mirror DrawClipped's setup.
  kernels::SpanSetup s{};
  s.s0x = 12.4;  s.s0y = 9.3;
  s.s1x = 118.7; s.s1y = 31.2;
  s.s2x = 57.1;  s.s2y = 96.8;
  double area = (s.s1x - s.s0x) * (s.s2y - s.s0y) -
                (s.s2x - s.s0x) * (s.s1y - s.s0y);
  s.inv_area = 1.0 / area;
  s.z0 = 1.0 / 4.0;  s.z1 = 1.0 / 9.5;  s.z2 = 1.0 / 2.25;
  s.u0 = 0.0 * s.z0; s.u1 = 1.0 * s.z1; s.u2 = 0.5 * s.z2;
  s.v0 = 0.0 * s.z0; s.v1 = 0.25 * s.z1; s.v2 = 1.0 * s.z2;

  for (int y = 8; y < 100; y += 7) {
    double py = y + 0.5;
    for (int n : {1, 3, 64}) {
      std::vector<uint8_t> valid_s(n, 9), valid_v(n, 9);
      std::vector<float> depth_s(n), depth_v(n);
      std::vector<double> u_s(n), u_v(n), v_s(n), v_v(n);
      scalar.raster_span(s, py, 5, n, valid_s.data(), depth_s.data(),
                         u_s.data(), v_s.data());
      table.raster_span(s, py, 5, n, valid_v.data(), depth_v.data(),
                        u_v.data(), v_v.data());
      ASSERT_EQ(valid_s, valid_v) << "y " << y << " n " << n;
      for (int i = 0; i < n; ++i) {
        if (!valid_s[i]) continue;
        ASSERT_EQ(0, std::memcmp(&depth_s[i], &depth_v[i], sizeof(float)));
        ASSERT_EQ(0, std::memcmp(&u_s[i], &u_v[i], sizeof(double)));
        ASSERT_EQ(0, std::memcmp(&v_s[i], &v_v[i], sizeof(double)));
      }
    }
  }
}

// --- End-to-end identity through the public APIs ---

TEST_P(SimdLevelTest, CodecRoundTripBitstreamIdentical) {
  video::Video content = MakeVideo(96, 64, 6);
  video::codec::EncoderConfig config;
  config.qp = 28;
  config.gop_length = 3;  // Forces inter frames -> motion search -> SAD.

  kernels::SetSimdLevelForTest(SimdLevel::kScalar);
  auto encoded_scalar = video::codec::Encode(content, config);
  ASSERT_TRUE(encoded_scalar.ok());
  auto decoded_scalar = video::codec::Decode(*encoded_scalar);
  ASSERT_TRUE(decoded_scalar.ok());

  kernels::SetSimdLevelForTest(GetParam());
  auto encoded = video::codec::Encode(content, config);
  ASSERT_TRUE(encoded.ok());
  ASSERT_EQ(encoded_scalar->frames.size(), encoded->frames.size());
  for (size_t f = 0; f < encoded->frames.size(); ++f) {
    EXPECT_EQ(encoded_scalar->frames[f].keyframe, encoded->frames[f].keyframe);
    EXPECT_EQ(encoded_scalar->frames[f].data, encoded->frames[f].data)
        << "frame " << f;
  }
  auto decoded = video::codec::Decode(*encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded_scalar->frames.size(), decoded->frames.size());
  for (size_t f = 0; f < decoded->frames.size(); ++f) {
    EXPECT_TRUE(FramesIdentical(decoded_scalar->frames[f], decoded->frames[f]))
        << "frame " << f;
  }
}

TEST_P(SimdLevelTest, DiamondSearchVectorsAndStatsIdentical) {
  video::codec::Plane reference(240, 136), current(240, 136);
  for (int y = 0; y < 136; ++y) {
    for (int x = 0; x < 240; ++x) {
      uint8_t v = static_cast<uint8_t>(128 + 80 * std::sin(x * 0.12) *
                                                 std::cos(y * 0.1));
      reference.Set(x, y, v);
      current.Set(x, y,
                  reference.At(std::min(239, x + 3), std::max(0, y - 2)));
    }
  }
  struct Mv {
    int dx, dy;
    int64_t sad;
  };
  auto sweep = [&](SimdLevel level) {
    kernels::SetSimdLevelForTest(level);
    std::vector<Mv> mvs;
    for (int by = 0; by + 16 <= 136; by += 16) {
      for (int bx = 0; bx + 16 <= 240; bx += 16) {
        video::codec::MotionVector mv = video::codec::DiamondSearch(
            current, reference, bx, by, 16, 8, {});
        mvs.push_back({mv.dx, mv.dy, mv.sad});
      }
    }
    return mvs;
  };
  std::vector<Mv> expected = sweep(SimdLevel::kScalar);
  std::vector<Mv> actual = sweep(GetParam());
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].dx, actual[i].dx) << "block " << i;
    EXPECT_EQ(expected[i].dy, actual[i].dy) << "block " << i;
    EXPECT_EQ(expected[i].sad, actual[i].sad) << "block " << i;
  }
}

TEST_P(SimdLevelTest, RenderedFrameBitwiseIdentical) {
  static sim::Tile* tile = new sim::Tile(sim::TilePoolEntry(2), 321);
  double line = tile->roads().road_lines()[0];
  sim::Camera camera({240, 136, 62.0}, {{line, 20.0, 14.0}, kPi / 2.0, -0.55});

  kernels::SetSimdLevelForTest(SimdLevel::kScalar);
  sim::Framebuffer expected = sim::RenderScene(*tile, camera, 0, 99);
  kernels::SetSimdLevelForTest(GetParam());
  sim::Framebuffer actual = sim::RenderScene(*tile, camera, 0, 99);

  EXPECT_EQ(expected.color.data, actual.color.data);
  EXPECT_EQ(expected.ids, actual.ids);
  ASSERT_EQ(expected.depth.size(), actual.depth.size());
  EXPECT_EQ(0, std::memcmp(expected.depth.data(), actual.depth.data(),
                           expected.depth.size() * sizeof(float)));
}

TEST_P(SimdLevelTest, BackgroundSubtractionBitwiseIdentical) {
  video::Video content = MakeVideo(64, 48, 8);
  kernels::SetSimdLevelForTest(SimdLevel::kScalar);
  auto expected = vision::MaskBackgroundRunning(content, 4, 0.1);
  ASSERT_TRUE(expected.ok());
  kernels::SetSimdLevelForTest(GetParam());
  for (auto* masker :
       {&vision::MaskBackgroundRunning, &vision::MaskBackgroundNaive}) {
    auto actual = (*masker)(content, 4, 0.1);
    ASSERT_TRUE(actual.ok());
    ASSERT_EQ(expected->frames.size(), actual->frames.size());
    for (size_t f = 0; f < actual->frames.size(); ++f) {
      EXPECT_TRUE(FramesIdentical(expected->frames[f], actual->frames[f]))
          << "frame " << f;
    }
  }
}

TEST_P(SimdLevelTest, ColorConversionRoundTripIdentical) {
  Pcg32 rng(15, 5);
  video::RgbImage image(63, 37);  // Odd sizes: chroma edge clamps + row tails.
  for (uint8_t& v : image.data) v = static_cast<uint8_t>(rng.NextInt(0, 255));

  kernels::SetSimdLevelForTest(SimdLevel::kScalar);
  video::Frame frame_scalar = video::RgbToFrame(image);
  video::RgbImage back_scalar = video::FrameToRgb(frame_scalar);

  kernels::SetSimdLevelForTest(GetParam());
  video::Frame frame = video::RgbToFrame(image);
  video::RgbImage back = video::FrameToRgb(frame);

  EXPECT_TRUE(FramesIdentical(frame_scalar, frame));
  EXPECT_EQ(back_scalar.data, back.data);
}

TEST_P(SimdLevelTest, MaskAgainstBackgroundBitwiseIdentical) {
  video::Video content = MakeVideo(50, 34, 2);
  kernels::SetSimdLevelForTest(SimdLevel::kScalar);
  auto expected =
      video::MaskAgainstBackground(content.frames[0], content.frames[1], 0.12);
  ASSERT_TRUE(expected.ok());
  kernels::SetSimdLevelForTest(GetParam());
  auto actual =
      video::MaskAgainstBackground(content.frames[0], content.frames[1], 0.12);
  ASSERT_TRUE(actual.ok());
  EXPECT_TRUE(FramesIdentical(*expected, *actual));
}

// --- Dispatch plumbing ---

TEST(SimdDispatchTest, ParseAndNameRoundTrip) {
  SimdLevel level = SimdLevel::kAvx2;
  EXPECT_TRUE(ParseSimdLevel("scalar", &level));
  EXPECT_EQ(SimdLevel::kScalar, level);
  EXPECT_TRUE(ParseSimdLevel("Avx2", &level));
  EXPECT_EQ(SimdLevel::kAvx2, level);
  EXPECT_FALSE(ParseSimdLevel("SSE2", &level));
  EXPECT_FALSE(ParseSimdLevel("avx512", &level));
  EXPECT_EQ(SimdLevel::kAvx2, level);  // Unparseable input leaves it alone.
  for (SimdLevel l : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    SimdLevel parsed = SimdLevel::kScalar;
    EXPECT_TRUE(ParseSimdLevel(SimdLevelName(l), &parsed));
    EXPECT_EQ(l, parsed);
  }
}

TEST(SimdDispatchTest, RequestedLevelNeverExceedsDetected) {
  EXPECT_LE(static_cast<int>(RequestedSimdLevel()),
            static_cast<int>(DetectedSimdLevel()));
}

TEST(SimdDispatchTest, UnknownPinNarrowsToScalar) {
  const char* env = std::getenv("VR_SIMD");
  const bool pinned = env != nullptr;
  const std::string saved = pinned ? env : "";
  setenv("VR_SIMD", "sse2", 1);
  EXPECT_EQ(SimdLevel::kScalar, RequestedSimdLevel());
  setenv("VR_SIMD", "bogus", 1);
  EXPECT_EQ(SimdLevel::kScalar, RequestedSimdLevel());
  setenv("VR_SIMD", "", 1);
  EXPECT_EQ(DetectedSimdLevel(), RequestedSimdLevel());
  unsetenv("VR_SIMD");
  EXPECT_EQ(DetectedSimdLevel(), RequestedSimdLevel());
  if (pinned) setenv("VR_SIMD", saved.c_str(), 1);
}

TEST(SimdDispatchTest, SetLevelForTestClampsAndRepoints) {
  SimdLevel detected = DetectedSimdLevel();
  // Asking for AVX2 selects at most what the CPU has.
  SimdLevel selected = kernels::SetSimdLevelForTest(SimdLevel::kAvx2);
  EXPECT_EQ(detected, selected);
  EXPECT_EQ(selected, kernels::ActiveSimdLevel());
  EXPECT_EQ(&kernels::KernelsFor(selected), &kernels::Kernels());

  selected = kernels::SetSimdLevelForTest(SimdLevel::kScalar);
  EXPECT_EQ(SimdLevel::kScalar, selected);
  EXPECT_EQ(&kernels::KernelsFor(SimdLevel::kScalar), &kernels::Kernels());

  kernels::SetSimdLevelForTest(RequestedSimdLevel());
  EXPECT_EQ(RequestedSimdLevel(), kernels::ActiveSimdLevel());
}

TEST(SimdDispatchTest, KernelCallCountersAccumulate) {
  uint64_t before = kernels::KernelCallCount(kernels::Kernel::kSad);
  kernels::CountKernelCalls(kernels::Kernel::kSad, 5);
  kernels::CountKernelCalls(kernels::Kernel::kSad, 0);  // No-op.
  EXPECT_EQ(before + 5, kernels::KernelCallCount(kernels::Kernel::kSad));

  // Running any codec work drives the counters through the real call sites.
  uint64_t dct_before = kernels::KernelCallCount(kernels::Kernel::kForwardDct);
  video::Video content = MakeVideo(32, 32, 2);
  video::codec::EncoderConfig config;
  auto encoded = video::codec::Encode(content, config);
  ASSERT_TRUE(encoded.ok());
  EXPECT_GT(kernels::KernelCallCount(kernels::Kernel::kForwardDct), dct_before);
}

TEST(SimdDispatchTest, KernelNamesAreStableMetricLabels) {
  EXPECT_STREQ("sad", kernels::KernelName(kernels::Kernel::kSad));
  EXPECT_STREQ("fdct", kernels::KernelName(kernels::Kernel::kForwardDct));
  EXPECT_STREQ("idct", kernels::KernelName(kernels::Kernel::kInverseDct));
  EXPECT_STREQ("quant", kernels::KernelName(kernels::Kernel::kQuantize));
  EXPECT_STREQ("dequant", kernels::KernelName(kernels::Kernel::kDequantize));
  EXPECT_STREQ("rgb2yuv", kernels::KernelName(kernels::Kernel::kRgbToYuvRow));
  EXPECT_STREQ("yuv2rgb", kernels::KernelName(kernels::Kernel::kYuvToRgbRow));
  EXPECT_STREQ("mask", kernels::KernelName(kernels::Kernel::kMaskStaticRow));
  EXPECT_STREQ("accum", kernels::KernelName(kernels::Kernel::kAccumulateRow));
  EXPECT_STREQ("raster_span",
               kernels::KernelName(kernels::Kernel::kRasterSpan));
}

}  // namespace
}  // namespace visualroad
