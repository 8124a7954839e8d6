#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "video/codec/codec.h"
#include "video/codec/dct.h"
#include "video/codec/entropy.h"
#include "video/codec/intra.h"
#include "video/codec/motion.h"
#include "video/codec/quant.h"
#include "video/codec/rate_control.h"
#include "video/metrics.h"

namespace visualroad::video::codec {
namespace {

// --- DCT ---

TEST(DctTest, RoundTripIsNearExact) {
  Pcg32 rng(1, 1);
  int16_t input[kTransformArea], output[kTransformArea];
  double coefficients[kTransformArea];
  for (int trial = 0; trial < 50; ++trial) {
    for (int16_t& v : input) v = static_cast<int16_t>(rng.NextInt(-255, 255));
    ForwardDct8x8(input, coefficients);
    InverseDct8x8(coefficients, output);
    for (int i = 0; i < kTransformArea; ++i) {
      EXPECT_NEAR(output[i], input[i], 1);
    }
  }
}

TEST(DctTest, ConstantBlockHasOnlyDcEnergy) {
  int16_t input[kTransformArea];
  for (int16_t& v : input) v = 57;
  double coefficients[kTransformArea];
  ForwardDct8x8(input, coefficients);
  EXPECT_NEAR(coefficients[0], 57.0 * 8.0, 1e-6);  // DC = mean * N.
  for (int i = 1; i < kTransformArea; ++i) {
    EXPECT_NEAR(coefficients[i], 0.0, 1e-9);
  }
}

TEST(DctTest, ParsevalEnergyPreserved) {
  Pcg32 rng(2, 2);
  int16_t input[kTransformArea];
  double coefficients[kTransformArea];
  for (int16_t& v : input) v = static_cast<int16_t>(rng.NextInt(-100, 100));
  ForwardDct8x8(input, coefficients);
  double spatial = 0, frequency = 0;
  for (int i = 0; i < kTransformArea; ++i) {
    spatial += static_cast<double>(input[i]) * input[i];
    frequency += coefficients[i] * coefficients[i];
  }
  EXPECT_NEAR(spatial, frequency, spatial * 1e-9 + 1e-6);
}

TEST(DctTest, ZigZagIsAPermutation) {
  bool seen[kTransformArea] = {};
  for (int i = 0; i < kTransformArea; ++i) {
    ASSERT_GE(kZigZag8x8[i], 0);
    ASSERT_LT(kZigZag8x8[i], kTransformArea);
    EXPECT_FALSE(seen[kZigZag8x8[i]]);
    seen[kZigZag8x8[i]] = true;
  }
  EXPECT_EQ(kZigZag8x8[0], 0);
  EXPECT_EQ(kZigZag8x8[63], 63);
}

// --- Quant ---

TEST(QuantTest, StepDoublesEverySixQp) {
  for (int qp = 0; qp <= 45; qp += 3) {
    EXPECT_NEAR(QpToStep(qp + 6) / QpToStep(qp), 2.0, 1e-9);
  }
}

TEST(QuantTest, RoundTripErrorBoundedByStep) {
  Pcg32 rng(3, 3);
  double coefficients[kTransformArea], reconstructed[kTransformArea];
  int16_t levels[kTransformArea];
  for (int qp : {8, 20, 32, 44}) {
    double step = QpToStep(qp);
    for (double& c : coefficients) c = rng.NextDouble(-500.0, 500.0);
    QuantizeBlock(coefficients, qp, levels);
    DequantizeBlock(levels, qp, reconstructed);
    for (int i = 0; i < kTransformArea; ++i) {
      EXPECT_LE(std::abs(reconstructed[i] - coefficients[i]), step)
          << "qp=" << qp;
    }
  }
}

TEST(QuantTest, DeadZoneZeroesTinyCoefficients) {
  double coefficients[kTransformArea] = {};
  coefficients[5] = QpToStep(30) * 0.2;  // Inside the dead zone.
  int16_t levels[kTransformArea];
  QuantizeBlock(coefficients, 30, levels);
  EXPECT_EQ(levels[5], 0);
}

TEST(QuantTest, HigherQpProducesSmallerLevels) {
  double coefficients[kTransformArea];
  for (int i = 0; i < kTransformArea; ++i) coefficients[i] = 300.0 - i * 9.0;
  int16_t low_qp[kTransformArea], high_qp[kTransformArea];
  QuantizeBlock(coefficients, 10, low_qp);
  QuantizeBlock(coefficients, 40, high_qp);
  int64_t low_sum = 0, high_sum = 0;
  for (int i = 0; i < kTransformArea; ++i) {
    low_sum += std::abs(low_qp[i]);
    high_sum += std::abs(high_qp[i]);
  }
  EXPECT_GT(low_sum, high_sum);
}

// --- Entropy ---

TEST(EntropyTest, BypassBitsRoundTrip) {
  ArithmeticEncoder enc;
  Pcg32 rng(4, 4);
  std::vector<int> bits;
  for (int i = 0; i < 2000; ++i) {
    int bit = static_cast<int>(rng.NextBounded(2));
    bits.push_back(bit);
    enc.EncodeBypass(bit);
  }
  std::vector<uint8_t> data = enc.Finish();
  ArithmeticDecoder dec(data);
  for (int bit : bits) EXPECT_EQ(dec.DecodeBypass(), bit);
}

TEST(EntropyTest, AdaptiveBitsRoundTrip) {
  ArithmeticEncoder enc;
  BitModel enc_model;
  Pcg32 rng(5, 5);
  std::vector<int> bits;
  for (int i = 0; i < 3000; ++i) {
    int bit = rng.NextBool(0.85) ? 0 : 1;  // Skewed source.
    bits.push_back(bit);
    enc.EncodeBit(enc_model, bit);
  }
  std::vector<uint8_t> data = enc.Finish();
  ArithmeticDecoder dec(data);
  BitModel dec_model;
  for (int bit : bits) EXPECT_EQ(dec.DecodeBit(dec_model), bit);
}

TEST(EntropyTest, SkewedSourceCompressesBelowOneBitPerSymbol) {
  ArithmeticEncoder enc;
  BitModel model;
  Pcg32 rng(6, 6);
  const int n = 20000;
  for (int i = 0; i < n; ++i) enc.EncodeBit(model, rng.NextBool(0.95) ? 0 : 1);
  std::vector<uint8_t> data = enc.Finish();
  // Entropy of p=0.05 is ~0.29 bits; allow generous adaptation overhead.
  EXPECT_LT(static_cast<double>(data.size()) * 8.0 / n, 0.5);
}

TEST(EntropyTest, UnaryEgRoundTripsWideRange) {
  ArithmeticEncoder enc;
  BitModel models[12];
  uint32_t values[] = {0, 1, 2, 5, 11, 12, 13, 100, 4095, 1000000};
  for (uint32_t v : values) EncodeUnaryEg(enc, models, 12, v);
  std::vector<uint8_t> data = enc.Finish();
  ArithmeticDecoder dec(data);
  BitModel dec_models[12];
  for (uint32_t v : values) EXPECT_EQ(DecodeUnaryEg(dec, dec_models, 12), v);
}

class ResidualRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ResidualRoundTrip, RandomBlocksRoundTrip) {
  int density = GetParam();
  Pcg32 rng(7, static_cast<uint64_t>(density) + 1);
  ArithmeticEncoder enc;
  ResidualContexts enc_ctx;
  std::vector<std::array<int16_t, kTransformArea>> blocks;
  for (int b = 0; b < 100; ++b) {
    std::array<int16_t, kTransformArea> block{};
    for (int i = 0; i < kTransformArea; ++i) {
      if (static_cast<int>(rng.NextBounded(100)) < density) {
        block[static_cast<size_t>(i)] =
            static_cast<int16_t>(rng.NextInt(-200, 200));
      }
    }
    EncodeResidualBlock(enc, enc_ctx, block.data());
    blocks.push_back(block);
  }
  std::vector<uint8_t> data = enc.Finish();
  ArithmeticDecoder dec(data);
  ResidualContexts dec_ctx;
  for (const auto& block : blocks) {
    int16_t decoded[kTransformArea];
    DecodeResidualBlock(dec, dec_ctx, decoded);
    for (int i = 0; i < kTransformArea; ++i) {
      EXPECT_EQ(decoded[i], block[static_cast<size_t>(i)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, ResidualRoundTrip,
                         ::testing::Values(0, 3, 10, 30, 70, 100));

TEST(EntropyTest, AllZeroBlockCostsOneCbfBit) {
  ArithmeticEncoder enc;
  ResidualContexts ctx;
  int16_t zeros[kTransformArea] = {};
  for (int i = 0; i < 1000; ++i) EncodeResidualBlock(enc, ctx, zeros);
  std::vector<uint8_t> data = enc.Finish();
  // 1000 highly-predictable CBF bits should compress far below 1000 bits.
  EXPECT_LT(data.size(), 40u);
}

// --- Motion ---

Plane MakePlane(int w, int h, uint64_t seed) {
  Plane plane(w, h);
  Pcg32 rng(seed, 9);
  for (uint8_t& s : plane.samples) s = static_cast<uint8_t>(rng.NextBounded(256));
  return plane;
}

TEST(MotionTest, SadZeroForIdenticalBlocks) {
  Plane plane = MakePlane(64, 64, 11);
  EXPECT_EQ(BlockSad(plane, plane, 16, 16, 16, 0, 0), 0);
}

TEST(MotionTest, DiamondSearchRecoversKnownShift) {
  // Reference is a smooth structured pattern (diamond search descends cost
  // gradients, which pure noise does not have); current is the reference
  // shifted by (+3, -2).
  Plane reference(96, 96);
  for (int y = 0; y < 96; ++y) {
    for (int x = 0; x < 96; ++x) {
      double v = 128 + 60 * std::sin(x * 0.31) + 55 * std::cos(y * 0.27);
      reference.Set(x, y, static_cast<uint8_t>(std::clamp(v, 0.0, 255.0)));
    }
  }
  Plane current(96, 96);
  for (int y = 0; y < 96; ++y) {
    for (int x = 0; x < 96; ++x) {
      int sx = std::clamp(x + 3, 0, 95);
      int sy = std::clamp(y - 2, 0, 95);
      current.Set(x, y, reference.At(sx, sy));
    }
  }
  MotionVector mv = DiamondSearch(current, reference, 32, 32, 16, 8, {});
  EXPECT_EQ(mv.dx, 3);
  EXPECT_EQ(mv.dy, -2);
  EXPECT_EQ(mv.sad, 0);
}

TEST(MotionTest, PredictorSeedsLargeDisplacements) {
  Plane reference = MakePlane(128, 128, 13);
  Plane current(128, 128);
  // Shift of 11 exceeds a +-8 diamond walk from zero in one go but is
  // reachable from a predictor of (10, 0) — wait, the radius caps at 8, so
  // use radius 16 and verify the predictor accelerates the search.
  for (int y = 0; y < 128; ++y) {
    for (int x = 0; x < 128; ++x) {
      current.Set(x, y, reference.At(std::clamp(x + 11, 0, 127), y));
    }
  }
  MotionVector with_predictor =
      DiamondSearch(current, reference, 48, 48, 16, 16, {11, 0, 0});
  EXPECT_EQ(with_predictor.dx, 11);
  EXPECT_EQ(with_predictor.sad, 0);
}

TEST(MotionTest, MotionCompensateCopiesDisplacedBlock) {
  Plane reference = MakePlane(64, 64, 14);
  uint8_t block[16 * 16];
  MotionCompensate(reference, 16, 16, 16, 4, -3, block);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      EXPECT_EQ(block[y * 16 + x], reference.At(20 + x, 13 + y));
    }
  }
}

TEST(MotionTest, EdgeClampedCompensationInBounds) {
  Plane reference = MakePlane(32, 32, 15);
  uint8_t block[16 * 16];
  MotionCompensate(reference, 0, 0, 16, -8, -8, block);  // Out of bounds.
  EXPECT_EQ(block[0], reference.At(0, 0));
}

// --- Intra ---

TEST(IntraTest, DcPredictionAveragesNeighbours) {
  Plane recon(32, 32);
  for (int x = 0; x < 32; ++x) recon.Set(x, 7, 100);  // Row above block at y=8.
  for (int y = 0; y < 32; ++y) recon.Set(7, y, 200);  // Column left of x=8.
  uint8_t prediction[kTransformArea];
  IntraPredict(recon, 8, 8, kTransformSize, IntraMode::kDc, prediction);
  EXPECT_EQ(prediction[0], 150);
}

TEST(IntraTest, NoNeighboursDefaultsTo128) {
  Plane recon(32, 32);
  uint8_t prediction[kTransformArea];
  IntraPredict(recon, 0, 0, kTransformSize, IntraMode::kDc, prediction);
  EXPECT_EQ(prediction[0], 128);
}

TEST(IntraTest, HorizontalCopiesLeftColumn) {
  Plane recon(32, 32);
  for (int y = 0; y < 32; ++y) recon.Set(7, y, static_cast<uint8_t>(y * 3));
  uint8_t prediction[kTransformArea];
  IntraPredict(recon, 8, 8, kTransformSize, IntraMode::kHorizontal, prediction);
  for (int y = 0; y < kTransformSize; ++y) {
    for (int x = 0; x < kTransformSize; ++x) {
      EXPECT_EQ(prediction[y * kTransformSize + x], (8 + y) * 3);
    }
  }
}

TEST(IntraTest, VerticalCopiesTopRow) {
  Plane recon(32, 32);
  for (int x = 0; x < 32; ++x) recon.Set(x, 7, static_cast<uint8_t>(x * 5));
  uint8_t prediction[kTransformArea];
  IntraPredict(recon, 8, 8, kTransformSize, IntraMode::kVertical, prediction);
  for (int x = 0; x < kTransformSize; ++x) {
    EXPECT_EQ(prediction[x], (8 + x) * 5);
  }
}

TEST(IntraTest, ChooserPicksVerticalForVerticalStripes) {
  Plane source(32, 32);
  Plane recon(32, 32);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      uint8_t v = x % 2 ? 230 : 20;
      source.Set(x, y, v);
      recon.Set(x, y, v);
    }
  }
  EXPECT_EQ(ChooseIntraMode(source, recon, 8, 8, kTransformSize, false),
            IntraMode::kVertical);
}

TEST(IntraTest, PlanarInterpolatesSmoothGradients) {
  Plane recon(32, 32);
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      recon.Set(i, j, static_cast<uint8_t>(4 * (i + j)));
    }
  }
  uint8_t prediction[kTransformArea];
  IntraPredict(recon, 8, 8, kTransformSize, IntraMode::kPlanar, prediction);
  // Planar prediction of a plane should roughly continue the gradient.
  EXPECT_NEAR(prediction[0], 4 * (8 + 8), 16);
  EXPECT_GT(prediction[63], prediction[0]);
}

// --- Rate control ---

TEST(RateControlTest, ConstantQpNeverMoves) {
  RateController rc(0, 30.0, 25);
  EXPECT_EQ(rc.PickQp(false), 25);
  EXPECT_EQ(rc.PickQp(true), 25);
  rc.Update(false, 1000000);
  EXPECT_EQ(rc.PickQp(false), 25);
}

TEST(RateControlTest, OverBudgetRaisesQp) {
  RateController rc(100000, 30.0, 25);  // ~417 bytes/frame budget.
  for (int i = 0; i < 10; ++i) rc.Update(false, 5000);
  EXPECT_GT(rc.current_qp(), 25);
}

TEST(RateControlTest, UnderBudgetLowersQp) {
  RateController rc(1000000, 30.0, 30);
  for (int i = 0; i < 10; ++i) rc.Update(false, 100);
  EXPECT_LT(rc.current_qp(), 30);
}

TEST(RateControlTest, KeyframesGetBonus) {
  RateController rc(100000, 30.0, 30);
  EXPECT_EQ(rc.PickQp(true), 27);
  EXPECT_EQ(rc.PickQp(false), 30);
}

// --- End-to-end codec ---

Video MakeMovingVideo(int w, int h, int frames, uint64_t seed) {
  Pcg32 rng(seed, 21);
  Video v;
  v.fps = 15;
  for (int f = 0; f < frames; ++f) {
    Frame frame(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        double value = 128 + 90 * std::sin((x + f * 2) * 0.11) *
                                 std::cos((y - f) * 0.07);
        frame.SetPixel(x, y, static_cast<uint8_t>(value),
                       static_cast<uint8_t>(110 + (x % 16)),
                       static_cast<uint8_t>(140 - (y % 16)));
      }
    }
    // A moving high-contrast square exercises motion search.
    int bx = (5 + f * 3) % (w - 10), by = (7 + f * 2) % (h - 10);
    for (int y = by; y < by + 8; ++y) {
      for (int x = bx; x < bx + 8; ++x) frame.SetY(x, y, 250);
    }
    v.frames.push_back(std::move(frame));
  }
  return v;
}

// CodecCase has no gtest printer, so each case is named by the raw bytes of
// the struct, and CTest takes that name. The three bytes after `profile` were
// once padding and held whatever the stack did, addresses included, so the
// names changed from run to run. They are a field now, set to the bytes the
// names were first recorded with, which keeps every case's name fixed.
struct CodecCase {
  Profile profile;
  uint8_t name_bytes[3];
  int qp;
  int gop;
};
static_assert(sizeof(CodecCase) == 12, "case names print all 12 bytes");

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTrip, ReconstructionQualityScalesWithQp) {
  const CodecCase& param = GetParam();
  Video input = MakeMovingVideo(80, 48, 8, 33);
  EncoderConfig config;
  config.profile = param.profile;
  config.qp = param.qp;
  config.gop_length = param.gop;
  auto encoded = Encode(input, config);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  auto decoded = Decode(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->FrameCount(), input.FrameCount());
  auto psnr = MeanPsnr(input, *decoded);
  ASSERT_TRUE(psnr.ok());
  double minimum = param.qp <= 16 ? 40.0 : (param.qp <= 28 ? 33.0 : 26.0);
  EXPECT_GT(*psnr, minimum) << "profile=" << ProfileName(param.profile)
                            << " qp=" << param.qp;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecRoundTrip,
    ::testing::Values(
        CodecCase{Profile::kH264Like, {0x00, 0x00, 0x00}, 10, 5},
        CodecCase{Profile::kH264Like, {0x7F, 0x00, 0x00}, 16, 15},
        CodecCase{Profile::kH264Like, {0x56, 0x47, 0xFE}, 28, 8},
        CodecCase{Profile::kH264Like, {0x56, 0x00, 0x00}, 40, 4},
        CodecCase{Profile::kHevcLike, {0x00, 0x00, 0x00}, 10, 5},
        CodecCase{Profile::kHevcLike, {0xFF, 0xFF, 0xFF}, 16, 15},
        CodecCase{Profile::kHevcLike, {0x85, 0xCC, 0x5C}, 28, 8},
        CodecCase{Profile::kHevcLike, {0x00, 0x00, 0x00}, 40, 4}));

TEST(CodecTest, HigherQpShrinksBitstream) {
  Video input = MakeMovingVideo(80, 48, 6, 34);
  EncoderConfig low, high;
  low.qp = 12;
  high.qp = 36;
  auto low_encoded = Encode(input, low);
  auto high_encoded = Encode(input, high);
  ASSERT_TRUE(low_encoded.ok());
  ASSERT_TRUE(high_encoded.ok());
  EXPECT_GT(low_encoded->TotalBytes(), 2 * high_encoded->TotalBytes());
}

TEST(CodecTest, StaticVideoCompressesToSkips) {
  Video input;
  input.fps = 15;
  Video moving = MakeMovingVideo(80, 48, 1, 35);
  for (int i = 0; i < 10; ++i) input.frames.push_back(moving.frames[0]);
  EncoderConfig config;
  config.qp = 24;
  config.gop_length = 50;
  auto encoded = Encode(input, config);
  ASSERT_TRUE(encoded.ok());
  // P-frames of identical content should be tiny relative to the keyframe.
  int64_t keyframe_bytes = static_cast<int64_t>(encoded->frames[0].data.size());
  int64_t p_bytes = encoded->TotalBytes() - keyframe_bytes;
  EXPECT_LT(p_bytes, keyframe_bytes / 4);
}

TEST(CodecTest, NoiseVideoInflatesBitstream) {
  Pcg32 rng(36, 1);
  Video noise;
  noise.fps = 15;
  for (int f = 0; f < 6; ++f) {
    Frame frame(80, 48);
    for (uint8_t& s : frame.y_plane()) s = static_cast<uint8_t>(rng.Next());
    for (uint8_t& s : frame.u_plane()) s = static_cast<uint8_t>(rng.Next());
    for (uint8_t& s : frame.v_plane()) s = static_cast<uint8_t>(rng.Next());
    noise.frames.push_back(std::move(frame));
  }
  Video coherent = MakeMovingVideo(80, 48, 6, 37);
  EncoderConfig config;
  config.qp = 24;
  auto noise_encoded = Encode(noise, config);
  auto coherent_encoded = Encode(coherent, config);
  ASSERT_TRUE(noise_encoded.ok());
  ASSERT_TRUE(coherent_encoded.ok());
  EXPECT_GT(noise_encoded->TotalBytes(), 3 * coherent_encoded->TotalBytes());
}

TEST(CodecTest, GopStructureMatchesConfig) {
  Video input = MakeMovingVideo(48, 32, 10, 38);
  EncoderConfig config;
  config.gop_length = 4;
  auto encoded = Encode(input, config);
  ASSERT_TRUE(encoded.ok());
  for (int i = 0; i < encoded->FrameCount(); ++i) {
    EXPECT_EQ(encoded->frames[static_cast<size_t>(i)].keyframe, i % 4 == 0);
  }
}

TEST(CodecTest, DecodeRangeMatchesFullDecode) {
  Video input = MakeMovingVideo(48, 32, 12, 39);
  EncoderConfig config;
  config.gop_length = 5;
  auto encoded = Encode(input, config);
  ASSERT_TRUE(encoded.ok());
  auto full = Decode(*encoded);
  ASSERT_TRUE(full.ok());
  auto range = DecodeRange(*encoded, 7, 3);
  ASSERT_TRUE(range.ok());
  ASSERT_EQ(range->FrameCount(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(range->frames[static_cast<size_t>(i)].SameContentAs(
        full->frames[static_cast<size_t>(7 + i)]));
  }
}

// --- GOP-parallel codec ---

/// Frame-by-frame bitstream equality, with a readable failure message.
void ExpectBitIdentical(const EncodedVideo& a, const EncodedVideo& b) {
  ASSERT_EQ(a.FrameCount(), b.FrameCount());
  for (int i = 0; i < a.FrameCount(); ++i) {
    const EncodedFrame& fa = a.frames[static_cast<size_t>(i)];
    const EncodedFrame& fb = b.frames[static_cast<size_t>(i)];
    EXPECT_EQ(fa.keyframe, fb.keyframe) << "frame " << i;
    EXPECT_EQ(fa.qp, fb.qp) << "frame " << i;
    ASSERT_EQ(fa.data, fb.data) << "frame " << i << " bytes diverge";
  }
}

TEST(ParallelCodecTest, EncodeBitIdenticalAcrossThreadCounts) {
  Video input = MakeMovingVideo(64, 48, 13, 50);
  EncoderConfig config;
  config.qp = 22;
  config.gop_length = 4;  // 4 GOPs; the last is short.
  auto baseline = Encode(input, config);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (int threads : {1, 2, 4, 8}) {
    auto parallel = ParallelEncode(input, config, threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBitIdentical(*baseline, *parallel);
  }
}

TEST(ParallelCodecTest, EncodeBitIdenticalUnderRateControl) {
  // Bitrate mode exercises the planned QP schedule: the pre-pass is serial
  // and deterministic, so the schedule — and therefore the bitstream — must
  // not depend on the worker count.
  Video input = MakeMovingVideo(96, 64, 24, 51);
  EncoderConfig config;
  config.target_bitrate_bps = 60000;
  config.gop_length = 6;
  auto baseline = Encode(input, config);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  bool qp_moved = false;
  for (const EncodedFrame& frame : baseline->frames) {
    if (frame.qp != baseline->frames[0].qp) qp_moved = true;
  }
  EXPECT_TRUE(qp_moved) << "rate control never adjusted QP; test is vacuous";
  for (int threads : {2, 4, 8}) {
    auto parallel = ParallelEncode(input, config, threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBitIdentical(*baseline, *parallel);
  }
}

TEST(ParallelCodecTest, ParallelDecodeMatchesSerial) {
  Video input = MakeMovingVideo(64, 48, 14, 52);
  EncoderConfig config;
  config.qp = 20;
  config.gop_length = 4;
  auto encoded = Encode(input, config);
  ASSERT_TRUE(encoded.ok());
  auto serial = Decode(*encoded);
  ASSERT_TRUE(serial.ok());
  for (int threads : {1, 2, 4, 8}) {
    auto parallel = ParallelDecode(*encoded, threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(parallel->FrameCount(), serial->FrameCount());
    for (int i = 0; i < serial->FrameCount(); ++i) {
      EXPECT_TRUE(parallel->frames[static_cast<size_t>(i)].SameContentAs(
          serial->frames[static_cast<size_t>(i)]))
          << "threads=" << threads << " frame=" << i;
    }
  }
}

TEST(ParallelCodecTest, DecodeRangeAtGopBoundaries) {
  // Regression for the warm-up skip: a range starting exactly on a keyframe
  // has no warm-up frames, one starting just past it has gop_length-1.
  Video input = MakeMovingVideo(48, 32, 12, 53);
  EncoderConfig config;
  config.gop_length = 4;
  auto encoded = Encode(input, config);
  ASSERT_TRUE(encoded.ok());
  auto full = Decode(*encoded);
  ASSERT_TRUE(full.ok());
  struct RangeCase {
    int first;
    int count;
  };
  for (const RangeCase& c : {RangeCase{4, 4},    // Exactly on a keyframe.
                             RangeCase{5, 3},    // One past a keyframe.
                             RangeCase{3, 2},    // Straddles a GOP boundary.
                             RangeCase{0, 12},   // Whole stream.
                             RangeCase{11, 1}})  // Last frame alone.
  {
    for (int threads : {1, 4}) {
      auto range = DecodeRange(*encoded, c.first, c.count, threads);
      ASSERT_TRUE(range.ok()) << range.status().ToString();
      ASSERT_EQ(range->FrameCount(), c.count) << "first=" << c.first;
      for (int i = 0; i < c.count; ++i) {
        EXPECT_TRUE(range->frames[static_cast<size_t>(i)].SameContentAs(
            full->frames[static_cast<size_t>(c.first + i)]))
            << "first=" << c.first << " i=" << i << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelCodecTest, StreamingEncoderMatchesWholeVideoEncode) {
  // Constant-QP is the only mode with both a streaming and a planned user
  // base; their outputs must agree byte for byte.
  Video input = MakeMovingVideo(48, 32, 9, 54);
  EncoderConfig config;
  config.qp = 26;
  config.gop_length = 3;
  auto whole = Encode(input, config);
  ASSERT_TRUE(whole.ok());
  auto encoder = Encoder::Create(48, 32, config);
  ASSERT_TRUE(encoder.ok());
  for (int i = 0; i < input.FrameCount(); ++i) {
    auto frame = encoder->EncodeFrame(input.frames[static_cast<size_t>(i)]);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->data, whole->frames[static_cast<size_t>(i)].data)
        << "frame " << i;
  }
}

TEST(RateControlTest, PlanQpScheduleTracksTarget) {
  Video input = MakeMovingVideo(96, 64, 30, 55);
  EncoderConfig config;
  config.gop_length = 15;

  // Constant-QP plans are flat at the configured QP.
  config.qp = 24;
  std::vector<int> flat = PlanQpSchedule(input, config);
  ASSERT_EQ(flat.size(), input.frames.size());
  for (int qp : flat) EXPECT_EQ(qp, 24);

  // A starved target drives the planned QP up; a generous one drives it
  // down. The closed loop only needs the bit estimator right to ~2x for
  // this ordering to hold.
  config.target_bitrate_bps = 30000;
  std::vector<int> starved = PlanQpSchedule(input, config);
  config.target_bitrate_bps = 400000;
  std::vector<int> generous = PlanQpSchedule(input, config);
  int64_t starved_sum = 0, generous_sum = 0;
  for (int qp : starved) starved_sum += qp;
  for (int qp : generous) generous_sum += qp;
  EXPECT_GT(starved_sum, generous_sum);
}

TEST(MotionTest, BoundedSadExactUnderBound) {
  // The early-exit contract: a result below the bound is the exact SAD; a
  // result at or above it only promises "no better than the bound". Vectors
  // near the edge also exercise the clamped path's hoisted rows.
  Plane cur = MakePlane(64, 48, 57);
  Plane ref = MakePlane(64, 48, 58);
  for (int by : {0, 16}) {
    for (int dy = -3; dy <= 3; ++dy) {
      for (int dx = -3; dx <= 3; ++dx) {
        int64_t exact = BlockSad(cur, ref, 16, by, 16, dx, dy);
        int64_t bounded = BlockSadBounded(cur, ref, 16, by, 16, dx, dy, exact + 1);
        EXPECT_EQ(bounded, exact) << "by=" << by << " dx=" << dx << " dy=" << dy;
        if (exact > 0) {
          int64_t cut = BlockSadBounded(cur, ref, 16, by, 16, dx, dy, exact / 2);
          EXPECT_GE(cut, exact / 2) << "by=" << by << " dx=" << dx << " dy=" << dy;
        }
      }
    }
  }
}

TEST(CodecTest, DecodeRangeRejectsOutOfBounds) {
  Video input = MakeMovingVideo(48, 32, 4, 40);
  auto encoded = Encode(input, EncoderConfig{});
  ASSERT_TRUE(encoded.ok());
  EXPECT_FALSE(DecodeRange(*encoded, 2, 5).ok());
  EXPECT_FALSE(DecodeRange(*encoded, -1, 2).ok());
}

TEST(CodecTest, DecoderRejectsPFrameFirst) {
  Video input = MakeMovingVideo(48, 32, 4, 41);
  EncoderConfig config;
  config.gop_length = 10;
  auto encoded = Encode(input, config);
  ASSERT_TRUE(encoded.ok());
  Decoder decoder(48, 32, config.profile);
  EXPECT_FALSE(decoder.DecodeFrame(encoded->frames[1]).ok());
}

TEST(CodecTest, EncoderRejectsBadConfig) {
  EXPECT_FALSE(Encoder::Create(0, 32, EncoderConfig{}).ok());
  EncoderConfig bad_qp;
  bad_qp.qp = 99;
  EXPECT_FALSE(Encoder::Create(32, 32, bad_qp).ok());
  EncoderConfig bad_gop;
  bad_gop.gop_length = 0;
  EXPECT_FALSE(Encoder::Create(32, 32, bad_gop).ok());
}

TEST(CodecTest, EncoderRejectsMismatchedFrameSize) {
  auto encoder = Encoder::Create(48, 32, EncoderConfig{});
  ASSERT_TRUE(encoder.ok());
  EXPECT_FALSE(encoder->EncodeFrame(Frame(32, 32)).ok());
}

TEST(CodecTest, OddResolutionRoundTrips) {
  Video input = MakeMovingVideo(45, 27, 5, 42);
  EncoderConfig config;
  config.qp = 16;
  auto encoded = Encode(input, config);
  ASSERT_TRUE(encoded.ok());
  auto decoded = Decode(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Width(), 45);
  EXPECT_EQ(decoded->Height(), 27);
  auto psnr = MeanPsnr(input, *decoded);
  ASSERT_TRUE(psnr.ok());
  EXPECT_GT(*psnr, 38.0);
}

TEST(CodecTest, RateControlApproachesTargetBitrate) {
  Video input = MakeMovingVideo(96, 64, 45, 43);
  // Target below the content's minimum-QP ceiling so the controller can
  // actually converge onto it from both sides.
  EncoderConfig config;
  config.target_bitrate_bps = 60000;
  config.gop_length = 15;
  auto encoded = Encode(input, config);
  ASSERT_TRUE(encoded.ok());
  double achieved = encoded->BitrateBps();
  EXPECT_GT(achieved, config.target_bitrate_bps * 0.4);
  EXPECT_LT(achieved, config.target_bitrate_bps * 2.5);
}

TEST(CodecTest, RateControlRespondsToTargetDirection) {
  Video input = MakeMovingVideo(96, 64, 30, 47);
  EncoderConfig low, high;
  low.target_bitrate_bps = 30000;
  high.target_bitrate_bps = 200000;
  auto low_encoded = Encode(input, low);
  auto high_encoded = Encode(input, high);
  ASSERT_TRUE(low_encoded.ok());
  ASSERT_TRUE(high_encoded.ok());
  EXPECT_LT(low_encoded->TotalBytes(), high_encoded->TotalBytes());
}

TEST(CodecTest, HevcProfileNeverWorseThanH264OnSmoothContent) {
  // The HEVC-like profile's larger blocks and planar mode should compress
  // smooth content at least as well at equal QP.
  Video input;
  input.fps = 15;
  for (int f = 0; f < 5; ++f) {
    Frame frame(96, 64);
    for (int y = 0; y < 64; ++y) {
      for (int x = 0; x < 96; ++x) {
        frame.SetPixel(x, y, static_cast<uint8_t>((x + y + f) & 0xFF), 120, 136);
      }
    }
    input.frames.push_back(std::move(frame));
  }
  EncoderConfig h264, hevc;
  h264.profile = Profile::kH264Like;
  hevc.profile = Profile::kHevcLike;
  h264.qp = hevc.qp = 24;
  auto h264_encoded = Encode(input, h264);
  auto hevc_encoded = Encode(input, hevc);
  ASSERT_TRUE(h264_encoded.ok());
  ASSERT_TRUE(hevc_encoded.ok());
  // At these tiny payload sizes per-frame overheads dominate; allow a
  // modest margin rather than strict dominance.
  EXPECT_LE(hevc_encoded->TotalBytes(),
            static_cast<int64_t>(h264_encoded->TotalBytes() * 1.3));
}

TEST(CodecTest, ProfileMetadata) {
  EXPECT_STREQ(ProfileName(Profile::kH264Like), "h264");
  EXPECT_STREQ(ProfileName(Profile::kHevcLike), "hevc");
  EXPECT_EQ(ProfileBlockSize(Profile::kH264Like), 16);
  EXPECT_EQ(ProfileBlockSize(Profile::kHevcLike), 32);
  EXPECT_GT(ProfileSearchRadius(Profile::kHevcLike),
            ProfileSearchRadius(Profile::kH264Like));
}

// --- Robustness: corrupted and adversarial bitstreams must not crash ---

TEST(CodecRobustness, DecodingRandomGarbageDoesNotCrash) {
  Pcg32 rng(71, 1);
  Decoder decoder(48, 32, Profile::kH264Like);
  for (int trial = 0; trial < 30; ++trial) {
    EncodedFrame frame;
    frame.keyframe = true;  // Keyframes decode without a reference.
    frame.qp = static_cast<uint8_t>(rng.NextBounded(52));
    frame.data.resize(rng.NextBounded(600));
    for (uint8_t& b : frame.data) b = static_cast<uint8_t>(rng.NextBounded(256));
    // The arithmetic decoder reads zeros past the end, so decoding must
    // terminate and produce a frame (garbage content is fine).
    auto decoded = decoder.DecodeFrame(frame);
    EXPECT_TRUE(decoded.ok());
    if (decoded.ok()) {
      EXPECT_EQ(decoded->width(), 48);
      EXPECT_EQ(decoded->height(), 32);
    }
  }
}

TEST(CodecRobustness, TruncatedRealBitstreamDecodesWithoutCrash) {
  Video input = MakeMovingVideo(48, 32, 3, 72);
  EncoderConfig config;
  config.qp = 20;
  auto encoded = Encode(input, config);
  ASSERT_TRUE(encoded.ok());
  for (size_t keep : {size_t{0}, size_t{1}, size_t{5},
                      encoded->frames[0].data.size() / 2}) {
    EncodedFrame truncated = encoded->frames[0];
    truncated.data.resize(std::min(keep, truncated.data.size()));
    Decoder decoder(48, 32, config.profile);
    auto decoded = decoder.DecodeFrame(truncated);
    EXPECT_TRUE(decoded.ok());  // Terminates; content is undefined.
  }
}

TEST(CodecRobustness, BitFlippedStreamStaysBounded) {
  Video input = MakeMovingVideo(48, 32, 4, 73);
  auto encoded = Encode(input, EncoderConfig{});
  ASSERT_TRUE(encoded.ok());
  Pcg32 rng(74, 2);
  for (int trial = 0; trial < 20; ++trial) {
    EncodedVideo corrupted = *encoded;
    EncodedFrame& frame = corrupted.frames[rng.NextBounded(4)];
    if (frame.data.empty()) continue;
    size_t position = rng.NextBounded(static_cast<uint32_t>(frame.data.size()));
    frame.data[position] ^= static_cast<uint8_t>(1 << rng.NextBounded(8));
    auto decoded = Decode(corrupted);
    EXPECT_TRUE(decoded.ok());
    if (decoded.ok()) EXPECT_EQ(decoded->FrameCount(), 4);
  }
}

TEST(CodecTest, EncodedVideoAccounting) {
  Video input = MakeMovingVideo(48, 32, 6, 44);
  auto encoded = Encode(input, EncoderConfig{});
  ASSERT_TRUE(encoded.ok());
  int64_t total = 0;
  for (const EncodedFrame& frame : encoded->frames) {
    total += static_cast<int64_t>(frame.data.size());
  }
  EXPECT_EQ(encoded->TotalBytes(), total);
  EXPECT_GT(encoded->BitrateBps(), 0.0);
}

}  // namespace
}  // namespace visualroad::video::codec
