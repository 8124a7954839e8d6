#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "common/geometry.h"
#include "common/glyphs.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace visualroad {
namespace {

// --- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad width");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad width");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad width");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ResourceExhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = Status::NotFound("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveExtractsValue) {
  StatusOr<std::string> result = std::string("payload");
  std::string extracted = std::move(result).value();
  EXPECT_EQ(extracted, "payload");
}

StatusOr<int> Doubler(StatusOr<int> input) {
  VR_ASSIGN_OR_RETURN(int value, std::move(input));
  return value * 2;
}

TEST(StatusOrTest, AssignOrReturnPropagatesError) {
  StatusOr<int> ok = Doubler(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  StatusOr<int> err = Doubler(Status::Internal("boom"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

// --- Random ---

TEST(RandomTest, Pcg32IsDeterministic) {
  Pcg32 a(123, 7), b(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentStreamsDiffer) {
  Pcg32 a(123, 1), b(123, 2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RandomTest, BoundedStaysInBounds) {
  Pcg32 rng(9, 3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RandomTest, BoundedOneAlwaysZero) {
  Pcg32 rng(9, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RandomTest, NextIntCoversRangeInclusive) {
  Pcg32 rng(4, 4);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t value = rng.NextInt(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RandomTest, NextDoubleInHalfOpenUnitInterval) {
  Pcg32 rng(5, 6);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandomTest, NextDoubleMeanIsCentred) {
  Pcg32 rng(11, 13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RandomTest, GaussianMomentsApproximatelyCorrect) {
  Pcg32 rng(21, 1);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian(3.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RandomTest, SubStreamsAreIndependentOfDrawOrder) {
  // Drawing extra values from one substream must not perturb another.
  Pcg32 a1 = SubStream(99, "alpha");
  Pcg32 b1 = SubStream(99, "beta");
  uint32_t a_first = a1.Next();
  (void)b1.Next();

  Pcg32 b2 = SubStream(99, "beta");
  for (int i = 0; i < 10; ++i) (void)b2.Next();
  Pcg32 a2 = SubStream(99, "alpha");
  EXPECT_EQ(a2.Next(), a_first);
}

TEST(RandomTest, HashLabelDistinguishesLabels) {
  EXPECT_NE(HashLabel("tile"), HashLabel("tiles"));
  EXPECT_NE(HashLabel("a"), HashLabel("b"));
  EXPECT_EQ(HashLabel("camera"), HashLabel("camera"));
}

TEST(RandomTest, NextBoolProbability) {
  Pcg32 rng(31, 17);
  int trues = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.25)) ++trues;
  }
  EXPECT_NEAR(static_cast<double>(trues) / n, 0.25, 0.02);
}

// --- Geometry ---

TEST(GeometryTest, Vec3CrossIsOrthogonal) {
  Vec3 a{1, 2, 3}, b{-2, 0.5, 4};
  Vec3 c = a.Cross(b);
  EXPECT_NEAR(c.Dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.Dot(b), 0.0, 1e-12);
}

TEST(GeometryTest, NormalizedHasUnitLength) {
  Vec3 v = Vec3{3, 4, 12}.Normalized();
  EXPECT_NEAR(v.Norm(), 1.0, 1e-12);
}

TEST(GeometryTest, RotationZRotatesXToY) {
  Vec3 rotated = Mat3::RotationZ(kPi / 2.0) * Vec3{1, 0, 0};
  EXPECT_NEAR(rotated.x, 0.0, 1e-12);
  EXPECT_NEAR(rotated.y, 1.0, 1e-12);
}

TEST(GeometryTest, MatrixTransposeOfRotationIsInverse) {
  Mat3 r = Mat3::RotationZ(0.7) * Mat3::RotationX(-0.3);
  Mat3 identity = r * r.Transposed();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(identity.m[i][j], i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(GeometryTest, RectIntersectionAndUnion) {
  RectI a{0, 0, 10, 10}, b{5, 5, 15, 15};
  RectI inter = a.Intersect(b);
  EXPECT_EQ(inter, (RectI{5, 5, 10, 10}));
  RectI uni = a.Union(b);
  EXPECT_EQ(uni, (RectI{0, 0, 15, 15}));
}

TEST(GeometryTest, EmptyRectHasZeroArea) {
  RectI r{5, 5, 5, 9};
  EXPECT_TRUE(r.Empty());
  EXPECT_EQ(r.Area(), 0);
}

TEST(GeometryTest, ClampRestrictsToFrame) {
  RectI r{-5, -5, 50, 50};
  RectI clamped = r.Clamp(20, 10);
  EXPECT_EQ(clamped, (RectI{0, 0, 20, 10}));
}

TEST(GeometryTest, IoUIdenticalIsOne) {
  RectI r{2, 3, 12, 13};
  EXPECT_DOUBLE_EQ(IoU(r, r), 1.0);
  EXPECT_DOUBLE_EQ(JaccardDistance(r, r), 0.0);
}

TEST(GeometryTest, IoUDisjointIsZero) {
  EXPECT_DOUBLE_EQ(IoU({0, 0, 5, 5}, {10, 10, 20, 20}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance({0, 0, 5, 5}, {10, 10, 20, 20}), 1.0);
}

TEST(GeometryTest, IoUHalfOverlap) {
  // Two 10x10 boxes overlapping in a 5x10 strip: IoU = 50 / 150.
  EXPECT_NEAR(IoU({0, 0, 10, 10}, {5, 0, 15, 10}), 50.0 / 150.0, 1e-12);
}

TEST(GeometryTest, WrapAngleStaysInRange) {
  for (double a = -20.0; a <= 20.0; a += 0.37) {
    double w = WrapAngle(a);
    EXPECT_GT(w, -kPi - 1e-12);
    EXPECT_LE(w, kPi + 1e-12);
    EXPECT_NEAR(std::sin(w), std::sin(a), 1e-9);
    EXPECT_NEAR(std::cos(w), std::cos(a), 1e-9);
  }
}

// --- ThreadPool ---

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&hits](int i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter = 7; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 7);
}

// --- Serialize ---

TEST(SerializeTest, PrimitivesRoundTrip) {
  ByteWriter writer;
  writer.U8(200);
  writer.U32(0xDEADBEEF);
  writer.I32(-12345);
  writer.U64(0x0123456789ABCDEFULL);
  writer.F64(-3.25e-8);
  writer.Str("visual road");
  std::vector<uint8_t> bytes = writer.Take();

  ByteCursor cursor(bytes);
  EXPECT_EQ(cursor.U8(), 200);
  EXPECT_EQ(cursor.U32(), 0xDEADBEEFu);
  EXPECT_EQ(cursor.I32(), -12345);
  EXPECT_EQ(cursor.U64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(cursor.F64(), -3.25e-8);
  EXPECT_EQ(cursor.Str(), "visual road");
  EXPECT_TRUE(cursor.ok());
  EXPECT_TRUE(cursor.AtEnd());
}

TEST(SerializeTest, TruncationSetsNotOk) {
  ByteWriter writer;
  writer.U32(1);
  std::vector<uint8_t> bytes = writer.Take();
  bytes.pop_back();
  ByteCursor cursor(bytes);
  (void)cursor.U32();
  EXPECT_FALSE(cursor.ok());
}

TEST(SerializeTest, StringWithEmbeddedNulRoundTrips) {
  ByteWriter writer;
  std::string s("a\0b", 3);
  writer.Str(s);
  std::vector<uint8_t> bytes = writer.Take();
  ByteCursor cursor(bytes);
  EXPECT_EQ(cursor.Str(), s);
}

// --- Glyphs ---

TEST(GlyphTest, KnownCharactersHaveInk) {
  for (char c : std::string("ABCXYZ0129")) {
    int ink = 0;
    for (int y = 0; y < kGlyphHeight; ++y) {
      for (int x = 0; x < kGlyphWidth; ++x) {
        if (GlyphPixel(c, x, y)) ++ink;
      }
    }
    EXPECT_GT(ink, 4) << "glyph " << c;
  }
}

TEST(GlyphTest, SpaceIsBlank) {
  for (int y = 0; y < kGlyphHeight; ++y) {
    for (int x = 0; x < kGlyphWidth; ++x) {
      EXPECT_FALSE(GlyphPixel(' ', x, y));
    }
  }
}

TEST(GlyphTest, LowercaseFoldsToUppercase) {
  for (int y = 0; y < kGlyphHeight; ++y) {
    for (int x = 0; x < kGlyphWidth; ++x) {
      EXPECT_EQ(GlyphPixel('g', x, y), GlyphPixel('G', x, y));
    }
  }
}

TEST(GlyphTest, OutOfBoundsIsFalse) {
  EXPECT_FALSE(GlyphPixel('A', -1, 0));
  EXPECT_FALSE(GlyphPixel('A', kGlyphWidth, 0));
  EXPECT_FALSE(GlyphPixel('A', 0, kGlyphHeight));
}

TEST(GlyphTest, AlphabetGlyphsAreDistinct) {
  // Every pair of plate-alphabet glyphs must differ in at least 3 pixels so
  // the ALPR template matcher can discriminate them.
  const std::string alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  for (size_t i = 0; i < alphabet.size(); ++i) {
    for (size_t j = i + 1; j < alphabet.size(); ++j) {
      int differing = 0;
      for (int y = 0; y < kGlyphHeight; ++y) {
        for (int x = 0; x < kGlyphWidth; ++x) {
          if (GlyphPixel(alphabet[i], x, y) != GlyphPixel(alphabet[j], x, y)) {
            ++differing;
          }
        }
      }
      EXPECT_GE(differing, 3) << alphabet[i] << " vs " << alphabet[j];
    }
  }
}

}  // namespace
}  // namespace visualroad
