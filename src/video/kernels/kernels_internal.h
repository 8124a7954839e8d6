#ifndef VISUALROAD_VIDEO_KERNELS_KERNELS_INTERNAL_H_
#define VISUALROAD_VIDEO_KERNELS_KERNELS_INTERNAL_H_

// Shared between the per-level kernel translation units. The inline per-pixel
// helpers here are the single source of truth for the scalar math: the scalar
// kernels loop over them, and the vector kernels use them for their tail
// pixels, so every level agrees bit for bit by construction. They are
// element-wise (no reductions), so compiling them in an -mavx2 translation
// unit cannot change their IEEE results.

#include <cstdint>

#include "video/kernels/kernels.h"

namespace visualroad::video::kernels::internal {

// --- DCT basis tables -------------------------------------------------------

inline constexpr int kDctSize = 8;
inline constexpr int kDctArea = kDctSize * kDctSize;

/// Cosine basis in both layouts: b[k][n] = c(k) cos((2n+1) k pi / 16) as the
/// scalar loops read it, and the transpose bt[n][k] so vector row passes can
/// load contiguous k-lanes. Values are computed once with the exact formula
/// the pre-SIMD codec used.
struct DctTables {
  double b[kDctSize][kDctSize];
  double bt[kDctSize][kDctSize];
};

const DctTables& GetDctTables();

// --- Shared per-pixel scalar math -------------------------------------------

inline uint8_t ClampByte(double v) {
  double clamped = v < 0.0 ? 0.0 : (255.0 < v ? 255.0 : v);
  return static_cast<uint8_t>(clamped + 0.5);
}

/// BT.601 RGB -> YUV for one pixel; the exact expressions of
/// video::RgbToYuv, kept here so vector tails can share them.
inline void RgbToYuvPixel(uint8_t r8, uint8_t g8, uint8_t b8, uint8_t* y,
                          uint8_t* u, uint8_t* v) {
  double r = r8, g = g8, b = b8;
  *y = ClampByte(0.299 * r + 0.587 * g + 0.114 * b);
  *u = ClampByte(-0.168736 * r - 0.331264 * g + 0.5 * b + 128.0);
  *v = ClampByte(0.5 * r - 0.418688 * g - 0.081312 * b + 128.0);
}

/// Rasterizer span shading for one pixel centre (px, py); mirrors the
/// original Rasterizer::DrawClipped inner loop up to (but excluding) the
/// z-buffer test. Returns false where that loop would `continue`.
inline bool RasterPixel(const SpanSetup& s, double px, double py, float* depth,
                        double* u, double* v) {
  double w0 =
      ((s.s1x - px) * (s.s2y - py) - (s.s2x - px) * (s.s1y - py)) * s.inv_area;
  double w1 =
      ((s.s2x - px) * (s.s0y - py) - (s.s0x - px) * (s.s2y - py)) * s.inv_area;
  double w2 = 1.0 - w0 - w1;
  if (w0 < 0 || w1 < 0 || w2 < 0) return false;
  double inv_z = w0 * s.z0 + w1 * s.z1 + w2 * s.z2;
  if (inv_z <= 0) return false;
  *depth = static_cast<float>(1.0 / inv_z);
  *u = (w0 * s.u0 + w1 * s.u1 + w2 * s.u2) / inv_z;
  *v = (w0 * s.v0 + w1 * s.v1 + w2 * s.v2) / inv_z;
  return true;
}

// --- Per-level kernel entry points ------------------------------------------
// Defined in kernels_scalar.cc / kernels_avx2.cc; the dispatch tables in
// kernels.cc are assembled from these. The AVX2 table reuses the scalar row
// kernels for yuv2rgb, mask and accum, where 256-bit lanes measured no faster.

int64_t ScalarSadBounded(const uint8_t* cur, int cur_stride, const uint8_t* ref,
                         int ref_stride, int size, int64_t bound);
void ScalarForwardDct(const int16_t* input, double* output);
void ScalarInverseDct(const double* input, int16_t* output);
void ScalarQuantize(const double* coefficients, double step, int16_t* levels);
void ScalarDequantize(const int16_t* levels, double step, double* coefficients);
void ScalarRgbToYuvRow(const uint8_t* rgb, int n, uint8_t* y, uint8_t* u,
                       uint8_t* v);
void ScalarYuvToRgbRow(const uint8_t* y, const uint8_t* u, const uint8_t* v,
                       int n, uint8_t* rgb);
void ScalarMaskStaticRow(const uint8_t* pv, const uint8_t* pb, double epsilon,
                         int n, uint8_t* mask);
void ScalarAccumulateRow(const uint8_t* src, int n, int sign, uint32_t* acc);
void ScalarRasterSpan(const SpanSetup& s, double py, int x0, int n,
                      uint8_t* valid, float* depth, double* u, double* v);

int64_t Avx2SadBounded(const uint8_t* cur, int cur_stride, const uint8_t* ref,
                       int ref_stride, int size, int64_t bound);
void Avx2ForwardDct(const int16_t* input, double* output);
void Avx2InverseDct(const double* input, int16_t* output);
void Avx2Quantize(const double* coefficients, double step, int16_t* levels);
void Avx2Dequantize(const int16_t* levels, double step, double* coefficients);
void Avx2RgbToYuvRow(const uint8_t* rgb, int n, uint8_t* y, uint8_t* u,
                     uint8_t* v);
void Avx2RasterSpan(const SpanSetup& s, double py, int x0, int n,
                    uint8_t* valid, float* depth, double* u, double* v);

}  // namespace visualroad::video::kernels::internal

#endif  // VISUALROAD_VIDEO_KERNELS_KERNELS_INTERNAL_H_
