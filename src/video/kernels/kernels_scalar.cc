// Scalar reference kernels. These are the pre-SIMD inner loops moved behind
// the dispatch table, unchanged: every AVX2 variant is validated (and tested)
// byte-identical against this translation unit, which is compiled with the
// build's baseline flags only. The AVX2 table also dispatches the yuv2rgb,
// mask and accum row kernels here.

#include <cmath>
#include <cstdlib>

#include "video/kernels/kernels_internal.h"

namespace visualroad::video::kernels::internal {

namespace {

/// BT.601 YUV -> RGB for one pixel; the exact expressions of
/// video::YuvToRgb.
inline void YuvToRgbPixel(uint8_t y8, uint8_t u8, uint8_t v8, uint8_t* r,
                          uint8_t* g, uint8_t* b) {
  double y = y8, u = u8 - 128.0, v = v8 - 128.0;
  *r = ClampByte(y + 1.402 * v);
  *g = ClampByte(y - 0.344136 * u - 0.714136 * v);
  *b = ClampByte(y + 1.772 * u);
}

/// Background-subtraction static test for one luma sample pair.
inline uint8_t MaskStaticPixel(uint8_t pv8, uint8_t pb8, double epsilon) {
  double pv = pv8;
  double pb = pb8;
  if (pv == 0.0) return pb == 0.0 ? 1 : 0;
  return std::abs((pv - pb) / pv) < epsilon ? 1 : 0;
}

/// Dead-zone quantiser for one coefficient (the exact pre-SIMD expressions).
inline int16_t QuantizeCoefficient(double coefficient, double step) {
  const double dead_zone = 1.0 / 3.0;
  double scaled = coefficient / step;
  double magnitude = std::abs(scaled);
  int level = magnitude < dead_zone
                  ? 0
                  : static_cast<int>(magnitude + (1.0 - dead_zone) * 0.5);
  level = level < 32767 ? level : 32767;
  return static_cast<int16_t>(scaled < 0 ? -level : level);
}

}  // namespace

int64_t ScalarSadBounded(const uint8_t* cur, int cur_stride, const uint8_t* ref,
                         int ref_stride, int size, int64_t bound) {
  int64_t sad = 0;
  for (int y = 0; y < size; ++y) {
    const uint8_t* crow = cur + static_cast<size_t>(y) * cur_stride;
    const uint8_t* rrow = ref + static_cast<size_t>(y) * ref_stride;
    for (int x = 0; x < size; ++x) {
      sad += std::abs(static_cast<int>(crow[x]) - rrow[x]);
    }
    if (sad >= bound) return sad;
  }
  return sad;
}

void ScalarForwardDct(const int16_t* input, double* output) {
  const auto& basis = GetDctTables().b;
  double rows[kDctSize][kDctSize];
  // Transform rows.
  for (int y = 0; y < kDctSize; ++y) {
    for (int k = 0; k < kDctSize; ++k) {
      double sum = 0.0;
      for (int n = 0; n < kDctSize; ++n) {
        sum += basis[k][n] * input[y * kDctSize + n];
      }
      rows[y][k] = sum;
    }
  }
  // Transform columns.
  for (int x = 0; x < kDctSize; ++x) {
    for (int k = 0; k < kDctSize; ++k) {
      double sum = 0.0;
      for (int n = 0; n < kDctSize; ++n) sum += basis[k][n] * rows[n][x];
      output[k * kDctSize + x] = sum;
    }
  }
}

void ScalarInverseDct(const double* input, int16_t* output) {
  const auto& basis = GetDctTables().b;
  double cols[kDctSize][kDctSize];
  // Inverse transform columns.
  for (int x = 0; x < kDctSize; ++x) {
    for (int n = 0; n < kDctSize; ++n) {
      double sum = 0.0;
      for (int k = 0; k < kDctSize; ++k) {
        sum += basis[k][n] * input[k * kDctSize + x];
      }
      cols[n][x] = sum;
    }
  }
  // Inverse transform rows.
  for (int y = 0; y < kDctSize; ++y) {
    for (int n = 0; n < kDctSize; ++n) {
      double sum = 0.0;
      for (int k = 0; k < kDctSize; ++k) sum += basis[k][n] * cols[y][k];
      output[y * kDctSize + n] = static_cast<int16_t>(std::lround(sum));
    }
  }
}

void ScalarQuantize(const double* coefficients, double step, int16_t* levels) {
  for (int i = 0; i < kDctArea; ++i) {
    levels[i] = QuantizeCoefficient(coefficients[i], step);
  }
}

void ScalarDequantize(const int16_t* levels, double step, double* coefficients) {
  for (int i = 0; i < kDctArea; ++i) {
    coefficients[i] = levels[i] * step;
  }
}

void ScalarRgbToYuvRow(const uint8_t* rgb, int n, uint8_t* y, uint8_t* u,
                       uint8_t* v) {
  for (int i = 0; i < n; ++i) {
    const uint8_t* p = rgb + 3 * static_cast<size_t>(i);
    RgbToYuvPixel(p[0], p[1], p[2], y + i, u + i, v + i);
  }
}

void ScalarYuvToRgbRow(const uint8_t* y, const uint8_t* u, const uint8_t* v,
                       int n, uint8_t* rgb) {
  for (int i = 0; i < n; ++i) {
    uint8_t* p = rgb + 3 * static_cast<size_t>(i);
    YuvToRgbPixel(y[i], u[i >> 1], v[i >> 1], p, p + 1, p + 2);
  }
}

void ScalarMaskStaticRow(const uint8_t* pv, const uint8_t* pb, double epsilon,
                         int n, uint8_t* mask) {
  for (int i = 0; i < n; ++i) mask[i] = MaskStaticPixel(pv[i], pb[i], epsilon);
}

void ScalarAccumulateRow(const uint8_t* src, int n, int sign, uint32_t* acc) {
  if (sign >= 0) {
    for (int i = 0; i < n; ++i) acc[i] += src[i];
  } else {
    for (int i = 0; i < n; ++i) acc[i] -= src[i];
  }
}

void ScalarRasterSpan(const SpanSetup& s, double py, int x0, int n,
                      uint8_t* valid, float* depth, double* u, double* v) {
  for (int i = 0; i < n; ++i) {
    double px = (x0 + i) + 0.5;
    valid[i] = RasterPixel(s, px, py, depth + i, u + i, v + i) ? 1 : 0;
  }
}

}  // namespace visualroad::video::kernels::internal
