// AVX2 kernel variants. This translation unit alone is compiled with -mavx2
// (per-file COMPILE_OPTIONS, and only when the compiler takes the flag); the
// rest of the build keeps the baseline ISA, and dispatch guarantees these
// bodies only run on CPUs that report AVX2. Identity discipline: integer
// kernels (SAD, dequantised level scaling) are exact by nature; floating-point
// kernels replay the scalar expression tree operation for operation -- same
// association order, separate mul/add (no FMA intrinsics, and -mavx2 does not
// imply -mfma, so nothing can contract), truncating conversions -- so each
// lane computes the bit-exact scalar value. Final roundings that have no
// vector twin (lround in the inverse DCT) stay scalar on the accumulated sums.

#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "video/kernels/kernels_internal.h"

namespace visualroad::video::kernels::internal {

namespace {

/// Four uint8/int16 samples widened to doubles (exact conversions).
inline __m256d QuadToPd(double a, double b, double c, double d) {
  return _mm256_set_pd(d, c, b, a);
}

inline __m256d AbsPd(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

/// std::clamp(v, 0, 255) + 0.5 on four lanes.
inline __m256d ClampBytePd(__m256d v) {
  v = _mm256_min_pd(v, _mm256_set1_pd(255.0));
  v = _mm256_max_pd(v, _mm256_setzero_pd());
  return _mm256_add_pd(v, _mm256_set1_pd(0.5));
}

/// Compresses a 4x64-bit __m256d compare mask onto 4 int32 lanes.
inline __m128i MaskPdToEpi32(__m256d mask) {
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  return _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(mask), idx));
}

/// Packs four int32 byte values (already in [0, 255]) into 4 packed bytes.
inline uint32_t PackBytes(__m128i v) {
  __m128i packed16 = _mm_packs_epi32(v, v);
  __m128i packed8 = _mm_packus_epi16(packed16, packed16);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(packed8));
}

/// SAD of one row of 8, 16 or 32 samples with a single psadbw / vpsadbw.
inline int64_t RowSad(const uint8_t* c, const uint8_t* r, int size) {
  if (size == 8) {
    __m128i a = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c));
    __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r));
    return _mm_cvtsi128_si64(_mm_sad_epu8(a, b));
  }
  __m128i sad;
  if (size == 16) {
    sad = _mm_sad_epu8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(c)),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(r)));
  } else {
    __m256i row = _mm256_sad_epu8(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r)));
    sad = _mm_add_epi64(_mm256_castsi256_si128(row),
                        _mm256_extracti128_si256(row, 1));
  }
  return _mm_cvtsi128_si64(sad) +
         _mm_cvtsi128_si64(_mm_unpackhi_epi64(sad, sad));
}

}  // namespace

int64_t Avx2SadBounded(const uint8_t* cur, int cur_stride, const uint8_t* ref,
                       int ref_stride, int size, int64_t bound) {
  if (size != 8 && size != 16 && size != 32) {
    return ScalarSadBounded(cur, cur_stride, ref, ref_stride, size, bound);
  }
  int64_t sad = 0;
  for (int y = 0; y < size; ++y) {
    sad += RowSad(cur + static_cast<size_t>(y) * cur_stride,
                  ref + static_cast<size_t>(y) * ref_stride, size);
    if (sad >= bound) return sad;
  }
  return sad;
}

void Avx2ForwardDct(const int16_t* input, double* output) {
  const DctTables& tables = GetDctTables();
  double rows[kDctSize][kDctSize];
  for (int y = 0; y < kDctSize; ++y) {
    for (int k = 0; k < kDctSize; k += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (int n = 0; n < kDctSize; ++n) {
        __m256d basis = _mm256_loadu_pd(&tables.bt[n][k]);
        __m256d sample =
            _mm256_set1_pd(static_cast<double>(input[y * kDctSize + n]));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(basis, sample));
      }
      _mm256_storeu_pd(&rows[y][k], acc);
    }
  }
  for (int k = 0; k < kDctSize; ++k) {
    for (int x = 0; x < kDctSize; x += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (int n = 0; n < kDctSize; ++n) {
        __m256d basis = _mm256_set1_pd(tables.b[k][n]);
        acc = _mm256_add_pd(acc,
                            _mm256_mul_pd(basis, _mm256_loadu_pd(&rows[n][x])));
      }
      _mm256_storeu_pd(&output[k * kDctSize + x], acc);
    }
  }
}

void Avx2InverseDct(const double* input, int16_t* output) {
  const DctTables& tables = GetDctTables();
  double cols[kDctSize][kDctSize];
  for (int n = 0; n < kDctSize; ++n) {
    for (int x = 0; x < kDctSize; x += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (int k = 0; k < kDctSize; ++k) {
        __m256d basis = _mm256_set1_pd(tables.b[k][n]);
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(basis, _mm256_loadu_pd(&input[k * kDctSize + x])));
      }
      _mm256_storeu_pd(&cols[n][x], acc);
    }
  }
  double sums[kDctArea];
  for (int y = 0; y < kDctSize; ++y) {
    for (int n = 0; n < kDctSize; n += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (int k = 0; k < kDctSize; ++k) {
        __m256d basis = _mm256_loadu_pd(&tables.b[k][n]);
        __m256d sample = _mm256_set1_pd(cols[y][k]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(basis, sample));
      }
      _mm256_storeu_pd(&sums[y * kDctSize + n], acc);
    }
  }
  for (int i = 0; i < kDctArea; ++i) {
    output[i] = static_cast<int16_t>(std::lround(sums[i]));
  }
}

void Avx2Quantize(const double* coefficients, double step, int16_t* levels) {
  const __m256d step4 = _mm256_set1_pd(step);
  const __m256d dead_zone = _mm256_set1_pd(1.0 / 3.0);
  const __m256d round_in = _mm256_set1_pd((1.0 - 1.0 / 3.0) * 0.5);
  const __m128i cap = _mm_set1_epi32(32767);
  for (int i = 0; i < kDctArea; i += 4) {
    __m256d scaled = _mm256_div_pd(_mm256_loadu_pd(coefficients + i), step4);
    __m256d magnitude = AbsPd(scaled);
    __m128i small_i = MaskPdToEpi32(
        _mm256_cmp_pd(magnitude, dead_zone, _CMP_LT_OQ));
    __m128i neg_i = MaskPdToEpi32(
        _mm256_cmp_pd(scaled, _mm256_setzero_pd(), _CMP_LT_OQ));
    __m128i level = _mm256_cvttpd_epi32(_mm256_add_pd(magnitude, round_in));
    level = _mm_andnot_si128(small_i, level);
    level = _mm_min_epi32(level, cap);
    level = _mm_sub_epi32(_mm_xor_si128(level, neg_i), neg_i);
    __m128i packed = _mm_packs_epi32(level, level);  // Saturation is a no-op.
    _mm_storel_epi64(reinterpret_cast<__m128i*>(levels + i), packed);
  }
}

void Avx2Dequantize(const int16_t* levels, double step, double* coefficients) {
  const __m256d step4 = _mm256_set1_pd(step);
  for (int i = 0; i < kDctArea; i += 8) {
    __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(levels + i));
    __m256i wide = _mm256_cvtepi16_epi32(raw);
    __m256d lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(wide));
    __m256d hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(wide, 1));
    _mm256_storeu_pd(coefficients + i, _mm256_mul_pd(lo, step4));
    _mm256_storeu_pd(coefficients + i + 4, _mm256_mul_pd(hi, step4));
  }
}

void Avx2RgbToYuvRow(const uint8_t* rgb, int n, uint8_t* y, uint8_t* u,
                     uint8_t* v) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint8_t* p = rgb + 3 * static_cast<size_t>(i);
    __m256d r = QuadToPd(p[0], p[3], p[6], p[9]);
    __m256d g = QuadToPd(p[1], p[4], p[7], p[10]);
    __m256d b = QuadToPd(p[2], p[5], p[8], p[11]);
    __m256d yv = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(0.299), r),
                      _mm256_mul_pd(_mm256_set1_pd(0.587), g)),
        _mm256_mul_pd(_mm256_set1_pd(0.114), b));
    __m256d uv = _mm256_add_pd(
        _mm256_add_pd(
            _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(-0.168736), r),
                          _mm256_mul_pd(_mm256_set1_pd(0.331264), g)),
            _mm256_mul_pd(_mm256_set1_pd(0.5), b)),
        _mm256_set1_pd(128.0));
    __m256d vv = _mm256_add_pd(
        _mm256_sub_pd(_mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), r),
                                    _mm256_mul_pd(_mm256_set1_pd(0.418688), g)),
                      _mm256_mul_pd(_mm256_set1_pd(0.081312), b)),
        _mm256_set1_pd(128.0));
    uint32_t ybytes = PackBytes(_mm256_cvttpd_epi32(ClampBytePd(yv)));
    uint32_t ubytes = PackBytes(_mm256_cvttpd_epi32(ClampBytePd(uv)));
    uint32_t vbytes = PackBytes(_mm256_cvttpd_epi32(ClampBytePd(vv)));
    std::memcpy(y + i, &ybytes, 4);
    std::memcpy(u + i, &ubytes, 4);
    std::memcpy(v + i, &vbytes, 4);
  }
  for (; i < n; ++i) {
    const uint8_t* p = rgb + 3 * static_cast<size_t>(i);
    RgbToYuvPixel(p[0], p[1], p[2], y + i, u + i, v + i);
  }
}

void Avx2RasterSpan(const SpanSetup& s, double py, int x0, int n,
                    uint8_t* valid, float* depth, double* u, double* v) {
  const __m256d pyv = _mm256_set1_pd(py);
  const __m256d inv_area = _mm256_set1_pd(s.inv_area);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d px = _mm256_set_pd(static_cast<double>(x0 + i + 3) + 0.5,
                               static_cast<double>(x0 + i + 2) + 0.5,
                               static_cast<double>(x0 + i + 1) + 0.5,
                               static_cast<double>(x0 + i) + 0.5);
    __m256d w0 = _mm256_mul_pd(
        _mm256_sub_pd(
            _mm256_mul_pd(_mm256_sub_pd(_mm256_set1_pd(s.s1x), px),
                          _mm256_sub_pd(_mm256_set1_pd(s.s2y), pyv)),
            _mm256_mul_pd(_mm256_sub_pd(_mm256_set1_pd(s.s2x), px),
                          _mm256_sub_pd(_mm256_set1_pd(s.s1y), pyv))),
        inv_area);
    __m256d w1 = _mm256_mul_pd(
        _mm256_sub_pd(
            _mm256_mul_pd(_mm256_sub_pd(_mm256_set1_pd(s.s2x), px),
                          _mm256_sub_pd(_mm256_set1_pd(s.s0y), pyv)),
            _mm256_mul_pd(_mm256_sub_pd(_mm256_set1_pd(s.s0x), px),
                          _mm256_sub_pd(_mm256_set1_pd(s.s2y), pyv))),
        inv_area);
    __m256d w2 = _mm256_sub_pd(_mm256_sub_pd(one, w0), w1);
    __m256d outside = _mm256_or_pd(
        _mm256_or_pd(_mm256_cmp_pd(w0, zero, _CMP_LT_OQ),
                     _mm256_cmp_pd(w1, zero, _CMP_LT_OQ)),
        _mm256_cmp_pd(w2, zero, _CMP_LT_OQ));
    __m256d inv_z = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(w0, _mm256_set1_pd(s.z0)),
                      _mm256_mul_pd(w1, _mm256_set1_pd(s.z1))),
        _mm256_mul_pd(w2, _mm256_set1_pd(s.z2)));
    __m256d behind = _mm256_cmp_pd(inv_z, zero, _CMP_LE_OQ);
    int reject = _mm256_movemask_pd(_mm256_or_pd(outside, behind));
    valid[i] = static_cast<uint8_t>(~reject & 1);
    valid[i + 1] = static_cast<uint8_t>((~reject >> 1) & 1);
    valid[i + 2] = static_cast<uint8_t>((~reject >> 2) & 1);
    valid[i + 3] = static_cast<uint8_t>((~reject >> 3) & 1);
    _mm_storeu_ps(depth + i, _mm256_cvtpd_ps(_mm256_div_pd(one, inv_z)));
    __m256d uz = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(w0, _mm256_set1_pd(s.u0)),
                      _mm256_mul_pd(w1, _mm256_set1_pd(s.u1))),
        _mm256_mul_pd(w2, _mm256_set1_pd(s.u2)));
    __m256d vz = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(w0, _mm256_set1_pd(s.v0)),
                      _mm256_mul_pd(w1, _mm256_set1_pd(s.v1))),
        _mm256_mul_pd(w2, _mm256_set1_pd(s.v2)));
    _mm256_storeu_pd(u + i, _mm256_div_pd(uz, inv_z));
    _mm256_storeu_pd(v + i, _mm256_div_pd(vz, inv_z));
  }
  for (; i < n; ++i) {
    double px = (x0 + i) + 0.5;
    valid[i] = RasterPixel(s, px, py, depth + i, u + i, v + i) ? 1 : 0;
  }
}

}  // namespace visualroad::video::kernels::internal
