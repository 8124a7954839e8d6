#ifndef VISUALROAD_VIDEO_KERNELS_KERNELS_H_
#define VISUALROAD_VIDEO_KERNELS_KERNELS_H_

// Runtime-dispatched SIMD kernels for the pixel hot paths.
//
// Every per-pixel inner loop the engines bottom out in — SAD motion search,
// the 8x8 DCT/IDCT, quantisation, YUV<->RGB conversion, background
// subtraction, plane accumulation, and rasterizer span shading — funnels
// through one function-pointer table selected at startup from CPUID
// (scalar / AVX2). AVX2 variants are BYTE-IDENTICAL to scalar by
// construction: integer kernels are exact, and floating-point kernels mirror
// the scalar expression tree operation for operation (same association order,
// no FMA contraction, truncating conversions), so the determinism and
// faults-off byte-identity suites pass unchanged at every dispatch level.
//
// Pin a level with VR_SIMD=scalar|avx2 (clamped to what the CPU supports) or
// SetSimdLevelForTest(). The selected level is exported as the
// vr_simd_level gauge; call volume per kernel flows into
// vr_kernel_calls_total{kernel="..."} at call-site (batched) granularity.

#include <cstdint>

#include "common/cpu.h"

namespace visualroad::video::kernels {

/// Kernel identifiers, used for call accounting and bench sections.
enum class Kernel : int {
  kSad = 0,
  kForwardDct,
  kInverseDct,
  kQuantize,
  kDequantize,
  kRgbToYuvRow,
  kYuvToRgbRow,
  kMaskStaticRow,
  kAccumulateRow,
  kRasterSpan,
  kCount,
};

inline constexpr int kKernelCount = static_cast<int>(Kernel::kCount);

/// Short stable name used as the `kernel=` metric label ("sad", "fdct", ...).
const char* KernelName(Kernel kernel);

/// Screen-space triangle setup for the rasterizer span kernel: vertex
/// positions, the signed-area reciprocal, and per-vertex 1/z and
/// perspective-divided attributes, exactly as Rasterizer::DrawClipped
/// computes them.
struct SpanSetup {
  double s0x, s0y, s1x, s1y, s2x, s2y;
  double inv_area;
  double z0, z1, z2;  // Per-vertex 1/z.
  double u0, u1, u2;  // Per-vertex u/z.
  double v0, v1, v2;  // Per-vertex v/z.
};

/// The dispatch table. One instance per SIMD level; all entries are non-null.
struct KernelTable {
  /// SAD between two size x size blocks that lie fully inside their planes,
  /// with the scalar path's per-row early exit: after each row, if the
  /// running sum has reached `bound`, it is returned as-is. Any `size` >= 1;
  /// AVX2 vectorises 8, 16 and 32. Exact (integer) at every level.
  int64_t (*sad_bounded)(const uint8_t* cur, int cur_stride, const uint8_t* ref,
                         int ref_stride, int size, int64_t bound);

  /// Forward 8x8 DCT-II of a row-major int16 residual block into 64 doubles.
  void (*forward_dct)(const int16_t* input, double* output);

  /// Inverse 8x8 DCT-III of 64 doubles into int16 (lround rounding).
  void (*inverse_dct)(const double* input, int16_t* output);

  /// Dead-zone quantiser over one 64-coefficient block at step size `step`.
  void (*quantize)(const double* coefficients, double step, int16_t* levels);

  /// Reconstruction: coefficient = level * step.
  void (*dequantize)(const int16_t* levels, double step, double* coefficients);

  /// BT.601 RGB -> per-pixel YUV over one interleaved RGB24 row of n pixels,
  /// writing three planar rows (full-resolution chroma; the caller
  /// subsamples).
  void (*rgb_to_yuv_row)(const uint8_t* rgb, int n, uint8_t* y, uint8_t* u,
                         uint8_t* v);

  /// BT.601 YUV -> RGB over one row of n pixels. `u` and `v` point at the
  /// matching chroma row and are indexed x/2 (4:2:0 replication).
  void (*yuv_to_rgb_row)(const uint8_t* y, const uint8_t* u, const uint8_t* v,
                         int n, uint8_t* rgb);

  /// Background-subtraction classifier over one luma row: mask[i] = 1 when
  /// |(pv - pb) / pv| < epsilon (pv == 0 counts as static only when pb == 0).
  void (*mask_static_row)(const uint8_t* pv, const uint8_t* pb, double epsilon,
                          int n, uint8_t* mask);

  /// acc[i] += sign * src[i] over n samples (sign is +1 or -1, uint32 wrap
  /// semantics as the scalar windowed-mean code uses).
  void (*accumulate_row)(const uint8_t* src, int n, int sign, uint32_t* acc);

  /// Rasterizer span shading setup for n pixels starting at integer x0 on
  /// scanline centre py: per pixel, the barycentric coverage test, the
  /// interpolated camera-space depth (float, as written to the z-buffer), and
  /// the perspective-correct (u, v). valid[i] = 1 exactly when the scalar
  /// loop would reach its depth test (covered and 1/z > 0); depth/u/v are
  /// meaningful only for valid pixels.
  void (*raster_span)(const SpanSetup& s, double py, int x0, int n,
                      uint8_t* valid, float* depth, double* u, double* v);
};

/// The active dispatch table. Selected once at first use from
/// RequestedSimdLevel(); stable afterwards unless SetSimdLevelForTest runs.
const KernelTable& Kernels();

/// The level Kernels() currently dispatches to.
SimdLevel ActiveSimdLevel();

/// Table for an explicit level (clamped to DetectedSimdLevel()); lets benches
/// and identity tests exercise every variant side by side without touching
/// the process-wide selection.
const KernelTable& KernelsFor(SimdLevel level);

/// Repoints the process-wide dispatch (clamped to DetectedSimdLevel()) and
/// updates the vr_simd_level gauge. Test/bench only — not safe while kernels
/// are executing on other threads. Returns the level actually selected.
SimdLevel SetSimdLevelForTest(SimdLevel level);

/// Adds `n` calls to the vr_kernel_calls_total{kernel=...} counter. Hot call
/// sites batch (one bump per block search / per plane / per frame row set) so
/// accounting stays off the per-pixel path.
void CountKernelCalls(Kernel kernel, uint64_t n);

/// Reads the accumulated call count for one kernel (test support).
uint64_t KernelCallCount(Kernel kernel);

}  // namespace visualroad::video::kernels

#endif  // VISUALROAD_VIDEO_KERNELS_KERNELS_H_
