// Ablation bench: the SIMD kernel layer (DESIGN.md §13).
//
// Times every dispatched pixel kernel at each SIMD level the host CPU reports
// (scalar, and AVX2 where available) through the same KernelTable the engines
// use, and cross-checks that the AVX2 table reproduces the scalar output byte
// for byte on the bench inputs. Timings are warm-run medians: every (kernel,
// level) pair runs one untimed warm-up rep, then the median of five timed reps
// is reported. The decode-path aggregate (SAD + forward/inverse DCT +
// quantise + dequantise) is the headline number: the acceptance bar is >= 2x
// over scalar on AVX2 hardware.
//
// Prints per-kernel tables and writes machine-readable results to
// bench/BENCH_kernels.json (override with VR_KERNELS_OUT).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "driver/report.h"
#include "video/kernels/kernels.h"

namespace visualroad::video::kernels {
namespace {

constexpr int kWarmupReps = 1;
constexpr int kTimedReps = 5;
constexpr int kRowWidth = 1920;
constexpr int kPlaneW = 256, kPlaneH = 144;

struct Workload {
  // Pixel planes and blocks shared by every kernel's timing loop.
  std::vector<uint8_t> cur, ref, rgb, row_a, row_b;
  std::vector<uint32_t> acc;
  int16_t block[64];
  double coefficients[64];
  int16_t levels[64];
  SpanSetup span;

  Workload() {
    Pcg32 rng(42, 7);
    cur.resize(static_cast<size_t>(kPlaneW) * kPlaneH);
    ref.resize(cur.size());
    for (size_t i = 0; i < cur.size(); ++i) {
      cur[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
      ref[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
    }
    rgb.resize(static_cast<size_t>(kRowWidth) * 3);
    for (uint8_t& b : rgb) b = static_cast<uint8_t>(rng.NextInt(0, 255));
    row_a.resize(kRowWidth);
    row_b.resize(kRowWidth);
    for (int i = 0; i < kRowWidth; ++i) {
      row_a[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
      row_b[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
    }
    acc.assign(kRowWidth, 0);
    for (int i = 0; i < 64; ++i) {
      block[i] = static_cast<int16_t>(rng.NextInt(-255, 255));
      coefficients[i] = rng.NextGaussian(0.0, 160.0);
      levels[i] = static_cast<int16_t>(rng.NextInt(-90, 90));
    }
    // A triangle whose spans cover most of a 64-pixel chunk.
    span = SpanSetup{4.0,  2.0,  60.0, 8.0,  30.0, 60.0, 0.0,  0.02,
                     0.03, 0.05, 0.1,  0.9,  0.4,  0.2,  0.1,  0.8};
    double area = (span.s1x - span.s0x) * (span.s2y - span.s0y) -
                  (span.s2x - span.s0x) * (span.s1y - span.s0y);
    span.inv_area = 1.0 / area;
  }
};

/// One kernel's timing harness: `calls` is how many kernel invocations one
/// rep performs (the reported unit is ns per invocation), and `run` performs
/// one rep against the given table.
struct KernelCase {
  Kernel kernel;
  int calls;
  void (*run)(const KernelTable&, Workload&);
};

void RunSad(const KernelTable& kt, Workload& w) {
  int64_t total = 0;
  for (int by = 0; by + 16 <= kPlaneH; by += 16) {
    for (int bx = 0; bx + 16 <= kPlaneW; bx += 16) {
      total += kt.sad_bounded(w.cur.data() + by * kPlaneW + bx, kPlaneW,
                              w.ref.data() + by * kPlaneW + bx, kPlaneW, 16,
                              INT64_MAX);
    }
  }
  if (total < 0) std::abort();  // Keeps the loop observable.
}

void RunForwardDct(const KernelTable& kt, Workload& w) {
  double out[64];
  for (int i = 0; i < 64; ++i) {
    kt.forward_dct(w.block, out);
  }
  if (out[0] == 1e300) std::abort();
}

void RunInverseDct(const KernelTable& kt, Workload& w) {
  int16_t out[64];
  for (int i = 0; i < 64; ++i) {
    kt.inverse_dct(w.coefficients, out);
  }
  if (out[0] == 12345) std::abort();
}

void RunQuantize(const KernelTable& kt, Workload& w) {
  int16_t out[64];
  for (int i = 0; i < 64; ++i) {
    kt.quantize(w.coefficients, 5.0, out);
  }
  if (out[0] == 12345) std::abort();
}

void RunDequantize(const KernelTable& kt, Workload& w) {
  double out[64];
  for (int i = 0; i < 64; ++i) {
    kt.dequantize(w.levels, 5.0, out);
  }
  if (out[0] == 1e300) std::abort();
}

void RunRgbToYuv(const KernelTable& kt, Workload& w) {
  uint8_t y[kRowWidth], u[kRowWidth], v[kRowWidth];
  for (int i = 0; i < 16; ++i) {
    kt.rgb_to_yuv_row(w.rgb.data(), kRowWidth, y, u, v);
  }
  if (y[0] == 254 && u[0] == 254 && v[0] == 254) std::abort();
}

void RunYuvToRgb(const KernelTable& kt, Workload& w) {
  uint8_t rgb[kRowWidth * 3];
  for (int i = 0; i < 16; ++i) {
    kt.yuv_to_rgb_row(w.row_a.data(), w.row_b.data(), w.row_b.data(), kRowWidth,
                      rgb);
  }
  if (rgb[0] == 254 && rgb[1] == 254) std::abort();
}

void RunMask(const KernelTable& kt, Workload& w) {
  uint8_t mask[kRowWidth];
  for (int i = 0; i < 16; ++i) {
    kt.mask_static_row(w.row_a.data(), w.row_b.data(), 0.1, kRowWidth, mask);
  }
  if (mask[0] == 77) std::abort();
}

void RunAccumulate(const KernelTable& kt, Workload& w) {
  for (int i = 0; i < 16; ++i) {
    kt.accumulate_row(w.row_a.data(), kRowWidth, i % 2 == 0 ? 1 : -1,
                      w.acc.data());
  }
}

void RunRasterSpan(const KernelTable& kt, Workload& w) {
  uint8_t valid[64];
  float depth[64];
  double u[64], v[64];
  for (int i = 0; i < 64; ++i) {
    kt.raster_span(w.span, 16.5, 0, 64, valid, depth, u, v);
  }
  if (valid[0] == 77) std::abort();
}

const KernelCase kCases[] = {
    {Kernel::kSad, (kPlaneH / 16) * (kPlaneW / 16), RunSad},
    {Kernel::kForwardDct, 64, RunForwardDct},
    {Kernel::kInverseDct, 64, RunInverseDct},
    {Kernel::kQuantize, 64, RunQuantize},
    {Kernel::kDequantize, 64, RunDequantize},
    {Kernel::kRgbToYuvRow, 16, RunRgbToYuv},
    {Kernel::kYuvToRgbRow, 16, RunYuvToRgb},
    {Kernel::kMaskStaticRow, 16, RunMask},
    {Kernel::kAccumulateRow, 16, RunAccumulate},
    {Kernel::kRasterSpan, 64, RunRasterSpan},
};

constexpr Kernel kDecodePath[] = {Kernel::kSad, Kernel::kForwardDct,
                                  Kernel::kInverseDct, Kernel::kQuantize,
                                  Kernel::kDequantize};

bool OnDecodePath(Kernel kernel) {
  for (Kernel k : kDecodePath) {
    if (k == kernel) return true;
  }
  return false;
}

/// Warm-up then median-of-kTimedReps nanoseconds per kernel invocation.
double MedianNsPerCall(const KernelCase& c, const KernelTable& kt) {
  Workload w;
  for (int rep = 0; rep < kWarmupReps; ++rep) c.run(kt, w);
  std::vector<double> ns(kTimedReps);
  for (int rep = 0; rep < kTimedReps; ++rep) {
    Stopwatch watch;
    c.run(kt, w);
    ns[static_cast<size_t>(rep)] =
        watch.ElapsedSeconds() * 1e9 / static_cast<double>(c.calls);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Byte-compares one level's output against scalar on the bench inputs;
/// returns false (and reports) on any mismatch.
bool VerifyIdentity(SimdLevel level) {
  const KernelTable& kt = KernelsFor(level);
  const KernelTable& ref = KernelsFor(SimdLevel::kScalar);
  Workload w;
  bool ok = true;
  auto check = [&](bool same, const char* what) {
    if (!same) {
      std::fprintf(stderr, "IDENTITY FAILURE: %s diverges at %s\n", what,
                   SimdLevelName(level));
      ok = false;
    }
  };

  // Every width the AVX2 SAD vectorises: 8 and 16 (psadbw), 32 (vpsadbw).
  for (int size : {8, 16, 32}) {
    int64_t sad_a = kt.sad_bounded(w.cur.data(), kPlaneW, w.ref.data(),
                                   kPlaneW, size, INT64_MAX);
    int64_t sad_b = ref.sad_bounded(w.cur.data(), kPlaneW, w.ref.data(),
                                    kPlaneW, size, INT64_MAX);
    check(sad_a == sad_b, ("sad " + std::to_string(size)).c_str());
  }

  double fa[64], fb[64];
  kt.forward_dct(w.block, fa);
  ref.forward_dct(w.block, fb);
  check(std::memcmp(fa, fb, sizeof(fa)) == 0, "fdct");

  int16_t ia[64], ib[64];
  kt.inverse_dct(w.coefficients, ia);
  ref.inverse_dct(w.coefficients, ib);
  check(std::memcmp(ia, ib, sizeof(ia)) == 0, "idct");

  kt.quantize(w.coefficients, 5.0, ia);
  ref.quantize(w.coefficients, 5.0, ib);
  check(std::memcmp(ia, ib, sizeof(ia)) == 0, "quant");

  kt.dequantize(w.levels, 5.0, fa);
  ref.dequantize(w.levels, 5.0, fb);
  check(std::memcmp(fa, fb, sizeof(fa)) == 0, "dequant");

  uint8_t ya[kRowWidth], ua[kRowWidth], va[kRowWidth];
  uint8_t yb[kRowWidth], ub[kRowWidth], vb[kRowWidth];
  kt.rgb_to_yuv_row(w.rgb.data(), kRowWidth, ya, ua, va);
  ref.rgb_to_yuv_row(w.rgb.data(), kRowWidth, yb, ub, vb);
  check(std::memcmp(ya, yb, sizeof(ya)) == 0 &&
            std::memcmp(ua, ub, sizeof(ua)) == 0 &&
            std::memcmp(va, vb, sizeof(va)) == 0,
        "rgb2yuv");

  uint8_t ra[kRowWidth * 3], rb[kRowWidth * 3];
  kt.yuv_to_rgb_row(w.row_a.data(), w.row_b.data(), w.row_b.data(), kRowWidth,
                    ra);
  ref.yuv_to_rgb_row(w.row_a.data(), w.row_b.data(), w.row_b.data(), kRowWidth,
                     rb);
  check(std::memcmp(ra, rb, sizeof(ra)) == 0, "yuv2rgb");

  kt.mask_static_row(w.row_a.data(), w.row_b.data(), 0.1, kRowWidth, ya);
  ref.mask_static_row(w.row_a.data(), w.row_b.data(), 0.1, kRowWidth, yb);
  check(std::memcmp(ya, yb, kRowWidth) == 0, "mask");

  std::vector<uint32_t> acc_a(kRowWidth, 7), acc_b(kRowWidth, 7);
  kt.accumulate_row(w.row_a.data(), kRowWidth, 1, acc_a.data());
  ref.accumulate_row(w.row_a.data(), kRowWidth, 1, acc_b.data());
  kt.accumulate_row(w.row_b.data(), kRowWidth, -1, acc_a.data());
  ref.accumulate_row(w.row_b.data(), kRowWidth, -1, acc_b.data());
  check(acc_a == acc_b, "accum");

  uint8_t valid_a[64], valid_b[64];
  float depth_a[64], depth_b[64];
  double ua2[64], va2[64], ub2[64], vb2[64];
  kt.raster_span(w.span, 16.5, 0, 64, valid_a, depth_a, ua2, va2);
  ref.raster_span(w.span, 16.5, 0, 64, valid_b, depth_b, ub2, vb2);
  bool span_same = std::memcmp(valid_a, valid_b, sizeof(valid_a)) == 0;
  for (int i = 0; span_same && i < 64; ++i) {
    if (valid_a[i]) {
      span_same = std::memcmp(&depth_a[i], &depth_b[i], sizeof(float)) == 0 &&
                  std::memcmp(&ua2[i], &ub2[i], sizeof(double)) == 0 &&
                  std::memcmp(&va2[i], &vb2[i], sizeof(double)) == 0;
    }
  }
  check(span_same, "raster_span");
  return ok;
}

int Run() {
  SimdLevel detected = DetectedSimdLevel();
  const std::vector<SimdLevel> levels = AvailableSimdLevels();
  std::printf("SIMD kernel ablation (detected level: %s; warm-run median of "
              "%d reps)\n\n",
              SimdLevelName(detected), kTimedReps);

  bool identity_ok = true;
  for (SimdLevel level : levels) identity_ok &= VerifyIdentity(level);

  // ns-per-call medians, indexed [kernel][position in `levels`]; position 0
  // is scalar, position 1 (when the CPU has it) AVX2.
  double ns[kKernelCount][2] = {};
  for (const KernelCase& c : kCases) {
    for (size_t l = 0; l < levels.size(); ++l) {
      ns[static_cast<int>(c.kernel)][l] =
          MedianNsPerCall(c, KernelsFor(levels[l]));
    }
  }

  driver::TextTable table;
  table.SetHeader({"Kernel", "scalar ns", "avx2 ns", "avx2 x"});
  char buffer[64];
  auto fmt = [&buffer](double v) -> std::string {
    if (v <= 0.0) return "-";
    std::snprintf(buffer, sizeof(buffer), "%.1f", v);
    return buffer;
  };
  for (const KernelCase& c : kCases) {
    int k = static_cast<int>(c.kernel);
    table.AddRow({KernelName(c.kernel), fmt(ns[k][0]), fmt(ns[k][1]),
                  ns[k][1] > 0.0 ? fmt(ns[k][0] / ns[k][1]) + "x" : "-"});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Decode-path aggregate: the kernels a Decode() call bottoms out in.
  double path_ns[2] = {};
  for (const KernelCase& c : kCases) {
    if (!OnDecodePath(c.kernel)) continue;
    for (size_t l = 0; l < levels.size(); ++l) {
      path_ns[l] += ns[static_cast<int>(c.kernel)][l];
    }
  }
  std::printf("Decode-path aggregate (sad+fdct+idct+quant+dequant): scalar "
              "%.0fns",
              path_ns[0]);
  if (path_ns[1] > 0.0) {
    std::printf(", avx2 %.0fns (%.2fx)", path_ns[1], path_ns[0] / path_ns[1]);
  }
  std::printf("\nIdentity: %s\n\n",
              identity_ok ? "all levels byte-identical to scalar"
                          : "FAILURES (see stderr)");

  const char* env_out = std::getenv("VR_KERNELS_OUT");
  std::string out_path = env_out != nullptr && env_out[0] != '\0'
                             ? env_out
                             : "bench/BENCH_kernels.json";
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"detected_level\": \"" << SimdLevelName(detected)
      << "\",\n  \"identity_ok\": " << (identity_ok ? "true" : "false")
      << ",\n  \"warm_reps\": " << kWarmupReps
      << ",\n  \"timed_reps\": " << kTimedReps << ",\n  \"kernels\": [\n";
  for (size_t i = 0; i < std::size(kCases); ++i) {
    int k = static_cast<int>(kCases[i].kernel);
    out << "    {\n      \"name\": \"" << KernelName(kCases[i].kernel)
        << "\",\n      \"decode_path\": "
        << (OnDecodePath(kCases[i].kernel) ? "true" : "false")
        << ",\n      \"levels\": [\n";
    for (size_t l = 0; l < levels.size(); ++l) {
      out << "        {\"level\": \"" << SimdLevelName(levels[l])
          << "\", \"ns_per_call\": " << ns[k][l]
          << ", \"speedup_vs_scalar\": "
          << (ns[k][l] > 0.0 ? ns[k][0] / ns[k][l] : 0.0) << "}"
          << (l + 1 < levels.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }" << (i + 1 < std::size(kCases) ? "," : "") << "\n";
  }
  out << "  ],\n  \"decode_path_aggregate\": [\n";
  for (size_t l = 0; l < levels.size(); ++l) {
    out << "    {\"level\": \"" << SimdLevelName(levels[l])
        << "\", \"ns\": " << path_ns[l] << ", \"speedup_vs_scalar\": "
        << (path_ns[l] > 0.0 ? path_ns[0] / path_ns[l] : 0.0) << "}"
        << (l + 1 < levels.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("Wrote %s\n", out_path.c_str());
  return identity_ok ? 0 : 1;
}

}  // namespace
}  // namespace visualroad::video::kernels

int main() { return visualroad::video::kernels::Run(); }
