#include "video/kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>

#include "common/metrics.h"
#include "video/kernels/kernels_internal.h"

namespace visualroad::video::kernels {

namespace internal {

const DctTables& GetDctTables() {
  static const DctTables tables = [] {
    DctTables t;
    const double pi = 3.14159265358979323846;
    for (int k = 0; k < kDctSize; ++k) {
      double ck = k == 0 ? std::sqrt(1.0 / kDctSize) : std::sqrt(2.0 / kDctSize);
      for (int n = 0; n < kDctSize; ++n) {
        t.b[k][n] = ck * std::cos((2 * n + 1) * k * pi / (2.0 * kDctSize));
        t.bt[n][k] = t.b[k][n];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace internal

const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kSad:
      return "sad";
    case Kernel::kForwardDct:
      return "fdct";
    case Kernel::kInverseDct:
      return "idct";
    case Kernel::kQuantize:
      return "quant";
    case Kernel::kDequantize:
      return "dequant";
    case Kernel::kRgbToYuvRow:
      return "rgb2yuv";
    case Kernel::kYuvToRgbRow:
      return "yuv2rgb";
    case Kernel::kMaskStaticRow:
      return "mask";
    case Kernel::kAccumulateRow:
      return "accum";
    case Kernel::kRasterSpan:
      return "raster_span";
    case Kernel::kCount:
      break;
  }
  return "unknown";
}

namespace {

using namespace internal;  // Per-level entry points.

const KernelTable kScalarTable = {
    ScalarSadBounded, ScalarForwardDct, ScalarInverseDct, ScalarQuantize,
    ScalarDequantize, ScalarRgbToYuvRow, ScalarYuvToRgbRow, ScalarMaskStaticRow,
    ScalarAccumulateRow, ScalarRasterSpan,
};

#if defined(VISUALROAD_NO_AVX2_COMPILER)
// The compiler cannot target AVX2, so that level runs the scalar kernels.
const KernelTable& kAvx2Table = kScalarTable;
#else
const KernelTable kAvx2Table = {
    Avx2SadBounded, Avx2ForwardDct, Avx2InverseDct, Avx2Quantize,
    Avx2Dequantize, Avx2RgbToYuvRow, ScalarYuvToRgbRow, ScalarMaskStaticRow,
    ScalarAccumulateRow, Avx2RasterSpan,
};
#endif

const KernelTable& TableFor(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? kAvx2Table : kScalarTable;
}

metrics::Gauge& SimdLevelGauge() {
  static metrics::Gauge& gauge = metrics::MetricsRegistry::Global().GetGauge(
      "vr_simd_level",
      "Active SIMD dispatch level for the pixel kernels (0=scalar, 2=avx2).");
  return gauge;
}

struct ActiveDispatch {
  std::atomic<const KernelTable*> table{&kScalarTable};
  std::atomic<int> level{0};
};

ActiveDispatch& Dispatch() {
  static ActiveDispatch dispatch;
  static const bool initialized = [] {
    SimdLevel level = RequestedSimdLevel();
    dispatch.table.store(&TableFor(level), std::memory_order_release);
    dispatch.level.store(static_cast<int>(level), std::memory_order_release);
    SimdLevelGauge().Set(static_cast<double>(level));
    return true;
  }();
  (void)initialized;
  return dispatch;
}

struct KernelCounters {
  metrics::Counter* calls[kKernelCount] = {};
  std::atomic<uint64_t> local[kKernelCount] = {};
};

KernelCounters& Counters() {
  static KernelCounters counters;
  static const bool initialized = [] {
    for (int i = 0; i < kKernelCount; ++i) {
      counters.calls[i] = &metrics::MetricsRegistry::Global().GetCounter(
          "vr_kernel_calls_total",
          "Dispatched pixel-kernel invocations by kernel (batched at call-site "
          "granularity).",
          std::string("kernel=\"") + KernelName(static_cast<Kernel>(i)) + "\"");
    }
    return true;
  }();
  (void)initialized;
  return counters;
}

}  // namespace

const KernelTable& Kernels() {
  return *Dispatch().table.load(std::memory_order_acquire);
}

SimdLevel ActiveSimdLevel() {
  return static_cast<SimdLevel>(Dispatch().level.load(std::memory_order_acquire));
}

const KernelTable& KernelsFor(SimdLevel level) {
  SimdLevel clamped = std::min(level, DetectedSimdLevel());
  return TableFor(clamped);
}

SimdLevel SetSimdLevelForTest(SimdLevel level) {
  SimdLevel clamped = std::min(level, DetectedSimdLevel());
  ActiveDispatch& dispatch = Dispatch();
  dispatch.table.store(&TableFor(clamped), std::memory_order_release);
  dispatch.level.store(static_cast<int>(clamped), std::memory_order_release);
  SimdLevelGauge().Set(static_cast<double>(clamped));
  return clamped;
}

void CountKernelCalls(Kernel kernel, uint64_t n) {
  if (kernel >= Kernel::kCount || n == 0) return;
  KernelCounters& counters = Counters();
  int index = static_cast<int>(kernel);
  counters.calls[index]->Increment(static_cast<double>(n));
  counters.local[index].fetch_add(n, std::memory_order_relaxed);
}

uint64_t KernelCallCount(Kernel kernel) {
  if (kernel >= Kernel::kCount) return 0;
  return Counters().local[static_cast<int>(kernel)].load(
      std::memory_order_relaxed);
}

}  // namespace visualroad::video::kernels
