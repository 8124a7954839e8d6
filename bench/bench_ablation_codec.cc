// Ablation bench: the VRC codec's design choices (DESIGN.md E11).
//
// Micro-benchmarks (google-benchmark) over the codec substrate quantify the
// knobs behind the system-level results: profile (H264-like vs HEVC-like),
// GOP structure, motion-search radius, QP, and the raw throughput of the
// transform and entropy stages. Bitstream sizes are reported as counters so
// the rate/speed trade is visible in one table.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cpu.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "driver/report.h"
#include "video/codec/codec.h"
#include "video/codec/dct.h"
#include "video/codec/entropy.h"
#include "video/codec/gop_cache.h"
#include "video/codec/motion.h"
#include "video/kernels/kernels.h"

namespace visualroad::video::codec {
namespace {

// Custom sections time with one untimed warm-up run followed by the median of
// kSectionReps timed runs, so first-touch effects (page faults, cold caches,
// lazy static init) do not land in the reported numbers.
constexpr int kSectionReps = 3;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

Video MakeContent(int w, int h, int frames) {
  Pcg32 rng(1234, 9);
  Video v;
  v.fps = 15;
  for (int f = 0; f < frames; ++f) {
    Frame frame(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        double value = 120 + 70 * std::sin((x + 2 * f) * 0.09) *
                                 std::cos((y + f) * 0.06) +
                       rng.NextGaussian(0, 3);
        frame.SetPixel(x, y,
                       static_cast<uint8_t>(std::clamp(value, 0.0, 255.0)),
                       static_cast<uint8_t>(118 + (x % 24)),
                       static_cast<uint8_t>(142 - (y % 24)));
      }
    }
    v.frames.push_back(std::move(frame));
  }
  return v;
}

const Video& Content() {
  static const Video* content = new Video(MakeContent(240, 136, 8));
  return *content;
}

void BM_EncodeProfile(benchmark::State& state) {
  EncoderConfig config;
  config.profile = static_cast<Profile>(state.range(0));
  config.qp = 28;
  int64_t bytes = 0;
  for (auto _ : state) {
    auto encoded = Encode(Content(), config);
    if (!encoded.ok()) state.SkipWithError("encode failed");
    bytes = encoded->TotalBytes();
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetLabel(ProfileName(config.profile));
}
BENCHMARK(BM_EncodeProfile)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EncodeGop(benchmark::State& state) {
  EncoderConfig config;
  config.gop_length = static_cast<int>(state.range(0));
  config.qp = 28;
  int64_t bytes = 0;
  for (auto _ : state) {
    auto encoded = Encode(Content(), config);
    if (!encoded.ok()) state.SkipWithError("encode failed");
    bytes = encoded->TotalBytes();
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_EncodeGop)->Arg(1)->Arg(4)->Arg(15)->Unit(benchmark::kMillisecond);

void BM_EncodeSearchRadius(benchmark::State& state) {
  EncoderConfig config;
  config.search_radius = static_cast<int>(state.range(0));
  config.qp = 28;
  int64_t bytes = 0;
  for (auto _ : state) {
    auto encoded = Encode(Content(), config);
    if (!encoded.ok()) state.SkipWithError("encode failed");
    bytes = encoded->TotalBytes();
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_EncodeSearchRadius)->Arg(2)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_EncodeQp(benchmark::State& state) {
  EncoderConfig config;
  config.qp = static_cast<int>(state.range(0));
  int64_t bytes = 0;
  for (auto _ : state) {
    auto encoded = Encode(Content(), config);
    if (!encoded.ok()) state.SkipWithError("encode failed");
    bytes = encoded->TotalBytes();
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_EncodeQp)->Arg(12)->Arg(28)->Arg(44)->Unit(benchmark::kMillisecond);

void BM_Decode(benchmark::State& state) {
  EncoderConfig config;
  config.qp = 28;
  auto encoded = Encode(Content(), config);
  for (auto _ : state) {
    auto decoded = Decode(*encoded);
    if (!decoded.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_Decode)->Unit(benchmark::kMillisecond);

void BM_ForwardDct(benchmark::State& state) {
  Pcg32 rng(5, 5);
  int16_t block[kTransformArea];
  for (int16_t& v : block) v = static_cast<int16_t>(rng.NextInt(-128, 127));
  double coefficients[kTransformArea];
  for (auto _ : state) {
    ForwardDct8x8(block, coefficients);
    benchmark::DoNotOptimize(coefficients);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForwardDct);

void BM_ArithmeticCoder(benchmark::State& state) {
  Pcg32 rng(6, 6);
  std::vector<int> bits(10000);
  for (int& bit : bits) bit = rng.NextBool(0.8) ? 0 : 1;
  for (auto _ : state) {
    ArithmeticEncoder encoder;
    BitModel model;
    for (int bit : bits) encoder.EncodeBit(model, bit);
    auto data = encoder.Finish();
    benchmark::DoNotOptimize(data);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(bits.size()));
}
BENCHMARK(BM_ArithmeticCoder);

void BM_DiamondSearch(benchmark::State& state) {
  Plane reference(240, 136), current(240, 136);
  for (int y = 0; y < 136; ++y) {
    for (int x = 0; x < 240; ++x) {
      uint8_t v = static_cast<uint8_t>(128 + 80 * std::sin(x * 0.12) *
                                                 std::cos(y * 0.1));
      reference.Set(x, y, v);
      current.Set(x, y,
                  reference.At(std::min(239, x + 3), std::max(0, y - 2)));
    }
  }
  int radius = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int by = 0; by + 16 <= 136; by += 16) {
      for (int bx = 0; bx + 16 <= 240; bx += 16) {
        MotionVector mv = DiamondSearch(current, reference, bx, by, 16, radius, {});
        benchmark::DoNotOptimize(mv);
      }
    }
  }
}
BENCHMARK(BM_DiamondSearch)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

// Isolates the bounded-SAD early exit: the same candidate sweep once through
// the exhaustive kernel (bound disabled) and once with a best-so-far bound,
// the way DiamondSearch calls it. Arg(0) = unbounded, Arg(1) = bounded.
void BM_BlockSadEarlyExit(benchmark::State& state) {
  Plane reference(240, 136), current(240, 136);
  for (int y = 0; y < 136; ++y) {
    for (int x = 0; x < 240; ++x) {
      uint8_t v = static_cast<uint8_t>(128 + 80 * std::sin(x * 0.12) *
                                                 std::cos(y * 0.1));
      reference.Set(x, y, v);
      current.Set(x, y,
                  reference.At(std::min(239, x + 3), std::max(0, y - 2)));
    }
  }
  bool bounded = state.range(0) != 0;
  for (auto _ : state) {
    for (int by = 0; by + 16 <= 136; by += 16) {
      for (int bx = 0; bx + 16 <= 240; bx += 16) {
        int64_t best = INT64_MAX;
        for (int dy = -4; dy <= 4; ++dy) {
          for (int dx = -4; dx <= 4; ++dx) {
            int64_t sad =
                bounded ? BlockSadBounded(current, reference, bx, by, 16, dx,
                                          dy, best)
                        : BlockSad(current, reference, bx, by, 16, dx, dy);
            if (sad < best) best = sad;
          }
        }
        benchmark::DoNotOptimize(best);
      }
    }
  }
  state.SetLabel(bounded ? "bounded" : "exhaustive");
}
BENCHMARK(BM_BlockSadEarlyExit)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- GOP-parallel codec scaling ---
// ParallelEncode/ParallelDecode split work at keyframe boundaries; output is
// byte-identical to the serial path at every thread count because a serial
// rate-control pre-pass fixes the QP schedule first. Like bench_fig8's
// generator table, the speedup column only reflects real cores: on a
// single-core host every thread count collapses to serial wall-clock time.
int RunParallelScalingSection() {
  std::printf(
      "GOP-parallel codec scaling (hardware threads: %d, 8 GOPs of 8 "
      "frames; warm-run median of %d)\n",
      ThreadPool::HardwareThreads(), kSectionReps);
  Video content = MakeContent(240, 136, 64);
  EncoderConfig config;
  config.qp = 28;
  config.gop_length = 8;

  driver::TextTable table;
  table.SetHeader({"Threads", "Encode", "Decode", "Speedup", "Efficiency",
                   "Output"});
  double baseline_seconds = 0.0;
  EncodedVideo baseline;
  for (int threads : {1, 2, 4, 8}) {
    // Warm-up run (untimed), then timed reps; keep the last rep's output for
    // the determinism check — every rep encodes identical bytes.
    {
      auto warm = ParallelEncode(content, config, threads);
      if (!warm.ok()) {
        std::fprintf(stderr, "parallel encode failed: %s\n",
                     warm.status().ToString().c_str());
        return 1;
      }
      auto warm_dec = ParallelDecode(*warm, threads);
      if (!warm_dec.ok()) {
        std::fprintf(stderr, "parallel decode failed: %s\n",
                     warm_dec.status().ToString().c_str());
        return 1;
      }
    }
    std::vector<double> encode_reps, decode_reps;
    StatusOr<EncodedVideo> encoded = Status::Internal("no rep ran");
    PoolStats before = CodecPoolStats();
    double timed_seconds = 0.0;
    for (int rep = 0; rep < kSectionReps; ++rep) {
      Stopwatch watch;
      encoded = ParallelEncode(content, config, threads);
      encode_reps.push_back(watch.ElapsedSeconds());
      if (!encoded.ok()) {
        std::fprintf(stderr, "parallel encode failed: %s\n",
                     encoded.status().ToString().c_str());
        return 1;
      }
      watch.Reset();
      auto decoded = ParallelDecode(*encoded, threads);
      decode_reps.push_back(watch.ElapsedSeconds());
      if (!decoded.ok()) {
        std::fprintf(stderr, "parallel decode failed: %s\n",
                     decoded.status().ToString().c_str());
        return 1;
      }
      timed_seconds += encode_reps.back() + decode_reps.back();
    }
    double encode_seconds = Median(encode_reps);
    double decode_seconds = Median(decode_reps);
    double seconds = encode_seconds + decode_seconds;
    PoolStats after = CodecPoolStats();

    std::string output = "baseline";
    if (threads == 1) {
      baseline_seconds = seconds;
      baseline = std::move(encoded).value();
    } else {
      // Determinism check: bitstream byte-identical to the serial encode.
      bool identical = encoded->frames.size() == baseline.frames.size();
      for (size_t f = 0; identical && f < baseline.frames.size(); ++f) {
        identical = encoded->frames[f].data == baseline.frames[f].data &&
                    encoded->frames[f].keyframe == baseline.frames[f].keyframe;
      }
      output = identical ? "identical" : "DIVERGED";
    }

    double busy = after.busy_seconds - before.busy_seconds;
    double efficiency = threads > 1 && timed_seconds > 0.0
                            ? busy / (threads * timed_seconds)
                            : 1.0;
    char eff[32];
    std::snprintf(eff, sizeof(eff), "%.0f%%", 100.0 * efficiency);
    table.AddRow({std::to_string(threads),
                  driver::FormatSeconds(encode_seconds),
                  driver::FormatSeconds(decode_seconds),
                  driver::FormatRatio(seconds > 0 ? baseline_seconds / seconds
                                                  : 0.0),
                  eff, output});
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}

// --- Decoded-GOP cache ---
// The shared cache every engine decodes through: a cold sweep pays one decode
// per GOP, re-reads are pure hits, and a capacity half the working set forces
// LRU churn. Hit rate and decode-work saved come from the cache's own
// counters.
int RunGopCacheSection() {
  std::printf(
      "Decoded-GOP cache (8 GOPs of 8 frames, 3 passes per row; warm-run "
      "median of %d)\n",
      kSectionReps);
  Video content = MakeContent(240, 136, 64);
  EncoderConfig config;
  config.qp = 28;
  config.gop_length = 8;
  auto encoded = Encode(content, config);
  if (!encoded.ok()) {
    std::fprintf(stderr, "encode failed: %s\n",
                 encoded.status().ToString().c_str());
    return 1;
  }
  int64_t gop_bytes = 0;
  for (const Frame& frame : content.frames) {
    gop_bytes += static_cast<int64_t>(frame.y_plane().size() +
                                      frame.u_plane().size() +
                                      frame.v_plane().size());
  }
  gop_bytes /= 8;  // Per-GOP decoded footprint.

  driver::TextTable table;
  table.SetHeader({"Capacity", "Runtime", "Hit rate", "Frames decoded",
                   "Evictions"});
  struct Row {
    const char* label;
    int64_t gops;  // Capacity in whole decoded GOPs.
  } rows[] = {{"whole stream", 8}, {"half stream", 4}, {"one GOP", 1}};
  for (const Row& row : rows) {
    GopCacheOptions options;
    options.capacity_bytes = row.gops * gop_bytes;
    // Each rep runs against a fresh cache so hit/eviction stats are
    // deterministic; the first (warm-up) rep is untimed, then the median of
    // the timed reps is reported with the last rep's stats.
    std::vector<double> rep_seconds;
    GopCacheStats stats;
    int64_t frames_decoded = 0;
    for (int rep = 0; rep < kSectionReps + 1; ++rep) {
      GopCache cache(options);
      GopCacheCounters counters;
      Stopwatch watch;
      for (int pass = 0; pass < 3; ++pass) {
        auto decoded = CachedDecode(*encoded, cache, &counters);
        if (!decoded.ok()) {
          std::fprintf(stderr, "cached decode failed: %s\n",
                       decoded.status().ToString().c_str());
          return 1;
        }
        benchmark::DoNotOptimize(decoded);
      }
      if (rep > 0) rep_seconds.push_back(watch.ElapsedSeconds());
      stats = cache.stats();
      frames_decoded = counters.frames_decoded.load();
    }
    double seconds = Median(rep_seconds);
    int64_t lookups = stats.hits + stats.coalesced + stats.misses;
    char hit_rate[32];
    std::snprintf(hit_rate, sizeof(hit_rate), "%.0f%%",
                  lookups > 0
                      ? 100.0 * static_cast<double>(stats.hits + stats.coalesced) /
                            static_cast<double>(lookups)
                      : 0.0);
    table.AddRow({row.label, driver::FormatSeconds(seconds), hit_rate,
                  std::to_string(frames_decoded),
                  std::to_string(stats.evictions)});
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}

// --- SIMD dispatch-level speedup ---
// End-to-end Encode()/Decode() at each kernel dispatch level, repinned via
// SetSimdLevelForTest. The output column cross-checks the identity guarantee
// at the bitstream level: every dispatch level must produce the exact bytes
// the scalar kernels produce.
int RunSimdSpeedupSection() {
  SimdLevel detected = DetectedSimdLevel();
  std::printf(
      "Codec by SIMD dispatch level (detected: %s; warm-run median of %d)\n",
      SimdLevelName(detected), kSectionReps);
  const Video& content = Content();
  EncoderConfig config;
  config.qp = 28;

  driver::TextTable table;
  table.SetHeader({"Level", "Encode", "Decode", "Speedup", "Output"});
  double baseline_seconds = 0.0;
  EncodedVideo baseline;
  for (SimdLevel level : AvailableSimdLevels()) {
    kernels::SetSimdLevelForTest(level);
    {
      auto warm = Encode(content, config);
      if (!warm.ok() || !Decode(*warm).ok()) {
        std::fprintf(stderr, "warm-up encode/decode failed\n");
        return 1;
      }
    }
    std::vector<double> encode_reps, decode_reps;
    StatusOr<EncodedVideo> encoded = Status::Internal("no rep ran");
    for (int rep = 0; rep < kSectionReps; ++rep) {
      Stopwatch watch;
      encoded = Encode(content, config);
      encode_reps.push_back(watch.ElapsedSeconds());
      if (!encoded.ok()) {
        std::fprintf(stderr, "encode failed: %s\n",
                     encoded.status().ToString().c_str());
        return 1;
      }
      watch.Reset();
      auto decoded = Decode(*encoded);
      decode_reps.push_back(watch.ElapsedSeconds());
      if (!decoded.ok()) {
        std::fprintf(stderr, "decode failed: %s\n",
                     decoded.status().ToString().c_str());
        return 1;
      }
    }
    double encode_seconds = Median(encode_reps);
    double decode_seconds = Median(decode_reps);
    double seconds = encode_seconds + decode_seconds;

    std::string output = "baseline";
    if (level == SimdLevel::kScalar) {
      baseline_seconds = seconds;
      baseline = std::move(encoded).value();
    } else {
      bool identical = encoded->frames.size() == baseline.frames.size();
      for (size_t f = 0; identical && f < baseline.frames.size(); ++f) {
        identical = encoded->frames[f].data == baseline.frames[f].data;
      }
      output = identical ? "identical" : "DIVERGED";
    }
    table.AddRow({SimdLevelName(level), driver::FormatSeconds(encode_seconds),
                  driver::FormatSeconds(decode_seconds),
                  driver::FormatRatio(seconds > 0 ? baseline_seconds / seconds
                                                  : 0.0),
                  output});
  }
  kernels::SetSimdLevelForTest(RequestedSimdLevel());
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace visualroad::video::codec

int main(int argc, char** argv) {
  using namespace visualroad::video::codec;
  if (int rc = RunSimdSpeedupSection(); rc != 0) return rc;
  if (int rc = RunParallelScalingSection(); rc != 0) return rc;
  if (int rc = RunGopCacheSection(); rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
