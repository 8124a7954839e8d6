// Ablation bench: the tiered video storage service (DESIGN.md Section 10).
//
// Quantifies the storage hierarchy's read paths in isolation: a cold
// whole-file read from the sharded store, a GOP-aligned range read of the
// same stream, a read served by a persisted lower-quality variant, a
// transcode-on-read that materializes the variant on the fly, and the
// resident-cache hit once a stream is pinned in memory. A final sweep
// times the deferred compaction pass against catalogs holding increasing
// numbers of dominated variants. Bytes fetched per read are exported as
// counters so the layout savings are visible next to the latencies.

#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>

#include "common/random.h"
#include "storage/vss.h"
#include "storage/vss_policy.h"
#include "video/codec/codec.h"

namespace visualroad::storage {
namespace {

namespace fs = std::filesystem;

constexpr int kFrames = 24;
constexpr int kGopLength = 4;

video::codec::EncodedVideo MakeContent(int w, int h) {
  Pcg32 rng(4321, 7);
  video::Video v;
  v.fps = 15;
  for (int f = 0; f < kFrames; ++f) {
    video::Frame frame(w, h);
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
  video::codec::EncoderConfig config;
  config.gop_length = kGopLength;
  config.qp = 24;
  auto encoded = video::codec::ParallelEncode(v, config);
  if (!encoded.ok()) std::abort();
  return std::move(encoded).value();
}

const video::codec::EncodedVideo& Content() {
  static const auto* content =
      new video::codec::EncodedVideo(MakeContent(240, 136));
  return *content;
}

/// One store + service per benchmark, torn down with its temp directory.
struct Rig {
  explicit Rig(const std::string& tag, int64_t variant_cache_bytes,
               int64_t resident_bytes) {
    root = (fs::temp_directory_path() / ("vr_bench_storage_" + tag)).string();
    std::error_code ec;
    fs::remove_all(root, ec);
    StoreOptions store_options;
    store_options.root = root;
    store_options.metrics_label = "bench";
    auto opened = ShardedStore::Open(store_options);
    if (!opened.ok()) std::abort();
    store = std::make_unique<ShardedStore>(std::move(opened).value());
    VssOptions options;
    options.store = store.get();
    options.variant_cache_bytes = variant_cache_bytes;
    options.resident_bytes = resident_bytes;
    auto service = VideoStorageService::Open(options);
    if (!service.ok()) std::abort();
    vss = std::move(service).value();
    if (!vss->Ingest("cam", Content()).ok()) std::abort();
  }
  ~Rig() {
    vss.reset();
    store.reset();
    std::error_code ec;
    fs::remove_all(root, ec);
  }

  VariantKey Base() const {
    auto tier = vss->BaseTier("cam");
    if (!tier.ok()) std::abort();
    return *tier;
  }

  std::string root;
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<VideoStorageService> vss;
};

/// Whole-file read with nothing resident: every iteration fetches the full
/// base object from the sharded store.
void BM_ColdWholeFileRead(benchmark::State& state) {
  Rig rig("cold", /*variant_cache_bytes=*/0, /*resident_bytes=*/0);
  VariantKey base = rig.Base();
  for (auto _ : state) {
    auto read = rig.vss->ReadVideo("cam", base);
    if (!read.ok()) state.SkipWithError("read failed");
    benchmark::DoNotOptimize(read);
  }
  state.counters["bytes_per_read"] = static_cast<double>(
      rig.vss->stats().bytes_fetched / std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_ColdWholeFileRead)->Unit(benchmark::kMicrosecond);

/// GOP-aligned range read of one GOP: fetches only the covering segment.
void BM_GopRangeRead(benchmark::State& state) {
  Rig rig("range", /*variant_cache_bytes=*/0, /*resident_bytes=*/0);
  VariantKey base = rig.Base();
  int first = 0;
  for (auto _ : state) {
    auto read = rig.vss->ReadRange("cam", base, first, kGopLength);
    if (!read.ok()) state.SkipWithError("range read failed");
    benchmark::DoNotOptimize(read);
    first = (first + kGopLength) % kFrames;
  }
  state.counters["bytes_per_read"] = static_cast<double>(
      rig.vss->stats().bytes_fetched / std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_GopRangeRead)->Unit(benchmark::kMicrosecond);

/// Read at a tier whose variant was already materialized: fetches the
/// (smaller) variant object, no transcode.
void BM_VariantHit(benchmark::State& state) {
  Rig rig("variant", /*variant_cache_bytes=*/int64_t{64} << 20,
          /*resident_bytes=*/0);
  VariantKey tier{120, 68, 34};
  if (!rig.vss->ReadVideo("cam", tier).ok()) {  // Materialize once.
    state.SkipWithError("materialization failed");
    return;
  }
  for (auto _ : state) {
    auto read = rig.vss->ReadVideo("cam", tier);
    if (!read.ok()) state.SkipWithError("read failed");
    benchmark::DoNotOptimize(read);
  }
  state.counters["transcodes"] =
      static_cast<double>(rig.vss->stats().transcodes);
}
BENCHMARK(BM_VariantHit)->Unit(benchmark::kMicrosecond);

/// Read at a missing tier with variant caching disabled: every iteration
/// decodes, resizes, and re-encodes from the base bitstream.
void BM_TranscodeOnRead(benchmark::State& state) {
  Rig rig("transcode", /*variant_cache_bytes=*/0, /*resident_bytes=*/0);
  VariantKey tier{120, 68, 34};
  for (auto _ : state) {
    auto read = rig.vss->ReadVideo("cam", tier);
    if (!read.ok()) state.SkipWithError("transcode failed");
    benchmark::DoNotOptimize(read);
  }
  state.counters["transcodes"] =
      static_cast<double>(rig.vss->stats().transcodes);
}
BENCHMARK(BM_TranscodeOnRead)->Unit(benchmark::kMillisecond)->MinTime(0.2);

/// Read of a stream pinned in the resident cache: no store traffic at all.
void BM_ResidentHit(benchmark::State& state) {
  Rig rig("resident", /*variant_cache_bytes=*/0,
          /*resident_bytes=*/int64_t{64} << 20);
  VariantKey base = rig.Base();
  if (!rig.vss->ReadVideo("cam", base).ok()) {  // Warm the resident cache.
    state.SkipWithError("warm read failed");
    return;
  }
  for (auto _ : state) {
    auto read = rig.vss->ReadVideo("cam", base);
    if (!read.ok()) state.SkipWithError("read failed");
    benchmark::DoNotOptimize(read);
  }
  state.counters["bytes_fetched"] =
      static_cast<double>(rig.vss->stats().bytes_fetched);
}
BENCHMARK(BM_ResidentHit)->Unit(benchmark::kMicrosecond);

/// Deferred compaction over a catalog with `range(0)` dominated variants:
/// materializes qp tiers 40, 39, ... at one resolution, then times the
/// pass that collapses them onto the best survivor.
void BM_CompactionSweep(benchmark::State& state) {
  const int variants = static_cast<int>(state.range(0));
  int64_t dropped_total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Rig rig("compact", /*variant_cache_bytes=*/int64_t{64} << 20,
            /*resident_bytes=*/0);
    for (int i = 0; i < variants; ++i) {
      VariantKey tier{120, 68, 40 - i};
      if (!rig.vss->ReadVideo("cam", tier).ok()) {
        state.SkipWithError("materialization failed");
        break;
      }
    }
    state.ResumeTiming();
    auto dropped = rig.vss->Compact();
    if (!dropped.ok()) state.SkipWithError("compact failed");
    benchmark::DoNotOptimize(dropped);
    state.PauseTiming();
    dropped_total += dropped.ok() ? *dropped : 0;
    state.ResumeTiming();
  }
  state.counters["dropped_per_pass"] = static_cast<double>(
      dropped_total / std::max<int64_t>(1, state.iterations()));
}
// The untimed per-iteration setup (fresh rig + N transcodes) dominates wall
// time, so the sweep runs a fixed handful of passes rather than a min-time.
BENCHMARK(BM_CompactionSweep)
    ->Arg(2)->Arg(4)->Arg(6)
    ->Iterations(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace visualroad::storage

int main(int argc, char** argv) {
  // The JSON context's "library_build_type" describes the installed
  // google-benchmark library, not this binary; record this binary's build.
#ifdef NDEBUG
  benchmark::AddCustomContext("visualroad_build_type", "optimized (NDEBUG)");
#else
  benchmark::AddCustomContext("visualroad_build_type", "debug (assertions on)");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
