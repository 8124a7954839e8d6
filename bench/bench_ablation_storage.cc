// Ablation bench: the video storage service (DESIGN.md Section 10).
//
// Quantifies the storage service's read paths in isolation: a cold
// whole-file read from the sharded store, a GOP-aligned range read of the
// same stream, and the resident-cache hit once a stream is held in memory.
// Bytes fetched per read are exported as counters so the layout savings are
// visible next to the latencies.

#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>

#include "bench_common.h"
#include "common/random.h"
#include "storage/vss.h"
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
  Rig(const std::string& tag, int64_t resident_bytes) {
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

  std::string root;
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<VideoStorageService> vss;
};

/// Whole-file read with nothing resident: every iteration fetches the full
/// stream object from the sharded store.
void BM_ColdWholeFileRead(benchmark::State& state) {
  Rig rig("cold", /*resident_bytes=*/0);
  for (auto _ : state) {
    auto read = rig.vss->ReadVideo("cam");
    if (!read.ok()) state.SkipWithError("read failed");
    benchmark::DoNotOptimize(read);
  }
  state.counters["bytes_per_read"] = static_cast<double>(
      rig.vss->stats().bytes_fetched / std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_ColdWholeFileRead)->Unit(benchmark::kMicrosecond);

/// GOP-aligned range read of one GOP: fetches only the covering segment.
void BM_GopRangeRead(benchmark::State& state) {
  Rig rig("range", /*resident_bytes=*/0);
  int first = 0;
  for (auto _ : state) {
    auto read = rig.vss->ReadRange("cam", first, kGopLength);
    if (!read.ok()) state.SkipWithError("range read failed");
    benchmark::DoNotOptimize(read);
    first = (first + kGopLength) % kFrames;
  }
  state.counters["bytes_per_read"] = static_cast<double>(
      rig.vss->stats().bytes_fetched / std::max<int64_t>(1, state.iterations()));
}
BENCHMARK(BM_GopRangeRead)->Unit(benchmark::kMicrosecond);

/// Read of a stream held in the resident cache: no store traffic at all.
void BM_ResidentHit(benchmark::State& state) {
  Rig rig("resident", /*resident_bytes=*/int64_t{64} << 20);
  if (!rig.vss->ReadVideo("cam").ok()) {  // Warm the resident cache.
    state.SkipWithError("warm read failed");
    return;
  }
  for (auto _ : state) {
    auto read = rig.vss->ReadVideo("cam");
    if (!read.ok()) state.SkipWithError("read failed");
    benchmark::DoNotOptimize(read);
  }
  state.counters["bytes_fetched"] =
      static_cast<double>(rig.vss->stats().bytes_fetched);
}
BENCHMARK(BM_ResidentHit)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace visualroad::storage

int main(int argc, char** argv) {
  // The JSON context's "library_build_type" describes the installed
  // google-benchmark library, not this binary; record this binary's build
  // and the commit it was built from.
  const visualroad::bench::RunContext context = visualroad::bench::CurrentRunContext();
  benchmark::AddCustomContext("visualroad_build_type", context.build_type);
  benchmark::AddCustomContext("visualroad_commit", context.commit);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
