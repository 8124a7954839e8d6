// Ablation bench: renderer and vision substrate costs (DESIGN.md E11).
//
// Quantifies the per-frame costs that drive the system results: scene
// rendering by resolution (the Figure 8 slope), CNN inference by input size
// (the engines' Q2(c) gap), panoramic stitching, plate search, and ground
// truth extraction.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/cpu.h"
#include "common/stopwatch.h"
#include "driver/report.h"
#include "simulation/city.h"
#include "simulation/ground_truth.h"
#include "simulation/recorded_corpus.h"
#include "video/color.h"
#include "video/kernels/kernels.h"
#include "vision/alpr.h"
#include "vision/miniyolo.h"
#include "vision/stitcher.h"

namespace visualroad {
namespace {

sim::Tile& SharedTile() {
  static sim::Tile* tile = new sim::Tile(sim::TilePoolEntry(2), 777);
  return *tile;
}

sim::Camera MakeCamera(int width, int height) {
  const sim::Tile& tile = SharedTile();
  double line = tile.roads().road_lines()[0];
  return sim::Camera({width, height, 62.0},
                     {{line, 20.0, 14.0}, kPi / 2.0, -0.55});
}

void BM_RenderScene(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  int height = width * 9 / 16;
  sim::Camera camera = MakeCamera(width, height);
  int frame = 0;
  for (auto _ : state) {
    sim::Framebuffer fb = sim::RenderScene(SharedTile(), camera, frame++, 99);
    benchmark::DoNotOptimize(fb.color.data.data());
  }
  state.counters["pixels"] = static_cast<double>(width) * height;
}
BENCHMARK(BM_RenderScene)->Arg(240)->Arg(480)->Arg(960)
    ->Unit(benchmark::kMillisecond);

void BM_GroundTruthExtraction(benchmark::State& state) {
  sim::Camera camera = MakeCamera(240, 136);
  sim::Framebuffer fb = sim::RenderScene(SharedTile(), camera, 0, 99);
  for (auto _ : state) {
    sim::FrameGroundTruth truth = sim::ExtractGroundTruth(SharedTile(), camera, fb);
    benchmark::DoNotOptimize(truth);
  }
}
BENCHMARK(BM_GroundTruthExtraction)->Unit(benchmark::kMicrosecond);

video::Frame RenderedFrame() {
  sim::Camera camera = MakeCamera(240, 136);
  sim::Framebuffer fb = sim::RenderScene(SharedTile(), camera, 0, 99);
  return video::RgbToFrame(fb.color);
}

void BM_DetectorForward(benchmark::State& state) {
  vision::DetectorOptions options;
  options.input_size = static_cast<int>(state.range(0));
  vision::MiniYolo detector(options);
  video::Frame frame = RenderedFrame();
  for (auto _ : state) {
    vision::Tensor grid = detector.Forward(frame);
    benchmark::DoNotOptimize(grid.data().data());
  }
  const double macs = static_cast<double>(detector.MacsPerFrame());
  state.counters["MACs"] = macs;
  state.counters["MAC/s"] = benchmark::Counter(
      macs * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DetectorForward)->Arg(48)->Arg(96)->Arg(224)
    ->Unit(benchmark::kMillisecond);

void BM_PlateSearch(benchmark::State& state) {
  video::Frame frame = RenderedFrame();
  vision::PlateRecognizer recognizer;
  RectI region{40, 40, 160, 110};
  for (auto _ : state) {
    vision::PlateSearchResult result =
        recognizer.FindPlate(frame, region, "AB12CD");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PlateSearch)->Unit(benchmark::kMicrosecond);

void BM_StitchFrame(benchmark::State& state) {
  sim::PanoramicRig rig;
  rig.position = {100, 100, 7};
  rig.face_intrinsics = {240, 136, 120.0};
  auto cameras = rig.Faces();
  std::array<video::Frame, 4> faces;
  for (int f = 0; f < 4; ++f) {
    sim::Framebuffer fb =
        sim::RenderScene(SharedTile(), cameras[static_cast<size_t>(f)], 0, 99);
    faces[static_cast<size_t>(f)] = video::RgbToFrame(fb.color);
  }
  for (auto _ : state) {
    auto pano = vision::StitchEquirect(
        {&faces[0], &faces[1], &faces[2], &faces[3]}, cameras, 480, 240, 0.0);
    if (!pano.ok()) state.SkipWithError("stitch failed");
    benchmark::DoNotOptimize(pano);
  }
}
BENCHMARK(BM_StitchFrame)->Unit(benchmark::kMillisecond);

void BM_TileStep(benchmark::State& state) {
  for (auto _ : state) {
    SharedTile().Step(1.0 / 15.0);
  }
}
BENCHMARK(BM_TileStep)->Unit(benchmark::kMicrosecond);

// --- SIMD dispatch-level speedup ---
// RenderScene at each kernel dispatch level, repinned via SetSimdLevelForTest:
// the rasterizer's span kernel is the render hot path. The output column
// verifies the framebuffer (color, depth, and entity ids) is byte-identical
// to the scalar kernels at every level.
int RunSimdRenderSection() {
  constexpr int kReps = 3;
  SimdLevel detected = DetectedSimdLevel();
  std::printf(
      "Render by SIMD dispatch level (detected: %s, 480x270; warm-run median "
      "of %d)\n",
      SimdLevelName(detected), kReps);
  sim::Camera camera = MakeCamera(480, 270);

  driver::TextTable table;
  table.SetHeader({"Level", "Render", "Speedup", "Output"});
  double baseline_seconds = 0.0;
  sim::Framebuffer baseline(0, 0);
  for (SimdLevel level : AvailableSimdLevels()) {
    video::kernels::SetSimdLevelForTest(level);
    sim::Framebuffer fb = sim::RenderScene(SharedTile(), camera, 0, 99);
    std::vector<double> reps;
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch watch;
      fb = sim::RenderScene(SharedTile(), camera, 0, 99);
      reps.push_back(watch.ElapsedSeconds());
      benchmark::DoNotOptimize(fb.color.data.data());
    }
    std::sort(reps.begin(), reps.end());
    double seconds = reps[reps.size() / 2];

    std::string output = "baseline";
    if (level == SimdLevel::kScalar) {
      baseline_seconds = seconds;
      baseline = std::move(fb);
    } else {
      bool identical = fb.color.data == baseline.color.data &&
                       fb.depth == baseline.depth && fb.ids == baseline.ids;
      output = identical ? "identical" : "DIVERGED";
    }
    table.AddRow({SimdLevelName(level), driver::FormatSeconds(seconds),
                  driver::FormatRatio(seconds > 0 ? baseline_seconds / seconds
                                                  : 0.0),
                  output});
  }
  video::kernels::SetSimdLevelForTest(RequestedSimdLevel());
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace visualroad

int main(int argc, char** argv) {
  if (int rc = visualroad::RunSimdRenderSection(); rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
