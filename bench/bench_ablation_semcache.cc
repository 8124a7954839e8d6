// Ablation bench: the semantic result store and the measured-selectivity
// planner (DESIGN.md Section 14).
//
// Part 1 runs the same Q2(c) instance three ways on the pipeline engine —
// semantic cache off, cache on but cold, cache on and warm — and records
// latency, decoder work, and whether the three outputs are byte-identical
// (they must be: the warm path renders from the same unfiltered detections
// the cold path materialized). The warm run must report zero frames decoded.
//
// Part 2 runs a cascade Q2(c) batch twice. The first batch runs every stage
// while the selectivity tracker measures each one; the second batch executes
// the measured plan, which drops prefilters whose observed selectivity
// cannot pay for itself (the detector is configured so cheap-model
// confidences are routinely ambiguous, making the cheap stage useless). The
// speedup between the two batches is the win from dropping them.
//
// Results are printed and written as JSON to bench/BENCH_semcache.json
// (override with VR_SEMCACHE_OUT).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "queries/semantic_cache.h"
#include "video/codec/gop_cache.h"

namespace visualroad::bench {
namespace {

bool SameDetections(const std::vector<std::vector<vision::Detection>>& a,
                    const std::vector<std::vector<vision::Detection>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t f = 0; f < a.size(); ++f) {
    if (a[f].size() != b[f].size()) return false;
    for (size_t d = 0; d < a[f].size(); ++d) {
      const vision::Detection& x = a[f][d];
      const vision::Detection& y = b[f][d];
      if (x.object_class != y.object_class || x.score != y.score ||
          x.entity_id != y.entity_id || x.box.x0 != y.box.x0 ||
          x.box.y0 != y.box.y0 || x.box.x1 != y.box.x1 || x.box.y1 != y.box.y1) {
        return false;
      }
    }
  }
  return true;
}

bool SameBitstream(const video::codec::EncodedVideo& a,
                   const video::codec::EncodedVideo& b) {
  if (a.FrameCount() != b.FrameCount() || a.width != b.width ||
      a.height != b.height) {
    return false;
  }
  for (int f = 0; f < a.FrameCount(); ++f) {
    if (a.frames[static_cast<size_t>(f)].data !=
        b.frames[static_cast<size_t>(f)].data) {
      return false;
    }
  }
  return true;
}

struct TimedRun {
  double seconds = 0.0;
  systems::EngineStats stats;
  systems::QueryOutput output;
};

StatusOr<TimedRun> RunOnce(systems::Vdbms& engine, const sim::Dataset& dataset,
                           const queries::QueryInstance& instance) {
  TimedRun run;
  Stopwatch watch;
  VR_ASSIGN_OR_RETURN(run.output,
                      engine.Execute(instance, dataset, systems::OutputMode::kWrite,
                                     /*output_dir=*/"", &run.stats));
  run.seconds = watch.ElapsedSeconds();
  return run;
}

int Run() {
  PrintBanner("Semantic cache + planner ablation",
              "Cold/warm Q2(c) through the semantic result store, and the "
              "win from disabling useless cascade prefilters.");

  double duration = QuickMode() ? 0.5 : 1.0;
  auto dataset = MakeBenchDataset(1, kBaseWidth, kBaseHeight, duration, 2400);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }

  queries::QueryInstance q2c;
  q2c.id = queries::QueryId::kQ2c;
  q2c.video_index = 0;
  q2c.object_class = sim::ObjectClass::kVehicle;

  // --- Part 1: cache off vs cold vs warm on the pipeline engine. Each
  // engine gets a private GOP cache so decode work is attributable, and the
  // cached engine gets a private semantic cache starting empty.
  video::codec::GopCache baseline_gops, cached_gops;
  queries::SemanticCache semcache;

  systems::EngineOptions off_options = BenchEngineOptions();
  off_options.gop_cache = &baseline_gops;
  auto engine_off = systems::MakePipelineEngine(off_options);

  systems::EngineOptions on_options = BenchEngineOptions();
  on_options.gop_cache = &cached_gops;
  on_options.semantic_cache = &semcache;
  auto engine_on = systems::MakePipelineEngine(on_options);

  auto off = RunOnce(*engine_off, *dataset, q2c);
  auto cold = RunOnce(*engine_on, *dataset, q2c);
  cached_gops.Clear();  // The warm run must not lean on decoded GOPs either.
  auto warm = RunOnce(*engine_on, *dataset, q2c);
  if (!off.ok() || !cold.ok() || !warm.ok()) {
    std::fprintf(stderr, "Q2(c) execution failed\n");
    return 1;
  }

  bool identical = SameDetections(off->output.detections, warm->output.detections) &&
                   SameDetections(cold->output.detections, warm->output.detections) &&
                   SameBitstream(off->output.video, warm->output.video) &&
                   SameBitstream(cold->output.video, warm->output.video);
  double warm_speedup = warm->seconds > 0 ? off->seconds / warm->seconds : 0.0;

  std::printf("Q2(c), %d frames (pipeline engine):\n",
              dataset->assets[0].container.video.FrameCount());
  std::printf("  cache off   %8.2f ms  (%lld frames decoded)\n",
              off->seconds * 1e3,
              static_cast<long long>(off->stats.frames_decoded));
  std::printf("  cache cold  %8.2f ms  (%lld frames decoded)\n",
              cold->seconds * 1e3,
              static_cast<long long>(cold->stats.frames_decoded));
  std::printf("  cache warm  %8.2f ms  (%lld frames decoded)  %.1fx\n",
              warm->seconds * 1e3,
              static_cast<long long>(warm->stats.frames_decoded), warm_speedup);
  std::printf("  outputs byte-identical: %s\n", identical ? "yes" : "NO");
  if (warm->stats.frames_decoded != 0) {
    std::printf("  WARNING: warm run decoded frames; the cache is not "
                "short-circuiting decode\n");
  }

  // --- Part 2: measured-selectivity planning on the cascade engine. The
  // detector is configured with a heavy false-positive load whose scores
  // fall in the cascade's ambiguous band, so the cheap model resolves almost
  // nothing and nearly every frame escalates. Batch 1 measures that; batch 2
  // executes the resulting plan (useless prefilters dropped). No semantic
  // cache here: the second batch must re-run inference to show the win.
  video::codec::GopCache cascade_gops;
  systems::EngineOptions cascade_options = BenchEngineOptions();
  cascade_options.gop_cache = &cascade_gops;
  cascade_options.detector.false_positives_per_frame = 8.0;
  auto cascade = systems::MakeCascadeEngine(cascade_options);

  driver::VcdOptions vcd_options = BenchVcdOptions();
  vcd_options.validate = false;
  vcd_options.output_mode = systems::OutputMode::kStreaming;
  vcd_options.explain = true;
  driver::VisualCityDriver vcd(*dataset, vcd_options);

  auto static_batch = vcd.RunQueryBatch(*cascade, queries::QueryId::kQ2c);
  if (!static_batch.ok()) {
    std::fprintf(stderr, "cascade batch failed: %s\n",
                 static_batch.status().ToString().c_str());
    return 1;
  }
  cascade_gops.Clear();
  auto planned_batch = vcd.RunQueryBatch(*cascade, queries::QueryId::kQ2c);
  if (!planned_batch.ok()) {
    std::fprintf(stderr, "cascade batch failed: %s\n",
                 planned_batch.status().ToString().c_str());
    return 1;
  }
  double planned_speedup = planned_batch->total_seconds > 0
                               ? static_batch->total_seconds /
                                     planned_batch->total_seconds
                               : 0.0;

  std::printf("\nCascade Q2(c) batch of %d (measured-selectivity planning):\n",
              static_batch->instances);
  std::printf("  static order  %8.2f ms  (cheap=%lld full=%lld skipped=%lld)\n",
              static_batch->total_seconds * 1e3,
              static_cast<long long>(static_batch->engine_stats.cnn_frames_cheap),
              static_cast<long long>(static_batch->engine_stats.cnn_frames_full),
              static_cast<long long>(static_batch->engine_stats.cnn_frames_skipped));
  std::printf("  measured plan %8.2f ms  (cheap=%lld full=%lld skipped=%lld)  %.2fx\n",
              planned_batch->total_seconds * 1e3,
              static_cast<long long>(planned_batch->engine_stats.cnn_frames_cheap),
              static_cast<long long>(planned_batch->engine_stats.cnn_frames_full),
              static_cast<long long>(planned_batch->engine_stats.cnn_frames_skipped),
              planned_speedup);
  std::printf("  plan: %s\n", planned_batch->plan_explain.c_str());

  const char* env_out = std::getenv("VR_SEMCACHE_OUT");
  std::string out_path = env_out != nullptr && env_out[0] != '\0'
                             ? env_out
                             : "bench/BENCH_semcache.json";
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  queries::SemanticCacheStats cache_stats = semcache.stats();
  const RunContext context = CurrentRunContext();
  out << "{\n"
      << "  \"context\": {\n"
      << "    \"host_name\": \"" << context.host_name << "\",\n"
      << "    \"num_cpus\": " << context.num_cpus << ",\n"
      << "    \"build_type\": \"" << context.build_type << "\",\n"
      << "    \"commit\": \"" << context.commit << "\"\n"
      << "  },\n"
      << "  \"q2c\": {\n"
      << "    \"frames\": " << dataset->assets[0].container.video.FrameCount()
      << ",\n"
      << "    \"off_seconds\": " << off->seconds << ",\n"
      << "    \"cold_seconds\": " << cold->seconds << ",\n"
      << "    \"warm_seconds\": " << warm->seconds << ",\n"
      << "    \"warm_speedup\": " << warm_speedup << ",\n"
      << "    \"off_frames_decoded\": " << off->stats.frames_decoded << ",\n"
      << "    \"cold_frames_decoded\": " << cold->stats.frames_decoded << ",\n"
      << "    \"warm_frames_decoded\": " << warm->stats.frames_decoded << ",\n"
      << "    \"cache_hits\": " << cache_stats.hits << ",\n"
      << "    \"cache_misses\": " << cache_stats.misses << ",\n"
      << "    \"byte_identical\": " << (identical ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"selectivity_reorder\": {\n"
      << "    \"instances\": " << static_batch->instances << ",\n"
      << "    \"static_seconds\": " << static_batch->total_seconds << ",\n"
      << "    \"planned_seconds\": " << planned_batch->total_seconds << ",\n"
      << "    \"speedup\": " << planned_speedup << ",\n"
      << "    \"static_cnn_frames_cheap\": "
      << static_batch->engine_stats.cnn_frames_cheap << ",\n"
      << "    \"planned_cnn_frames_cheap\": "
      << planned_batch->engine_stats.cnn_frames_cheap << ",\n"
      << "    \"static_cnn_frames_full\": "
      << static_batch->engine_stats.cnn_frames_full << ",\n"
      << "    \"planned_cnn_frames_full\": "
      << planned_batch->engine_stats.cnn_frames_full << ",\n"
      << "    \"planned_explain\": \"" << planned_batch->plan_explain << "\"\n"
      << "  }\n}\n";
  std::printf("Wrote %s\n", out_path.c_str());
  return identical && warm->stats.frames_decoded == 0 ? 0 : 1;
}

}  // namespace
}  // namespace visualroad::bench

int main() { return visualroad::bench::Run(); }
