#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "common/metrics.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "driver/conformance.h"
#include "driver/dataset_io.h"
#include "driver/datasets.h"
#include "driver/validation.h"
#include "driver/vcd.h"
#include "server/server.h"
#include "server/traffic.h"
#include "storage/sharded_store.h"
#include "storage/vss.h"
#include "video/codec/gop_cache.h"
#include "video/metrics.h"

namespace vrbench {

namespace vr = visualroad;
namespace fs = std::filesystem;
using vr::Status;
using vr::StatusOr;
using vr::queries::QueryId;

namespace {

// ---------------------------------------------------------------------------
// Workload constants. Each is fixed for the benchmark: changing one changes
// what every recorded number means, so it is a benchmark change, never a
// tuning knob of a run.

/// Dataset geometry: scale factor L, camera resolution, seconds of video.
struct Geometry {
  int scale = 1;
  int width = 0;
  int height = 0;
  double duration = 0.0;
};

constexpr double kFps = 15.0;
/// Dataset codec (the repository benches' generator settings).
constexpr int kDatasetQp = 26;
constexpr int kDatasetGop = 15;

constexpr Geometry kSuiteGeometry{1, 160, 90, 0.4};
constexpr Geometry kServeGeometry{1, 240, 136, 1.34};
constexpr Geometry kDistGeometry{1, 160, 90, 1.0};
constexpr Geometry kWarmGeometry{1, 160, 90, 1.0};
constexpr Geometry kTinyGeometry{1, 64, 36, 0.4};

/// Thread pins; busy threads never exceed the reference host's 4 cores.
/// Offline engines run single-threaded: per-frame hand-offs to pool threads
/// made wall time swing with the shared host's scheduling far more than the
/// work did, while a single-threaded engine's wall time tracks its CPU time.
/// The serving engine encodes its multi-GOP outputs on 2 codec-pool threads,
/// so the pool path is measured (2 server threads x at most 2 GOPs stays
/// within 4 busy threads).
constexpr int kGeneratorThreads = 2;
constexpr int kEngineThreads = 1;
constexpr int kCodecThreads = 1;
constexpr int kServerThreads = 2;
constexpr int kServeCodecThreads = 2;
constexpr int kWorkers = 2;
constexpr int kWorkerEngineThreads = 1;
constexpr int kDistValidateThreads = 2;

/// The simulated city and the query instances (the VCD's sampler stream) are
/// fixed; the run's seed shuffles which camera stream sits at each traffic
/// position, so every seed runs the same queries with the same parameters
/// over different cameras. Varying the city instead moves per-seed work by
/// up to 2x (scene density changes decode and box rendering) and, on sparse
/// cities, puts Q2(c)'s statistical semantic check below its 0.8 pass floor
/// (city seed 1: 12 of 21 detections pass); varying the sampled parameters
/// moves it by more (a Q1 crop ranges from one pixel to the whole frame).
constexpr uint64_t kCitySeed = 2;
constexpr uint64_t kSamplerSeed = 0x5EED;

/// Setups per run; setup_s is their median. The cheap setups repeat more.
constexpr int kCheapSetups = 5;  // suite_cold, dist_fanout: under 2 s each.
constexpr int kSetups = 3;       // repeat_warm, serve_open: 4-8 s each.

/// suite_cold: decoded-GOP budget as a share of the dataset's decoded size.
constexpr double kSuiteGopBudgetShare = 0.5;
/// suite_cold: the batch engine's materialisation budget as a share of the
/// dataset's decoded size. A batch whose materialised tables outgrow it takes
/// Section 6.2's spill path (every later stage is written to disk and read
/// back); at a quarter, one of the batch engine's batches spills per pass.
/// The hard ceiling is far above any sampled instance, so nothing fails.
constexpr double kSuiteMaterializeShare = 0.25;
constexpr int64_t kSuiteMemoryFail = int64_t{1} << 30;
/// repeat_warm: materialisation budget and ceiling (see RunRepeatWarm).
constexpr int64_t kWarmMemoryBudget = int64_t{1} << 50;

/// serve_open: offered load, fixed once. A saturating replay on the
/// reference host served about 88 batches/s (2 threads); 20/s offered is 23%
/// of it. Nearer half, queueing amplified the shared host's CPU steal into
/// latency swings: at 36%, a run with 7% steal took 2.5x the wall_s of a
/// quiet one while its CPU time rose 14%.
constexpr int kServeTenants = 4;
constexpr double kServeRatePerTenant = 5.0;  // Batches per second.
constexpr uint64_t kServeScheduleSeed = 0x0A11;
constexpr int kServeTenantQueue = 64;
/// Latency charged to a shed or failed batch: it misses every limit (finite
/// so the result stays valid JSON).
constexpr double kShedLatencySeconds = 1e6;

/// Instances per batch. suite_cold runs one instance of every (engine,
/// query) pair: the paper's 4L would let the batch engine's Q8 alone fill
/// the time budget, and shorter passes give the medians more passes.
constexpr int kSuiteBatchSize = 1;
constexpr int kDistBatchSize = 8;

const std::vector<QueryId>& ServeMix() {
  static const std::vector<QueryId> mix = {QueryId::kQ1, QueryId::kQ2a,
                                           QueryId::kQ2c, QueryId::kQ6b};
  return mix;
}
/// repeat_warm runs the batch and pipeline engines. The cascade engine's
/// approximate Q2(c) falls below the 0.8 semantic pass floor on some camera
/// arrangements at 4 instances (seed 4: 6 of 8 checks), which would fail the
/// run on those seeds; its Q1 and Q2(c) are measured in suite_cold.
const std::vector<std::string>& WarmEngines() {
  static const std::vector<std::string> engines = {"batch", "pipeline"};
  return engines;
}
const std::vector<QueryId>& WarmMix() {
  static const std::vector<QueryId> mix = {QueryId::kQ1, QueryId::kQ2a,
                                           QueryId::kQ2c, QueryId::kQ7};
  return mix;
}
const std::vector<QueryId>& DistMix() {
  static const std::vector<QueryId> mix = {QueryId::kQ1, QueryId::kQ2a,
                                           QueryId::kQ2b, QueryId::kQ6b};
  return mix;
}

// ---------------------------------------------------------------------------

const char* QueryKey(QueryId id) {
  static const char* kKeys[] = {"q1", "q2a", "q2b", "q2c", "q2d", "q3",  "q4",
                                "q5", "q6a", "q6b", "q7",  "q8",  "q9", "q10"};
  return kKeys[static_cast<int>(id)];
}

const std::vector<const char*>& Kernels() {
  static const std::vector<const char*> kernels = {
      "sad", "fdct", "idct", "quant", "dequant", "rgb2yuv", "yuv2rgb", "mask",
      "accum", "raster_span"};
  return kernels;
}
std::string KernelKey(const char* kernel) {
  return std::string("vr_kernel_calls_total{kernel=\"") + kernel + "\"}";
}

struct EngineEntry {
  const char* key;
  std::unique_ptr<vr::systems::Vdbms> (*make)(const vr::systems::EngineOptions&);
};
const std::vector<EngineEntry>& Engines() {
  static const std::vector<EngineEntry> engines = {
      {"batch", vr::systems::MakeBatchEngine},
      {"pipeline", vr::systems::MakePipelineEngine},
      {"cascade", vr::systems::MakeCascadeEngine},
  };
  return engines;
}

vr::sim::GeneratorOptions DatasetOptions() {
  vr::sim::GeneratorOptions options;
  options.codec.qp = kDatasetQp;
  options.codec.gop_length = kDatasetGop;
  options.threads = kGeneratorThreads;
  return options;
}

vr::systems::EngineOptions PinnedEngineOptions() {
  vr::systems::EngineOptions options;
  options.threads = kEngineThreads;
  options.codec_threads = kCodecThreads;
  return options;
}

vr::driver::VcdOptions PinnedVcdOptions(const std::string& output_dir) {
  vr::driver::VcdOptions options;
  options.output_mode = vr::systems::OutputMode::kWrite;
  options.validate = true;
  options.output_dir = output_dir;
  options.seed = kSamplerSeed;
  options.parallel_instances = 1;
  // Upsampling exponents capped as in the repository benches.
  options.sampler.max_upsample_exponent = 2;
  options.dataset_codec = DatasetOptions().codec;
  return options;
}

int64_t DecodedBytes(const vr::sim::Dataset& dataset) {
  int64_t total = 0;
  for (const vr::sim::VideoAsset& asset : dataset.assets) {
    const auto& video = asset.container.video;
    total += static_cast<int64_t>(video.FrameCount()) *
             vr::systems::detail::FrameBytes(video.width, video.height);
  }
  return total;
}

/// Indices of the dataset's traffic cameras.
std::vector<size_t> TrafficSlots(const vr::sim::Dataset& dataset) {
  std::vector<size_t> slots;
  for (size_t i = 0; i < dataset.assets.size(); ++i) {
    if (dataset.assets[i].camera.kind == vr::sim::CameraKind::kTraffic) slots.push_back(i);
  }
  return slots;
}

/// Moves every traffic camera stream one traffic position on. Every cache
/// keys streams by content, so only which stream an instance reads changes.
void RotateTrafficStreams(vr::sim::Dataset& dataset) {
  const std::vector<size_t> slots = TrafficSlots(dataset);
  for (size_t i = slots.size(); i > 1; --i) {
    std::swap(dataset.assets[slots[i - 1]], dataset.assets[slots[i - 2]]);
  }
}

/// Generates the city under a benchmark span, then shuffles the traffic
/// camera streams among the traffic positions by `seed`.
StatusOr<vr::sim::Dataset> Generate(const Geometry& geometry, uint64_t seed) {
  vr::trace::Span span("bench:prepare_dataset");
  vr::sim::CityConfig config;
  config.scale_factor = geometry.scale;
  config.width = geometry.width;
  config.height = geometry.height;
  config.duration_seconds = geometry.duration;
  config.fps = kFps;
  config.seed = kCitySeed;
  VR_ASSIGN_OR_RETURN(vr::sim::Dataset dataset,
                      vr::driver::PrepareDataset(config, DatasetOptions()));
  const std::vector<size_t> slots = TrafficSlots(dataset);
  vr::Pcg32 rng = vr::SubStream(seed, "vrbench-streams", 0);
  for (size_t i = slots.size(); i > 1; --i) {
    size_t j = rng.NextBounded(static_cast<uint32_t>(i));
    std::swap(dataset.assets[slots[i - 1]], dataset.assets[slots[j]]);
  }
  return dataset;
}

StatusOr<std::unique_ptr<vr::storage::ShardedStore>> OpenStore(const std::string& root) {
  fs::remove_all(root);
  vr::storage::StoreOptions options;
  options.root = root;
  VR_ASSIGN_OR_RETURN(vr::storage::ShardedStore store,
                      vr::storage::ShardedStore::Open(options));
  return std::make_unique<vr::storage::ShardedStore>(std::move(store));
}

StatusOr<std::unique_ptr<vr::storage::VideoStorageService>> OpenVss(
    vr::storage::ShardedStore* store) {
  vr::storage::VssOptions options;
  options.store = store;
  options.resident_bytes = int64_t{256} << 20;  // Every stream fits.
  return vr::storage::VideoStorageService::Open(options);
}

// ---------------------------------------------------------------------------
// Validation of outputs that do not come back through the driver (served
// batches), by the driver's rules for the serving mix: scene ground truth for
// Q2(c), frame PSNR against the reference for the frame-validated queries.

Status ValidateOutput(const vr::sim::Dataset& dataset,
                      const vr::queries::QueryInstance& instance,
                      const vr::systems::QueryOutput& output,
                      vr::driver::ValidationStats& stats) {
  VR_ASSIGN_OR_RETURN(const vr::sim::VideoAsset* asset,
                      vr::systems::detail::InputAsset(instance, dataset));
  if (instance.id == QueryId::kQ2c) {
    if (output.detections.empty()) return Status::Ok();
    VR_ASSIGN_OR_RETURN(vr::driver::ValidationStats semantic,
                        vr::driver::SemanticValidate(output.detections,
                                                     asset->ground_truth,
                                                     instance.object_class, 0.5));
    stats.Merge(semantic);
    return Status::Ok();
  }
  vr::queries::ReferenceContext context;
  context.dataset = &dataset;
  VR_ASSIGN_OR_RETURN(vr::video::Video input,
                      vr::video::codec::ParallelDecode(asset->container.video));
  VR_ASSIGN_OR_RETURN(vr::queries::ReferenceResult reference,
                      vr::queries::RunReference(context, instance, input));
  if (reference.video.frames.empty() && output.video.FrameCount() == 0) {
    return Status::Ok();
  }
  VR_ASSIGN_OR_RETURN(vr::driver::ValidationStats frames,
                      vr::driver::FrameValidate(output.video, reference.video,
                                                vr::video::kValidationPsnrDb));
  stats.Merge(frames);
  return Status::Ok();
}

/// Whether validation stats of query `id` pass, by the driver's conformance
/// rule (ConformanceReport::Passed over a report holding just them).
bool ValidationPasses(QueryId id, const vr::driver::ValidationStats& stats) {
  vr::driver::ConformanceReport report;
  vr::driver::QueryBatchResult batch;
  batch.id = id;
  batch.instances = 1;
  batch.validation = stats;
  report.results.push_back(std::move(batch));
  return report.Passed();
}

// ---------------------------------------------------------------------------
// Run accounting shared by every workload.

/// One timed pass of an offline workload: each batch's window and the CPU
/// seconds it used, keyed by engine and query ("pipeline.q1").
struct PassFigures {
  std::map<std::string, double> wall;
  std::map<std::string, double> cpu;

  double WallSeconds() const {
    double total = 0.0;
    for (const auto& [key, seconds] : wall) total += seconds;
    return total;
  }
};

/// Every pass's figures regrouped per batch.
void AppendSeries(const std::vector<PassFigures>& passes, BatchSeries& wall,
                  BatchSeries& cpu) {
  for (const PassFigures& pass : passes) {
    for (const auto& [key, seconds] : pass.wall) wall[key].push_back(seconds);
    for (const auto& [key, seconds] : pass.cpu) cpu[key].push_back(seconds);
  }
}

class Recorder {
 public:
  Recorder(const RunOptions& options, RunResult& result)
      : options_(options), result_(result) {}

  /// Accounts one driver batch (any phase): ops, failures, validation.
  void CountBatch(const vr::driver::QueryBatchResult& batch) {
    if (!batch.Supported()) return;
    int executed = batch.instances - batch.unsupported;
    result_.attempted += executed;
    result_.failed += batch.failed;
    if (!ValidationPasses(batch.id, batch.validation)) {
      result_.failed += batch.succeeded;
      result_.validation_failures += batch.succeeded;
      result_.correct = false;
      Note("first_invalid", batch.engine + " " + vr::queries::QueryName(batch.id) + ": " +
                                std::to_string(batch.validation.passed) + " of " +
                                std::to_string(batch.validation.checked) + " checks passed");
    }
    if (batch.failed > 0) {
      Note("first_error", batch.first_error);
    }
  }

  /// Accounts operations validated outside the driver.
  void CountOps(int64_t attempted, int64_t failed, int64_t invalid) {
    result_.attempted += attempted;
    result_.failed += failed + invalid;
    result_.validation_failures += invalid;
    if (invalid > 0) result_.correct = false;
  }

  void Note(const std::string& key, const std::string& value) {
    for (auto& note : result_.notes) {
      if (note.first == key) return;
    }
    result_.notes.emplace_back(key, value);
  }

  /// Whether pass `index` is traced. Traced runs alternate untraced and
  /// traced passes so the same run yields the tracing overhead.
  bool TracedPass(int index) const { return options_.trace && index % 2 == 1; }

  /// Turns tracing on or off for pass `index` and marks where its events
  /// start.
  void BeginPass(int index) {
    vr::trace::SetEnabled(TracedPass(index));
    trace_mark_ = vr::trace::EventCount();
    before_ = TakeSnapshot();
  }

  /// Closes a pass: its figures feed the end-to-end medians (untraced) or
  /// the per-layer ledger (traced). An untraced pass that recorded any trace
  /// event fails the run.
  Status EndPass(int index, const PassFigures& figures) {
    vr::trace::SetEnabled(false);
    Snapshot after = TakeSnapshot();
    if (!TracedPass(index)) {
      VR_RETURN_IF_ERROR(CheckNoEventsSince(trace_mark_));
      untraced_.push_back(figures);
      validate_seconds_ +=
          Delta(before_, after, "vr_driver_validation_seconds_total");
      return Status::Ok();
    }
    traced_.push_back(figures);
    for (const auto& [key, value] : after) {
      registry_delta_[key] += Delta(before_, after, key);
    }
    last_snapshot_ = after;
    std::vector<vr::trace::Event> events = vr::trace::EventsSince(trace_mark_);
    events_.insert(events_.end(), std::make_move_iterator(events.begin()),
                   std::make_move_iterator(events.end()));
    return Status::Ok();
  }

  double TimedSeconds() const {
    double total = 0.0;
    for (const PassFigures& f : untraced_) total += f.WallSeconds();
    for (const PassFigures& f : traced_) total += f.WallSeconds();
    return total;
  }
  int Passes() const { return static_cast<int>(untraced_.size() + traced_.size()); }
  /// Every untraced pass's summed windows, for the run record.
  std::string PassWalls() const {
    std::string text;
    for (const PassFigures& f : untraced_) {
      text += (text.empty() ? "" : " ") + vr::metrics::FormatMetricValue(f.WallSeconds());
    }
    return text;
  }
  /// Each batch's median window over the untraced passes, for the run
  /// record: which batches a change in wall_s came from.
  std::string BatchWalls() const {
    BatchSeries wall, cpu;
    AppendSeries(untraced_, wall, cpu);
    std::string text;
    for (const auto& [key, values] : wall) {
      text += (text.empty() ? "" : " ") + key + "=" +
              vr::metrics::FormatMetricValue(Median(values));
    }
    return text;
  }

  const std::vector<PassFigures>& untraced() const { return untraced_; }
  const std::vector<PassFigures>& traced() const { return traced_; }
  const std::vector<vr::trace::Event>& events() const { return events_; }
  /// Registry movement summed over traced passes.
  double Reg(const std::string& key) const {
    auto it = registry_delta_.find(key);
    return it == registry_delta_.end() ? 0.0 : it->second;
  }
  double RegFamily(const std::string& family) const {
    double total = 0.0;
    for (const auto& [key, value] : registry_delta_) {
      if (key == family || key.rfind(family + "{", 0) == 0) total += value;
    }
    return total;
  }
  double Gauge(const std::string& key) const {
    auto it = last_snapshot_.find(key);
    return it == last_snapshot_.end() ? 0.0 : it->second;
  }
  /// Driver validation seconds per untraced pass (traced passes run a
  /// driver that does not validate, so their counters cover the windows).
  double ValidateSecondsPerPass() const {
    return untraced_.empty() ? 0.0 : validate_seconds_ / static_cast<double>(untraced_.size());
  }

 private:
  const RunOptions& options_;
  RunResult& result_;
  std::vector<PassFigures> untraced_;
  std::vector<PassFigures> traced_;
  size_t trace_mark_ = 0;
  Snapshot before_;
  Snapshot last_snapshot_;
  std::map<std::string, double> registry_delta_;
  std::vector<vr::trace::Event> events_;
  double validate_seconds_ = 0.0;
};

/// Runs `pass(index)` until the timed windows add up to the budget, in whole
/// cycles of `cycle` passes (a traced run's cycle holds an untraced and a
/// traced pass for each, so it ends on a traced pass), and at least two
/// passes.
Status RunPasses(const RunOptions& options, Recorder& recorder, int cycle,
                 const std::function<StatusOr<PassFigures>(int)>& pass) {
  const int cycle_passes = options.trace ? 2 * cycle : cycle;
  for (int index = 0;; ++index) {
    const bool done = index >= 2 && index % cycle_passes == 0 &&
                      recorder.TimedSeconds() >= options.seconds;
    if (done) return Status::Ok();
    recorder.BeginPass(index);
    StatusOr<PassFigures> figures = pass(index);
    vr::trace::SetEnabled(false);
    if (!figures.ok()) return figures.status();
    VR_RETURN_IF_ERROR(recorder.EndPass(index, *figures));
  }
}

/// End-to-end figures of an offline workload over its untraced passes.
/// wall_s and cpu_s are sums over batches of each batch's median across
/// passes; p50_s and p95_s are percentiles over batches of those median
/// windows (the median batch, and the batch 95% of batches finish within).
void AddEndToEnd(const Recorder& recorder, const std::vector<double>& setups,
                 double peak_rss_mb, Ledger& ledger) {
  BatchSeries wall, cpu;
  AppendSeries(recorder.untraced(), wall, cpu);
  const std::vector<double> windows = BatchMedians(wall);
  ledger.Set("setup_s", Median(setups), "s", Kind::kTime);
  ledger.Set("wall_s", SumOfBatchMedians(wall), "s", Kind::kTime);
  ledger.Set("cpu_s", SumOfBatchMedians(cpu), "s", Kind::kTime);
  ledger.Set("peak_rss_mb", peak_rss_mb, "MB", Kind::kTime);
  ledger.Set("p50_s", Median(windows), "s", Kind::kTime);
  ledger.Set("p95_s", NearestRank(windows, 0.95), "s", Kind::kTime);
}

/// The timed windows: spans named `window_prefix` (the driver's measured
/// window "vcd:<query>", or the replayer's "bench:replay").
std::vector<Interval> WindowsOf(const std::vector<vr::trace::Event>& events,
                                const std::string& window_prefix) {
  std::vector<Interval> windows;
  for (const vr::trace::Event& e : events) {
    if (e.name.rfind(window_prefix, 0) == 0) {
      windows.push_back(Interval{e.start_us, e.start_us + e.dur_us});
    }
  }
  return windows;
}

/// The per-layer ledger common to every workload: registry movement and
/// span self time over the traced passes, per pass.
void AddLayerLedger(const Recorder& recorder, const std::vector<Interval>& windows,
                    const std::string& request_prefix, Ledger& ledger) {
  const double passes = std::max<size_t>(1, recorder.traced().size());
  auto per_pass = [&](double value) { return value / passes; };
  auto exact = [&](const std::string& name, double total) {
    ledger.Set(name, per_pass(total), "count", Kind::kExact);
  };
  auto timing = [&](const std::string& name, double total) {
    ledger.Set(name, per_pass(total), "count", Kind::kTiming);
  };
  auto seconds = [&](const std::string& name, double total) {
    ledger.Set(name, per_pass(total), "s", Kind::kTime);
  };

  exact("codec.frames_decoded", recorder.Reg("vr_codec_frames_decoded_total"));
  exact("codec.warmup_frames", recorder.Reg("vr_codec_warmup_frames_total"));
  exact("codec.frames_encoded", recorder.Reg("vr_codec_frames_encoded_total"));
  for (const char* kernel : Kernels()) {
    exact(std::string("kernels.") + kernel + "_calls", recorder.Reg(KernelKey(kernel)));
  }
  ledger.Set("kernels.simd_level", recorder.Gauge("vr_simd_level"), "level", Kind::kExact);

  double gop_hits = recorder.Reg("vr_gop_cache_hits_total");
  double gop_misses = recorder.Reg("vr_gop_cache_misses_total");
  timing("gop_cache.hits", gop_hits);
  timing("gop_cache.misses", gop_misses);
  timing("gop_cache.coalesced", recorder.Reg("vr_gop_cache_coalesced_total"));
  timing("gop_cache.evictions", recorder.Reg("vr_gop_cache_evictions_total"));
  ledger.Set("gop_cache.hit_ratio",
             gop_hits + gop_misses > 0 ? gop_hits / (gop_hits + gop_misses) : 0.0,
             "ratio", Kind::kTiming);
  seconds("gop_cache.decode_s", recorder.Reg("vr_gop_decode_seconds_sum"));

  exact("vision.cnn_frames_full", recorder.RegFamily("vr_engine_cnn_frames_full_total"));
  exact("vision.cnn_frames_cheap", recorder.RegFamily("vr_engine_cnn_frames_cheap_total"));
  exact("vision.cnn_frames_skipped",
        recorder.RegFamily("vr_engine_cnn_frames_skipped_total"));

  double sem_hits = recorder.Reg("vr_semcache_hits_total");
  double sem_misses = recorder.Reg("vr_semcache_misses_total");
  exact("semcache.hits", sem_hits);
  exact("semcache.misses", sem_misses);
  timing("semcache.coalesced", recorder.Reg("vr_semcache_coalesced_total"));
  ledger.Set("semcache.hit_ratio",
             sem_hits + sem_misses > 0 ? sem_hits / (sem_hits + sem_misses) : 0.0,
             "ratio", Kind::kExact);
  ledger.Set("semcache.bytes", recorder.Gauge("vr_semcache_bytes_in_use"), "bytes",
             Kind::kExact);

  exact("store.bytes_read", recorder.RegFamily("vr_store_bytes_read_total"));
  exact("store.partial_reads", recorder.RegFamily("vr_store_partial_reads_total"));
  exact("vss.range_reads", recorder.Reg("vr_vss_range_reads_total"));
  exact("vss.resident_hits", recorder.Reg("vr_vss_resident_hits_total"));
  exact("vss.bytes_fetched", recorder.Reg("vr_vss_bytes_fetched_total"));
  exact("systems.chunked_redecodes",
        recorder.RegFamily("vr_engine_chunked_redecodes_total"));

  for (const char* pool : {"codec", "engine_stage", "driver", "server"}) {
    seconds(std::string("pool.") + pool + ".busy_s",
            recorder.Reg(std::string("vr_pool_busy_seconds_total{pool=\"") + pool + "\"}"));
  }
  ledger.Set("driver.validate_s", recorder.ValidateSecondsPerPass(), "s", Kind::kTime);
  exact("rpc.calls", recorder.RegFamily("vr_rpc_calls_total"));
  // Which worker steals which chunk varies with timing, and so do a few
  // bytes of the frames that carry it.
  timing("rpc.bytes_sent", recorder.RegFamily("vr_rpc_bytes_sent_total"));
  timing("rpc.bytes_received", recorder.RegFamily("vr_rpc_bytes_received_total"));
  exact("dist.chunks_dispatched", recorder.Reg("vr_dist_chunks_dispatched_total"));
  timing("dist.redispatches", recorder.Reg("vr_dist_chunks_redispatched_total"));

  // Span self time inside the windows, charged per layer.
  const std::vector<vr::trace::Event>& events = recorder.events();
  std::vector<double> self = SelfTimesUs(events, windows);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < events.size(); ++i) {
    std::string layer = LayerOfSpan(events[i].name);
    if (!layer.empty()) by_layer[layer] += self[i];
  }
  for (const char* layer :
       {"codec.decode_s", "codec.encode_s", "vision.detect_s", "semcache.probe_s",
        "vss.read_s", "systems.materialize_s", "systems.spill_s",
        "systems.fused_pipeline_s", "systems.persist_s", "systems.query_self_s",
        "server.self_s", "dist.rpc_s"}) {
    seconds(layer, by_layer[layer] * 1e-6);
  }

  ledger.Set("unattributed_frac",
             UnattributedFraction(
                 events,
                 [&](const std::string& name) {
                   return name.rfind(request_prefix, 0) == 0;
                 },
                 [](const std::string& name) {
                   return name.rfind("vcd:", 0) != 0 && name.rfind("bench:", 0) != 0;
                 }),
             "ratio", Kind::kTime);
  BatchSeries untraced_wall, traced_wall, cpu;
  AppendSeries(recorder.untraced(), untraced_wall, cpu);
  AppendSeries(recorder.traced(), traced_wall, cpu);
  ledger.Set("trace.overhead_frac",
             TraceOverheadFraction(SumOfBatchMedians(traced_wall),
                                   SumOfBatchMedians(untraced_wall)),
             "ratio", Kind::kTime);
  ledger.Set("trace.dropped_events", static_cast<double>(vr::trace::DroppedEvents()),
             "count", Kind::kExact);
}

/// Setup metrics of the last setup (the one the timed passes use).
struct SetupFigures {
  double generate_s = 0.0;
  double frames_rendered = 0.0;
  double stage_s = 0.0;
  double fleet_s = 0.0;
  /// Store writes and semantic-cache population happen in setup (staging,
  /// the warm-up), never in a timed window.
  double bytes_written = 0.0;
  double populate_s = 0.0;
  /// Registry movement over the whole setup: dataset encode and the pixel
  /// kernels that run only there (rasterisation, colour conversion).
  double frames_encoded = 0.0;
  std::map<std::string, double> kernel_calls;
};

/// Brackets one setup: its wall time, and the registry movement and (in a
/// traced run, where setup is traced too) the spans it caused.
class SetupTimer {
 public:
  explicit SetupTimer(bool trace)
      : before_(TakeSnapshot()), mark_(vr::trace::EventCount()) {
    vr::trace::SetEnabled(trace);
    watch_.Reset();
  }
  double Finish(SetupFigures& setup) {
    const double seconds = watch_.ElapsedSeconds();
    vr::trace::SetEnabled(false);
    const Snapshot after = TakeSnapshot();
    setup.bytes_written = FamilyDelta(before_, after, "vr_store_bytes_written_total");
    setup.frames_encoded = Delta(before_, after, "vr_codec_frames_encoded_total");
    for (const char* kernel : Kernels()) {
      setup.kernel_calls[kernel] = Delta(before_, after, KernelKey(kernel));
    }
    setup.populate_s = 0.0;
    for (const vr::trace::Event& e : vr::trace::EventsSince(mark_)) {
      if (e.name == "semcache:populate") setup.populate_s += e.dur_us * 1e-6;
    }
    return seconds;
  }

 private:
  Snapshot before_;
  size_t mark_ = 0;
  vr::Stopwatch watch_;
};

void AddSetupLedger(const SetupFigures& setup, Ledger& ledger) {
  ledger.Set("sim.generate_s", setup.generate_s, "s", Kind::kTime);
  ledger.Set("sim.frames_rendered", setup.frames_rendered, "count", Kind::kExact);
  ledger.Set("storage.stage_s", setup.stage_s, "s", Kind::kTime);
  ledger.Set("dist.fleet_setup_s", setup.fleet_s, "s", Kind::kTime);
  ledger.Set("store.bytes_written", setup.bytes_written, "count", Kind::kExact);
  ledger.Set("semcache.populate_s", setup.populate_s, "s", Kind::kTime);
  ledger.Set("setup.codec.frames_encoded", setup.frames_encoded, "count", Kind::kExact);
  for (const auto& [kernel, calls] : setup.kernel_calls) {
    ledger.Set("setup.kernels." + kernel + "_calls", calls, "count", Kind::kExact);
  }
}

/// Generates the dataset, timing it and counting rendered frames.
StatusOr<vr::sim::Dataset> TimedGenerate(const Geometry& geometry, uint64_t seed,
                                         SetupFigures& setup) {
  Snapshot before = TakeSnapshot();
  vr::Stopwatch watch;
  StatusOr<vr::sim::Dataset> dataset = Generate(geometry, seed);
  setup.generate_s = watch.ElapsedSeconds();
  setup.frames_rendered =
      Delta(before, TakeSnapshot(), "vr_generator_frames_rendered_total");
  return dataset;
}

Geometry Pick(const RunOptions& options, const Geometry& geometry) {
  return options.tiny ? kTinyGeometry : geometry;
}
int Setups(const RunOptions& options, int count) { return options.tiny ? 1 : count; }

/// A run's two drivers over one dataset and configuration. Setup and untraced
/// passes use the validating one; traced passes use one with validation off,
/// so registry movement over a traced pass is the timed windows' work alone
/// (the untraced passes of the same run validate every output).
struct Drivers {
  std::unique_ptr<vr::driver::VisualCityDriver> validating;
  std::unique_ptr<vr::driver::VisualCityDriver> traced;

  Drivers(const vr::sim::Dataset& dataset, vr::driver::VcdOptions vcd, bool trace) {
    validating = std::make_unique<vr::driver::VisualCityDriver>(dataset, vcd);
    if (trace) {
      vcd.validate = false;
      traced = std::make_unique<vr::driver::VisualCityDriver>(dataset, vcd);
    }
  }
  vr::driver::VisualCityDriver& For(bool traced_pass) {
    return traced_pass ? *traced : *validating;
  }
};

// ---------------------------------------------------------------------------
// suite_cold: the Fig. 5 suite, every query on every engine that supports
// it, serial driver, write mode, engines quiesced between batches.

struct SuiteEnv {
  vr::sim::Dataset dataset;
  std::unique_ptr<vr::video::codec::GopCache> gops;
  std::vector<std::unique_ptr<vr::systems::Vdbms>> engines;
  std::vector<std::unique_ptr<ForwardingEngine>> forwarding;
  std::unique_ptr<Drivers> drivers;
};

StatusOr<RunResult> RunSuiteCold(const RunOptions& options) {
  RunResult result;
  Recorder recorder(options, result);
  const Geometry geometry = Pick(options, kSuiteGeometry);
  std::vector<double> setups;
  SetupFigures setup;
  std::unique_ptr<SuiteEnv> env;
  for (int s = 0; s < Setups(options, kCheapSetups); ++s) {
    env.reset();
    SetupTimer timer(options.trace);
    auto fresh = std::make_unique<SuiteEnv>();
    VR_ASSIGN_OR_RETURN(fresh->dataset, TimedGenerate(geometry, options.seed, setup));
    vr::video::codec::GopCacheOptions gop_options;
    gop_options.capacity_bytes = static_cast<int64_t>(
        kSuiteGopBudgetShare * static_cast<double>(DecodedBytes(fresh->dataset)));
    fresh->gops = std::make_unique<vr::video::codec::GopCache>(gop_options);
    vr::systems::EngineOptions engine_options = PinnedEngineOptions();
    engine_options.gop_cache = fresh->gops.get();
    engine_options.memory_budget_bytes = static_cast<int64_t>(
        kSuiteMaterializeShare * static_cast<double>(DecodedBytes(fresh->dataset)));
    engine_options.memory_fail_bytes = kSuiteMemoryFail;
    for (const EngineEntry& entry : Engines()) {
      fresh->engines.push_back(entry.make(engine_options));
      fresh->forwarding.push_back(
          std::make_unique<ForwardingEngine>(*fresh->engines.back(), options.output_hook));
    }
    vr::driver::VcdOptions vcd = PinnedVcdOptions(options.run_dir + "/out");
    vcd.batch_size_override = kSuiteBatchSize;
    fresh->drivers = std::make_unique<Drivers>(fresh->dataset, vcd, options.trace);
    setups.push_back(timer.Finish(setup));
    env = std::move(fresh);
  }
  recorder.Note("dataset_decoded_bytes", std::to_string(DecodedBytes(env->dataset)));
  recorder.Note("gop_cache_budget_bytes", std::to_string(env->gops->capacity_bytes()));
  recorder.Note("materialize_budget_bytes",
                std::to_string(static_cast<int64_t>(
                    kSuiteMaterializeShare * static_cast<double>(DecodedBytes(env->dataset)))));

  // Each pass runs the suite over the next rotation of the traffic streams,
  // in whole cycles of one pass per stream, so every single-instance batch's
  // median spans every stream and the seed's arrangement barely moves the
  // figures. (One arrangement for the whole run made a batch's window follow
  // the one stream it read: the cascade engine's Q2(c) took 7 ms on one
  // stream and 26 ms on another, and p50_s spread by 0.4 across seeds.) A
  // traced run gives each rotation an untraced and a traced pass, so its
  // per-pass counts average over every rotation once.
  const int streams = static_cast<int>(TrafficSlots(env->dataset).size());
  VR_RETURN_IF_ERROR(RunPasses(options, recorder, streams,
                               [&](int index) -> StatusOr<PassFigures> {
    const bool first_of_rotation = !options.trace || index % 2 == 0;
    if (index > 0 && first_of_rotation) RotateTrafficStreams(env->dataset);
    PassFigures figures;
    for (size_t e = 0; e < env->forwarding.size(); ++e) {
      ForwardingEngine& engine = *env->forwarding[e];
      engine.TakeCalls();
      std::vector<vr::driver::QueryBatchResult> batches;
      {
        vr::trace::Span span("bench:run_benchmark");
        VR_ASSIGN_OR_RETURN(
            batches, env->drivers->For(recorder.TracedPass(index)).RunBenchmark(engine));
      }
      // The driver is serial, so Execute calls never overlap and each
      // call's process CPU is its own.
      std::map<QueryId, double> cpu;
      for (const ForwardingEngine::Call& call : engine.TakeCalls()) {
        cpu[call.id] += call.cpu_seconds;
      }
      for (const vr::driver::QueryBatchResult& batch : batches) {
        recorder.CountBatch(batch);
        if (!batch.Supported()) continue;
        const std::string key = std::string(Engines()[e].key) + "." + QueryKey(batch.id);
        figures.wall[key] = batch.total_seconds;
        figures.cpu[key] = cpu[batch.id];
      }
    }
    return figures;
  }));
  if (options.trace) {
    AddLayerLedger(recorder, WindowsOf(recorder.events(), "vcd:"), "vcd:",
                   result.ledger);
    BatchSeries wall, cpu;
    AppendSeries(recorder.traced(), wall, cpu);
    for (const auto& [key, values] : wall) {
      result.ledger.Set("systems." + key + ".batch_s", Median(values), "s", Kind::kTime);
    }
    AddSetupLedger(setup, result.ledger);
  } else {
    AddEndToEnd(recorder, setups, PeakRssMb(), result.ledger);
  }
  recorder.Note("passes", std::to_string(recorder.Passes()));
  recorder.Note("pass_wall_s", recorder.PassWalls());
  recorder.Note("batch_wall_s", recorder.BatchWalls());
  return result;
}

// ---------------------------------------------------------------------------
// serve_open: paced open-loop multi-tenant serving over the pipeline engine.

struct ServeEnv {
  vr::sim::Dataset dataset;
  std::unique_ptr<vr::storage::ShardedStore> store;
  std::unique_ptr<vr::storage::VideoStorageService> vss;
  std::unique_ptr<vr::queries::SemanticCache> semcache;
  std::unique_ptr<vr::video::codec::GopCache> gops;
  std::unique_ptr<vr::systems::Vdbms> engine;
  std::unique_ptr<ForwardingEngine> forwarding;
  std::vector<vr::server::Arrival> schedule;
  /// One single-instance batch per arrival, sampled before any timing.
  std::vector<vr::queries::QueryInstance> instances;
};

vr::server::ServerOptions PinnedServerOptions(const std::string& output_dir) {
  vr::server::ServerOptions options;
  options.worker_threads = kServerThreads;
  options.max_concurrent_queries = kServerThreads;
  options.output_mode = vr::systems::OutputMode::kWrite;
  options.output_dir = output_dir;
  return options;
}

/// What one paced replay measured.
struct Replay {
  PassFigures figures;
  std::vector<double> latencies;  // Scheduled arrival to completion.
  std::vector<double> lags;       // Submit time minus due time.
  std::vector<double> queue;      // ServedBatch::queue_seconds.
  std::vector<double> service;    // Engine Execute seconds.
  int64_t shed = 0;
  int queue_depth_peak = 0;
  double validate_s = 0.0;
};

/// The paced replayer. Submits every arrival through QueryServer::Submit at
/// its scheduled time (sleeping until due) and stamps how late it ran, so a
/// stall is charged to every request it delays; latency runs from the due
/// time to completion. Validation of every served output follows the drain,
/// outside the window.
StatusOr<Replay> PacedReplay(ServeEnv& env, const RunOptions& options,
                             Recorder& recorder) {
  using Clock = std::chrono::steady_clock;
  Replay replay;
  vr::server::QueryServer server(env.dataset, *env.forwarding,
                                 PinnedServerOptions(options.run_dir + "/out"));
  std::vector<vr::server::QueryServer::Session*> sessions;
  for (int t = 0; t < kServeTenants; ++t) {
    vr::server::TenantOptions tenant;
    tenant.name = "tenant-" + std::to_string(t);
    tenant.max_queued_batches = kServeTenantQueue;
    sessions.push_back(&server.OpenSession(tenant));
  }
  struct Pending {
    size_t index = 0;
    double lag = 0.0;
    std::future<vr::server::ServedBatch> future;
  };
  std::vector<Pending> pending;
  pending.reserve(env.schedule.size());
  env.forwarding->TakeCalls();
  const double cpu_before = ProcessCpuSeconds();
  {
    vr::trace::Span window("bench:replay");
    const Clock::time_point start = Clock::now();
    for (size_t k = 0; k < env.schedule.size(); ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(env.schedule[k].time_seconds));
      std::this_thread::sleep_until(due);
      const double lag = std::chrono::duration<double>(Clock::now() - due).count();
      replay.lags.push_back(lag);
      StatusOr<std::future<vr::server::ServedBatch>> submitted =
          Status::Internal("not submitted");
      {
        vr::trace::Span span("bench:submit");
        submitted = server.Submit(*sessions[static_cast<size_t>(env.schedule[k].tenant)],
                                  {env.instances[k]});
      }
      if (!submitted.ok()) {
        if (submitted.status().code() != vr::StatusCode::kResourceExhausted) {
          return submitted.status();
        }
        ++replay.shed;
        replay.latencies.push_back(kShedLatencySeconds);
        continue;
      }
      pending.push_back(Pending{k, lag, std::move(submitted).value()});
    }
    server.Drain();
  }
  // wall_s of a replay is the engine time its batches took (each Execute,
  // persist included), the serving counterpart of the offline batch windows;
  // cpu_s is the process CPU from the first due time to the drain.
  replay.figures.cpu["serve"] = ProcessCpuSeconds() - cpu_before;
  replay.queue_depth_peak = server.stats().queue_depth_peak;
  for (const ForwardingEngine::Call& call : env.forwarding->TakeCalls()) {
    replay.service.push_back(call.seconds);
    replay.figures.wall["serve"] += call.seconds;
  }

  vr::Stopwatch validate;
  vr::driver::ValidationStats semantic;
  int64_t semantic_ops = 0, failed = 0, invalid = 0;
  for (Pending& entry : pending) {
    vr::server::ServedBatch batch = entry.future.get();
    // A failed batch misses every limit, like a shed one.
    const double latency =
        batch.failed > 0 ? kShedLatencySeconds : entry.lag + batch.total_seconds;
    replay.latencies.push_back(latency);
    replay.queue.push_back(batch.queue_seconds);
    const vr::queries::QueryInstance& instance = env.instances[entry.index];
    for (const vr::server::ServedQuery& query : batch.queries) {
      if (!query.status.ok()) {
        ++failed;
        recorder.Note("first_error", query.status.ToString());
        continue;
      }
      vr::driver::ValidationStats stats;
      VR_RETURN_IF_ERROR(ValidateOutput(env.dataset, instance, query.output, stats));
      if (instance.id == QueryId::kQ2c) {
        semantic.Merge(stats);
        ++semantic_ops;
      } else if (!ValidationPasses(instance.id, stats)) {
        ++invalid;
      }
    }
  }
  if (!ValidationPasses(QueryId::kQ2c, semantic)) invalid += semantic_ops;
  replay.validate_s = validate.ElapsedSeconds();
  recorder.CountOps(static_cast<int64_t>(env.schedule.size()), failed + replay.shed,
                    invalid);
  return replay;
}

StatusOr<RunResult> RunServeOpen(const RunOptions& options) {
  RunResult result;
  Recorder recorder(options, result);
  const Geometry geometry = Pick(options, kServeGeometry);
  std::vector<double> setups;
  SetupFigures setup;
  std::unique_ptr<ServeEnv> env;
  for (int s = 0; s < Setups(options, kSetups); ++s) {
    env.reset();
    SetupTimer timer(options.trace);
    auto fresh = std::make_unique<ServeEnv>();
    VR_ASSIGN_OR_RETURN(fresh->dataset, TimedGenerate(geometry, options.seed, setup));
    // Tiered storage and one semantic cache shared by every tenant, each
    // sized so the whole corpus fits.
    VR_ASSIGN_OR_RETURN(fresh->store,
                        OpenStore(options.run_dir + "/store-" + std::to_string(s)));
    VR_ASSIGN_OR_RETURN(fresh->vss, OpenVss(fresh->store.get()));
    {
      vr::trace::Span span("bench:stage_storage");
      vr::Stopwatch stage;
      VR_RETURN_IF_ERROR(vr::driver::IngestDatasetVss(fresh->dataset, *fresh->vss));
      setup.stage_s = stage.ElapsedSeconds();
    }
    vr::queries::SemanticCacheOptions sem_options;
    sem_options.capacity_bytes = int64_t{256} << 20;
    fresh->semcache = std::make_unique<vr::queries::SemanticCache>(sem_options);
    fresh->gops = std::make_unique<vr::video::codec::GopCache>();
    vr::systems::EngineOptions engine_options = PinnedEngineOptions();
    engine_options.codec_threads = kServeCodecThreads;
    engine_options.gop_cache = fresh->gops.get();
    engine_options.vss = fresh->vss.get();
    engine_options.semantic_cache = fresh->semcache.get();
    fresh->engine = vr::systems::MakePipelineEngine(engine_options);
    fresh->forwarding =
        std::make_unique<ForwardingEngine>(*fresh->engine, options.output_hook);
    vr::server::TrafficOptions traffic;
    traffic.tenants = kServeTenants;
    traffic.duration_seconds = options.seconds;
    traffic.arrivals_per_second = kServeRatePerTenant;
    traffic.seed = kServeScheduleSeed;
    fresh->schedule = vr::server::GenerateOpenLoopSchedule(traffic);
    vr::queries::SamplerOptions sampler = PinnedVcdOptions("").sampler;
    for (size_t k = 0; k < fresh->schedule.size(); ++k) {
      vr::Pcg32 rng = vr::SubStream(kSamplerSeed, "serve-batch", k);
      QueryId id = ServeMix()[rng.NextBounded(static_cast<uint32_t>(ServeMix().size()))];
      VR_ASSIGN_OR_RETURN(vr::queries::QueryInstance instance,
                          vr::queries::SampleQueryInstance(id, fresh->dataset, rng,
                                                           sampler));
      fresh->instances.push_back(std::move(instance));
    }
    // Warm-up: Q2(c) on every traffic stream populates the semantic cache and
    // warms the decoded-GOP and VSS resident caches, so the replay measures
    // serving from warm tiers, not first touches.
    const int streams = static_cast<int>(fresh->dataset.TrafficAssets().size());
    for (int v = 0; v < streams; ++v) {
      vr::queries::QueryInstance instance;
      instance.id = QueryId::kQ2c;
      instance.video_index = v;
      VR_RETURN_IF_ERROR(fresh->engine
                             ->Execute(instance, fresh->dataset,
                                       vr::systems::OutputMode::kWrite,
                                       options.run_dir + "/out")
                             .status());
    }
    setups.push_back(timer.Finish(setup));
    env = std::move(fresh);
  }
  recorder.Note("batches", std::to_string(env->schedule.size()));
  recorder.Note("offered_per_second",
                vr::metrics::FormatMetricValue(kServeTenants * kServeRatePerTenant));

  std::vector<Replay> replays;
  for (int index = 0; index < (options.trace ? 2 : 1); ++index) {
    recorder.BeginPass(index);
    StatusOr<Replay> replay = PacedReplay(*env, options, recorder);
    vr::trace::SetEnabled(false);
    if (!replay.ok()) return replay.status();
    VR_RETURN_IF_ERROR(recorder.EndPass(index, replay->figures));
    replays.push_back(std::move(replay).value());
  }
  if (options.trace) {
    const Replay& traced = replays.back();
    AddLayerLedger(recorder, WindowsOf(recorder.events(), "bench:replay"),
                   "bench:execute", result.ledger);
    AddSetupLedger(setup, result.ledger);
    Ledger& ledger = result.ledger;
    ledger.Set("server.service_p50_s", NearestRank(traced.service, 0.50), "s", Kind::kTime);
    ledger.Set("server.service_p95_s", NearestRank(traced.service, 0.95), "s", Kind::kTime);
    ledger.Set("server.queue_p50_s", NearestRank(traced.queue, 0.50), "s", Kind::kTime);
    ledger.Set("server.queue_p95_s", NearestRank(traced.queue, 0.95), "s", Kind::kTime);
    ledger.Set("server.shed", static_cast<double>(traced.shed), "count", Kind::kTiming);
    ledger.Set("server.queue_depth_peak", traced.queue_depth_peak, "count",
               Kind::kTiming);
    ledger.Set("gen.lag_p95_s", NearestRank(traced.lags, 0.95), "s", Kind::kTime);
    ledger.Set("driver.validate_s", traced.validate_s, "s", Kind::kTime);
  } else {
    const Replay& replay = replays.front();
    AddEndToEnd(recorder, setups, PeakRssMb(), result.ledger);
    result.ledger.Set("p50_s", NearestRank(replay.latencies, 0.50), "s", Kind::kTime);
    result.ledger.Set("p95_s", NearestRank(replay.latencies, 0.95), "s", Kind::kTime);
  }
  return result;
}

// ---------------------------------------------------------------------------
// repeat_warm: storage-backed offline repeats of the same batches over warm
// caches (VSS over a fresh ShardedStore, one shared semantic cache, one
// decoded-GOP cache, every tier sized to fit the corpus). Runnable, but not in
// BENCHMARK.json: on the shared reference host its short cache-hit passes
// spread too widely across seeds (README.md), and serve_open measures its
// layers.

struct WarmEnv {
  vr::sim::Dataset dataset;
  std::unique_ptr<vr::storage::ShardedStore> store;
  std::unique_ptr<vr::storage::VideoStorageService> vss;
  std::unique_ptr<vr::queries::SemanticCache> semcache;
  std::unique_ptr<vr::video::codec::GopCache> gops;
  std::vector<std::unique_ptr<vr::systems::Vdbms>> engines;
  std::vector<std::unique_ptr<ForwardingEngine>> forwarding;
  std::vector<std::string> keys;  // Engine key of each forwarding engine.
  std::unique_ptr<Drivers> drivers;
};

/// One pass: every supported (engine, query) batch of the warm mix, the
/// paper's 4L instances each, with no quiescing (that would drop the warm
/// tiers). The sampler gives every pass the same instances.
StatusOr<PassFigures> WarmPass(WarmEnv& env, vr::driver::VisualCityDriver& driver,
                               Recorder& recorder) {
  PassFigures figures;
  for (size_t e = 0; e < env.forwarding.size(); ++e) {
    ForwardingEngine& engine = *env.forwarding[e];
    for (QueryId id : WarmMix()) {
      if (!engine.Supports(id)) continue;
      engine.TakeCalls();
      vr::driver::QueryBatchResult batch;
      {
        vr::trace::Span span("bench:run_query_batch");
        VR_ASSIGN_OR_RETURN(batch, driver.RunQueryBatch(engine, id));
      }
      double cpu = 0.0;
      for (const ForwardingEngine::Call& call : engine.TakeCalls()) cpu += call.cpu_seconds;
      recorder.CountBatch(batch);
      const std::string key = env.keys[e] + "." + QueryKey(id);
      figures.wall[key] = batch.total_seconds;
      figures.cpu[key] = cpu;
    }
  }
  return figures;
}

StatusOr<RunResult> RunRepeatWarm(const RunOptions& options) {
  RunResult result;
  Recorder recorder(options, result);
  const Geometry geometry = Pick(options, kWarmGeometry);
  std::vector<double> setups;
  SetupFigures setup;
  std::unique_ptr<WarmEnv> env;
  for (int s = 0; s < Setups(options, kSetups); ++s) {
    env.reset();
    SetupTimer timer(options.trace);
    auto fresh = std::make_unique<WarmEnv>();
    VR_ASSIGN_OR_RETURN(fresh->dataset, TimedGenerate(geometry, options.seed, setup));
    VR_ASSIGN_OR_RETURN(fresh->store,
                        OpenStore(options.run_dir + "/store-" + std::to_string(s)));
    VR_ASSIGN_OR_RETURN(fresh->vss, OpenVss(fresh->store.get()));
    vr::queries::SemanticCacheOptions sem_options;
    sem_options.capacity_bytes = int64_t{256} << 20;
    fresh->semcache = std::make_unique<vr::queries::SemanticCache>(sem_options);
    fresh->gops = std::make_unique<vr::video::codec::GopCache>();
    vr::systems::EngineOptions engine_options = PinnedEngineOptions();
    engine_options.gop_cache = fresh->gops.get();
    engine_options.vss = fresh->vss.get();
    engine_options.semantic_cache = fresh->semcache.get();
    // Quiescing would clear the shared decoded-GOP cache, so the engines are
    // never quiesced here, and the batch engine's materialisation accounting
    // (reset only by Quiesce) grows with every pass. Budgets above any run's
    // total keep it out of the spill and ResourceExhausted regimes, which
    // would otherwise start after a time-dependent number of passes.
    engine_options.memory_budget_bytes = kWarmMemoryBudget;
    engine_options.memory_fail_bytes = kWarmMemoryBudget;
    for (const EngineEntry& entry : Engines()) {
      const auto& warm = WarmEngines();
      if (std::find(warm.begin(), warm.end(), entry.key) == warm.end()) continue;
      fresh->engines.push_back(entry.make(engine_options));
      fresh->forwarding.push_back(
          std::make_unique<ForwardingEngine>(*fresh->engines.back(), options.output_hook));
      fresh->keys.push_back(entry.key);
    }
    vr::driver::VcdOptions vcd = PinnedVcdOptions(options.run_dir + "/out");
    vcd.storage = fresh->vss.get();
    fresh->drivers = std::make_unique<Drivers>(fresh->dataset, vcd, options.trace);
    {
      vr::trace::Span span("bench:stage_storage");
      vr::Stopwatch stage;
      VR_RETURN_IF_ERROR(fresh->drivers->validating->StageStorage());
      setup.stage_s = stage.ElapsedSeconds();
    }
    // The cold pass fills every cache; it is setup, and it validates.
    VR_RETURN_IF_ERROR(WarmPass(*fresh, *fresh->drivers->validating, recorder).status());
    setups.push_back(timer.Finish(setup));
    env = std::move(fresh);
  }

  VR_RETURN_IF_ERROR(RunPasses(options, recorder, 1, [&](int index) {
    return WarmPass(*env, env->drivers->For(recorder.TracedPass(index)), recorder);
  }));
  if (options.trace) {
    AddLayerLedger(recorder, WindowsOf(recorder.events(), "vcd:"), "vcd:",
                   result.ledger);
    AddSetupLedger(setup, result.ledger);
  } else {
    AddEndToEnd(recorder, setups, PeakRssMb(), result.ledger);
  }
  recorder.Note("passes", std::to_string(recorder.Passes()));
  recorder.Note("pass_wall_s", recorder.PassWalls());
  recorder.Note("batch_wall_s", recorder.BatchWalls());
  return result;
}

// ---------------------------------------------------------------------------
// dist_fanout: offline batches across worker processes attached read-only to
// the staged store.

struct DistEnv {
  vr::sim::Dataset dataset;
  std::unique_ptr<vr::storage::ShardedStore> store;
  std::unique_ptr<vr::storage::VideoStorageService> vss;
  std::unique_ptr<vr::systems::Vdbms> engine;
  std::unique_ptr<Drivers> drivers;
};

/// CPU seconds of the coordinator's worker processes (every live thread;
/// a worker's threads live as long as the worker).
double WorkerCpuSeconds(const std::vector<int>& pids) {
  double total = 0.0;
  for (int pid : pids) {
    for (const auto& [tid, seconds] : ThreadCpuSeconds(pid)) total += seconds;
  }
  return total;
}

/// One pass of the dist mix. A batch's CPU is the workers' (they work only
/// inside windows) plus the coordinator's batch dispatch threads: threads
/// that did not exist before the call. The driver's own thread and the
/// persistent pools are excluded because validation runs on them after the
/// window.
StatusOr<PassFigures> DistPass(DistEnv& env, vr::driver::VisualCityDriver& driver,
                               Recorder& recorder, std::vector<double>* worker_busy,
                               double* first_call_overhead) {
  PassFigures figures;
  for (QueryId id : DistMix()) {
    const std::vector<int> workers = ChildPids();
    const std::map<int, double> threads_before = ThreadCpuSeconds(0);
    const double process_before = ProcessCpuSeconds();
    const double workers_before = WorkerCpuSeconds(workers);
    const Snapshot registry_before = TakeSnapshot();
    vr::Stopwatch call;
    vr::driver::QueryBatchResult batch;
    {
      vr::trace::Span span("bench:run_query_batch");
      VR_ASSIGN_OR_RETURN(batch, driver.RunQueryBatch(*env.engine, id));
    }
    const double call_s = call.ElapsedSeconds();
    const double worker_cpu = WorkerCpuSeconds(ChildPids()) - workers_before;
    double persistent = 0.0;
    const std::map<int, double> threads_after = ThreadCpuSeconds(0);
    for (const auto& [tid, seconds] : threads_before) {
      auto it = threads_after.find(tid);
      if (it != threads_after.end()) persistent += it->second - seconds;
    }
    const double dispatch_cpu = ProcessCpuSeconds() - process_before - persistent;
    if (first_call_overhead != nullptr && *first_call_overhead < 0.0) {
      // The fleet is spawned inside the first call, before its window.
      *first_call_overhead =
          call_s - batch.total_seconds -
          Delta(registry_before, TakeSnapshot(), "vr_driver_validation_seconds_total");
    }
    recorder.CountBatch(batch);
    const std::string key = std::string("pipeline.") + QueryKey(id);
    figures.wall[key] = batch.total_seconds;
    figures.cpu[key] = worker_cpu + std::max(0.0, dispatch_cpu);
    if (worker_busy != nullptr) worker_busy->push_back(batch.worker_busy_seconds);
  }
  return figures;
}

StatusOr<RunResult> RunDistFanout(const RunOptions& options) {
  RunResult result;
  Recorder recorder(options, result);
  const Geometry geometry = Pick(options, kDistGeometry);
  std::vector<double> setups;
  SetupFigures setup;
  std::unique_ptr<DistEnv> env;
  for (int s = 0; s < Setups(options, kCheapSetups); ++s) {
    env.reset();
    SetupTimer timer(options.trace);
    auto fresh = std::make_unique<DistEnv>();
    VR_ASSIGN_OR_RETURN(fresh->dataset, TimedGenerate(geometry, options.seed, setup));
    VR_ASSIGN_OR_RETURN(fresh->store,
                        OpenStore(options.run_dir + "/store-" + std::to_string(s)));
    VR_ASSIGN_OR_RETURN(fresh->vss, OpenVss(fresh->store.get()));
    vr::systems::EngineOptions engine_options = PinnedEngineOptions();
    engine_options.vss = fresh->vss.get();
    fresh->engine = vr::systems::MakePipelineEngine(engine_options);
    vr::driver::VcdOptions vcd = PinnedVcdOptions(options.run_dir + "/out");
    vcd.storage = fresh->vss.get();
    vcd.workers = kWorkers;
    vcd.batch_size_override = kDistBatchSize;
    // Batches run on the workers whatever this is; on the coordinator it
    // spreads each batch's validation, after the window, over 2 threads.
    vcd.parallel_instances = kDistValidateThreads;
    vcd.worker_engine_options = PinnedEngineOptions();
    vcd.worker_engine_options.threads = kWorkerEngineThreads;
    vcd.worker_engine_options.codec_threads = kWorkerEngineThreads;
    fresh->drivers = std::make_unique<Drivers>(fresh->dataset, vcd, options.trace);
    {
      vr::trace::Span span("bench:stage_storage");
      vr::Stopwatch stage;
      VR_RETURN_IF_ERROR(fresh->drivers->validating->StageStorage());
      setup.stage_s = stage.ElapsedSeconds();
    }
    // Warm-up pass; its first batch spawns the fleet. A traced run's second
    // driver gets its own fleet here too, before any timed pass.
    setup.fleet_s = -1.0;
    VR_RETURN_IF_ERROR(
        DistPass(*fresh, *fresh->drivers->validating, recorder, nullptr, &setup.fleet_s)
            .status());
    if (options.trace) {
      VR_RETURN_IF_ERROR(
          DistPass(*fresh, *fresh->drivers->traced, recorder, nullptr, nullptr).status());
    }
    setups.push_back(timer.Finish(setup));
    env = std::move(fresh);
  }

  std::vector<double> worker_busy;
  VR_RETURN_IF_ERROR(RunPasses(options, recorder, 1, [&](int index) {
    const bool traced = recorder.TracedPass(index);
    return DistPass(*env, env->drivers->For(traced), recorder,
                    traced ? &worker_busy : nullptr, nullptr);
  }));
  double peak_rss = PeakRssMb();
  for (int pid : ChildPids()) peak_rss = std::max(peak_rss, ProcessPeakRssMb(pid));
  if (options.trace) {
    AddLayerLedger(recorder, WindowsOf(recorder.events(), "vcd:"), "vcd:",
                   result.ledger);
    AddSetupLedger(setup, result.ledger);
    const double passes = std::max<size_t>(1, recorder.traced().size());
    double busy = 0.0;
    for (double b : worker_busy) busy += b;
    result.ledger.Set("dist.worker_busy_s", busy / passes, "s", Kind::kTime);
    const Metric* rpc = result.ledger.Find("dist.rpc_s");
    result.ledger.Set("dist.overhead_s", (rpc != nullptr ? rpc->value : 0.0) - busy / passes,
                      "s", Kind::kTime);
  } else {
    AddEndToEnd(recorder, setups, peak_rss, result.ledger);
  }
  recorder.Note("passes", std::to_string(recorder.Passes()));
  recorder.Note("pass_wall_s", recorder.PassWalls());
  recorder.Note("batch_wall_s", recorder.BatchWalls());
  env.reset();  // Shuts the fleet down and reaps the workers.
  return result;
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"},
      {"peak_rss_mb", "MB"}, {"p50_s", "s"}, {"p95_s", "s"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> list = {
        {"sim.generate_s", "s"}, {"sim.frames_rendered", "count"},
        {"codec.frames_decoded", "count"}, {"codec.warmup_frames", "count"},
        {"codec.decode_s", "s"}, {"codec.frames_encoded", "count"},
        {"codec.encode_s", "s"},
    };
    for (const char* kernel : Kernels()) {
      list.push_back({std::string("kernels.") + kernel + "_calls", "count"});
    }
    list.push_back({"setup.codec.frames_encoded", "count"});
    for (const char* kernel : Kernels()) {
      list.push_back({std::string("setup.kernels.") + kernel + "_calls", "count"});
    }
    std::vector<MetricSpec> rest = {
        {"kernels.simd_level", "level"},
        {"gop_cache.hits", "count"}, {"gop_cache.misses", "count"},
        {"gop_cache.coalesced", "count"}, {"gop_cache.evictions", "count"},
        {"gop_cache.hit_ratio", "ratio"}, {"gop_cache.decode_s", "s"},
        {"vision.cnn_frames_full", "count"}, {"vision.cnn_frames_cheap", "count"},
        {"vision.cnn_frames_skipped", "count"}, {"vision.detect_s", "s"},
        {"semcache.hits", "count"}, {"semcache.misses", "count"},
        {"semcache.coalesced", "count"}, {"semcache.hit_ratio", "ratio"},
        {"semcache.probe_s", "s"}, {"semcache.populate_s", "s"},
        {"semcache.bytes", "bytes"},
        {"storage.stage_s", "s"}, {"store.bytes_written", "count"},
        {"store.bytes_read", "count"}, {"store.partial_reads", "count"},
        {"vss.range_reads", "count"}, {"vss.resident_hits", "count"},
        {"vss.bytes_fetched", "count"}, {"vss.read_s", "s"},
        {"systems.materialize_s", "s"}, {"systems.spill_s", "s"},
        {"systems.fused_pipeline_s", "s"}, {"systems.persist_s", "s"},
        {"systems.query_self_s", "s"}, {"systems.chunked_redecodes", "count"},
        {"server.service_p50_s", "s"}, {"server.service_p95_s", "s"},
        {"server.queue_p50_s", "s"}, {"server.queue_p95_s", "s"},
        {"server.shed", "count"}, {"server.queue_depth_peak", "count"},
        {"server.self_s", "s"}, {"pool.server.busy_s", "s"},
        {"gen.lag_p95_s", "s"},
        {"dist.fleet_setup_s", "s"}, {"rpc.calls", "count"},
        {"rpc.bytes_sent", "count"}, {"rpc.bytes_received", "count"},
        {"dist.worker_busy_s", "s"}, {"dist.rpc_s", "s"}, {"dist.overhead_s", "s"},
        {"dist.chunks_dispatched", "count"}, {"dist.redispatches", "count"},
        {"pool.codec.busy_s", "s"}, {"pool.engine_stage.busy_s", "s"},
        {"pool.driver.busy_s", "s"},
        {"driver.validate_s", "s"}, {"driver.validation_failures", "count"},
        {"unattributed_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
    };
    list.insert(list.end(), rest.begin(), rest.end());
    // Every (engine, query) pair the engine supports.
    for (const EngineEntry& entry : Engines()) {
      std::unique_ptr<vr::systems::Vdbms> engine = entry.make(vr::systems::EngineOptions{});
      for (QueryId id : vr::queries::AllQueries()) {
        if (!engine->Supports(id)) continue;
        list.push_back({std::string("systems.") + entry.key + "." + QueryKey(id) +
                            ".batch_s",
                        "s"});
      }
    }
    return list;
  }();
  return metrics;
}

StatusOr<RunResult> RunWorkload(const RunOptions& options) {
  fs::create_directories(options.run_dir + "/out");
  StatusOr<RunResult> result = Status::InvalidArgument("unknown workload: " +
                                                       options.workload);
  if (options.workload == "suite_cold") result = RunSuiteCold(options);
  if (options.workload == "repeat_warm") result = RunRepeatWarm(options);
  if (options.workload == "serve_open") result = RunServeOpen(options);
  if (options.workload == "dist_fanout") result = RunDistFanout(options);
  vr::trace::SetEnabled(false);
  return result;
}

ForwardingEngine::ForwardingEngine(vr::systems::Vdbms& inner, OutputHook hook)
    : inner_(&inner), hook_(std::move(hook)) {}

StatusOr<vr::systems::QueryOutput> ForwardingEngine::Execute(
    const vr::queries::QueryInstance& instance, const vr::sim::Dataset& dataset,
    vr::systems::OutputMode mode, const std::string& output_dir,
    vr::systems::EngineStats* call_stats) {
  vr::trace::Span span("bench:execute");
  const double cpu_before = ProcessCpuSeconds();
  vr::Stopwatch watch;
  StatusOr<vr::systems::QueryOutput> output =
      inner_->Execute(instance, dataset, mode, output_dir, call_stats);
  Call call{instance.id, watch.ElapsedSeconds(), ProcessCpuSeconds() - cpu_before};
  if (output.ok() && hook_) hook_(instance, *output);
  std::lock_guard<std::mutex> lock(mutex_);
  calls_.push_back(call);
  return output;
}

std::vector<ForwardingEngine::Call> ForwardingEngine::TakeCalls() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(calls_, {});
}

}  // namespace vrbench
