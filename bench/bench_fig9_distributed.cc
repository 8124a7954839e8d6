// Figure 9's setting: query batches across worker processes (paper: EC2
// p3.2xlarge nodes; near-linear speedup).
//
// Runs a query batch through the dist/ subsystem: a Coordinator spawns N
// worker processes over Unix-socket RPC, partitions the batch by data
// locality, and merges results. Two measurements are reported at 1, 2 and
// 4 workers:
//   - "wall" — wall-clock of the N-worker batch on this host, bounded by
//     its cores;
//   - "worker busy" — the sum of worker-measured execution seconds, the CPU
//     work the fleet did.
// No speedup is claimed: the paper's curve is for tile generation, which
// the workers do not run yet. Every run is checked byte-identical against a
// single-process execution of the same batch.
//
// Flags:
//   --faults [NAME]  run an extra section under the named fault profile
//                    (default "cluster"): worker crashes mid-batch must be
//                    re-dispatched and the merged results must still match
//                    the single-process run byte for byte.
//
// Results are printed and written as JSON to bench/BENCH_distributed.json
// (override with VR_DISTRIBUTED_OUT).

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "dist/coordinator.h"
#include "driver/dataset_io.h"
#include "queries/semantic_cache.h"
#include "storage/sharded_store.h"
#include "storage/vss.h"
#include "video/container/vrmp.h"

namespace visualroad::bench {
namespace {

/// Muxed bytes of every produced output, for byte-identity comparison.
std::vector<std::vector<uint8_t>> OutputBytes(
    const std::vector<systems::QueryOutput>& outputs) {
  std::vector<std::vector<uint8_t>> bytes;
  bytes.reserve(outputs.size());
  for (const systems::QueryOutput& output : outputs) {
    video::container::Container container;
    container.video = output.video;
    bytes.push_back(video::container::Mux(container));
  }
  return bytes;
}

struct RealPoint {
  int workers = 0;
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;
  bool byte_identical = true;
};

struct FaultPoint {
  std::string profile;
  int workers = 0;
  bool completed = false;
  bool byte_identical = false;
  int64_t workers_lost = 0;
  int64_t chunks_redispatched = 0;
  int64_t rpc_retries = 0;
};

/// Fleet-setup time: workers regenerating the dataset vs attaching to the
/// coordinator's staged store.
struct SetupPoint {
  int workers = 0;
  double stage_seconds = 0.0;       // One-time dataset save + VSS ingest.
  double regenerate_seconds = 0.0;  // Start() with per-worker regeneration.
  double staged_seconds = 0.0;      // Start() attaching to the shared store.
  double reduction_factor = 0.0;    // regenerate / staged.
  bool staged_byte_identical = true;
};

/// Warm-start: a cold fleet vs one pre-seeded from the local semantic cache.
struct WarmPoint {
  int workers = 0;
  double cold_seconds = 0.0;
  double preseeded_seconds = 0.0;
  int64_t entries_shipped = 0;
  int64_t bytes_shipped = 0;
  bool byte_identical = true;
};

int Run(const char* fault_profile) {
  PrintBanner("Figure 9 - Distributed execution by worker count",
              "Real coordinator/worker execution over local-socket RPC.");

  // One batch, shared by every worker count so the curves are comparable.
  sim::CityConfig config;
  config.scale_factor = EnvInt("VR_FIG9_L", 2);
  config.width = kBaseWidth;
  config.height = kBaseHeight;
  config.duration_seconds = QuickMode() ? 0.5 : 1.0;
  config.fps = kBaseFps;
  config.seed = 900;

  auto dataset = MakeBenchDataset(config.scale_factor, config.width,
                                  config.height, config.duration_seconds,
                                  config.seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return 1;
  }

  const int kInstances = EnvInt("VR_FIG9_INSTANCES", QuickMode() ? 6 : 10);
  Pcg32 rng(0xF19, 9);
  std::vector<queries::QueryInstance> batch;
  for (int i = 0; i < kInstances; ++i) {
    // Mostly Q1 selects with some Q2(c) detection instances, so both the
    // pixel path and the semantic path cross the wire.
    queries::QueryId id =
        (i % 3 == 2) ? queries::QueryId::kQ2c : queries::QueryId::kQ1;
    auto instance = queries::SampleQueryInstance(id, *dataset, rng, {});
    if (!instance.ok()) {
      std::fprintf(stderr, "sample: %s\n",
                   instance.status().ToString().c_str());
      return 1;
    }
    batch.push_back(std::move(instance).value());
  }

  // Single-process reference: the same engine run directly. Every
  // distributed point is compared against these bytes.
  auto engine = systems::MakePipelineEngine(BenchEngineOptions());
  std::vector<systems::QueryOutput> direct;
  for (const queries::QueryInstance& instance : batch) {
    auto output = engine->Execute(instance, *dataset,
                                  systems::OutputMode::kWrite, "");
    if (!output.ok()) {
      std::fprintf(stderr, "direct: %s\n", output.status().ToString().c_str());
      return 1;
    }
    direct.push_back(std::move(output).value());
  }
  std::vector<std::vector<uint8_t>> direct_bytes = OutputBytes(direct);

  auto base_options = [&](int workers) {
    dist::CoordinatorOptions options;
    options.workers = workers;
    options.setup.config = config;
    options.setup.codec.qp = 26;  // MakeBenchDataset's generator settings.
    options.setup.codec.gop_length = 15;
    options.setup.engine = "PipelineEngine";
    options.setup.engine_options = BenchEngineOptions();
    options.dataset = &dataset.value();
    return options;
  };

  // --- Wall and worker busy time by worker count ---
  std::vector<RealPoint> real_points;
  for (int workers : {1, 2, 4}) {
    dist::Coordinator coordinator(base_options(workers));
    if (Status status = coordinator.Start(); !status.ok()) {
      std::fprintf(stderr, "start(%d): %s\n", workers,
                   status.ToString().c_str());
      return 1;
    }
    dist::DistBatchStats stats;
    Stopwatch stopwatch;
    auto outcomes = coordinator.ExecuteBatch(
        batch, systems::OutputMode::kWrite, "", &stats);
    double wall = stopwatch.ElapsedSeconds();
    if (!outcomes.ok()) {
      std::fprintf(stderr, "batch(%d): %s\n", workers,
                   outcomes.status().ToString().c_str());
      return 1;
    }
    RealPoint point;
    point.workers = workers;
    point.wall_seconds = wall;
    point.busy_seconds = stats.worker_busy_seconds;
    for (size_t i = 0; i < outcomes->size(); ++i) {
      const dist::DistInstanceOutcome& outcome = (*outcomes)[i];
      if (outcome.state != dist::DistInstanceOutcome::kSucceeded) {
        std::fprintf(stderr, "instance %zu failed: %s\n", i,
                     outcome.error.c_str());
        return 1;
      }
      video::container::Container container;
      container.video = outcome.output.video;
      if (video::container::Mux(container) != direct_bytes[i]) {
        point.byte_identical = false;
      }
    }
    real_points.push_back(point);
    coordinator.Shutdown();
  }

  const RunContext context = CurrentRunContext();
  driver::TextTable table;
  table.SetHeader({"Workers", "Wall (this host)", "Worker busy",
                   "Byte-identical"});
  for (const RealPoint& point : real_points) {
    table.AddRow({std::to_string(point.workers),
                  driver::FormatSeconds(point.wall_seconds),
                  driver::FormatSeconds(point.busy_seconds),
                  point.byte_identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Worker busy sums the workers' measured execution seconds; "
              "wall-clock is bounded\nby this host's %d cores.\n\n",
              context.num_cpus);

  // --- Fleet setup: staged store vs per-worker regeneration ---
  SetupPoint setup_point;
  setup_point.workers = 2;
  {
    // Regenerated baseline: every worker re-renders the dataset in Setup.
    {
      dist::Coordinator coordinator(base_options(setup_point.workers));
      Stopwatch stopwatch;
      if (Status status = coordinator.Start(); !status.ok()) {
        std::fprintf(stderr, "setup baseline: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      setup_point.regenerate_seconds = stopwatch.ElapsedSeconds();
      coordinator.Shutdown();
    }

    // Staged: save the dataset into a sharded store once, then spawn a
    // fleet that attaches to it read-only instead of regenerating.
    storage::StoreOptions store_options;
    store_options.root = (std::filesystem::temp_directory_path() /
                          ("vr-bench-dist-stage-" + std::to_string(::getpid())))
                             .string();
    std::filesystem::remove_all(store_options.root);
    auto store = storage::ShardedStore::Open(store_options);
    if (!store.ok()) {
      std::fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
      return 1;
    }
    {
      Stopwatch stopwatch;
      if (Status status = driver::SaveDatasetSharded(*dataset, *store);
          !status.ok()) {
        std::fprintf(stderr, "stage: %s\n", status.ToString().c_str());
        return 1;
      }
      storage::VssOptions vss_options;
      vss_options.store = &*store;
      auto vss = storage::VideoStorageService::Open(vss_options);
      if (!vss.ok() || !driver::IngestDatasetVss(*dataset, **vss).ok()) {
        std::fprintf(stderr, "vss ingest failed\n");
        return 1;
      }
      setup_point.stage_seconds = stopwatch.ElapsedSeconds();
    }
    {
      dist::CoordinatorOptions options = base_options(setup_point.workers);
      options.setup.store_root = store_options.root;
      options.store = &*store;
      dist::Coordinator coordinator(options);
      Stopwatch stopwatch;
      if (Status status = coordinator.Start(); !status.ok()) {
        std::fprintf(stderr, "staged start: %s\n", status.ToString().c_str());
        return 1;
      }
      setup_point.staged_seconds = stopwatch.ElapsedSeconds();
      // Staged inputs must keep results byte-identical.
      auto outcomes = coordinator.ExecuteBatch(
          batch, systems::OutputMode::kWrite, "", nullptr);
      if (!outcomes.ok()) {
        std::fprintf(stderr, "staged batch: %s\n",
                     outcomes.status().ToString().c_str());
        return 1;
      }
      for (size_t i = 0; i < outcomes->size(); ++i) {
        const dist::DistInstanceOutcome& outcome = (*outcomes)[i];
        video::container::Container container;
        if (outcome.state == dist::DistInstanceOutcome::kSucceeded) {
          container.video = outcome.output.video;
        }
        if (outcome.state != dist::DistInstanceOutcome::kSucceeded ||
            video::container::Mux(container) != direct_bytes[i]) {
          setup_point.staged_byte_identical = false;
        }
      }
      coordinator.Shutdown();
    }
    std::filesystem::remove_all(store_options.root);
    setup_point.reduction_factor =
        setup_point.staged_seconds > 0
            ? setup_point.regenerate_seconds / setup_point.staged_seconds
            : 0.0;
    std::printf("Fleet setup (%d workers): regenerate %s, staged %s "
                "(%.2fx reduction; one-time staging %s); staged results %s.\n\n",
                setup_point.workers,
                driver::FormatSeconds(setup_point.regenerate_seconds).c_str(),
                driver::FormatSeconds(setup_point.staged_seconds).c_str(),
                setup_point.reduction_factor,
                driver::FormatSeconds(setup_point.stage_seconds).c_str(),
                setup_point.staged_byte_identical ? "byte-identical"
                                                  : "DIVERGED");
  }

  // --- Warm start: cold fleet vs semantic-cache pre-seeding ---
  WarmPoint warm_point;
  warm_point.workers = 2;
  {
    // Materialize the batch's detection results locally, cache attached.
    queries::SemanticCache cache;
    systems::EngineOptions cached_options = BenchEngineOptions();
    cached_options.semantic_cache = &cache;
    auto cached_engine = systems::MakePipelineEngine(cached_options);
    for (const queries::QueryInstance& instance : batch) {
      if (instance.id != queries::QueryId::kQ2c) continue;
      auto output = cached_engine->Execute(instance, *dataset,
                                           systems::OutputMode::kWrite, "");
      if (!output.ok()) {
        std::fprintf(stderr, "warm populate: %s\n",
                     output.status().ToString().c_str());
        return 1;
      }
    }

    auto timed_batch = [&](queries::SemanticCache* seed, double* seconds,
                           dist::DistBatchStats* stats) -> bool {
      dist::CoordinatorOptions options = base_options(warm_point.workers);
      options.semantic_cache = seed;
      dist::Coordinator coordinator(options);
      if (Status status = coordinator.Start(); !status.ok()) {
        std::fprintf(stderr, "warm start: %s\n", status.ToString().c_str());
        return false;
      }
      Stopwatch stopwatch;
      auto outcomes = coordinator.ExecuteBatch(
          batch, systems::OutputMode::kWrite, "", stats);
      *seconds = stopwatch.ElapsedSeconds();
      if (!outcomes.ok()) {
        std::fprintf(stderr, "warm batch: %s\n",
                     outcomes.status().ToString().c_str());
        return false;
      }
      for (size_t i = 0; i < outcomes->size(); ++i) {
        const dist::DistInstanceOutcome& outcome = (*outcomes)[i];
        video::container::Container container;
        if (outcome.state == dist::DistInstanceOutcome::kSucceeded) {
          container.video = outcome.output.video;
        }
        if (outcome.state != dist::DistInstanceOutcome::kSucceeded ||
            video::container::Mux(container) != direct_bytes[i]) {
          warm_point.byte_identical = false;
        }
      }
      coordinator.Shutdown();
      return true;
    };

    dist::DistBatchStats cold_stats, warm_stats;
    if (!timed_batch(nullptr, &warm_point.cold_seconds, &cold_stats) ||
        !timed_batch(&cache, &warm_point.preseeded_seconds, &warm_stats)) {
      return 1;
    }
    warm_point.entries_shipped = warm_stats.cache_entries_shipped;
    warm_point.bytes_shipped = warm_stats.cache_bytes_shipped;
    std::printf("Warm start (%d workers): cold %s, pre-seeded %s "
                "(%lld entries / %lld bytes shipped); results %s.\n\n",
                warm_point.workers,
                driver::FormatSeconds(warm_point.cold_seconds).c_str(),
                driver::FormatSeconds(warm_point.preseeded_seconds).c_str(),
                static_cast<long long>(warm_point.entries_shipped),
                static_cast<long long>(warm_point.bytes_shipped),
                warm_point.byte_identical ? "byte-identical" : "DIVERGED");
  }

  // --- Fault section (--faults) ---
  FaultPoint faulted;
  bool ran_faults = fault_profile != nullptr;
  if (ran_faults) {
    auto profile = fault::ProfileByName(fault_profile);
    if (!profile.ok()) {
      std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
      return 1;
    }
    fault::FaultInjector injector(*profile, 0xF19);
    dist::CoordinatorOptions options = base_options(3);
    options.faults = &injector;
    options.chunk_size = 1;  // Per-instance chunks: more crash opportunities.
    dist::Coordinator coordinator(options);
    if (Status status = coordinator.Start(); !status.ok()) {
      std::fprintf(stderr, "faulted start: %s\n", status.ToString().c_str());
      return 1;
    }
    dist::DistBatchStats stats;
    auto outcomes = coordinator.ExecuteBatch(
        batch, systems::OutputMode::kWrite, "", &stats);
    faulted.profile = fault_profile;
    faulted.workers = 3;
    faulted.workers_lost = stats.workers_lost;
    faulted.chunks_redispatched = stats.chunks_redispatched;
    faulted.rpc_retries = stats.rpc_retries;
    if (outcomes.ok()) {
      faulted.completed = true;
      faulted.byte_identical = true;
      for (size_t i = 0; i < outcomes->size(); ++i) {
        const dist::DistInstanceOutcome& outcome = (*outcomes)[i];
        video::container::Container container;
        if (outcome.state == dist::DistInstanceOutcome::kSucceeded) {
          container.video = outcome.output.video;
        }
        if (outcome.state != dist::DistInstanceOutcome::kSucceeded ||
            video::container::Mux(container) != direct_bytes[i]) {
          faulted.byte_identical = false;
        }
      }
    }
    std::printf("Faulted run (profile '%s', 3 workers): %s; lost %lld "
                "worker(s), re-dispatched %lld chunk(s), %lld rpc retries; "
                "results %s.\n\n",
                faulted.profile.c_str(),
                faulted.completed ? "completed" : "FAILED",
                static_cast<long long>(faulted.workers_lost),
                static_cast<long long>(faulted.chunks_redispatched),
                static_cast<long long>(faulted.rpc_retries),
                faulted.byte_identical ? "byte-identical" : "DIVERGED");
  }

  // --- JSON ---
  const char* env_out = std::getenv("VR_DISTRIBUTED_OUT");
  std::string out_path = env_out != nullptr && env_out[0] != '\0'
                             ? env_out
                             : "bench/BENCH_distributed.json";
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"context\": {\n"
      << "    \"host_name\": \"" << context.host_name << "\",\n"
      << "    \"num_cpus\": " << context.num_cpus << ",\n"
      << "    \"build_type\": \"" << context.build_type << "\",\n"
      << "    \"commit\": \"" << context.commit << "\"\n"
      << "  },\n"
      << "  \"instances\": " << batch.size() << ",\n  \"real\": [\n";
  for (size_t i = 0; i < real_points.size(); ++i) {
    const RealPoint& p = real_points[i];
    out << "    {\n"
        << "      \"workers\": " << p.workers << ",\n"
        << "      \"wall_seconds\": " << p.wall_seconds << ",\n"
        << "      \"worker_busy_seconds\": " << p.busy_seconds << ",\n"
        << "      \"byte_identical\": "
        << (p.byte_identical ? "true" : "false") << "\n    }"
        << (i + 1 < real_points.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"setup\": {\n"
      << "    \"workers\": " << setup_point.workers << ",\n"
      << "    \"stage_seconds\": " << setup_point.stage_seconds << ",\n"
      << "    \"regenerate_seconds\": " << setup_point.regenerate_seconds
      << ",\n"
      << "    \"staged_seconds\": " << setup_point.staged_seconds << ",\n"
      << "    \"reduction_factor\": " << setup_point.reduction_factor << ",\n"
      << "    \"byte_identical\": "
      << (setup_point.staged_byte_identical ? "true" : "false") << "\n  },\n"
      << "  \"warm_start\": {\n"
      << "    \"workers\": " << warm_point.workers << ",\n"
      << "    \"cold_seconds\": " << warm_point.cold_seconds << ",\n"
      << "    \"preseeded_seconds\": " << warm_point.preseeded_seconds << ",\n"
      << "    \"entries_shipped\": " << warm_point.entries_shipped << ",\n"
      << "    \"bytes_shipped\": " << warm_point.bytes_shipped << ",\n"
      << "    \"byte_identical\": "
      << (warm_point.byte_identical ? "true" : "false") << "\n  }";
  if (ran_faults) {
    out << ",\n  \"faulted\": {\n"
        << "    \"profile\": \"" << faulted.profile << "\",\n"
        << "    \"workers\": " << faulted.workers << ",\n"
        << "    \"completed\": " << (faulted.completed ? "true" : "false")
        << ",\n"
        << "    \"byte_identical\": "
        << (faulted.byte_identical ? "true" : "false") << ",\n"
        << "    \"workers_lost\": " << faulted.workers_lost << ",\n"
        << "    \"chunks_redispatched\": " << faulted.chunks_redispatched
        << ",\n"
        << "    \"rpc_retries\": " << faulted.rpc_retries << "\n  }";
  }
  out << "\n}\n";
  std::printf("Wrote %s\n", out_path.c_str());

  bool ok = true;
  for (const RealPoint& point : real_points) ok = ok && point.byte_identical;
  ok = ok && setup_point.staged_byte_identical && warm_point.byte_identical;
  if (ran_faults) ok = ok && faulted.completed && faulted.byte_identical;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace visualroad::bench

int main(int argc, char** argv) {
  const char* fault_profile = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0) {
      fault_profile =
          (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : "cluster";
    } else {
      std::fprintf(stderr,
                   "usage: bench_fig9_distributed [--faults [PROFILE]]\n");
      return 2;
    }
  }
  return visualroad::bench::Run(fault_profile);
}
