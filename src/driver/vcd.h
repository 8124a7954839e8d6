#ifndef VISUALROAD_DRIVER_VCD_H_
#define VISUALROAD_DRIVER_VCD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "driver/validation.h"
#include "server/server.h"
#include "server/traffic.h"
#include "systems/vdbms.h"

namespace visualroad::storage {
class VideoStorageService;
}  // namespace visualroad::storage

namespace visualroad::dist {
class Coordinator;
}  // namespace visualroad::dist

namespace visualroad::driver {

/// VCD configuration.
struct VcdOptions {
  systems::OutputMode output_mode = systems::OutputMode::kWrite;
  systems::ExecutionMode execution_mode = systems::ExecutionMode::kOffline;
  /// Online mode: the VCD exposes each input through a forward-only source
  /// throttled to the camera's capture rate x this multiplier (1.0 = strict
  /// real time; larger accelerates simulated time for tests/benches). The
  /// ingest time is part of the measured batch runtime, as with a named
  /// pipe.
  double online_rate_multiplier = 1.0;
  /// Validate results against the reference implementation (write mode
  /// only; validation time is excluded from the measured batch runtime).
  bool validate = true;
  /// Directory for write-mode result containers; empty keeps results in
  /// memory only.
  std::string output_dir;
  /// Seed for parameter sampling. The sampler stream depends only on this
  /// seed and the query id, never on the engine, so every engine receives
  /// the identical batch.
  uint64_t seed = 0x5EED;
  /// Override for the per-query batch size; 0 uses the benchmark's 4L rule.
  int batch_size_override = 0;
  /// Opt-in instance-level parallelism. When > 1, offline batch instances
  /// are submitted to the engine concurrently from this many driver threads
  /// — but only if the engine reports ConcurrentSafe(); otherwise execution
  /// stays serial. Online mode always stays serial: the throttled
  /// forward-only feed is part of the measured semantics. The
  /// post-measurement validation loop (pure reference computation) is
  /// parallelised whenever this is > 1, independent of the engine.
  int parallel_instances = 1;
  queries::SamplerOptions sampler;
  /// Reference detector configuration used when computing reference results.
  vision::DetectorOptions detector;
  /// Enables trace-span recording for this driver's runs (see
  /// docs/OBSERVABILITY.md). Setting `trace_path` implies `trace`.
  bool trace = false;
  /// When non-empty, RunBenchmark writes every span recorded during the run
  /// as Chrome trace JSON (chrome://tracing / Perfetto) to this path.
  std::string trace_path;
  /// Storage-backed offline mode: when set, RunBenchmark stages the
  /// dataset's camera streams into this service before the first measured
  /// batch (idempotent), and engines pointed at the same service via
  /// EngineOptions::vss read GOP-aligned ranges from it instead of the
  /// in-memory containers. Borrowed; must outlive the driver.
  storage::VideoStorageService* storage = nullptr;
  /// Deterministic fault injection for the run (borrowed; null = no
  /// faults). Online sources consume channel loss/jitter from it; storage
  /// faults flow through the store configured with the same injector. The
  /// per-batch retry and degraded-frame accounting in QueryBatchResult is
  /// populated whenever this is set.
  fault::FaultInjector* faults = nullptr;
  /// Capture each batch's execution plan (`vcd --explain`): before the
  /// measured window, the engine explains the batch's first instance and
  /// the string lands in QueryBatchResult::plan_explain. Planning is
  /// side-effect free (the cache probe is a Peek), so explain never
  /// changes what the measured window does.
  bool explain = false;
  /// Semantic result store handed to engines via
  /// EngineOptions::semantic_cache (borrowed; null = semantic caching
  /// off). The driver itself only persists/loads it around runs; the
  /// engines decide per query what to materialize.
  queries::SemanticCache* semantic_cache = nullptr;
  /// Distributed scale-out (DESIGN.md Section 15): when > 0, measured
  /// batches fan out across this many worker processes over local-socket
  /// RPC instead of running in-process. With `storage` also set the driver
  /// stages the dataset into the shared store and workers attach to it
  /// read-only (storage staging) instead of regenerating; either way the
  /// worker inputs are byte-identical to the coordinator's, so results are
  /// byte-identical to workers == 0. With `semantic_cache` also set, its
  /// ready entries pre-seed every worker before each batch. Offline only
  /// (online ingest pacing is inherently single-feed); combining with
  /// online mode is an error.
  int workers = 0;
  /// Codec configuration the dataset was generated with. Distributed
  /// workers rebuild their corpus from (dataset().config, this), so it must
  /// match the GeneratorOptions used locally; the default mirrors
  /// PrepareDataset's default.
  video::codec::EncoderConfig dataset_codec;
  /// Engine configuration shipped to distributed workers; should mirror
  /// what the local engine was constructed with. Pointer members (vss,
  /// caches) stay process-local: each worker hosts its own GOP and semantic
  /// caches, which are byte-identical by the caches' contracts.
  systems::EngineOptions worker_engine_options;
};

/// Measured outcome of one query batch on one engine.
struct QueryBatchResult {
  queries::QueryId id = queries::QueryId::kQ1;
  std::string engine;
  int instances = 0;
  int succeeded = 0;
  int unsupported = 0;
  int failed = 0;
  /// Of the failures, how many were memory exhaustion (the paper reports
  /// these as N/A, e.g. Scanner on Q4).
  int resource_exhausted = 0;
  /// Wall-clock seconds for the whole batch (persist time included in write
  /// mode, per Section 3.2).
  double total_seconds = 0.0;
  /// Input frames the engine attempted over the batch (succeeded plus failed
  /// instances; declined-as-unsupported instances read no input).
  int64_t attempted_frames = 0;
  /// Attempted-frame throughput: attempted_frames / total_seconds. The wall
  /// clock covers every instance, so the numerator must too — dividing only
  /// succeeded frames by the full wall time (the old definition) understated
  /// throughput exactly when instances failed, which is the norm under
  /// overload.
  double frames_per_second = 0.0;
  /// Goodput: input frames of *succeeded* instances / total_seconds. Under
  /// overload this diverges from frames_per_second; a healthy run has the
  /// two equal.
  double goodput_frames_per_second = 0.0;
  ValidationStats validation;
  /// First error message, when failures occurred (lowest instance index, so
  /// the report is deterministic under parallel execution).
  std::string first_error;
  /// Driver threads that executed the measured window (1 = serial).
  int parallel_instances = 1;
  /// Executor counters for the measured window when it ran in parallel.
  PoolStats pool_stats;
  /// Engine counter deltas over the measured window (decode cache hit/miss,
  /// frames decoded/encoded); see EngineStats.
  systems::EngineStats engine_stats;
  /// Per-span-name totals of every trace span recorded while this batch ran
  /// (measured window plus validation). Empty when tracing is disabled.
  std::vector<trace::SpanTotal> stage_breakdown;
  /// Frames delivered degraded during the measured window: freeze-frame
  /// repeats from online sources. Counted per instance from the
  /// thread-scoped accounting (fault::ThreadDegraded), so each degraded
  /// frame is attributed exactly once even when other threads read
  /// concurrently. Zero on a fault-free run.
  int64_t frames_degraded = 0;
  /// Retry attempts (across every RetryPolicy site) during the measured
  /// window, attributed per instance the same way. Zero on a fault-free run.
  int64_t retries = 0;
  /// The engine's plan for this batch's first instance (VcdOptions::explain;
  /// empty otherwise, or when the engine does not plan).
  std::string plan_explain;
  /// Worker processes the measured window ran across (0 = in-process).
  int workers = 0;
  /// Distributed only: sum of worker-measured per-instance execution
  /// seconds — the compute the cluster spent, regardless of coordinator
  /// overhead.
  double worker_busy_seconds = 0.0;

  bool Supported() const { return unsupported < instances; }
};

/// Serving mode: one driver-level entry point that wires the traffic
/// generator, the query server, and the open-loop replayer together.
struct ServingRunOptions {
  server::ServerOptions server;
  server::TrafficOptions traffic;
  server::ReplayOptions replay;
};

/// The Visual City Driver (Section 3.2): samples query batches, submits them
/// to a VDBMS, measures runtime, and validates results against the reference
/// implementation. Batch entry points are not themselves thread-safe (one
/// measured window at a time per driver); concurrent batch execution is the
/// query server's job.
class VisualCityDriver {
 public:
  /// Constructor and destructor are out of line: the cluster member's type
  /// (dist::Coordinator) is only forward-declared here.
  VisualCityDriver(const sim::Dataset& dataset, const VcdOptions& options);
  ~VisualCityDriver();

  /// Number of instances per batch: 4L (Section 3.1) unless overridden.
  int BatchSize() const;

  /// Samples the batch for query `id` (deterministic in the VCD seed).
  StatusOr<std::vector<queries::QueryInstance>> SampleBatch(queries::QueryId id) const;

  /// Submits one query batch to `engine` and measures it.
  StatusOr<QueryBatchResult> RunQueryBatch(systems::Vdbms& engine,
                                           queries::QueryId id);

  /// Runs every benchmark query in submission order (Q1 first). When
  /// `trace_path` is set, finishes by writing the run's Chrome trace there.
  StatusOr<std::vector<QueryBatchResult>> RunBenchmark(systems::Vdbms& engine);

  /// Serving mode: stages storage, generates the seeded open-loop schedule,
  /// stands up a QueryServer over `engine`, and replays the schedule through
  /// it. Returns the serving report (latency percentiles, shed counts,
  /// goodput under the offered load).
  StatusOr<server::ServingReport> RunServing(systems::Vdbms& engine,
                                             const ServingRunOptions& run);

  /// Writes every span recorded so far as Chrome trace JSON to
  /// options().trace_path; no-op (Ok) when no path is configured.
  Status WriteTrace() const;

  /// Stages the dataset's camera streams into options().storage; no-op (Ok)
  /// when no storage service is configured. RunBenchmark calls this before
  /// its first batch; staging time is never part of a measured window.
  Status StageStorage();

  const VcdOptions& options() const { return options_; }
  const sim::Dataset& dataset() const { return *dataset_; }

 private:
  /// Computes the reference result and validates `output` against it.
  Status Validate(const queries::QueryInstance& instance,
                  const systems::QueryOutput& output, ValidationStats& stats) const;

  /// Input frames a query instance consumes (for the FPS metric).
  int64_t InputFrames(const queries::QueryInstance& instance) const;

  /// The driver-lifetime executor for parallel measured windows and
  /// validation, created on first use with options().parallel_instances
  /// workers. One pool for the driver's whole life — constructing a fresh
  /// pool per batch paid thread startup inside the measured window and made
  /// PoolStats lifetime-equal-batch by accident rather than by contract.
  ThreadPool& EnsurePool();

  /// Spawns the worker cluster for distributed batches, or reuses it and
  /// respawns the workers an earlier batch lost (Coordinator::Heal): workers
  /// stage the dataset from shared storage when options().storage is set
  /// (see StageClusterDataset), else regenerate it, and construct `engine`'s
  /// architecture from VcdOptions::worker_engine_options. Cluster startup
  /// and repair happen here, before any measured window; a cluster built for
  /// a different engine is torn down and rebuilt.
  Status EnsureCluster(systems::Vdbms& engine);

  /// Saves the dataset's containers into options().storage's backing store
  /// (idempotent) so staged workers can load them instead of regenerating.
  Status StageClusterDataset();

  const sim::Dataset* dataset_;
  VcdOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<dist::Coordinator> cluster_;
  std::string cluster_engine_;
};

}  // namespace visualroad::driver

#endif  // VISUALROAD_DRIVER_VCD_H_
