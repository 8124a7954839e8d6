#include "driver/vcd.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "dist/coordinator.h"
#include "driver/dataset_io.h"
#include "storage/vss.h"
#include "systems/video_source.h"
#include "video/metrics.h"

namespace visualroad::driver {

using queries::QueryId;
using queries::QueryInstance;

namespace {

/// Registry instruments for driver-level progress, shared by every
/// VisualCityDriver instance in the process.
struct DriverMetrics {
  metrics::Counter& batches;
  metrics::Counter& instances_succeeded;
  metrics::Counter& instances_unsupported;
  metrics::Counter& instances_failed;
  metrics::Histogram& batch_seconds;
  metrics::Counter& validation_seconds;

  static DriverMetrics& Get() {
    static DriverMetrics* instruments = [] {
      metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
      return new DriverMetrics{
          registry.GetCounter("vr_driver_batches_total",
                              "Query batches the VCD measured"),
          registry.GetCounter("vr_driver_instances_succeeded_total",
                              "Query instances that produced a result"),
          registry.GetCounter(
              "vr_driver_instances_unsupported_total",
              "Query instances the engine declined as unsupported"),
          registry.GetCounter("vr_driver_instances_failed_total",
                              "Query instances that returned an error"),
          registry.GetHistogram("vr_driver_batch_seconds",
                                "Measured wall-clock duration per query batch",
                                {0.1, 0.5, 2.0, 10.0, 60.0, 300.0}),
          registry.GetCounter(
              "vr_driver_validation_seconds_total",
              "Wall-clock seconds spent validating results off the measured "
              "path"),
      };
    }();
    return *instruments;
  }
};

}  // namespace

VisualCityDriver::VisualCityDriver(const sim::Dataset& dataset,
                                   const VcdOptions& options)
    : dataset_(&dataset), options_(options) {
  if (options_.trace || !options_.trace_path.empty()) trace::SetEnabled(true);
}

VisualCityDriver::~VisualCityDriver() = default;

Status VisualCityDriver::EnsureCluster(systems::Vdbms& engine) {
  if (cluster_ != nullptr && cluster_engine_ == engine.name()) {
    cluster_->Heal();  // Respawns workers an earlier batch lost.
    return Status::Ok();
  }
  cluster_.reset();
  dist::CoordinatorOptions coordinator_options;
  coordinator_options.workers = options_.workers;
  coordinator_options.setup.config = dataset_->config;
  coordinator_options.setup.codec = options_.dataset_codec;
  coordinator_options.setup.engine = engine.name();
  coordinator_options.setup.engine_options = options_.worker_engine_options;
  coordinator_options.setup.detector = options_.detector;
  coordinator_options.dataset = dataset_;
  if (options_.storage != nullptr) {
    coordinator_options.store = options_.storage->options().store;
    // Storage staging: put the corpus and its VSS segments into the shared
    // store once, then ship the root so workers attach read-only instead of
    // regenerating the dataset (both idempotent, never inside a measured
    // window).
    VR_RETURN_IF_ERROR(StageStorage());
    VR_RETURN_IF_ERROR(StageClusterDataset());
    const storage::StoreOptions& store_options =
        coordinator_options.store->options();
    coordinator_options.setup.store_root = store_options.root;
    coordinator_options.setup.store_nodes = store_options.num_nodes;
    coordinator_options.setup.store_replication = store_options.replication;
    coordinator_options.setup.store_block_size = store_options.block_size;
  }
  // Warm workers from the local semantic cache before each batch.
  coordinator_options.semantic_cache = options_.semantic_cache;
  coordinator_options.faults = options_.faults;
  auto cluster = std::make_unique<dist::Coordinator>(coordinator_options);
  VR_RETURN_IF_ERROR(cluster->Start());
  cluster_ = std::move(cluster);
  cluster_engine_ = engine.name();
  return Status::Ok();
}

int VisualCityDriver::BatchSize() const {
  if (options_.batch_size_override > 0) return options_.batch_size_override;
  return 4 * dataset_->config.scale_factor;
}

StatusOr<std::vector<QueryInstance>> VisualCityDriver::SampleBatch(
    QueryId id) const {
  // The sampler substream depends only on (seed, query), so batches are
  // identical across engines and runs.
  Pcg32 rng = SubStream(options_.seed, "query-batch", static_cast<uint64_t>(id));
  std::vector<QueryInstance> batch;
  int size = BatchSize();
  batch.reserve(size);
  for (int i = 0; i < size; ++i) {
    VR_ASSIGN_OR_RETURN(QueryInstance instance,
                        queries::SampleQueryInstance(id, *dataset_, rng,
                                                     options_.sampler));
    batch.push_back(std::move(instance));
  }
  return batch;
}

int64_t VisualCityDriver::InputFrames(const QueryInstance& instance) const {
  return systems::detail::InputFrameCount(instance, *dataset_);
}

ThreadPool& VisualCityDriver::EnsurePool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(std::max(1, options_.parallel_instances),
                                         "driver");
  }
  return *pool_;
}

Status VisualCityDriver::Validate(const QueryInstance& instance,
                                  const systems::QueryOutput& output,
                                  ValidationStats& stats) const {
  queries::ValidationKind kind = queries::ValidationFor(instance.id);
  if (kind == queries::ValidationKind::kNone) return Status::Ok();

  if (kind == queries::ValidationKind::kSemantic) {
    if (instance.id == QueryId::kQ2d) {
      // Q2(d): per-pixel agreement of the static/dynamic classification
      // with the reference mask derived from the same input.
      if (output.video.FrameCount() == 0) return Status::Ok();
      VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                          systems::detail::InputAsset(instance, *dataset_));
      VR_ASSIGN_OR_RETURN(video::Video input,
                          video::codec::ParallelDecode(asset->container.video));
      queries::ReferenceContext context;
      context.dataset = dataset_;
      context.detector_options = options_.detector;
      VR_ASSIGN_OR_RETURN(queries::ReferenceResult reference,
                          queries::RunReference(context, instance, input));
      VR_ASSIGN_OR_RETURN(ValidationStats mask_stats,
                          MaskValidate(output.video, reference.video));
      stats.Merge(mask_stats);
      return Status::Ok();
    }
    // Q2(c): each reported detection mapped back to scene geometry.
    if (output.detections.empty()) return Status::Ok();
    VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                        systems::detail::InputAsset(instance, *dataset_));
    VR_ASSIGN_OR_RETURN(
        ValidationStats semantic,
        SemanticValidate(output.detections, asset->ground_truth,
                         instance.object_class, /*epsilon=*/0.5));
    stats.Merge(semantic);
    return Status::Ok();
  }

  // Frame validation: run the reference implementation on the same decoded
  // input and compare PSNR per frame.
  queries::ReferenceContext context;
  context.dataset = dataset_;
  context.detector_options = options_.detector;

  video::Video input;
  if (instance.id != QueryId::kQ9 && instance.id != QueryId::kQ10) {
    VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                        systems::detail::InputAsset(instance, *dataset_));
    // Validation is off the measured path; GOP-parallel decode just gets the
    // reference input materialised sooner.
    VR_ASSIGN_OR_RETURN(input,
                        video::codec::ParallelDecode(asset->container.video));
  }
  VR_ASSIGN_OR_RETURN(queries::ReferenceResult reference,
                      queries::RunReference(context, instance, input));

  double threshold = instance.id == QueryId::kQ9 ? video::kStitchingPsnrDb
                                                 : video::kValidationPsnrDb;
  if (reference.video.frames.empty() && output.video.FrameCount() == 0) {
    return Status::Ok();
  }
  VR_ASSIGN_OR_RETURN(ValidationStats frame_stats,
                      FrameValidate(output.video, reference.video, threshold));
  stats.Merge(frame_stats);
  return Status::Ok();
}

StatusOr<QueryBatchResult> VisualCityDriver::RunQueryBatch(systems::Vdbms& engine,
                                                           QueryId id) {
  // Session-list indices are stable, so this mark brackets every span this
  // batch (and its validation) records, across all threads.
  size_t trace_mark = trace::EventCount();
  VR_ASSIGN_OR_RETURN(std::vector<QueryInstance> batch, SampleBatch(id));

  QueryBatchResult result;
  result.id = id;
  result.engine = engine.name();
  result.instances = static_cast<int>(batch.size());

  if (!engine.Supports(id)) {
    result.unsupported = result.instances;
    DriverMetrics::Get().instances_unsupported.Increment(
        static_cast<double>(result.unsupported));
    return result;
  }

  // Plan capture happens before the measured window: planning is
  // side-effect free, and the explain string must describe what the window
  // is about to do, not what it did.
  if (options_.explain && !batch.empty()) {
    result.plan_explain = engine.Explain(batch.front(), *dataset_);
  }

  // Per-instance outcome slots, aggregated in index order after the measured
  // window so parallel execution reports exactly what serial execution
  // would.
  struct InstanceOutcome {
    bool succeeded = false;
    bool unsupported = false;
    bool failed = false;
    bool resource_exhausted = false;
    std::string error;
    int64_t frames_degraded = 0;
    int64_t retries = 0;
    systems::EngineStats engine_stats;
  };
  std::vector<InstanceOutcome> outcomes(batch.size());
  std::vector<systems::QueryOutput> outputs(batch.size());

  auto run_one = [&](int i) {
    size_t index = static_cast<size_t>(i);
    // Robustness accounting is thread-scoped: every degrade/retry site runs
    // on the thread that performs the read, and this whole body runs on one
    // thread, so bracketing it counts each event exactly once for exactly
    // this instance — even with other batches live on the same services.
    const int64_t retries_before = fault::ThreadRetries();
    const int64_t degraded_before = fault::ThreadDegraded();
    if (options_.execution_mode == systems::ExecutionMode::kOnline) {
      // Online processing (Section 3.2): data arrives through a throttled
      // forward-only feed at the camera's capture rate. The engine cannot
      // start ahead of the data, so the ingest gate is part of the measured
      // runtime. Freeze-frame concealments surface through the thread-scoped
      // degraded counter.
      std::vector<const sim::VideoAsset*> traffic = dataset_->TrafficAssets();
      if (batch[index].video_index >= 0 &&
          static_cast<size_t>(batch[index].video_index) < traffic.size()) {
        systems::VideoSource source = systems::VideoSource::Online(
            &traffic[static_cast<size_t>(batch[index].video_index)]
                 ->container.video,
            options_.online_rate_multiplier, options_.faults);
        while (!source.AtEnd()) {
          if (!source.Next().ok()) break;
        }
      }
    }
    StatusOr<systems::QueryOutput> output =
        engine.Execute(batch[index], *dataset_, options_.output_mode,
                       options_.output_dir, &outcomes[index].engine_stats);
    outcomes[index].retries = fault::ThreadRetries() - retries_before;
    outcomes[index].frames_degraded = fault::ThreadDegraded() - degraded_before;
    if (output.ok()) {
      outputs[index] = std::move(output).value();
      outcomes[index].succeeded = true;
    } else if (output.status().code() == StatusCode::kUnimplemented) {
      outcomes[index].unsupported = true;
    } else {
      outcomes[index].failed = true;
      outcomes[index].resource_exhausted =
          output.status().code() == StatusCode::kResourceExhausted;
      outcomes[index].error = output.status().ToString();
    }
    return Status::Ok();
  };

  // Instance-level parallelism is opt-in, offline-only (online ingest
  // throttling is part of the measured semantics), and gated on the engine
  // declaring Execute() thread-safe.
  int pool_threads =
      std::min(options_.parallel_instances, static_cast<int>(batch.size()));
  bool parallel_execute = pool_threads > 1 &&
                          options_.execution_mode ==
                              systems::ExecutionMode::kOffline &&
                          engine.ConcurrentSafe();

  // Distributed scale-out: cluster startup and repair (worker spawn,
  // dataset regeneration, engine construction, cache warm-start) happen
  // before the measured window — provisioning cost, not query cost.
  if (options_.workers > 0) {
    if (options_.execution_mode == systems::ExecutionMode::kOnline) {
      return Status::InvalidArgument(
          "distributed execution (workers > 0) is offline-only: online "
          "ingest pacing is a single throttled feed");
    }
    VR_RETURN_IF_ERROR(EnsureCluster(engine));
    result.workers = options_.workers;
  }

  int64_t dist_rpc_retries = 0;
  Stopwatch stopwatch;
  {
    // One span covering the whole measured window, so the exported trace
    // accounts for the batch wall-clock even where no finer span runs. Named
    // "vcd:" to stay distinct from the engines' per-instance "<engine>:"
    // spans (the batch engine's is "batch:<query>").
    trace::Span batch_span(std::string("vcd:") + queries::QueryName(id));
    if (options_.workers > 0) {
      dist::DistBatchStats dist_stats;
      VR_ASSIGN_OR_RETURN(
          std::vector<dist::DistInstanceOutcome> dist_outcomes,
          cluster_->ExecuteBatch(batch, options_.output_mode,
                                 options_.output_dir, &dist_stats));
      for (size_t i = 0; i < dist_outcomes.size() && i < batch.size(); ++i) {
        dist::DistInstanceOutcome& from = dist_outcomes[i];
        InstanceOutcome& to = outcomes[i];
        switch (from.state) {
          case dist::DistInstanceOutcome::kSucceeded:
            to.succeeded = true;
            outputs[i] = std::move(from.output);
            break;
          case dist::DistInstanceOutcome::kUnsupported:
            to.unsupported = true;
            break;
          case dist::DistInstanceOutcome::kFailed:
            to.failed = true;
            to.resource_exhausted = from.resource_exhausted;
            to.error = std::move(from.error);
            break;
        }
        to.engine_stats = from.stats;
      }
      dist_rpc_retries = dist_stats.rpc_retries;
      result.worker_busy_seconds = dist_stats.worker_busy_seconds;
    } else if (parallel_execute) {
      // The driver-lifetime pool: per-batch pool churn put worker startup
      // and teardown inside the measured window. PoolStats still reports
      // this batch's movement only, via the snapshot delta.
      ThreadPool& pool = EnsurePool();
      pool.ResetQueuePeak();
      const PoolStats pool_before = pool.stats();
      VR_RETURN_IF_ERROR(pool.ParallelForStatus(static_cast<int>(batch.size()),
                                                run_one, /*grain=*/1));
      // ParallelForStatus returns on the last chunk's completion signal,
      // which fires inside the task body — the worker's tasks_executed /
      // busy_seconds bookkeeping lands just after. Quiesce before the
      // after-snapshot so the window delta covers every task it submitted.
      (void)pool.Wait();
      result.parallel_instances = pool_threads;
      result.pool_stats = PoolStatsDelta(pool.stats(), pool_before);
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        VR_RETURN_IF_ERROR(run_one(static_cast<int>(i)));
      }
    }
  }
  result.total_seconds = stopwatch.ElapsedSeconds();
  result.retries += dist_rpc_retries;
  DriverMetrics::Get().batches.Increment();
  DriverMetrics::Get().batch_seconds.Observe(result.total_seconds);

  // Aggregate the per-instance windows in index order. Engine counters are
  // the sum of the per-call windows Execute() reported, so the batch's
  // engine_stats is exact even when another batch overlaps on this engine —
  // a stats() before/after snapshot would absorb the other batch's work.
  int64_t attempted_frames = 0;
  int64_t succeeded_frames = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const InstanceOutcome& outcome = outcomes[i];
    result.frames_degraded += outcome.frames_degraded;
    result.retries += outcome.retries;
    result.engine_stats.Add(outcome.engine_stats);
    if (outcome.succeeded) {
      ++result.succeeded;
      int64_t frames = InputFrames(batch[i]);
      attempted_frames += frames;
      succeeded_frames += frames;
    } else if (outcome.unsupported) {
      ++result.unsupported;
    } else if (outcome.failed) {
      ++result.failed;
      attempted_frames += InputFrames(batch[i]);
      if (outcome.resource_exhausted) ++result.resource_exhausted;
      if (result.first_error.empty()) result.first_error = outcome.error;
    }
  }
  result.attempted_frames = attempted_frames;
  result.frames_per_second =
      result.total_seconds > 0
          ? static_cast<double>(attempted_frames) / result.total_seconds
          : 0.0;
  result.goodput_frames_per_second =
      result.total_seconds > 0
          ? static_cast<double>(succeeded_frames) / result.total_seconds
          : 0.0;
  DriverMetrics::Get().instances_succeeded.Increment(
      static_cast<double>(result.succeeded));
  DriverMetrics::Get().instances_unsupported.Increment(
      static_cast<double>(result.unsupported));
  DriverMetrics::Get().instances_failed.Increment(
      static_cast<double>(result.failed));

  // Validation happens after the measured window (reference computation is
  // the VCD's cost, not the engine's). It is pure per-instance work over
  // const data, so it parallelises whenever the driver is configured for it,
  // regardless of engine thread safety; per-instance stats merge in index
  // order to keep the aggregate deterministic.
  if (options_.validate && options_.output_mode == systems::OutputMode::kWrite) {
    trace::Span validate_span(std::string("validate:") + queries::QueryName(id));
    Stopwatch validate_watch;
    auto needs_validation = [&](size_t i) {
      return outputs[i].produced || !outputs[i].detections.empty();
    };
    if (pool_threads > 1) {
      std::vector<ValidationStats> per_instance(batch.size());
      // Same driver-lifetime pool as the measured window; the batch's
      // pool_stats delta was taken before validation, so validation tasks
      // never leak into the measured counters.
      ThreadPool& pool = EnsurePool();
      VR_RETURN_IF_ERROR(pool.ParallelForStatus(
          static_cast<int>(batch.size()),
          [&](int i) {
            size_t index = static_cast<size_t>(i);
            if (!needs_validation(index)) return Status::Ok();
            return Validate(batch[index], outputs[index], per_instance[index]);
          },
          /*grain=*/1));
      for (const ValidationStats& stats : per_instance) {
        result.validation.Merge(stats);
      }
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        if (!needs_validation(i)) continue;
        VR_RETURN_IF_ERROR(Validate(batch[i], outputs[i], result.validation));
      }
    }
    DriverMetrics::Get().validation_seconds.Increment(
        validate_watch.ElapsedSeconds());
  }
  if (trace::Enabled()) {
    result.stage_breakdown = trace::Summarize(trace::EventsSince(trace_mark));
  }
  return result;
}

StatusOr<std::vector<QueryBatchResult>> VisualCityDriver::RunBenchmark(
    systems::Vdbms& engine) {
  std::vector<QueryBatchResult> results;
  VR_RETURN_IF_ERROR(StageStorage());
  for (QueryId id : queries::AllQueries()) {
    VR_ASSIGN_OR_RETURN(QueryBatchResult result, RunQueryBatch(engine, id));
    results.push_back(std::move(result));
    engine.Quiesce();  // Engines may quiesce between batches (Section 3.2).
  }
  VR_RETURN_IF_ERROR(WriteTrace());
  return results;
}

StatusOr<server::ServingReport> VisualCityDriver::RunServing(
    systems::Vdbms& engine, const ServingRunOptions& run) {
  VR_RETURN_IF_ERROR(StageStorage());
  std::vector<server::Arrival> schedule =
      server::GenerateOpenLoopSchedule(run.traffic);
  server::QueryServer srv(*dataset_, engine, run.server);
  return server::RunOpenLoop(srv, *dataset_, schedule, run.replay);
}

Status VisualCityDriver::WriteTrace() const {
  if (options_.trace_path.empty()) return Status::Ok();
  return trace::WriteChromeTrace(options_.trace_path);
}

Status VisualCityDriver::StageStorage() {
  if (options_.storage == nullptr) return Status::Ok();
  TRACE_SPAN("stage_storage");
  return IngestDatasetVss(*dataset_, *options_.storage);
}

Status VisualCityDriver::StageClusterDataset() {
  if (options_.storage == nullptr) return Status::Ok();
  storage::ShardedStore* store = options_.storage->options().store;
  if (store == nullptr) {
    return Status::InvalidArgument(
        "storage staging needs a store-backed VSS");
  }
  TRACE_SPAN("dist:stage");
  // Idempotent: a stored manifest byte-identical to this dataset's means a
  // prior run (or a prior EnsureCluster) staged this very corpus.
  StatusOr<std::vector<uint8_t>> manifest = store->Get("dataset.vrds");
  if (manifest.ok() && *manifest == SerializeDatasetManifest(*dataset_)) {
    return Status::Ok();
  }
  return SaveDatasetSharded(*dataset_, *store);
}

}  // namespace visualroad::driver
