#include "server/server.h"

#include <algorithm>
#include <utility>

#include "common/fault.h"
#include "common/trace.h"

namespace visualroad::server {

namespace {

metrics::Counter& ServerCounter(const std::string& name, const std::string& help,
                                const std::string& labels = "") {
  return metrics::MetricsRegistry::Global().GetCounter(name, help, labels);
}

int ResolveMaxQueries(const ServerOptions& options, const systems::Vdbms& engine) {
  int cap = options.max_concurrent_queries > 0 ? options.max_concurrent_queries
                                               : options.worker_threads;
  cap = std::max(1, cap);
  // Engines that do not opt into concurrent Execute stay serial; the server
  // still overlaps queueing and admission with execution.
  if (!engine.ConcurrentSafe()) cap = 1;
  return cap;
}

}  // namespace

/// One submitted batch: the middle level of the execution tree. The owning
/// session holds it while queued/running; dispatched pool tasks hold a
/// shared_ptr so the node (and its promise) outlives early detachment.
struct QueryServer::Session::Batch {
  int64_t id = 0;
  Session* session = nullptr;
  std::vector<queries::QueryInstance> instances;
  std::promise<ServedBatch> promise;
  ServedBatch result;
  /// Next instance to dispatch.
  size_t next_query = 0;
  /// Instances finished (any status).
  size_t done = 0;
  /// Instances currently executing.
  int running = 0;
  /// Ticks from admission; reads give queue_seconds and total_seconds.
  Stopwatch since_submit;
};

QueryServer::QueryServer(const sim::Dataset& dataset, systems::Vdbms& engine,
                         const ServerOptions& options)
    : dataset_(&dataset),
      engine_(&engine),
      options_(options),
      max_queries_(ResolveMaxQueries(options, engine)),
      admission_(options.max_total_queued),
      metrics_{
          ServerCounter("vr_server_sessions_total", "Tenant sessions opened"),
          ServerCounter("vr_server_batches_submitted_total",
                        "Batches offered to Submit (admitted or shed)"),
          ServerCounter("vr_server_batches_admitted_total",
                        "Batches admitted into a tenant queue"),
          ServerCounter("vr_server_batches_shed_total",
                        "Batches shed by admission control, by reason",
                        "reason=\"tenant_queue\""),
          ServerCounter("vr_server_batches_shed_total",
                        "Batches shed by admission control, by reason",
                        "reason=\"server_queue\""),
          ServerCounter("vr_server_batches_completed_total",
                        "Batches finalized (future fulfilled)"),
          ServerCounter("vr_server_queries_total",
                        "Query instances the server finished executing"),
          metrics::MetricsRegistry::Global().GetGauge(
              "vr_server_queue_depth_peak",
              "High-water mark of queued batches across all tenants"),
          metrics::MetricsRegistry::Global().GetHistogram(
              "vr_server_batch_seconds",
              "Batch latency from admission to completion (seconds)",
              {0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10, 30, 60}),
      },
      pool_(std::max(1, options.worker_threads), "server") {}

QueryServer::~QueryServer() { Drain(); }

QueryServer::Session& QueryServer::OpenSession(const TenantOptions& tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto session = std::make_unique<Session>();
  session->tenant_ = tenant;
  session->index_ = static_cast<int>(sessions_.size());
  metrics_.sessions.Increment();
  sessions_.push_back(std::move(session));
  return *sessions_.back();
}

StatusOr<std::future<ServedBatch>> QueryServer::Submit(
    Session& session, std::vector<queries::QueryInstance> instances) {
  TRACE_SPAN("server:submit");
  if (instances.empty()) {
    return Status::InvalidArgument("empty batch submitted");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_.submitted.Increment();
  Status admitted =
      admission_.Admit(session.tenant_, static_cast<int>(session.queued_.size()));
  if (!admitted.ok()) {
    (session.queued_.size() >=
             static_cast<size_t>(std::max(0, session.tenant_.max_queued_batches))
         ? metrics_.shed_tenant
         : metrics_.shed_server)
        .Increment();
    return admitted;
  }
  metrics_.admitted.Increment();

  auto batch = std::make_shared<Batch>();
  batch->id = next_batch_id_++;
  batch->session = &session;
  batch->result.id = batch->id;
  batch->result.tenant = session.tenant_.name;
  batch->result.queries.resize(instances.size());
  batch->instances = std::move(instances);
  std::future<ServedBatch> future = batch->promise.get_future();
  session.queued_.push_back(std::move(batch));
  ++outstanding_batches_;
  queue_depth_peak_ = std::max(queue_depth_peak_, admission_.queued());
  metrics_.queue_depth_peak.SetMax(static_cast<double>(queue_depth_peak_));
  PumpLocked();
  return future;
}

void QueryServer::PumpLocked() {
  // Promotion: repeatedly pick the highest-priority tenant (tie: earliest
  // session) that has a queued batch and spare batch concurrency.
  for (;;) {
    Session* best = nullptr;
    for (const auto& session : sessions_) {
      if (session->queued_.empty()) continue;
      if (static_cast<int>(session->running_.size()) >=
          std::max(1, session->tenant_.max_concurrent_batches)) {
        continue;
      }
      if (best == nullptr || session->tenant_.priority > best->tenant_.priority) {
        best = session.get();
      }
    }
    if (best == nullptr) break;
    std::shared_ptr<Batch> batch = std::move(best->queued_.front());
    best->queued_.pop_front();
    admission_.OnStarted();
    batch->result.queue_seconds = batch->since_submit.ElapsedSeconds();
    best->running_.push_back(std::move(batch));
  }

  // Dispatch: walk running batches by tenant priority (then session order,
  // then batch FIFO) and start instances while both the server-wide and the
  // per-batch caps have room.
  std::vector<Session*> by_priority;
  by_priority.reserve(sessions_.size());
  for (const auto& session : sessions_) {
    if (!session->running_.empty()) by_priority.push_back(session.get());
  }
  std::stable_sort(by_priority.begin(), by_priority.end(),
                   [](const Session* a, const Session* b) {
                     return a->tenant_.priority > b->tenant_.priority;
                   });
  const int per_batch = std::max(1, options_.max_concurrent_queries_per_batch);
  for (Session* session : by_priority) {
    for (const auto& batch : session->running_) {
      while (running_queries_ < max_queries_ && batch->running < per_batch &&
             batch->next_query < batch->instances.size()) {
        const size_t index = batch->next_query++;
        ++batch->running;
        ++running_queries_;
        std::shared_ptr<Batch> node = batch;
        pool_.Submit([this, node = std::move(node), index]() mutable {
          RunQuery(std::move(node), index);
        });
      }
      if (running_queries_ >= max_queries_) return;
    }
  }
}

void QueryServer::RunQuery(std::shared_ptr<Batch> batch, size_t index) {
  const queries::QueryInstance& instance = batch->instances[index];
  ServedQuery& served = batch->result.queries[index];
  trace::Span span(std::string("server:") + queries::QueryName(instance.id));
  if (!engine_->Supports(instance.id)) {
    served.status = Status::Unimplemented(
        std::string(engine_->name()) + " does not support " +
        queries::QueryName(instance.id));
  } else {
    // Thread-scoped retry accounting brackets exactly this call, on this
    // worker thread — the same exactly-once attribution the VCD uses.
    const int64_t retries_before = fault::ThreadRetries();
    StatusOr<systems::QueryOutput> output =
        engine_->Execute(instance, *dataset_, options_.output_mode,
                         options_.output_dir, &served.engine_stats);
    served.retries = fault::ThreadRetries() - retries_before;
    if (output.ok()) {
      served.output = std::move(output).value();
    } else {
      served.status = output.status();
    }
  }
  OnQueryDone(std::move(batch), index);
}

void QueryServer::OnQueryDone(std::shared_ptr<Batch> batch, size_t index) {
  (void)index;
  bool finished = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --running_queries_;
    --batch->running;
    ++batch->done;
    ++queries_executed_;
    metrics_.queries.Increment();
    if (batch->done == batch->instances.size()) {
      finished = true;
      ServedBatch& result = batch->result;
      for (const ServedQuery& q : result.queries) {
        if (q.status.ok()) {
          ++result.succeeded;
        } else if (q.status.code() == StatusCode::kUnimplemented) {
          ++result.unsupported;
        } else {
          ++result.failed;
        }
        result.engine_stats.Add(q.engine_stats);
      }
      result.total_seconds = batch->since_submit.ElapsedSeconds();
      metrics_.batch_seconds.Observe(result.total_seconds);
      metrics_.completed.Increment();
      ++batches_completed_;

      Session& session = *batch->session;
      session.running_.erase(
          std::find(session.running_.begin(), session.running_.end(), batch));
      --outstanding_batches_;
    }
    PumpLocked();
    if (outstanding_batches_ == 0) drained_.notify_all();
  }
  if (finished) {
    // Outside the lock: fulfilling the future may run arbitrary waiter
    // code. The shared_ptr keeps the node alive through set_value.
    batch->promise.set_value(std::move(batch->result));
  }
}

void QueryServer::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return outstanding_batches_ == 0; });
}

ServerStats QueryServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats stats;
  stats.admission = admission_.stats();
  stats.batches_completed = batches_completed_;
  stats.queries_executed = queries_executed_;
  stats.queue_depth_peak = queue_depth_peak_;
  return stats;
}

}  // namespace visualroad::server
