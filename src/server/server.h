#ifndef VISUALROAD_SERVER_SERVER_H_
#define VISUALROAD_SERVER_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "server/admission.h"
#include "systems/vdbms.h"

namespace visualroad::server {

/// Query server configuration.
struct ServerOptions {
  /// Executor width: the shared long-lived pool all query instances run on.
  int worker_threads = 4;
  /// Server-wide cap on query instances executing at once; 0 means
  /// worker_threads. Clamped to 1 for engines that are not ConcurrentSafe().
  int max_concurrent_queries = 0;
  /// Per-batch cap on concurrently executing instances, so one wide batch
  /// cannot monopolize the executor.
  int max_concurrent_queries_per_batch = 2;
  /// Server-wide bound on admitted-but-not-started batches (load shedding
  /// kicks in beyond it; see AdmissionController).
  int max_total_queued = 64;
  systems::OutputMode output_mode = systems::OutputMode::kWrite;
  /// Directory for write-mode result containers; empty keeps results in
  /// memory (which is what the byte-identity tests compare).
  std::string output_dir;
};

/// Outcome of one served query instance.
struct ServedQuery {
  Status status = Status::Ok();
  systems::QueryOutput output;
  /// Engine counter movement of exactly this call (per-call window, correct
  /// under concurrent Execute calls).
  systems::EngineStats engine_stats;
  /// Retry attempts made by this call (thread-scoped, exactly-once).
  int64_t retries = 0;
};

/// Outcome of one served batch, fulfilled through the future Submit returns.
struct ServedBatch {
  int64_t id = 0;
  std::string tenant;
  /// One entry per submitted instance, in submission order.
  std::vector<ServedQuery> queries;
  int succeeded = 0;
  int failed = 0;
  int unsupported = 0;
  /// Seconds from admission to promotion (time spent queued).
  double queue_seconds = 0.0;
  /// Seconds from admission to the last instance finishing — the latency a
  /// client observes, which is what the serving report's percentiles are
  /// computed over.
  double total_seconds = 0.0;
  /// Sum of the per-query engine windows.
  systems::EngineStats engine_stats;
};

/// Server-level counters (admission decisions plus execution progress).
struct ServerStats {
  AdmissionStats admission;
  int64_t batches_completed = 0;
  int64_t queries_executed = 0;
  /// High-water mark of queued batches across all tenants.
  int queue_depth_peak = 0;
};

/// An async multi-tenant query server over one VDBMS: the execution tree is
/// session → batch → query instance, each level owned by its parent. Batches
/// are admitted (or shed) under per-tenant quotas, promoted in priority
/// order, and their instances fan out onto one shared long-lived ThreadPool;
/// completions bubble back up as callbacks (a finishing instance finalizes
/// its batch when it is the last one, and re-pumps the scheduler either
/// way). Submit never blocks on execution — overload sheds with
/// ResourceExhausted instead of queueing unboundedly.
///
/// Results are byte-identical to calling Vdbms::Execute directly: the server
/// adds scheduling, not semantics.
class QueryServer {
 public:
  /// One tenant's connection. Owned by the server; obtained from
  /// OpenSession() and passed (by reference) to Submit(). A session's
  /// batches run FIFO among themselves, capped at the tenant's
  /// max_concurrent_batches.
  class Session {
   public:
    const TenantOptions& tenant() const { return tenant_; }

   private:
    friend class QueryServer;
    struct Batch;

    TenantOptions tenant_;
    /// Open order; the priority tie-break, so scheduling is deterministic.
    int index_ = 0;
    /// Admitted, not yet promoted (FIFO).
    std::deque<std::shared_ptr<Batch>> queued_;
    /// Promoted batches currently running.
    std::vector<std::shared_ptr<Batch>> running_;
  };

  /// The engine and dataset are borrowed and must outlive the server.
  QueryServer(const sim::Dataset& dataset, systems::Vdbms& engine,
              const ServerOptions& options);
  /// Drains outstanding work, then joins the executor.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Opens a session for `tenant`. The returned reference stays valid for
  /// the server's lifetime.
  Session& OpenSession(const TenantOptions& tenant);

  /// Submits a batch of query instances on `session`. Returns a future
  /// fulfilled when every instance has finished, or ResourceExhausted when
  /// admission sheds it (per-tenant queue or server-wide bound full).
  /// Non-blocking either way; safe to call from any thread, including pool
  /// workers (it only enqueues).
  StatusOr<std::future<ServedBatch>> Submit(
      Session& session, std::vector<queries::QueryInstance> instances);

  /// Blocks until no admitted batch remains queued or running.
  void Drain();

  ServerStats stats() const;

  const ServerOptions& options() const { return options_; }

 private:
  using Batch = Session::Batch;

  /// Scheduler pump, called under mutex_ whenever capacity may have opened:
  /// promotes queued batches (priority order, per-tenant concurrency caps)
  /// and dispatches runnable instances until the query caps are reached.
  void PumpLocked();

  /// Executes instance `index` of `batch` on a pool worker, then finalizes
  /// through OnQueryDone.
  void RunQuery(std::shared_ptr<Batch> batch, size_t index);

  /// Completion callback: updates the batch node, finalizes it when this
  /// was its last instance, and re-pumps the scheduler.
  void OnQueryDone(std::shared_ptr<Batch> batch, size_t index);

  const sim::Dataset* dataset_;
  systems::Vdbms* engine_;
  ServerOptions options_;
  /// Effective server-wide instance cap (resolved against worker_threads
  /// and the engine's ConcurrentSafe()).
  int max_queries_ = 1;

  mutable std::mutex mutex_;
  std::condition_variable drained_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<Session>> sessions_;
  int64_t next_batch_id_ = 0;
  /// Query instances currently executing.
  int running_queries_ = 0;
  /// Admitted batches not yet finalized (queued + running).
  int outstanding_batches_ = 0;
  int64_t batches_completed_ = 0;
  int64_t queries_executed_ = 0;
  int queue_depth_peak_ = 0;

  struct Metrics {
    metrics::Counter& sessions;
    metrics::Counter& submitted;
    metrics::Counter& admitted;
    metrics::Counter& shed_tenant;
    metrics::Counter& shed_server;
    metrics::Counter& completed;
    metrics::Counter& queries;
    metrics::Gauge& queue_depth_peak;
    metrics::Histogram& batch_seconds;
  };
  Metrics metrics_;

  /// Declared last so it is destroyed (joined) first: after the join, no
  /// callback can touch the members above, and every promise has been
  /// fulfilled.
  ThreadPool pool_;
};

}  // namespace visualroad::server

#endif  // VISUALROAD_SERVER_SERVER_H_
