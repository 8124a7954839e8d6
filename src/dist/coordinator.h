#ifndef VISUALROAD_DIST_COORDINATOR_H_
#define VISUALROAD_DIST_COORDINATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "dist/protocol.h"
#include "dist/rpc.h"
#include "dist/worker.h"
#include "simulation/generator.h"
#include "storage/sharded_store.h"
#include "systems/vdbms.h"

namespace visualroad::dist {

/// Configuration for a coordinator and the worker fleet it supervises.
struct CoordinatorOptions {
  /// Worker processes to spawn.
  int workers = 2;
  /// Worker executable; empty selects DefaultWorkerBinary().
  std::string worker_binary;
  /// Directory for the pid-qualified worker sockets; empty selects $TMPDIR
  /// (or /tmp). Paths are "<dir>/vr-worker-<coordinator pid>-<index>.sock",
  /// so concurrent test processes never collide on a socket file.
  std::string socket_dir;
  /// The execution environment every worker reconstructs.
  WorkerSetup setup;
  /// Locality hints: the store holding the ingested inputs and the dataset
  /// mapping instances to camera streams. Both optional (and borrowed);
  /// without them partitioning falls back to round-robin by input index.
  /// When `setup.store_root` names the same store, workers also *stage* from
  /// it: they attach read-only and load the corpus instead of regenerating.
  const storage::ShardedStore* store = nullptr;
  const sim::Dataset* dataset = nullptr;
  /// Coordinator-side semantic cache whose ready entries pre-seed every
  /// worker's cache at the start of each batch (kCacheImport), so results
  /// materialized locally — or in a previous fleet — warm the workers.
  /// Borrowed, optional; null disables pre-seeding.
  queries::SemanticCache* semantic_cache = nullptr;
  /// Optional fault source driving the rpc_send / worker_crash sites.
  /// Borrowed; must outlive the coordinator.
  fault::FaultInjector* faults = nullptr;
  /// Instances per dispatch chunk; 0 sizes chunks so each worker sees about
  /// two, which keeps the re-dispatch unit small without drowning the
  /// protocol in round trips.
  int chunk_size = 0;
};

/// The merged outcome of one batch instance, mirroring the driver's
/// three-way success/unsupported/failed split plus distributed provenance.
struct DistInstanceOutcome {
  enum State : uint8_t { kSucceeded = 0, kUnsupported = 1, kFailed = 2 };
  State state = kFailed;
  bool resource_exhausted = false;
  std::string error;
  systems::EngineStats stats;
  /// Worker-measured execution seconds (excludes queueing and transport).
  double exec_seconds = 0.0;
  /// Index of the worker that produced the accepted result.
  int worker = -1;
  systems::QueryOutput output;
};

/// Dispatch accounting for one ExecuteBatch call.
struct DistBatchStats {
  int64_t chunks_dispatched = 0;
  /// Chunks re-enqueued after a lost worker or failed dispatch.
  int64_t chunks_redispatched = 0;
  /// RPC attempts beyond the first (rpc_send retries).
  int64_t rpc_retries = 0;
  /// Workers that died (or were declared dead) during the batch.
  int64_t workers_lost = 0;
  /// Semantic-cache entries / encoded bytes pre-seeded into workers before
  /// this batch dispatched.
  int64_t cache_entries_shipped = 0;
  int64_t cache_bytes_shipped = 0;
  /// Sum of worker-measured per-instance execution seconds: the CPU work
  /// the cluster did, whatever the coordinator's wall clock.
  double worker_busy_seconds = 0.0;
};

/// Owns a fleet of worker processes and runs query batches across them:
/// partitions a batch by ShardedStore data locality, ships each chunk as one
/// blocking RPC, re-dispatches dead workers' chunks, and merges per-instance
/// results back into batch order. Results are byte-identical
/// to single-process execution because workers regenerate the same dataset
/// and run the same engine (DESIGN.md Section 15).
///
/// Not thread-safe: one batch at a time (internally each worker link gets
/// its own dispatch thread).
class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Spawns the fleet, handshakes every worker, and runs Setup on all of
  /// them in parallel (each worker stages its dataset from the shared store
  /// when `setup.store_root` is set, else regenerates it, and builds its
  /// engine). Blocking; a failure tears the fleet back down.
  Status Start();

  /// Executes `batch` across the live workers. Returns one outcome per
  /// instance in batch order. Per-instance failures are reported in the
  /// outcome, not as an overall error; the call itself fails only when work
  /// cannot complete at all (every worker lost with instances still
  /// pending). Lost slots stay lost until Heal().
  StatusOr<std::vector<DistInstanceOutcome>> ExecuteBatch(
      const std::vector<queries::QueryInstance>& batch,
      systems::OutputMode mode, const std::string& output_dir,
      DistBatchStats* stats = nullptr);

  /// Respawns slots lost in earlier batches in place: Setup, then a warm
  /// start from a surviving donor's exported semantic cache. Best effort; a
  /// slot that fails to come back stays lost. Call it between batches,
  /// outside any measured window (it can regenerate a whole dataset).
  void Heal();

  /// Graceful teardown: Shutdown RPC to every live worker, then reap.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// Workers not declared lost.
  int live_workers() const;

  const CoordinatorOptions& options() const { return options_; }

 private:
  struct Slot {
    WorkerProcess process;
    std::unique_ptr<RpcClient> client;
    bool lost = false;
  };

  /// Spawns a worker process for slot `index` and connects + handshakes its
  /// client; the caller decides where the slot goes (append vs. replace).
  StatusOr<std::unique_ptr<Slot>> MakeSlot(int index);
  /// Spawns slot `index`'s process and connects + handshakes its client.
  Status SpawnSlot(int index);
  /// Ships the local semantic cache's ready entries to every live worker.
  /// Best-effort; a worker that fails the import just stays cold.
  void PreSeedCaches(DistBatchStats* stats);
  /// The worker index an instance's input data prefers (ShardedStore block
  /// placement when hints are present, else a deterministic fallback).
  int PreferredWorker(const queries::QueryInstance& instance, int index) const;

  CoordinatorOptions options_;
  std::vector<std::unique_ptr<Slot>> slots_;
  bool started_ = false;
};

namespace internal {
/// `value % modulus` folded to the non-negative residue. C++ `%` keeps the
/// dividend's sign, so a negative (unset) video index must not be used to
/// address a per-worker share directly.
int NonNegativeMod(int value, int modulus);

/// Locality hint: the datanode holding the most bytes of camera
/// `camera_id`'s stream object (storage::StreamObjectName), or -1 when
/// `store` holds none of it. Only that object counts, so a stale object of
/// an older layout under the same camera prefix cannot move the hint.
int StreamHomeNode(const storage::ShardedStore& store, int camera_id);
}  // namespace internal

}  // namespace visualroad::dist

#endif  // VISUALROAD_DIST_COORDINATOR_H_
