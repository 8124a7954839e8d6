#include "dist/coordinator.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "storage/vss.h"

namespace visualroad::dist {

namespace {

/// How long to wait for a freshly spawned worker's socket and handshake.
constexpr std::chrono::milliseconds kConnectTimeout{10000};

struct DistMetrics {
  metrics::Counter& workers_spawned;
  metrics::Counter& workers_lost;
  metrics::Gauge& workers_live;
  metrics::Counter& chunks_dispatched;
  metrics::Counter& chunks_redispatched;
  metrics::Counter& instances_executed;
  metrics::Counter& batches;
  metrics::Counter& workers_respawned;
  metrics::Counter& cache_shipped_entries;
  metrics::Counter& cache_shipped_bytes;

  static DistMetrics& Get() {
    static DistMetrics* instance = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      return new DistMetrics{
          registry.GetCounter("vr_dist_workers_spawned_total",
                              "Worker processes spawned by coordinators"),
          registry.GetCounter("vr_dist_workers_lost_total",
                              "Workers that died or were declared dead"),
          registry.GetGauge("vr_dist_workers_live",
                            "Worker processes currently alive"),
          registry.GetCounter("vr_dist_chunks_dispatched_total",
                              "Work chunks shipped to workers"),
          registry.GetCounter(
              "vr_dist_chunks_redispatched_total",
              "Chunks re-enqueued after a lost worker or failed dispatch"),
          registry.GetCounter("vr_dist_instances_executed_total",
                              "Query instances completed via the cluster"),
          registry.GetCounter("vr_dist_batches_total",
                              "Distributed query batches executed"),
          registry.GetCounter(
              "vr_dist_workers_respawned_total",
              "Replacement workers respawned for slots lost in earlier "
              "batches"),
          registry.GetCounter(
              "vr_dist_cache_shipped_entries_total",
              "Semantic-cache entries shipped to workers (pre-seeding and "
              "replacement warm-starts)"),
          registry.GetCounter(
              "vr_dist_cache_shipped_bytes_total",
              "Encoded bytes of semantic-cache entries shipped to workers"),
      };
    }();
    return *instance;
  }
};

std::string DefaultSocketDir() {
  const char* tmp = std::getenv("TMPDIR");
  if (tmp != nullptr && tmp[0] != '\0') return tmp;
  return "/tmp";
}

/// One dispatch unit: a sub-range of the batch with a preferred worker.
struct Chunk {
  int affinity = 0;
  std::vector<RangeItem> items;
};

/// Shared state of one ExecuteBatch call, guarded by `mutex`.
struct BatchState {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Chunk> queue;
  int remaining = 0;
  std::vector<char> done;
  std::vector<DistInstanceOutcome> results;
  DistBatchStats stats;
};

/// Leading entry count of an EncodeCacheEntries payload (u32 LE), for
/// shipping metrics without a full decode.
int64_t CacheEntryCount(const std::vector<uint8_t>& payload) {
  if (payload.size() < 4) return 0;
  return static_cast<int64_t>(payload[0]) |
         (static_cast<int64_t>(payload[1]) << 8) |
         (static_cast<int64_t>(payload[2]) << 16) |
         (static_cast<int64_t>(payload[3]) << 24);
}

}  // namespace

namespace internal {

int NonNegativeMod(int value, int modulus) {
  if (modulus <= 0) return 0;
  int residue = value % modulus;
  return residue < 0 ? residue + modulus : residue;
}

int StreamHomeNode(const storage::ShardedStore& store, int camera_id) {
  // The object's full name is the prefix: no other object starts with it.
  std::vector<int64_t> bytes = store.NodeBytesForPrefix(
      storage::StreamObjectName(storage::CameraStreamName(camera_id)));
  int best = -1;
  int64_t best_bytes = 0;
  for (size_t node = 0; node < bytes.size(); ++node) {
    if (bytes[node] > best_bytes) {
      best_bytes = bytes[node];
      best = static_cast<int>(node);
    }
  }
  return best;
}

}  // namespace internal

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)) {}

Coordinator::~Coordinator() { Shutdown(); }

StatusOr<std::unique_ptr<Coordinator::Slot>> Coordinator::MakeSlot(int index) {
  std::string binary = options_.worker_binary.empty() ? DefaultWorkerBinary()
                                                      : options_.worker_binary;
  std::string dir =
      options_.socket_dir.empty() ? DefaultSocketDir() : options_.socket_dir;
  // Pid plus a process-wide sequence number: concurrent test processes
  // cannot collide (pid), and neither can two coordinators in one process
  // (sequence).
  static std::atomic<int> socket_seq{0};
  std::string path = dir + "/vr-worker-" + std::to_string(::getpid()) + "-" +
                     std::to_string(socket_seq.fetch_add(1)) + "-" +
                     std::to_string(index) + ".sock";
  auto slot = std::make_unique<Slot>();
  VR_ASSIGN_OR_RETURN(slot->process, WorkerProcess::Spawn(binary, path));
  VR_ASSIGN_OR_RETURN(
      RpcConnection connection,
      RpcConnection::ConnectUnix(path, kConnectTimeout));
  slot->client = std::make_unique<RpcClient>(std::move(connection));
  VR_RETURN_IF_ERROR(slot->client->Handshake(kConnectTimeout));
  return slot;
}

Status Coordinator::SpawnSlot(int index) {
  VR_ASSIGN_OR_RETURN(std::unique_ptr<Slot> slot, MakeSlot(index));
  slots_.push_back(std::move(slot));
  return Status::Ok();
}

Status Coordinator::Start() {
  if (started_) {
    return Status::FailedPrecondition("coordinator already started");
  }
  if (options_.workers < 1) {
    return Status::InvalidArgument("coordinator needs at least one worker");
  }
  trace::Span span("dist:setup");
  for (int i = 0; i < options_.workers; ++i) {
    Status spawned = SpawnSlot(i);
    if (!spawned.ok()) {
      Shutdown();
      return spawned;
    }
  }
  DistMetrics::Get().workers_spawned.Increment(options_.workers);
  DistMetrics::Get().workers_live.Set(options_.workers);

  // Setup in parallel: every worker builds its dataset — staged from the
  // shared store when setup.store_root is set, regenerated otherwise — and
  // its engine. Regeneration dominates startup, so serialising it would
  // cost workers×; staging makes the whole phase cheap.
  std::vector<uint8_t> payload = EncodeWorkerSetup(options_.setup);
  std::vector<Status> outcomes(slots_.size(), Status::Ok());
  std::vector<std::thread> threads;
  threads.reserve(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    threads.emplace_back([this, &payload, &outcomes, i] {
      StatusOr<std::vector<uint8_t>> response =
          slots_[i]->client->Call(MethodId::kSetup, payload);
      if (!response.ok()) outcomes[i] = response.status();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& outcome : outcomes) {
    if (!outcome.ok()) {
      Shutdown();
      return outcome;
    }
  }
  started_ = true;
  return Status::Ok();
}

void Coordinator::Shutdown() {
  for (std::unique_ptr<Slot>& slot : slots_) {
    if (slot->client != nullptr && slot->client->open() && !slot->lost) {
      // Best effort: a worker that already died just fails the call.
      StatusOr<std::vector<uint8_t>> ack = slot->client->Call(
          MethodId::kShutdown, {}, std::chrono::milliseconds(500));
      (void)ack;
    }
    slot->process.Kill();
  }
  if (!slots_.empty()) DistMetrics::Get().workers_live.Set(0);
  slots_.clear();
  started_ = false;
}

int Coordinator::live_workers() const {
  return static_cast<int>(std::count_if(
      slots_.begin(), slots_.end(),
      [](const std::unique_ptr<Slot>& slot) { return !slot->lost; }));
}

int Coordinator::PreferredWorker(const queries::QueryInstance& instance,
                                 int index) const {
  int workers = static_cast<int>(slots_.size());
  if (workers <= 0) return 0;
  switch (instance.id) {
    case queries::QueryId::kQ8:
      // Q8 scans every traffic stream; no single stream to be near.
      return internal::NonNegativeMod(index, workers);
    case queries::QueryId::kQ9:
    case queries::QueryId::kQ10:
      return internal::NonNegativeMod(instance.pano_group, workers);
    default:
      break;
  }
  if (options_.store != nullptr && options_.dataset != nullptr) {
    std::vector<const sim::VideoAsset*> traffic =
        options_.dataset->TrafficAssets();
    if (instance.video_index >= 0 &&
        instance.video_index < static_cast<int>(traffic.size())) {
      int home = internal::StreamHomeNode(
          *options_.store, traffic[instance.video_index]->camera.camera_id);
      // The stream's dominant datanode, folded onto the fleet: workers
      // stand in for datanodes, so shards of one node land on one worker.
      if (home >= 0) return internal::NonNegativeMod(home, workers);
    }
  }
  // The fold must stay non-negative even for an unset (negative) video
  // index — the result addresses a per-worker share vector directly.
  return internal::NonNegativeMod(instance.video_index, workers);
}

void Coordinator::Heal() {
  if (live_workers() == static_cast<int>(slots_.size())) return;
  trace::Span heal_span("dist:heal");
  DistMetrics& metrics = DistMetrics::Get();
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i]->lost) continue;
    StatusOr<std::unique_ptr<Slot>> replacement =
        MakeSlot(static_cast<int>(i));
    if (!replacement.ok()) continue;  // Best effort; the slot stays lost.
    StatusOr<std::vector<uint8_t>> ack = (*replacement)->client->Call(
        MethodId::kSetup, EncodeWorkerSetup(options_.setup));
    if (!ack.ok()) continue;  // Replacement dies with its handle.
    slots_[i] = std::move(*replacement);
    metrics.workers_spawned.Increment();
    metrics.workers_respawned.Increment();
    metrics.workers_live.Set(live_workers());
    // Warm start: copy one surviving worker's semantic cache into the
    // replacement. Export and import share the wire encoding, so the donor's
    // payload ships verbatim.
    trace::Span span("dist:cache_ship");
    for (size_t donor = 0; donor < slots_.size(); ++donor) {
      if (donor == i || slots_[donor]->lost) continue;
      StatusOr<std::vector<uint8_t>> exported =
          slots_[donor]->client->Call(MethodId::kCacheExport, {});
      if (!exported.ok()) continue;  // Try the next donor.
      int64_t entries = CacheEntryCount(*exported);
      if (entries > 0) {
        StatusOr<std::vector<uint8_t>> imported =
            slots_[i]->client->Call(MethodId::kCacheImport, *exported);
        if (imported.ok()) {
          metrics.cache_shipped_entries.Increment(
              static_cast<double>(entries));
          metrics.cache_shipped_bytes.Increment(
              static_cast<double>(exported->size()));
        }
      }
      break;
    }
  }
}

void Coordinator::PreSeedCaches(DistBatchStats* stats) {
  if (options_.semantic_cache == nullptr) return;
  std::vector<std::shared_ptr<const queries::SemanticEntry>> entries =
      options_.semantic_cache->Snapshot();
  if (entries.empty()) return;
  trace::Span span("dist:cache_ship");
  std::vector<uint8_t> payload = EncodeCacheEntries(entries);
  DistMetrics& metrics = DistMetrics::Get();
  for (std::unique_ptr<Slot>& slot : slots_) {
    if (slot->lost) continue;
    StatusOr<std::vector<uint8_t>> ack =
        slot->client->Call(MethodId::kCacheImport, payload);
    if (!ack.ok()) continue;  // Best effort: a cold worker is still correct.
    stats->cache_entries_shipped += static_cast<int64_t>(entries.size());
    stats->cache_bytes_shipped += static_cast<int64_t>(payload.size());
    metrics.cache_shipped_entries.Increment(
        static_cast<double>(entries.size()));
    metrics.cache_shipped_bytes.Increment(static_cast<double>(payload.size()));
  }
}

StatusOr<std::vector<DistInstanceOutcome>> Coordinator::ExecuteBatch(
    const std::vector<queries::QueryInstance>& batch, systems::OutputMode mode,
    const std::string& output_dir, DistBatchStats* stats_out) {
  if (!started_) return Status::FailedPrecondition("coordinator not started");
  trace::Span batch_span("dist:execute_batch");
  DistMetrics& metrics = DistMetrics::Get();
  metrics.batches.Increment();

  BatchState state;
  state.done.assign(batch.size(), 0);
  state.results.resize(batch.size());
  state.remaining = static_cast<int>(batch.size());

  // Pre-seed every live worker's semantic cache from the coordinator-side
  // cache. No dispatch thread exists yet, so this needs no lock.
  PreSeedCaches(&state.stats);

  {
    // Partition by data locality, then split each worker's share into
    // chunks small enough to re-dispatch cheaply.
    trace::Span span("dist:partition");
    int workers = static_cast<int>(slots_.size());
    size_t chunk_size = static_cast<size_t>(
        options_.chunk_size > 0
            ? options_.chunk_size
            : std::max<int>(1, static_cast<int>(batch.size()) /
                                   std::max(1, workers * 2)));
    std::vector<std::vector<RangeItem>> shares(workers);
    for (size_t i = 0; i < batch.size(); ++i) {
      int preferred = PreferredWorker(batch[i], static_cast<int>(i));
      shares[preferred].push_back(RangeItem{static_cast<int>(i), batch[i]});
    }
    for (int w = 0; w < workers; ++w) {
      for (size_t at = 0; at < shares[w].size(); at += chunk_size) {
        Chunk chunk;
        chunk.affinity = w;
        size_t end = std::min(shares[w].size(), at + chunk_size);
        chunk.items.assign(shares[w].begin() + at, shares[w].begin() + end);
        state.queue.push_back(std::move(chunk));
      }
    }
  }

  // Declares worker `w` dead and puts its chunk back on the queue for the
  // survivors to steal; returns whether it did. With `keep_last` (an
  // injected crash) the last live worker is spared, so someone is always
  // left to finish the batch. Caller must NOT hold the state lock.
  auto fail_slot = [&](int w, Chunk& chunk, bool keep_last) {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (keep_last && live_workers() == 1) return false;
    slots_[w]->lost = true;
    slots_[w]->client->Close();
    slots_[w]->process.Kill();
    ++state.stats.workers_lost;
    metrics.workers_lost.Increment();
    metrics.workers_live.Set(live_workers());
    state.queue.push_back(std::move(chunk));
    ++state.stats.chunks_redispatched;
    metrics.chunks_redispatched.Increment();
    state.cv.notify_all();
    return true;
  };

  auto worker_loop = [&](int w) {
    const int64_t retries_before = fault::ThreadRetries();
    for (;;) {
      Chunk chunk;
      {
        std::unique_lock<std::mutex> lock(state.mutex);
        state.cv.wait(lock, [&] {
          return state.remaining == 0 || !state.queue.empty();
        });
        if (state.remaining == 0) break;
        // Prefer a chunk whose inputs live near this worker; steal
        // otherwise (an idle worker beats a local one that is busy).
        auto it = std::find_if(state.queue.begin(), state.queue.end(),
                               [&](const Chunk& c) { return c.affinity == w; });
        if (it == state.queue.end()) it = state.queue.begin();
        chunk = std::move(*it);
        state.queue.erase(it);
        ++state.stats.chunks_dispatched;
        metrics.chunks_dispatched.Increment();
      }

      // Injected worker crash: this worker dies before the dispatch lands.
      if (options_.faults != nullptr &&
          options_.faults->ShouldInject(fault::Site::kWorkerCrash) &&
          fail_slot(w, chunk, /*keep_last=*/true)) {
        break;
      }

      ExecuteRangeRequest request;
      request.mode = mode;
      request.output_dir = output_dir;
      request.items = chunk.items;
      std::vector<uint8_t> payload = EncodeExecuteRequest(request);
      std::vector<uint8_t> response;
      fault::RetryPolicy policy(fault::Site::kRpcSend, fault::RetryOptions{});
      Status sent = policy.Run([&]() -> Status {
        if (options_.faults != nullptr &&
            options_.faults->ShouldInject(fault::Site::kRpcSend)) {
          return Status::IoError("injected rpc send fault");
        }
        trace::Span span("rpc:call");
        VR_ASSIGN_OR_RETURN(response, slots_[w]->client->Call(
                                          MethodId::kExecuteRange, payload));
        return Status::Ok();
      });
      StatusOr<std::vector<InstanceResult>> decoded =
          sent.ok() ? DecodeExecuteResponse(response)
                    : StatusOr<std::vector<InstanceResult>>(sent);
      if (!decoded.ok()) {
        // Transport dead after retries, or a garbled response: the worker
        // is gone.
        fail_slot(w, chunk, /*keep_last=*/false);
        break;
      }

      // Merge by batch index. The indices come from another process, so one
      // outside the batch or already merged is dropped.
      std::lock_guard<std::mutex> lock(state.mutex);
      for (InstanceResult& result : *decoded) {
        if (result.index < 0 ||
            result.index >= static_cast<int>(state.done.size()) ||
            state.done[result.index]) {
          continue;
        }
        state.done[result.index] = 1;
        --state.remaining;
        DistInstanceOutcome& outcome = state.results[result.index];
        outcome.state = static_cast<DistInstanceOutcome::State>(result.outcome);
        outcome.resource_exhausted = result.resource_exhausted;
        outcome.error = std::move(result.error);
        outcome.stats = result.stats;
        outcome.exec_seconds = result.exec_seconds;
        outcome.worker = w;
        outcome.output = std::move(result.output);
        state.stats.worker_busy_seconds += result.exec_seconds;
        metrics.instances_executed.Increment();
      }
      state.cv.notify_all();
    }
    // Fold this thread's rpc_send retries into the batch stats.
    std::lock_guard<std::mutex> lock(state.mutex);
    state.stats.rpc_retries += fault::ThreadRetries() - retries_before;
  };

  std::vector<std::thread> threads;
  threads.reserve(slots_.size());
  for (size_t w = 0; w < slots_.size(); ++w) {
    if (slots_[w]->lost) continue;
    threads.emplace_back(worker_loop, static_cast<int>(w));
  }
  for (std::thread& thread : threads) thread.join();

  {
    trace::Span span("dist:merge");
    if (state.remaining > 0) {
      return Status::Internal(
          "distributed batch incomplete: every worker lost with " +
          std::to_string(state.remaining) + " instance(s) pending");
    }
  }
  if (stats_out != nullptr) *stats_out = state.stats;
  return std::move(state.results);
}

}  // namespace visualroad::dist
