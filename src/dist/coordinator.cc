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
  metrics::Counter& straggler_redispatches;
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
          registry.GetCounter(
              "vr_dist_straggler_redispatches_total",
              "Re-dispatches triggered by the straggler detector"),
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
  /// Straggler re-dispatches so far; past a small cap the chunk runs with a
  /// blocking call, so a uniformly slow fleet can never livelock on
  /// mutual re-dispatch.
  int straggles = 0;
  /// Worker a straggler re-dispatch must land away from: the one still busy
  /// executing the timed-out request. -1 = no restriction. Honoured only
  /// while another worker is alive (see internal::MayTakeChunk).
  int avoid = -1;
  std::vector<RangeItem> items;
};

/// Shared state of one ExecuteBatch call, guarded by `mutex`.
struct BatchState {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Chunk> queue;
  int in_flight = 0;
  int remaining = 0;
  std::vector<char> done;
  std::vector<DistInstanceOutcome> results;
  DistBatchStats stats;
};

constexpr int kMaxStraggles = 2;

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

bool MayTakeChunk(int avoid, int worker, int other_live_workers) {
  return avoid != worker || other_live_workers == 0;
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
      StatusOr<std::vector<uint8_t>> response = slots_[i]->client->Call(
          MethodId::kSetup, payload, std::chrono::milliseconds(0));
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
  int live = 0;
  for (const std::unique_ptr<Slot>& slot : slots_) {
    if (!slot->lost && slot->client != nullptr && slot->client->open()) ++live;
  }
  return live;
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

void Coordinator::HealFleet(DistBatchStats* stats) {
  DistMetrics& metrics = DistMetrics::Get();
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i]->lost) continue;
    StatusOr<std::unique_ptr<Slot>> replacement =
        MakeSlot(static_cast<int>(i));
    if (!replacement.ok()) continue;  // Best effort; the slot stays lost.
    std::vector<uint8_t> setup_payload = EncodeWorkerSetup(options_.setup);
    StatusOr<std::vector<uint8_t>> ack = (*replacement)->client->Call(
        MethodId::kSetup, setup_payload, std::chrono::milliseconds(0));
    if (!ack.ok()) continue;  // Replacement dies with its handle.
    slots_[i] = std::move(*replacement);
    ++stats->workers_respawned;
    metrics.workers_spawned.Increment();
    metrics.workers_respawned.Increment();
    metrics.workers_live.Set(live_workers());
    // Warm start: copy one surviving worker's semantic cache into the
    // replacement. Export and import share the wire encoding, so the donor's
    // payload ships verbatim.
    trace::Span span("dist:cache_ship");
    for (size_t donor = 0; donor < slots_.size(); ++donor) {
      if (donor == i || slots_[donor]->lost) continue;
      StatusOr<std::vector<uint8_t>> exported = slots_[donor]->client->Call(
          MethodId::kCacheExport, {}, std::chrono::milliseconds(0));
      if (!exported.ok()) continue;  // Try the next donor.
      int64_t entries = CacheEntryCount(*exported);
      if (entries > 0) {
        StatusOr<std::vector<uint8_t>> imported = slots_[i]->client->Call(
            MethodId::kCacheImport, *exported, std::chrono::milliseconds(0));
        if (imported.ok()) {
          stats->cache_entries_shipped += entries;
          stats->cache_bytes_shipped +=
              static_cast<int64_t>(exported->size());
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
    if (slot->lost || slot->client == nullptr || !slot->client->open()) {
      continue;
    }
    StatusOr<std::vector<uint8_t>> ack = slot->client->Call(
        MethodId::kCacheImport, payload, std::chrono::milliseconds(0));
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

  // Fleet maintenance before dispatch: respawn slots lost in earlier
  // batches, then pre-seed every live worker's semantic cache from the
  // coordinator-side cache. Both are single-threaded here (no dispatch
  // threads exist yet), so slot surgery needs no lock.
  HealFleet(&state.stats);
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

  // Re-enqueues a chunk under the state lock and wakes every worker thread.
  auto requeue = [&](Chunk chunk, bool straggler) {
    state.queue.push_back(std::move(chunk));
    --state.in_flight;
    ++state.stats.chunks_redispatched;
    metrics.chunks_redispatched.Increment();
    if (straggler) {
      ++state.stats.straggler_redispatches;
      metrics.straggler_redispatches.Increment();
    }
    state.cv.notify_all();
  };

  // Declares worker `w` dead: its chunk goes back on the queue for the
  // survivors to steal. Caller must NOT hold the state lock.
  auto fail_slot = [&](int w, Chunk chunk) {
    std::lock_guard<std::mutex> lock(state.mutex);
    slots_[w]->lost = true;
    slots_[w]->client->Close();
    slots_[w]->process.Kill();
    ++state.stats.workers_lost;
    metrics.workers_lost.Increment();
    metrics.workers_live.Set(live_workers());
    requeue(std::move(chunk), /*straggler=*/false);
  };

  auto worker_loop = [&](int w) {
    int64_t thread_retries_base = fault::ThreadRetries();
    // Folds this thread's rpc_send retry count into the batch stats; runs
    // on every exit path.
    auto account_retries = [&] {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.stats.rpc_retries += fault::ThreadRetries() - thread_retries_base;
    };
    for (;;) {
      Chunk chunk;
      int live = 0;
      {
        std::unique_lock<std::mutex> lock(state.mutex);
        // Eligibility honours straggler avoid-tags: a re-dispatched chunk
        // must land on a different live worker, not boomerang back to the
        // one still busy on the timed-out request. Recomputed inside the
        // wait because `lost` flips while we sleep.
        auto other_live = [&] {
          int n = 0;
          for (size_t i = 0; i < slots_.size(); ++i) {
            if (static_cast<int>(i) != w && !slots_[i]->lost) ++n;
          }
          return n;
        };
        auto eligible = [&](const Chunk& c) {
          return internal::MayTakeChunk(c.avoid, w, other_live());
        };
        state.cv.wait(lock, [&] {
          return state.remaining == 0 ||
                 std::any_of(state.queue.begin(), state.queue.end(), eligible);
        });
        if (state.remaining == 0) break;
        // Prefer a chunk whose inputs live near this worker; steal
        // otherwise (an idle worker beats a local one that is busy).
        auto it = std::find_if(
            state.queue.begin(), state.queue.end(),
            [&](const Chunk& c) { return c.affinity == w && eligible(c); });
        if (it == state.queue.end()) {
          it = std::find_if(state.queue.begin(), state.queue.end(), eligible);
        }
        chunk = std::move(*it);
        state.queue.erase(it);
        ++state.in_flight;
        state.stats.in_flight_peak = std::max<int64_t>(
            state.stats.in_flight_peak, state.in_flight);
        ++state.stats.chunks_dispatched;
        metrics.chunks_dispatched.Increment();
        for (const std::unique_ptr<Slot>& slot : slots_) {
          if (!slot->lost) ++live;
        }
      }

      // Injected worker crash: this worker dies before the dispatch lands.
      // The guard re-checks survivors under the lock so concurrent crashes
      // can never take the last live worker.
      if (options_.faults != nullptr &&
          options_.faults->ShouldInject(fault::Site::kWorkerCrash)) {
        bool died = false;
        {
          std::lock_guard<std::mutex> lock(state.mutex);
          int live_others = 0;
          for (size_t i = 0; i < slots_.size(); ++i) {
            if (static_cast<int>(i) != w && !slots_[i]->lost) ++live_others;
          }
          if (live_others > 0) {
            slots_[w]->lost = true;
            slots_[w]->client->Close();
            slots_[w]->process.Kill();
            ++state.stats.workers_lost;
            metrics.workers_lost.Increment();
            metrics.workers_live.Set(live_workers());
            requeue(std::move(chunk), /*straggler=*/false);
            died = true;
          }
        }
        if (died) {
          account_retries();
          return;
        }
      }

      ExecuteRangeRequest request;
      request.mode = mode;
      request.output_dir = output_dir;
      request.items = chunk.items;
      std::vector<uint8_t> payload = EncodeExecuteRequest(request);
      // Straggler detection needs someone else to pick the work up: the
      // last live worker — and a chunk that already straggled past the cap
      // — always get a blocking call.
      std::chrono::milliseconds timeout =
          (live > 1 && chunk.straggles < kMaxStraggles)
              ? options_.call_timeout
              : std::chrono::milliseconds(0);

      std::vector<uint8_t> response_bytes;
      bool straggled = false;
      fault::RetryPolicy policy(fault::Site::kRpcSend, options_.rpc_retry);
      Status sent = policy.Run([&]() -> Status {
        if (options_.faults != nullptr &&
            options_.faults->ShouldInject(fault::Site::kRpcSend)) {
          return Status::IoError("injected rpc send fault");
        }
        trace::Span span("rpc:call");
        StatusOr<std::vector<uint8_t>> response =
            slots_[w]->client->Call(MethodId::kExecuteRange, payload, timeout);
        if (response.ok()) {
          response_bytes = std::move(response).value();
          return Status::Ok();
        }
        if (response.status().code() == StatusCode::kIoError &&
            response.status().message().find("timeout") != std::string::npos) {
          // Straggler: hand the chunk to someone else. Non-retryable so
          // the policy stops here; the connection stays usable because the
          // client discards the late response by correlation id.
          straggled = true;
          return Status::FailedPrecondition("rpc response deadline exceeded");
        }
        return response.status();
      });

      if (straggled) {
        std::lock_guard<std::mutex> lock(state.mutex);
        ++chunk.straggles;
        // This worker is still chewing on the timed-out request; steer the
        // re-dispatch to someone else.
        chunk.avoid = w;
        requeue(std::move(chunk), /*straggler=*/true);
        continue;
      }
      if (!sent.ok()) {
        if (sent.code() == StatusCode::kFailedPrecondition) {
          // The worker refused an already-expired request; it is healthy,
          // the work just needs a fresh deadline.
          std::lock_guard<std::mutex> lock(state.mutex);
          ++chunk.straggles;
          chunk.avoid = w;
          requeue(std::move(chunk), /*straggler=*/true);
          continue;
        }
        // Transport dead after retries: the worker is gone.
        fail_slot(w, std::move(chunk));
        account_retries();
        return;
      }

      StatusOr<std::vector<InstanceResult>> decoded =
          DecodeExecuteResponse(response_bytes);
      if (!decoded.ok()) {
        fail_slot(w, std::move(chunk));
        account_retries();
        return;
      }

      {
        // Merge: first writer wins per instance (a straggler's chunk may
        // complete twice, once per dispatch).
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
          outcome.state =
              static_cast<DistInstanceOutcome::State>(result.outcome);
          outcome.resource_exhausted = result.resource_exhausted;
          outcome.error = std::move(result.error);
          outcome.stats = result.stats;
          outcome.exec_seconds = result.exec_seconds;
          outcome.worker = w;
          outcome.output = std::move(result.output);
          state.stats.worker_busy_seconds += result.exec_seconds;
          metrics.instances_executed.Increment();
        }
        --state.in_flight;
        state.cv.notify_all();
      }
    }
    account_retries();
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
