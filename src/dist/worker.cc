#include "dist/worker.h"

#include <signal.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <utility>

#include "common/metrics.h"
#include "common/serialize.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "queries/semantic_cache.h"
#include "storage/sharded_store.h"
#include "storage/vss.h"

#ifndef VR_WORKER_BINARY_DEFAULT
#define VR_WORKER_BINARY_DEFAULT ""
#endif

namespace visualroad::dist {

StatusOr<std::unique_ptr<systems::Vdbms>> MakeEngineByName(
    const std::string& name, const systems::EngineOptions& options) {
  if (name == "BatchEngine" || name == "batch") {
    return systems::MakeBatchEngine(options);
  }
  if (name == "PipelineEngine" || name == "pipeline") {
    return systems::MakePipelineEngine(options);
  }
  if (name == "CascadeEngine" || name == "cascade") {
    return systems::MakeCascadeEngine(options);
  }
  return Status::InvalidArgument("unknown engine '" + name +
                                 "' (batch|pipeline|cascade)");
}

std::string DefaultWorkerBinary() {
  const char* env = std::getenv("VR_WORKER_BINARY");
  if (env != nullptr && env[0] != '\0') return env;
  return VR_WORKER_BINARY_DEFAULT;
}

namespace {

struct WorkerMetrics {
  metrics::Counter& stagings;
  metrics::Counter& regenerations;

  static WorkerMetrics& Get() {
    static WorkerMetrics* instruments = [] {
      metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
      return new WorkerMetrics{
          registry.GetCounter(
              "vr_dist_dataset_stagings_total",
              "Worker setups that attached to a staged shared store instead "
              "of regenerating the dataset"),
          registry.GetCounter(
              "vr_dist_dataset_regenerations_total",
              "Worker setups that regenerated the dataset from configuration "
              "(no store root shipped)"),
      };
    }();
    return *instruments;
  }
};

/// The worker's per-process execution state, built at Setup time. The store
/// and VSS handle (staged mode only) are declared before the caches and
/// engine that borrow them, so destruction unwinds borrowers first.
struct WorkerState {
  sim::Dataset dataset;
  std::unique_ptr<storage::ShardedStore> store;
  std::unique_ptr<storage::VideoStorageService> vss;
  std::unique_ptr<queries::SemanticCache> semantic_cache;
  std::unique_ptr<systems::Vdbms> engine;
};

StatusOr<std::vector<uint8_t>> HandleSetup(const WorkerServerOptions& options,
                                           const std::vector<uint8_t>& payload,
                                           std::unique_ptr<WorkerState>& state) {
  VR_ASSIGN_OR_RETURN(WorkerSetup setup, DecodeWorkerSetup(payload));
  auto next = std::make_unique<WorkerState>();
  systems::EngineOptions engine_options = setup.engine_options;
  if (!setup.store_root.empty()) {
    // Storage staging: attach to the coordinator's store and read the corpus
    // back instead of regenerating pixels. Strictly read-only — store
    // manifests are per-process in-memory state, so a worker writing through
    // its own handle would race the coordinator's view of the same root.
    TRACE_SPAN("dist:stage");
    if (!options.dataset_loader) {
      return Status::FailedPrecondition(
          "staged setup but worker has no dataset loader");
    }
    storage::StoreOptions store_options;
    store_options.root = setup.store_root;
    store_options.num_nodes = setup.store_nodes;
    store_options.replication = setup.store_replication;
    store_options.block_size = setup.store_block_size;
    store_options.metrics_label = "worker";
    VR_ASSIGN_OR_RETURN(storage::ShardedStore store,
                        storage::ShardedStore::Open(store_options));
    next->store = std::make_unique<storage::ShardedStore>(std::move(store));
    VR_ASSIGN_OR_RETURN(next->dataset, options.dataset_loader(*next->store));
    storage::VssOptions vss_options;
    vss_options.store = next->store.get();
    VR_ASSIGN_OR_RETURN(next->vss, storage::VideoStorageService::Open(vss_options));
    engine_options.vss = next->vss.get();
    WorkerMetrics::Get().stagings.Increment();
  } else {
    sim::GeneratorOptions generator_options;
    generator_options.codec = setup.codec;
    VR_ASSIGN_OR_RETURN(
        next->dataset,
        options.dataset_factory(setup.config, generator_options));
    WorkerMetrics::Get().regenerations.Increment();
  }
  // A worker-local semantic result store: cross-instance reuse within this
  // worker, byte-identical results by the cache's contract.
  next->semantic_cache = std::make_unique<queries::SemanticCache>();
  engine_options.semantic_cache = next->semantic_cache.get();
  VR_ASSIGN_OR_RETURN(next->engine,
                      MakeEngineByName(setup.engine, engine_options));
  state = std::move(next);
  return std::vector<uint8_t>{};
}

StatusOr<std::vector<uint8_t>> HandleExecuteRange(
    const std::vector<uint8_t>& payload, WorkerState& state) {
  VR_ASSIGN_OR_RETURN(ExecuteRangeRequest request,
                      DecodeExecuteRequest(payload));
  std::vector<InstanceResult> results;
  results.reserve(request.items.size());
  for (const RangeItem& item : request.items) {
    InstanceResult result;
    result.index = item.index;
    Stopwatch stopwatch;
    StatusOr<systems::QueryOutput> output =
        state.engine->Execute(item.instance, state.dataset, request.mode,
                              request.output_dir, &result.stats);
    result.exec_seconds = stopwatch.ElapsedSeconds();
    if (output.ok()) {
      result.outcome = InstanceResult::kSucceeded;
      result.output = std::move(output).value();
    } else if (output.status().code() == StatusCode::kUnimplemented) {
      result.outcome = InstanceResult::kUnsupported;
    } else {
      result.outcome = InstanceResult::kFailed;
      result.resource_exhausted =
          output.status().code() == StatusCode::kResourceExhausted;
      result.error = output.status().ToString();
    }
    results.push_back(std::move(result));
  }
  return EncodeExecuteResponse(results);
}

Status ValidateHello(const std::vector<uint8_t>& payload) {
  ByteCursor cursor(payload);
  uint32_t magic = cursor.U32();
  uint8_t version = cursor.U8();
  if (!cursor.ok() || magic != kRpcMagic) {
    return Status::DataLoss("malformed hello request");
  }
  if (version != kRpcVersion) {
    return Status::FailedPrecondition("rpc version mismatch: client speaks v" +
                                      std::to_string(version));
  }
  return Status::Ok();
}

/// Serves one accepted connection until the peer disconnects or asks for
/// shutdown. Returns true when the server should exit its accept loop.
bool ServeConnection(const WorkerServerOptions& options,
                     RpcConnection connection,
                     std::unique_ptr<WorkerState>& state) {
  for (;;) {
    StatusOr<Frame> received = connection.RecvFrame(std::chrono::milliseconds(0));
    if (!received.ok()) {
      // EOF or a corrupt stream; drop the connection. With
      // exit_on_disconnect the coordinator is gone, so exit entirely.
      return options.exit_on_disconnect;
    }
    Frame& request = *received;
    Frame response;
    response.correlation_id = request.correlation_id;
    response.method = request.method;

    StatusOr<std::vector<uint8_t>> result = [&]() ->
        StatusOr<std::vector<uint8_t>> {
      switch (request.method) {
        case MethodId::kHello: {
          VR_RETURN_IF_ERROR(ValidateHello(request.payload));
          ByteWriter hello;
          hello.U8(kRpcVersion);
          hello.U64(static_cast<uint64_t>(::getpid()));
          return hello.Take();
        }
        case MethodId::kSetup:
          return HandleSetup(options, request.payload, state);
        case MethodId::kExecuteRange: {
          if (state == nullptr) {
            return Status::FailedPrecondition(
                "execute-range before setup: worker has no engine");
          }
          return HandleExecuteRange(request.payload, *state);
        }
        case MethodId::kCacheExport: {
          // A worker not yet set up exports the empty set rather than
          // erroring: the coordinator treats any live worker as a potential
          // warm-start donor.
          if (state == nullptr) return EncodeCacheEntries({});
          return EncodeCacheEntries(state->semantic_cache->Snapshot());
        }
        case MethodId::kCacheImport: {
          VR_ASSIGN_OR_RETURN(std::vector<queries::SemanticEntry> entries,
                              DecodeCacheEntries(request.payload));
          // Dropped silently before setup — pre-seeding is an optimisation,
          // never a correctness requirement.
          if (state != nullptr) {
            for (queries::SemanticEntry& entry : entries) {
              state->semantic_cache->Insert(std::move(entry));
            }
          }
          return std::vector<uint8_t>{};
        }
        case MethodId::kShutdown:
          return std::vector<uint8_t>{};
      }
      return Status::InvalidArgument("unknown rpc method");
    }();

    if (result.ok()) {
      response.type = FrameType::kResponseOk;
      response.payload = std::move(result).value();
    } else {
      response.type = FrameType::kResponseError;
      response.payload = EncodeStatusPayload(result.status());
    }
    if (!connection.SendFrame(response).ok()) {
      return options.exit_on_disconnect;
    }
    if (request.method == MethodId::kShutdown) return true;
  }
}

}  // namespace

Status RunWorkerServer(const WorkerServerOptions& options) {
  if (!options.dataset_factory) {
    return Status::InvalidArgument("worker server needs a dataset factory");
  }
  VR_ASSIGN_OR_RETURN(RpcListener listener,
                      RpcListener::ListenUnix(options.socket_path));
  std::unique_ptr<WorkerState> state;
  for (;;) {
    VR_ASSIGN_OR_RETURN(RpcConnection connection, listener.Accept());
    // State survives across connections: a coordinator that reconnects after
    // a dropped link finds the dataset and engine already built.
    if (ServeConnection(options, std::move(connection), state)) break;
  }
  return Status::Ok();
}

WorkerProcess::WorkerProcess(WorkerProcess&& other) noexcept
    : pid_(other.pid_), socket_path_(std::move(other.socket_path_)) {
  other.pid_ = -1;
}

WorkerProcess& WorkerProcess::operator=(WorkerProcess&& other) noexcept {
  if (this != &other) {
    Kill();
    pid_ = other.pid_;
    socket_path_ = std::move(other.socket_path_);
    other.pid_ = -1;
  }
  return *this;
}

WorkerProcess::~WorkerProcess() { Kill(); }

StatusOr<WorkerProcess> WorkerProcess::Spawn(const std::string& binary,
                                             const std::string& socket_path) {
  if (binary.empty()) {
    return Status::InvalidArgument(
        "no worker binary: set VR_WORKER_BINARY or build the vr_worker target");
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IoError(std::string("fork: ") + ::strerror(errno));
  }
  if (pid == 0) {
    // Child: die with the parent even if the parent is SIGKILLed (a ctest
    // timeout kills the test runner without unwinding destructors).
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() == 1) _exit(125);  // Parent already gone before prctl.
    ::execl(binary.c_str(), binary.c_str(), "--socket", socket_path.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed.
  }
  WorkerProcess process;
  process.pid_ = pid;
  process.socket_path_ = socket_path;
  return process;
}

void WorkerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  // A SIGKILLed worker never removes its socket file; do it for it so a
  // killed fleet leaves nothing behind in the socket directory.
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
}

}  // namespace visualroad::dist
