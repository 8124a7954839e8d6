#ifndef VISUALROAD_DIST_WORKER_H_
#define VISUALROAD_DIST_WORKER_H_

#include <functional>
#include <memory>
#include <string>

#include "dist/protocol.h"
#include "dist/rpc.h"
#include "simulation/generator.h"
#include "systems/vdbms.h"

namespace visualroad::storage {
class ShardedStore;
}  // namespace visualroad::storage

namespace visualroad::dist {

/// Builds the dataset a WorkerSetup describes. Injected rather than called
/// directly so the dist library does not depend on the driver library (the
/// worker binary, which links the driver, supplies PrepareDataset).
using DatasetFactory = std::function<StatusOr<sim::Dataset>(
    const sim::CityConfig&, const sim::GeneratorOptions&)>;

/// Loads a staged dataset out of a shared store (the coordinator saved it
/// there before spawning the fleet). Injected for the same layering reason
/// as DatasetFactory: the loader lives in the driver library
/// (LoadDatasetSharded), which dist must not link.
using DatasetLoader =
    std::function<StatusOr<sim::Dataset>(const storage::ShardedStore&)>;

/// Resolves a Vdbms::name() string (or its lowercase CLI alias) to a
/// constructed engine; unknown names are InvalidArgument.
StatusOr<std::unique_ptr<systems::Vdbms>> MakeEngineByName(
    const std::string& name, const systems::EngineOptions& options);

/// Configuration for one worker server process.
struct WorkerServerOptions {
  /// Unix-domain socket to listen on.
  std::string socket_path;
  /// Dataset construction hook (required); the regeneration fallback when a
  /// Setup ships no store root.
  DatasetFactory dataset_factory;
  /// Staged-dataset hook. Required to serve a Setup whose `store_root` is
  /// set — a staged Setup arriving at a worker without a loader is refused
  /// with FailedPrecondition rather than silently regenerated.
  DatasetLoader dataset_loader;
  /// Exit the serve loop when the control connection closes without a
  /// Shutdown RPC (the coordinator died). Workers spawned by a coordinator
  /// keep this on; the reconnect tests turn it off so a worker survives a
  /// dropped connection and serves the next accept.
  bool exit_on_disconnect = false;
};

/// Runs the worker serve loop: listen, accept, handshake, serve RPCs until
/// a Shutdown request (or, with exit_on_disconnect, a dropped connection).
/// Blocking; the worker binary's whole main is this call. Engine and caches
/// are constructed at Setup time and live for the server's lifetime, so a
/// reconnecting coordinator finds the worker warm.
Status RunWorkerServer(const WorkerServerOptions& options);

/// The worker executable to spawn: $VR_WORKER_BINARY when set, else the
/// build-time path of the vr_worker target.
std::string DefaultWorkerBinary();

/// A supervised worker child process. Spawned via fork/exec; the child asks
/// the kernel for SIGKILL on parent death (PR_SET_PDEATHSIG), so workers
/// never outlive a killed coordinator or test runner. The handle reaps the
/// child on destruction — no zombies, no orphans after ctest.
class WorkerProcess {
 public:
  WorkerProcess() = default;
  WorkerProcess(WorkerProcess&& other) noexcept;
  WorkerProcess& operator=(WorkerProcess&& other) noexcept;
  ~WorkerProcess();

  /// Forks and execs `binary --socket socket_path`.
  static StatusOr<WorkerProcess> Spawn(const std::string& binary,
                                       const std::string& socket_path);

  /// SIGKILL + waitpid. Idempotent.
  void Kill();

  int pid() const { return pid_; }
  const std::string& socket_path() const { return socket_path_; }

 private:
  int pid_ = -1;  // -1 = empty/reaped.
  std::string socket_path_;
};

}  // namespace visualroad::dist

#endif  // VISUALROAD_DIST_WORKER_H_
