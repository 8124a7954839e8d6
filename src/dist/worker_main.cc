// vr_worker: the distributed execution worker process. Spawned by a
// Coordinator (DESIGN.md Section 15) as `vr_worker --socket PATH`; serves
// Setup/ExecuteRange/CacheExport/CacheImport RPCs over the Unix-domain
// socket until the coordinator disconnects or sends Shutdown. Not intended
// for manual use, but harmless to run by hand.

#include <cstdio>
#include <cstring>
#include <string>

#include "dist/worker.h"
#include "driver/dataset_io.h"
#include "driver/datasets.h"

namespace {

int Run(int argc, char** argv) {
  using namespace visualroad;
  std::string socket_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: vr_worker --socket PATH\n");
      return 0;
    } else {
      std::fprintf(stderr, "vr_worker: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "vr_worker: --socket PATH is required\n");
    return 2;
  }

  dist::WorkerServerOptions options;
  options.socket_path = socket_path;
  // A dropped control connection means the coordinator died; exit rather
  // than linger as an orphan (belt to PR_SET_PDEATHSIG's suspenders).
  options.exit_on_disconnect = true;
  options.dataset_factory = [](const sim::CityConfig& config,
                               const sim::GeneratorOptions& generator_options) {
    return driver::PrepareDataset(config, generator_options);
  };
  // Staged setups skip regeneration entirely: the corpus is read back from
  // the shared store the coordinator saved it into.
  options.dataset_loader = [](const storage::ShardedStore& store) {
    return driver::LoadDatasetSharded(store);
  };
  Status status = dist::RunWorkerServer(options);
  if (!status.ok()) {
    std::fprintf(stderr, "vr_worker: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
