// The `vcd` command-line driver: generates a Visual City dataset, runs the
// benchmark query suite on one engine, and prints the standard report. The
// observability flags make it the quickest way to inspect a run:
//
//   vcd --scale 1 --duration 1 --queries Q1-Q4 --trace out.json --metrics -
//
// writes a chrome://tracing file covering the whole run and dumps every
// registered Prometheus metric to stdout (see docs/OBSERVABILITY.md).

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.h"

#include "common/metrics.h"
#include "common/trace.h"
#include "driver/datasets.h"
#include "driver/report.h"
#include "driver/vcd.h"
#include "storage/vss.h"

namespace visualroad::driver {
namespace {

void PrintUsage(const char* argv0) {
  std::printf(
      "Usage: %s [options]\n"
      "\n"
      "Dataset:\n"
      "  --scale N         City scale factor L (default 1)\n"
      "  --duration SECS   Video duration per camera (default 1.0)\n"
      "  --width N         Camera width (default 240)\n"
      "  --height N        Camera height (default 136)\n"
      "  --seed N          Dataset + sampler seed (default 0x5EED)\n"
      "\n"
      "Execution:\n"
      "  --engine NAME     batch | pipeline | cascade (default pipeline)\n"
      "  --queries LIST    Comma list and/or ranges over submission order,\n"
      "                    e.g. Q1,Q3 or Q1-Q4 or Q2c (default: all)\n"
      "  --batch-size N    Override the 4L batch-size rule\n"
      "  --parallel N      Driver threads for concurrent instances\n"
      "  --workers N       Distributed scale-out (DESIGN.md Section 15):\n"
      "                    shard each batch across N worker processes over\n"
      "                    local-socket RPC. Offline only; results are\n"
      "                    byte-identical to N=0. With --storage, workers\n"
      "                    stage their dataset from the shared store instead\n"
      "                    of regenerating it; with --semcache, cached\n"
      "                    entries pre-seed the workers before each batch\n"
      "  --no-validate     Skip reference validation\n"
      "  --streaming       Discard results instead of writing containers\n"
      "  --output-dir DIR  Persist write-mode results under DIR\n"
      "  --storage DIR     Stage inputs into the video storage service\n"
      "                    rooted at DIR and read them back through it\n"
      "                    (DESIGN.md Section 10) instead of from memory\n"
      "  --semcache        Materialize inference results in the semantic\n"
      "                    result store (DESIGN.md Section 14): repeated\n"
      "                    detection queries are answered from cache instead\n"
      "                    of re-running decode+CNN. With --storage, cached\n"
      "                    entries persist through the store across runs\n"
      "  --explain         Print each batch's execution plan before running\n"
      "                    it: pushdown window, semantic-cache temperature,\n"
      "                    and the stages that run, with the prefilters\n"
      "                    their measured selectivity disabled\n"
      "  --faults NAME     Deterministic fault injection profile (none |\n"
      "                    flaky | lossy | cluster; DESIGN.md\n"
      "                    Section 11). Implies online execution at an\n"
      "                    accelerated rate and storage-backed reads (without\n"
      "                    --storage, a temp store removed at exit);\n"
      "                    the report gains a Faults column with retries and\n"
      "                    degraded frames. With --workers N the run stays\n"
      "                    offline and the injector drives the rpc_send and\n"
      "                    worker_crash sites instead (profile: cluster)\n"
      "\n"
      "Serving (DESIGN.md Section 12):\n"
      "  --serve           Serving mode: replay an open-loop multi-tenant\n"
      "                    schedule through the async query server instead\n"
      "                    of running the batch benchmark\n"
      "  --tenants N       Tenants submitting traffic (default 4)\n"
      "  --rate R          Per-tenant offered batches/second (default 2)\n"
      "  --serve-seconds S Schedule length in offered seconds (default 5)\n"
      "  --serve-workers N Server executor threads (default 4)\n"
      "\n"
      "Observability (docs/OBSERVABILITY.md):\n"
      "  --trace PATH      Record spans; write Chrome trace JSON to PATH\n"
      "  --metrics PATH    Dump the Prometheus metrics registry to PATH\n"
      "                    after the run ('-' for stdout)\n",
      argv0);
}

/// Canonicalises a query token for matching: lowercase, parens stripped, so
/// "Q2(c)", "q2c", and "Q2C" all compare equal.
std::string CanonicalQueryToken(const std::string& token) {
  std::string out;
  for (char c : token) {
    if (c == '(' || c == ')' || c == ' ') continue;
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

bool LookupQuery(const std::string& token, queries::QueryId& id) {
  std::string canonical = CanonicalQueryToken(token);
  for (queries::QueryId candidate : queries::AllQueries()) {
    if (CanonicalQueryToken(queries::QueryName(candidate)) == canonical) {
      id = candidate;
      return true;
    }
  }
  return false;
}

/// Parses "Q1,Q3-Q5,Q6b" into query ids; ranges follow submission order.
bool ParseQueryList(const std::string& spec, std::vector<queries::QueryId>& out) {
  const auto& all = queries::AllQueries();
  auto index_of = [&](queries::QueryId id) {
    for (size_t i = 0; i < all.size(); ++i) {
      if (all[i] == id) return static_cast<int>(i);
    }
    return -1;
  };
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (item.empty()) continue;
    size_t dash = item.find('-');
    if (dash != std::string::npos) {
      queries::QueryId first, last;
      if (!LookupQuery(item.substr(0, dash), first) ||
          !LookupQuery(item.substr(dash + 1), last)) {
        return false;
      }
      int lo = index_of(first), hi = index_of(last);
      if (lo < 0 || hi < lo) return false;
      for (int i = lo; i <= hi; ++i) out.push_back(all[i]);
    } else {
      queries::QueryId id;
      if (!LookupQuery(item, id)) return false;
      out.push_back(id);
    }
  }
  return !out.empty();
}

Status DumpMetrics(const std::string& path) {
  std::string text = metrics::MetricsRegistry::Global().PrometheusText();
  if (path == "-") {
    std::printf("%s", text.c_str());
    return Status::Ok();
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open metrics path: " + path);
  out << text;
  if (!out.flush()) return Status::IoError("cannot write metrics: " + path);
  return Status::Ok();
}

/// A directory the run made for itself, removed with everything in it when
/// the guard goes out of scope. Empty `path` = nothing to remove.
struct OwnedDirectory {
  std::string path;
  ~OwnedDirectory() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

int Run(int argc, char** argv) {
  sim::CityConfig config;
  config.width = 240;
  config.height = 136;
  config.duration_seconds = 1.0;
  config.fps = 15.0;
  config.seed = 0x5EED;

  VcdOptions vcd_options;
  vcd_options.seed = config.seed;
  std::string engine_name = "pipeline";
  std::string query_spec;
  std::string metrics_path;
  std::string storage_dir;
  std::string faults_name;
  bool semcache = false;
  bool explain = false;
  bool serve = false;
  ServingRunOptions serving;
  serving.traffic.tenants = 4;
  serving.traffic.arrivals_per_second = 2.0;
  serving.traffic.duration_seconds = 5.0;

  auto next_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", flag);
      return nullptr;
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    } else if (arg == "--scale") {
      if (!(value = next_value(i, "--scale"))) return 2;
      config.scale_factor = std::atoi(value);
    } else if (arg == "--duration") {
      if (!(value = next_value(i, "--duration"))) return 2;
      config.duration_seconds = std::atof(value);
    } else if (arg == "--width") {
      if (!(value = next_value(i, "--width"))) return 2;
      config.width = std::atoi(value);
    } else if (arg == "--height") {
      if (!(value = next_value(i, "--height"))) return 2;
      config.height = std::atoi(value);
    } else if (arg == "--seed") {
      if (!(value = next_value(i, "--seed"))) return 2;
      config.seed = std::strtoull(value, nullptr, 0);
      vcd_options.seed = config.seed;
    } else if (arg == "--engine") {
      if (!(value = next_value(i, "--engine"))) return 2;
      engine_name = value;
    } else if (arg == "--queries") {
      if (!(value = next_value(i, "--queries"))) return 2;
      query_spec = value;
    } else if (arg == "--batch-size") {
      if (!(value = next_value(i, "--batch-size"))) return 2;
      vcd_options.batch_size_override = std::atoi(value);
    } else if (arg == "--parallel") {
      if (!(value = next_value(i, "--parallel"))) return 2;
      vcd_options.parallel_instances = std::atoi(value);
    } else if (arg == "--workers") {
      if (!(value = next_value(i, "--workers"))) return 2;
      vcd_options.workers = std::atoi(value);
    } else if (arg == "--no-validate") {
      vcd_options.validate = false;
    } else if (arg == "--streaming") {
      vcd_options.output_mode = systems::OutputMode::kStreaming;
    } else if (arg == "--output-dir") {
      if (!(value = next_value(i, "--output-dir"))) return 2;
      vcd_options.output_dir = value;
    } else if (arg == "--storage") {
      if (!(value = next_value(i, "--storage"))) return 2;
      storage_dir = value;
    } else if (arg == "--faults") {
      if (!(value = next_value(i, "--faults"))) return 2;
      faults_name = value;
    } else if (arg == "--semcache") {
      semcache = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--tenants") {
      if (!(value = next_value(i, "--tenants"))) return 2;
      serving.traffic.tenants = std::atoi(value);
    } else if (arg == "--rate") {
      if (!(value = next_value(i, "--rate"))) return 2;
      serving.traffic.arrivals_per_second = std::atof(value);
    } else if (arg == "--serve-seconds") {
      if (!(value = next_value(i, "--serve-seconds"))) return 2;
      serving.traffic.duration_seconds = std::atof(value);
    } else if (arg == "--serve-workers") {
      if (!(value = next_value(i, "--serve-workers"))) return 2;
      serving.server.worker_threads = std::atoi(value);
    } else if (arg == "--trace") {
      if (!(value = next_value(i, "--trace"))) return 2;
      vcd_options.trace = true;
      vcd_options.trace_path = value;
    } else if (arg == "--metrics") {
      if (!(value = next_value(i, "--metrics"))) return 2;
      metrics_path = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n\n", arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    }
  }

  std::vector<queries::QueryId> query_ids(queries::AllQueries().begin(),
                                          queries::AllQueries().end());
  if (!query_spec.empty()) {
    query_ids.clear();
    if (!ParseQueryList(query_spec, query_ids)) {
      std::fprintf(stderr, "cannot parse --queries '%s'\n", query_spec.c_str());
      return 2;
    }
  }

  // Fault injection: resolve the profile, then run online (the channel
  // faults act on the throttled feed) against storage-backed reads (the
  // store faults act on the read path). One injector seeded with
  // the run seed drives every site, so reruns reproduce the schedule.
  // Without --storage the store goes into a directory of this process's
  // own, declared before the store so it is removed after the store closes,
  // on every return. A --storage DIR the user gave is never removed.
  OwnedDirectory temporary_storage;
  std::unique_ptr<fault::FaultInjector> faults;
  if (!faults_name.empty()) {
    auto profile = fault::ProfileByName(faults_name);
    if (!profile.ok()) {
      std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
      return 2;
    }
    faults = std::make_unique<fault::FaultInjector>(*profile, config.seed);
    vcd_options.faults = faults.get();
    if (vcd_options.workers > 0) {
      // Distributed runs stay offline: the injector's rpc_send and
      // worker_crash sites act on the coordinator's dispatch path, not the
      // ingest feed, and workers > 0 rejects online mode.
      std::printf("Fault profile '%s': driving the distributed dispatch "
                  "sites (%d workers)\n",
                  faults_name.c_str(), vcd_options.workers);
    } else {
      vcd_options.execution_mode = systems::ExecutionMode::kOnline;
      // Accelerate simulated real time so a faulted run stays test-sized;
      // the pacing semantics (and the fault schedule) are unchanged.
      vcd_options.online_rate_multiplier = 200.0;
      if (storage_dir.empty()) {
        storage_dir = (std::filesystem::temp_directory_path() /
                       ("vcd-faults-" + std::to_string(config.seed) + "-" +
                        std::to_string(::getpid())))
                          .string();
        temporary_storage.path = storage_dir;
        // Left by an earlier process that had this pid and was killed.
        std::error_code ec;
        std::filesystem::remove_all(storage_dir, ec);
        std::printf("Fault profile '%s': using temporary storage at %s\n",
                    faults_name.c_str(), storage_dir.c_str());
      }
    }
  }

  std::unique_ptr<storage::ShardedStore> store;
  std::unique_ptr<storage::VideoStorageService> vss;
  if (!storage_dir.empty()) {
    storage::StoreOptions store_options;
    store_options.root = storage_dir;
    store_options.faults = faults.get();
    if (faults != nullptr) {
      // Single replica: an injected flap cannot fail over, it has to retry,
      // which is the behavior a fault run exists to demonstrate. The larger
      // attempt budget keeps the giveup odds negligible under `flaky`
      // (p=.35 per attempt), so every query still completes.
      store_options.replication = 1;
      store_options.read_retry.max_attempts = 10;
    }
    auto opened = storage::ShardedStore::Open(store_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open storage at %s: %s\n",
                   storage_dir.c_str(), opened.status().ToString().c_str());
      return 1;
    }
    store = std::make_unique<storage::ShardedStore>(std::move(opened).value());
    storage::VssOptions vss_options;
    vss_options.store = store.get();
    if (faults != nullptr) {
      // The resident cache would absorb every read after staging and the
      // store fault sites would never fire; a fault run is about the read
      // path, so force each read down to the sharded store.
      vss_options.resident_bytes = 0;
    }
    auto service = storage::VideoStorageService::Open(vss_options);
    if (!service.ok()) {
      std::fprintf(stderr, "cannot open storage service: %s\n",
                   service.status().ToString().c_str());
      return 1;
    }
    vss = std::move(service).value();
    vcd_options.storage = vss.get();
  }

  // Semantic result store: materialized inference outputs shared across
  // every query this process runs. With storage configured the store doubles
  // as the persistence substrate, so a later run starts warm.
  std::unique_ptr<queries::SemanticCache> semantic_cache;
  if (semcache) {
    queries::SemanticCacheOptions semcache_options;
    semcache_options.store = store.get();
    semantic_cache = std::make_unique<queries::SemanticCache>(semcache_options);
    if (store != nullptr) {
      Status loaded = semantic_cache->LoadPersisted();
      if (!loaded.ok()) {
        std::fprintf(stderr, "warning: semantic cache load failed: %s\n",
                     loaded.ToString().c_str());
      } else if (semantic_cache->stats().loaded > 0) {
        std::printf("Semantic cache: recovered %lld persisted entries\n",
                    static_cast<long long>(semantic_cache->stats().loaded));
      }
    }
  }
  vcd_options.semantic_cache = semantic_cache.get();
  vcd_options.explain = explain;

  systems::EngineOptions engine_options;
  engine_options.vss = vss.get();
  engine_options.semantic_cache = semantic_cache.get();
  std::unique_ptr<systems::Vdbms> engine;
  if (engine_name == "batch") {
    engine = systems::MakeBatchEngine(engine_options);
  } else if (engine_name == "pipeline") {
    engine = systems::MakePipelineEngine(engine_options);
  } else if (engine_name == "cascade") {
    engine = systems::MakeCascadeEngine(engine_options);
  } else {
    std::fprintf(stderr, "unknown engine '%s' (batch|pipeline|cascade)\n",
                 engine_name.c_str());
    return 2;
  }

  std::printf("Generating dataset: L=%d, %dx%d, %.2fs @ %.0f FPS, seed %llu\n",
              config.scale_factor, config.width, config.height,
              config.duration_seconds, config.fps,
              static_cast<unsigned long long>(config.seed));
  auto dataset = PrepareDataset(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }

  VisualCityDriver vcd(*dataset, vcd_options);
  if (vss != nullptr) {
    std::printf("Staging %zu camera streams into %s...\n",
                dataset->assets.size(), storage_dir.c_str());
    Status staged = vcd.StageStorage();
    if (!staged.ok()) {
      std::fprintf(stderr, "storage staging failed: %s\n",
                   staged.ToString().c_str());
      return 1;
    }
  }
  if (serve) {
    serving.traffic.seed = config.seed;
    serving.replay.seed = config.seed;
    if (!query_spec.empty()) serving.replay.query_mix = query_ids;
    serving.server.output_mode = vcd_options.output_mode;
    serving.server.output_dir = vcd_options.output_dir;
    std::printf("Serving: %d tenants at %.1f batches/s each for %.1fs "
                "(%d workers, %s engine)...\n",
                serving.traffic.tenants, serving.traffic.arrivals_per_second,
                serving.traffic.duration_seconds, serving.server.worker_threads,
                engine_name.c_str());
    auto report = vcd.RunServing(*engine, serving);
    if (!report.ok()) {
      std::fprintf(stderr, "serving run failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("\n%s\n", FormatServingReport(*report).c_str());
    if (!metrics_path.empty()) {
      Status status = DumpMetrics(metrics_path);
      if (!status.ok()) {
        std::fprintf(stderr, "metrics dump failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
    return 0;
  }

  std::vector<QueryBatchResult> results;
  for (queries::QueryId id : query_ids) {
    std::printf("Running %s on %s engine (batch of %d)...\n",
                queries::QueryName(id), engine_name.c_str(), vcd.BatchSize());
    auto result = vcd.RunQueryBatch(*engine, id);
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", queries::QueryName(id),
                   result.status().ToString().c_str());
      return 1;
    }
    if (!result->plan_explain.empty()) {
      std::printf("  plan: %s\n", result->plan_explain.c_str());
    }
    results.push_back(std::move(*result));
  }
  engine->Quiesce();
  if (semantic_cache != nullptr && store != nullptr) {
    Status persisted = semantic_cache->Persist();
    if (!persisted.ok()) {
      std::fprintf(stderr, "warning: semantic cache persist failed: %s\n",
                   persisted.ToString().c_str());
    } else {
      std::printf("Semantic cache: persisted %lld entries to %s\n",
                  static_cast<long long>(semantic_cache->stats().entries),
                  storage_dir.c_str());
    }
  }

  std::printf("\n%s\n", FormatBenchmarkReport(results).c_str());
  for (const QueryBatchResult& result : results) {
    std::string breakdown = FormatStageBreakdown(result);
    if (breakdown.empty()) continue;
    std::printf("Stage breakdown for %s:\n%s\n", queries::QueryName(result.id),
                breakdown.c_str());
  }

  if (!vcd_options.trace_path.empty()) {
    Status status = vcd.WriteTrace();
    if (!status.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("Wrote Chrome trace to %s (open via chrome://tracing)\n",
                vcd_options.trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    Status status = DumpMetrics(metrics_path);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics dump failed: %s\n", status.ToString().c_str());
      return 1;
    }
    if (metrics_path != "-") {
      std::printf("Wrote Prometheus metrics to %s\n", metrics_path.c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace visualroad::driver

int main(int argc, char** argv) { return visualroad::driver::Run(argc, argv); }
