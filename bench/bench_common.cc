#include "bench_common.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "common/metrics.h"
#include "common/trace.h"

namespace visualroad::bench {
namespace {

/// Writes the run's observability artefacts at process exit when requested
/// via the environment (docs/OBSERVABILITY.md): VR_TRACE_PATH receives a
/// Chrome trace of every recorded span, VR_METRICS a Prometheus dump ('-'
/// for stdout). Installed once, from PrintBanner, so every bench binary
/// supports the same inspection workflow without per-bench wiring.
void DumpObservabilityAtExit() {
  const char* trace_path = std::getenv("VR_TRACE_PATH");
  if (trace_path != nullptr && trace_path[0] != '\0') {
    Status status = trace::WriteChromeTrace(trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   status.ToString().c_str());
    }
  }
  const char* metrics_path = std::getenv("VR_METRICS");
  if (metrics_path != nullptr && metrics_path[0] != '\0') {
    std::string text = metrics::MetricsRegistry::Global().PrometheusText();
    if (std::string(metrics_path) == "-") {
      std::printf("%s", text.c_str());
    } else {
      std::ofstream out(metrics_path, std::ios::binary | std::ios::trunc);
      out << text;
    }
  }
}

void InstallObservabilityDump() {
  static bool installed = [] {
    // Recording must be on for the trace dump to have content; VR_TRACE_PATH
    // implies VR_TRACE=1.
    if (const char* path = std::getenv("VR_TRACE_PATH");
        path != nullptr && path[0] != '\0') {
      trace::SetEnabled(true);
    }
    std::atexit(DumpObservabilityAtExit);
    return true;
  }();
  (void)installed;
}

}  // namespace

bool QuickMode() {
  const char* value = std::getenv("VR_QUICK");
  return value != nullptr && value[0] == '1';
}

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

systems::EngineOptions BenchEngineOptions() {
  systems::EngineOptions options;
  // Proportional to the scaled world: the paper's 32 GB machine handles
  // roughly 1.5 hours of 1k video; these budgets put the same pressure
  // points at bench sizes.
  options.memory_budget_bytes = int64_t{24} << 20;
  options.memory_fail_bytes = int64_t{96} << 20;
  options.threads = 2;
  return options;
}

driver::VcdOptions BenchVcdOptions() {
  driver::VcdOptions options;
  options.output_mode = systems::OutputMode::kWrite;
  options.validate = true;
  options.seed = 0xBE7C4;
  // Table 3 allows upsampling exponents to 2^5; at bench resolutions that
  // is memory-prohibitive for every engine, so benches sample n in [1, 2]
  // (recorded in EXPERIMENTS.md).
  options.sampler.max_upsample_exponent = 2;
  return options;
}

StatusOr<sim::Dataset> MakeBenchDataset(int scale_factor, int width, int height,
                                        double duration_seconds, uint64_t seed) {
  sim::CityConfig config;
  config.scale_factor = scale_factor;
  config.width = width;
  config.height = height;
  config.duration_seconds = duration_seconds;
  config.fps = kBaseFps;
  config.seed = seed;
  sim::GeneratorOptions options;
  options.codec.qp = 26;
  options.codec.gop_length = 15;
  return driver::PrepareDataset(config, options);
}

RunContext CurrentRunContext() {
  RunContext context;
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) == 0) context.host_name = host;
  context.num_cpus = static_cast<int>(std::thread::hardware_concurrency());
#ifdef NDEBUG
  context.build_type = "optimized (NDEBUG)";
#else
  context.build_type = "debug (assertions on)";
#endif
  context.commit = "unknown";
  const std::string command =
      std::string("git -C '") + VISUALROAD_SOURCE_DIR + "' rev-parse HEAD 2>/dev/null";
  if (FILE* git = popen(command.c_str(), "r")) {
    char line[128] = {};
    const bool read = std::fgets(line, sizeof(line), git) != nullptr;
    if (pclose(git) == 0 && read) {
      std::string sha(line);
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
      if (!sha.empty()) context.commit = sha;
    }
  }
  return context;
}

void PrintBanner(const std::string& title, const std::string& subtitle) {
  InstallObservabilityDump();
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  std::printf("================================================================\n\n");
}

}  // namespace visualroad::bench
