// The end-to-end benchmark binary. Usually started through run.py, which
// builds it and gives it a fresh run directory:
//
//   vrbench --workload NAME --seed N --seconds S --trace 0|1 --run-dir DIR
//           [--git-sha SHA]
//
// Prints one "record" line (run envelope, every metric with its kind, notes)
// and, last, the result line: {"correct", "attempted", "failed", "metrics"}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exit codes: 0 ok; 1 an output failed validation (the result
// is still printed); 2 the run could not be measured; 3 not a Release build.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/cpu.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "ledger.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: vrbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--run-dir DIR [--git-sha SHA]\n");
  return 2;
}

const char* KindName(vrbench::Kind kind) {
  switch (kind) {
    case vrbench::Kind::kExact:
      return "exact";
    case vrbench::Kind::kTiming:
      return "timing";
    case vrbench::Kind::kTime:
      break;
  }
  return "time";
}

}  // namespace

int main(int argc, char** argv) {
  using vrbench::JsonNumber;
  using vrbench::JsonString;
  vrbench::RunOptions options;
  std::string git_sha = "unknown";
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = true;
    } else if (flag == "--run-dir") {
      options.run_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.run_dir.empty() ||
      !have_trace || options.seconds <= 0.0) {
    return Usage();
  }
  if (std::string(VRBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "vrbench: refusing to measure a %s build; build Release\n",
                 VRBENCH_BUILD_TYPE);
    return 3;
  }
  // Tracing must start off: timed runs assert it per pass, and a traced run
  // enables it only around its traced passes.
  if (visualroad::trace::Enabled()) {
    std::fprintf(stderr, "vrbench: tracing is on at start (VR_TRACE?); unset it\n");
    return 2;
  }

  const double steal_before = vrbench::HostStealSeconds();
  visualroad::Stopwatch elapsed;
  visualroad::StatusOr<vrbench::RunResult> run = vrbench::RunWorkload(options);
  // Share of the host's CPU time the hypervisor gave to other guests while
  // this run lasted: the noise wall times on a shared host carry.
  const double steal_frac =
      (vrbench::HostStealSeconds() - steal_before) /
      (elapsed.ElapsedSeconds() * std::thread::hardware_concurrency());
  std::filesystem::remove_all(options.run_dir);
  if (!run.ok()) {
    std::fprintf(stderr, "vrbench: %s\n", run.status().ToString().c_str());
    return 2;
  }
  vrbench::RunResult& result = *run;
  result.ledger.Set("driver.validation_failures",
                    static_cast<double>(result.validation_failures), "count",
                    vrbench::Kind::kExact);
  if (options.trace && visualroad::trace::DroppedEvents() != 0) {
    std::fprintf(stderr, "vrbench: %lld trace events dropped\n",
                 static_cast<long long>(visualroad::trace::DroppedEvents()));
    return 2;
  }

  std::string record = "{\"record\":{\"workload\":" + JsonString(options.workload) +
                       ",\"seed\":" + std::to_string(options.seed) +
                       ",\"seconds\":" + JsonNumber(options.seconds) +
                       ",\"trace\":" + (options.trace ? "1" : "0") +
                       ",\"envelope\":{\"nproc\":" +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\"simd_level\":" +
                       JsonString(visualroad::SimdLevelName(
                           visualroad::DetectedSimdLevel())) +
                       ",\"compiler\":" + JsonString(VRBENCH_COMPILER) +
                       ",\"build_type\":" + JsonString(VRBENCH_BUILD_TYPE) +
                       ",\"git_sha\":" + JsonString(git_sha) +
                       ",\"host_steal_frac\":" + JsonNumber(steal_frac) + "},\"notes\":{";
  for (size_t i = 0; i < result.notes.size(); ++i) {
    record += (i ? "," : "") + JsonString(result.notes[i].first) + ":" +
              JsonString(result.notes[i].second);
  }
  record += "},\"metrics\":{";
  for (size_t i = 0; i < result.ledger.metrics().size(); ++i) {
    const vrbench::Metric& m = result.ledger.metrics()[i];
    record += (i ? "," : "") + JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
              ",\"unit\":" + JsonString(m.unit) + ",\"kind\":" +
              JsonString(KindName(m.kind)) + "}";
  }
  record += "}}}";
  std::printf("%s\n", record.c_str());

  std::string line = std::string("{\"correct\":") + (result.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
  const auto& specs =
      options.trace ? vrbench::PerLayerMetrics() : vrbench::EndToEndMetrics();
  for (size_t i = 0; i < specs.size(); ++i) {
    const vrbench::Metric* m = result.ledger.Find(specs[i].name);
    line += (i ? "," : "") + JsonString(specs[i].name) +
            ":{\"value\":" + JsonNumber(m != nullptr ? m->value : 0.0) +
            ",\"unit\":" + JsonString(specs[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
