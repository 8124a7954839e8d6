#ifndef VISUALROAD_BENCH_BENCH_COMMON_H_
#define VISUALROAD_BENCH_BENCH_COMMON_H_

// Shared infrastructure for the experiment-reproduction binaries in bench/.
// Each binary reproduces one table or figure of the paper's evaluation
// (Section 6); the mapping is recorded in DESIGN.md and EXPERIMENTS.md.

#include <cstdlib>
#include <string>

#include "driver/datasets.h"
#include "driver/report.h"
#include "driver/vcd.h"

namespace visualroad::bench {

/// Scaled-down default benchmark geometry. The paper runs minutes of video
/// at up to 3840x2160 on a GPU-equipped testbed; these defaults keep the
/// full suite tractable on one CPU core while preserving every relative
/// shape (see EXPERIMENTS.md for the mapping).
inline constexpr int kBaseWidth = 240;   // "1k-proportional".
inline constexpr int kBaseHeight = 136;
inline constexpr double kBaseFps = 15.0;

/// True when the environment asks for a fast smoke pass (VR_QUICK=1).
bool QuickMode();

/// Reads a positive integer environment override, or `fallback`.
int EnvInt(const char* name, int fallback);

/// Engine options used across benches: memory limits proportional to the
/// scaled world so the paper's memory behaviours (Q4 failure, large-scale
/// thrashing) reproduce at bench sizes.
systems::EngineOptions BenchEngineOptions();

/// VCD options used across benches: write mode, validation on, Q4/Q5
/// exponents capped at 2 (see EXPERIMENTS.md), deterministic seed.
driver::VcdOptions BenchVcdOptions();

/// Builds a standard benchmark dataset (captions attached).
StatusOr<sim::Dataset> MakeBenchDataset(int scale_factor, int width, int height,
                                        double duration_seconds, uint64_t seed);

/// Where and how a bench binary ran, recorded as the "context" of its BENCH
/// JSON so a figure can be traced to a host, a build and a commit.
struct RunContext {
  std::string host_name;
  int num_cpus = 0;
  /// "optimized (NDEBUG)" or "debug (assertions on)": this binary's build.
  std::string build_type;
  /// `git rev-parse HEAD` of the source tree, read at run time; "unknown"
  /// when that fails (e.g. a checkout without its .git).
  std::string commit;
};
RunContext CurrentRunContext();

/// Prints a section banner matching the paper artefact being reproduced.
/// Also installs the at-exit observability dump: set VR_TRACE_PATH and/or
/// VR_METRICS in the environment to receive a Chrome trace / Prometheus
/// snapshot of the bench run (docs/OBSERVABILITY.md).
void PrintBanner(const std::string& title, const std::string& subtitle);

}  // namespace visualroad::bench

#endif  // VISUALROAD_BENCH_BENCH_COMMON_H_
