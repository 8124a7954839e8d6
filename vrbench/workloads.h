#ifndef VRBENCH_WORKLOADS_H_
#define VRBENCH_WORKLOADS_H_

// The benchmark's workloads (README.md in this directory says why each
// exists). A workload builds its inputs from the seed, sets up several
// times, runs timed passes until the time budget is spent, validates every
// output against queries/reference outside the timed windows, and fills a
// ledger of end-to-end metrics (tracing off) or per-layer metrics (traced).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ledger.h"
#include "systems/vdbms.h"

namespace vrbench {

/// Hook applied to every output an in-process engine returns; tests use it
/// to corrupt one output and check that the run fails.
using OutputHook = std::function<void(const visualroad::queries::QueryInstance&,
                                      visualroad::systems::QueryOutput&)>;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Timed-pass budget; passes repeat until their windows add up to it.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Fresh, run-private directory for store roots, outputs and sockets.
  std::string run_dir;
  /// Shrinks every dataset to a few frames (the benchmark's own tests).
  bool tiny = false;
  OutputHook output_hook;
};

struct RunResult {
  /// Every output validated and passed.
  bool correct = true;
  int64_t attempted = 0;
  /// Errors (ResourceExhausted included), shed batches and validation
  /// failures.
  int64_t failed = 0;
  int64_t validation_failures = 0;
  Ledger ledger;
  /// Free-form facts about the run (batch counts, budgets, thread counts).
  std::vector<std::pair<std::string, std::string>> notes;
};

/// A metric every run of its kind prints: name and unit.
struct MetricSpec {
  std::string name;
  std::string unit;
};
/// End-to-end metrics (tracing off), every workload.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics (traced run), every workload; a layer that does not run
/// in a workload reads 0 there.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Runs one workload. Errors are setup or execution failures that leave no
/// measurement (a failed operation inside a measured window is counted, not
/// returned).
visualroad::StatusOr<RunResult> RunWorkload(const RunOptions& options);

/// A Vdbms that forwards every call to `inner`, measuring each Execute (wall
/// seconds and process CPU seconds) and applying the output hook. Wrapping
/// the engine is how the benchmark times the systems layer from outside.
class ForwardingEngine : public visualroad::systems::Vdbms {
 public:
  ForwardingEngine(visualroad::systems::Vdbms& inner, OutputHook hook);

  const char* name() const override { return inner_->name(); }
  bool Supports(visualroad::queries::QueryId id) const override {
    return inner_->Supports(id);
  }
  bool ConcurrentSafe() const override { return inner_->ConcurrentSafe(); }
  visualroad::StatusOr<visualroad::systems::QueryOutput> Execute(
      const visualroad::queries::QueryInstance& instance,
      const visualroad::sim::Dataset& dataset,
      visualroad::systems::OutputMode mode, const std::string& output_dir,
      visualroad::systems::EngineStats* call_stats) override;
  std::string Explain(const visualroad::queries::QueryInstance& instance,
                      const visualroad::sim::Dataset& dataset) override {
    return inner_->Explain(instance, dataset);
  }
  void Quiesce() override { inner_->Quiesce(); }
  visualroad::systems::EngineStats stats() const override { return inner_->stats(); }

  /// One Execute call: its query, wall seconds and process CPU seconds (the
  /// CPU is the call's own only while calls do not overlap).
  struct Call {
    visualroad::queries::QueryId id;
    double seconds = 0.0;
    double cpu_seconds = 0.0;
  };
  /// Calls since the last TakeCalls().
  std::vector<Call> TakeCalls();

 private:
  visualroad::systems::Vdbms* inner_;
  OutputHook hook_;
  std::mutex mutex_;
  std::vector<Call> calls_;
};

}  // namespace vrbench

#endif  // VRBENCH_WORKLOADS_H_
