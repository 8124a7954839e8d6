#ifndef VRBENCH_LEDGER_H_
#define VRBENCH_LEDGER_H_

// Measurement primitives of the end-to-end benchmark: attribution arithmetic
// over trace events, registry snapshots, process resource usage, order
// statistics and the metric ledger a run prints. Everything here is pure or
// reads only process-local state, so the arithmetic is unit-tested on
// hand-built inputs (vrbench_test.cc).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"

namespace vrbench {

/// A closed-open wall interval [begin_us, end_us) on the trace clock.
struct Interval {
  double begin_us = 0.0;
  double end_us = 0.0;
};

/// Total length of the union of `spans` intersected with the union of
/// `windows` (both may overlap and arrive unsorted).
double CoveredLength(std::vector<Interval> spans, std::vector<Interval> windows);

/// Self time of every event, in microseconds, counted only inside `windows`:
/// an event's duration minus the part of it that its children cover, where a
/// child is a deeper event on the same `tid` nested inside it. Spans on other
/// threads (pool workers) never reduce a parent's self time — they are
/// attributed to their own layer on their own thread. Parallel to `events`.
std::vector<double> SelfTimesUs(const std::vector<visualroad::trace::Event>& events,
                                const std::vector<Interval>& windows);

/// Share of the timed windows that no layer span covers. Per tid, the spans
/// `is_window` selects are that thread's windows (the driver's measured
/// window on the calling thread, or one served request on a server thread)
/// and the spans `is_layer` selects, on the same tid, its attribution.
/// 0 when there are no windows.
double UnattributedFraction(
    const std::vector<visualroad::trace::Event>& events,
    const std::function<bool(const std::string&)>& is_window,
    const std::function<bool(const std::string&)>& is_layer);

/// Traced wall time over untraced wall time, minus one.
double TraceOverheadFraction(double traced_seconds, double untraced_seconds);

/// The layer (per-layer metric name) a span's self time is charged to, or ""
/// for spans that are windows or belong to no named layer.
std::string LayerOfSpan(const std::string& span_name);

/// Fails when a trace event was recorded after EventCount() returned `mark`:
/// the check that a timed window really ran untraced.
visualroad::Status CheckNoEventsSince(size_t mark);

/// Registry samples keyed by "name{labels}" (histograms by their _sum and
/// _count series), parsed from the Prometheus text exposition.
using Snapshot = std::map<std::string, double>;
Snapshot ParsePrometheusText(const std::string& text);
Snapshot TakeSnapshot();
/// after[key] - before[key]; missing keys read as 0.
double Delta(const Snapshot& before, const Snapshot& after, const std::string& key);
/// Sum of deltas over every key whose family name equals `family`.
double FamilyDelta(const Snapshot& before, const Snapshot& after,
                   const std::string& family);

/// User plus system CPU seconds of this process (all threads, live and
/// exited) from getrusage.
double ProcessCpuSeconds();
/// Peak resident set of this process in MiB.
double PeakRssMb();
/// Run time (schedstat, nanosecond resolution) in seconds of every live
/// thread of process `pid` (0: this process), keyed by thread id. A thread
/// that exits between two readings takes its time since the first with it.
std::map<int, double> ThreadCpuSeconds(int pid);
/// Peak resident set (MiB) of another process, read from /proc; 0 when it
/// cannot be read.
double ProcessPeakRssMb(int pid);
/// Host-wide CPU seconds stolen by the hypervisor (the steal column of
/// /proc/stat, summed over CPUs); 0 when unreadable.
double HostStealSeconds();
/// Pids whose parent is this process.
std::vector<int> ChildPids();

/// Median (mean of the middle pair for even sizes); 0 for an empty sample.
double Median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 1]; 0 for an empty sample.
double NearestRank(std::vector<double> values, double p);

/// One figure of an offline workload's batches across its timed passes:
/// batch key (engine and query) -> the figure in every pass.
using BatchSeries = std::map<std::string, std::vector<double>>;
/// Each batch's median across passes, in key order.
std::vector<double> BatchMedians(const BatchSeries& series);
/// Sum over batches of each batch's median across passes: the workload's
/// figure for one typical pass, where a stall in one pass moves only the
/// batches it hit, and those only if it hit them in most passes.
double SumOfBatchMedians(const BatchSeries& series);

/// How a per-layer count behaves across runs of one commit on one seed.
enum class Kind {
  kTime,    // A duration or a ratio of durations: has run-to-run spread.
  kExact,   // A count that repeats exactly; a gain may be claimed on it.
  kTiming,  // A count that depends on thread timing: report its spread.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kTime;
};

/// Ordered metric list with name-level lookup.
class Ledger {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           Kind kind);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Renders a JSON string literal.
std::string JsonString(const std::string& text);
/// Renders a number with full precision (integers without a fraction).
std::string JsonNumber(double value);

}  // namespace vrbench

#endif  // VRBENCH_LEDGER_H_
