#include "ledger.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/metrics.h"

namespace vrbench {

namespace trace = visualroad::trace;

namespace {

/// Sorts and merges overlapping or touching intervals; drops empty ones.
std::vector<Interval> Normalize(std::vector<Interval> intervals) {
  std::vector<Interval> merged;
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.begin_us < b.begin_us; });
  for (const Interval& in : intervals) {
    if (in.end_us <= in.begin_us) continue;
    if (!merged.empty() && in.begin_us <= merged.back().end_us) {
      merged.back().end_us = std::max(merged.back().end_us, in.end_us);
    } else {
      merged.push_back(in);
    }
  }
  return merged;
}

bool StartsWith(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

}  // namespace

double CoveredLength(std::vector<Interval> spans, std::vector<Interval> windows) {
  std::vector<Interval> a = Normalize(std::move(spans));
  std::vector<Interval> b = Normalize(std::move(windows));
  double total = 0.0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    double lo = std::max(a[i].begin_us, b[j].begin_us);
    double hi = std::min(a[i].end_us, b[j].end_us);
    if (hi > lo) total += hi - lo;
    if (a[i].end_us < b[j].end_us) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

std::vector<double> SelfTimesUs(const std::vector<trace::Event>& events,
                                const std::vector<Interval>& windows) {
  // Children are found by containment on one tid: events sorted by start
  // (longer first on ties) form a forest, and the open-span stack at any
  // event's start holds exactly its ancestors. A span's end is recorded
  // after its children's, so containment holds up to rounding of the
  // microsecond doubles; the tolerance absorbs that.
  constexpr double kToleranceUs = 0.01;
  std::vector<size_t> order(events.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    const trace::Event& a = events[x];
    const trace::Event& b = events[y];
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<std::vector<Interval>> children(events.size());
  std::vector<size_t> stack;
  int tid = 0;
  for (size_t index : order) {
    const trace::Event& e = events[index];
    if (e.tid != tid) {
      stack.clear();
      tid = e.tid;
    }
    const double end = e.start_us + e.dur_us;
    while (!stack.empty()) {
      const trace::Event& top = events[stack.back()];
      if (top.start_us + top.dur_us + kToleranceUs >= end) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      children[stack.back()].push_back(Interval{e.start_us, end});
    }
    stack.push_back(index);
  }
  std::vector<double> self(events.size(), 0.0);
  for (size_t i = 0; i < events.size(); ++i) {
    const trace::Event& e = events[i];
    double own = CoveredLength({Interval{e.start_us, e.start_us + e.dur_us}}, windows);
    double covered = CoveredLength(children[i], windows);
    self[i] = std::max(0.0, own - covered);
  }
  return self;
}

double UnattributedFraction(const std::vector<trace::Event>& events,
                            const std::function<bool(const std::string&)>& is_window,
                            const std::function<bool(const std::string&)>& is_layer) {
  std::map<int, std::vector<Interval>> windows, layers;
  for (const trace::Event& e : events) {
    Interval span{e.start_us, e.start_us + e.dur_us};
    if (is_window(e.name)) windows[e.tid].push_back(span);
    if (is_layer(e.name)) layers[e.tid].push_back(span);
  }
  double window_us = 0.0, covered_us = 0.0;
  for (const auto& [tid, spans] : windows) {
    window_us += CoveredLength(spans, spans);
    covered_us += CoveredLength(layers[tid], spans);
  }
  return window_us > 0.0 ? (window_us - covered_us) / window_us : 0.0;
}

double TraceOverheadFraction(double traced_seconds, double untraced_seconds) {
  if (untraced_seconds <= 0.0) return 0.0;
  return traced_seconds / untraced_seconds - 1.0;
}

std::string LayerOfSpan(const std::string& name) {
  static const std::map<std::string, std::string> kByName = {
      {"decode_gop", "codec.decode_s"},
      {"gop_decode", "codec.decode_s"},
      {"decode_cached", "codec.decode_s"},
      {"encode_output", "codec.encode_s"},
      {"encode_gop", "codec.encode_s"},
      {"plan_qp_schedule", "codec.encode_s"},
      {"detect_stage", "vision.detect_s"},
      {"cascade_detect", "vision.detect_s"},
      {"semcache:populate", "vision.detect_s"},
      {"semcache:probe", "semcache.probe_s"},
      {"vss_read_range", "vss.read_s"},
      {"vss_read", "vss.read_s"},
      {"vss_fetch", "vss.read_s"},
      {"vss_transcode", "vss.read_s"},
      {"materialize_input", "systems.materialize_s"},
      {"spill_roundtrip", "systems.spill_s"},
      {"fused_pipeline", "systems.fused_pipeline_s"},
      {"persist_output", "systems.persist_s"},
      {"batch_stage", "systems.query_self_s"},
      {"cascade_crop", "systems.query_self_s"},
      {"cached_boxes", "systems.query_self_s"},
      {"rpc:call", "dist.rpc_s"},
  };
  auto it = kByName.find(name);
  if (it != kByName.end()) return it->second;
  // Per-instance engine spans ("batch:Q1", "pipeline:Q2(c)", ...): what the
  // engine does around its instrumented stages (the query kernels).
  if (StartsWith(name, "batch:") || StartsWith(name, "pipeline:") ||
      StartsWith(name, "cascade:")) {
    return "systems.query_self_s";
  }
  if (StartsWith(name, "server:")) return "server.self_s";
  // The coordinator's "dist:" spans wait on the dispatch threads' rpc:call
  // spans (another tid), so their self time is waiting, not work.
  return "";
}

visualroad::Status CheckNoEventsSince(size_t mark) {
  const size_t count = trace::EventCount();
  if (count == mark) return visualroad::Status::Ok();
  return visualroad::Status::FailedPrecondition(
      std::to_string(count - mark) + " trace events recorded in an untraced timed window");
}

Snapshot ParsePrometheusText(const std::string& text) {
  Snapshot snapshot;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    snapshot[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return snapshot;
}

Snapshot TakeSnapshot() {
  return ParsePrometheusText(
      visualroad::metrics::MetricsRegistry::Global().PrometheusText());
}

double Delta(const Snapshot& before, const Snapshot& after, const std::string& key) {
  auto value = [&](const Snapshot& s) {
    auto it = s.find(key);
    return it == s.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

double FamilyDelta(const Snapshot& before, const Snapshot& after,
                   const std::string& family) {
  double total = 0.0;
  for (const auto& [key, value] : after) {
    if (key == family || StartsWith(key, (family + "{").c_str())) {
      total += Delta(before, after, key);
    }
  }
  return total;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::map<int, double> ThreadCpuSeconds(int pid) {
  std::map<int, double> threads;
  const std::string task_dir =
      pid == 0 ? std::string("/proc/self/task") : "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = opendir(task_dir.c_str());
  if (dir == nullptr) return threads;
  while (dirent* entry = readdir(dir)) {
    char* end = nullptr;
    long tid = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    // The first schedstat field is the time spent on the CPU, in ns.
    std::ifstream in(task_dir + "/" + entry->d_name + "/schedstat");
    double ns = 0.0;
    if (in >> ns) threads[static_cast<int>(tid)] = ns * 1e-9;
  }
  closedir(dir);
  return threads;
}

double ProcessPeakRssMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (StartsWith(line, "VmHWM:")) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return 0.0;
  for (double& field : fields) stat >> field;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<int> ChildPids() {
  std::vector<int> pids;
  const int self = static_cast<int>(getpid());
  DIR* proc = opendir("/proc");
  if (proc == nullptr) return pids;
  while (dirent* entry = readdir(proc)) {
    char* end = nullptr;
    long pid = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    std::ifstream stat(std::string("/proc/") + entry->d_name + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    size_t paren = text.rfind(')');
    if (paren == std::string::npos) continue;
    std::istringstream fields(text.substr(paren + 2));
    std::string state;
    int ppid = 0;
    if (fields >> state >> ppid && ppid == self) pids.push_back(static_cast<int>(pid));
  }
  closedir(proc);
  std::sort(pids.begin(), pids.end());
  return pids;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double NearestRank(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::vector<double> BatchMedians(const BatchSeries& series) {
  std::vector<double> medians;
  for (const auto& [key, values] : series) medians.push_back(Median(values));
  return medians;
}

double SumOfBatchMedians(const BatchSeries& series) {
  double total = 0.0;
  for (double median : BatchMedians(series)) total += median;
  return total;
}

void Ledger::Set(const std::string& name, double value, const std::string& unit,
                 Kind kind) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric = Metric{name, value, unit, kind};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, kind});
}

const Metric* Ledger::Find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace vrbench
