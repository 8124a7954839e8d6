// Tests of the benchmark itself: the attribution arithmetic on hand-built
// trace events, the registry parser, and the correctness gate (a run whose
// engine returns a corrupted output must fail).

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ledger.h"
#include "video/codec/codec.h"
#include "workloads.h"

namespace vrbench {
namespace {

namespace vr = visualroad;

vr::trace::Event Ev(const std::string& name, int tid, double start, double dur,
                    int depth = 0) {
  vr::trace::Event e;
  e.name = name;
  e.tid = tid;
  e.start_us = start;
  e.dur_us = dur;
  e.depth = depth;
  return e;
}

bool IsLayer(const std::string& name) {
  return name.rfind("vcd:", 0) != 0 && name.rfind("bench:", 0) != 0;
}

TEST(Attribution, CoveredLengthMergesOverlapsAndClips) {
  EXPECT_DOUBLE_EQ(CoveredLength({{0, 10}, {5, 20}, {30, 40}}, {{0, 100}}), 30.0);
  EXPECT_DOUBLE_EQ(CoveredLength({{0, 100}}, {{10, 20}, {15, 30}, {90, 120}}), 30.0);
  EXPECT_DOUBLE_EQ(CoveredLength({{0, 10}}, {{10, 20}}), 0.0);
}

TEST(Attribution, NestedSpansOnOneThread) {
  std::vector<vr::trace::Event> events = {
      Ev("parent", 1, 0, 100, 0),
      Ev("child", 1, 10, 30, 1),
      Ev("grandchild", 1, 15, 5, 2),
      Ev("second_child", 1, 60, 20, 1),
  };
  std::vector<double> self = SelfTimesUs(events, {{0, 1000}});
  EXPECT_DOUBLE_EQ(self[0], 50.0);  // 100 - 30 - 20.
  EXPECT_DOUBLE_EQ(self[1], 25.0);  // 30 - 5.
  EXPECT_DOUBLE_EQ(self[2], 5.0);
  EXPECT_DOUBLE_EQ(self[3], 20.0);
}

TEST(Attribution, ChildrenOnPoolThreadsDoNotReduceParent) {
  std::vector<vr::trace::Event> events = {
      Ev("parent", 1, 0, 100, 0),
      Ev("pool_task", 2, 10, 40, 0),
      Ev("pool_inner", 2, 20, 10, 1),
  };
  std::vector<double> self = SelfTimesUs(events, {{0, 1000}});
  EXPECT_DOUBLE_EQ(self[0], 100.0);
  EXPECT_DOUBLE_EQ(self[1], 30.0);
  EXPECT_DOUBLE_EQ(self[2], 10.0);
}

TEST(Attribution, SpansStraddlingAWindowEdgeCountOnlyInside) {
  std::vector<vr::trace::Event> events = {
      Ev("parent", 1, 0, 100, 0),
      Ev("child", 1, 40, 50, 1),     // [40, 90)
      Ev("outside", 1, 200, 10, 0),  // Entirely after the window.
  };
  std::vector<double> self = SelfTimesUs(events, {{50, 150}});
  EXPECT_DOUBLE_EQ(self[0], 10.0);  // [50, 100) minus [50, 90).
  EXPECT_DOUBLE_EQ(self[1], 40.0);  // [50, 90).
  EXPECT_DOUBLE_EQ(self[2], 0.0);
}

TEST(Attribution, UnattributedCountsOnlyTheWindowThread) {
  std::vector<vr::trace::Event> events = {
      Ev("vcd:Q1", 1, 0, 100, 0),
      Ev("bench:execute", 1, 5, 90, 1),  // Benchmark spans attribute nothing.
      Ev("pipeline:Q1", 1, 10, 20, 2),
      Ev("encode_output", 1, 20, 40, 2),  // Overlaps: union is [10, 60).
      Ev("gop_decode", 2, 60, 40, 0),     // Another thread: not this window.
  };
  auto is_window = [](const std::string& name) { return name.rfind("vcd:", 0) == 0; };
  EXPECT_DOUBLE_EQ(UnattributedFraction(events, is_window, IsLayer), 0.5);
  EXPECT_DOUBLE_EQ(UnattributedFraction({}, is_window, IsLayer), 0.0);
}

TEST(Attribution, UnattributedSumsWindowsAcrossThreads) {
  // Served requests: one window per server thread.
  std::vector<vr::trace::Event> events = {
      Ev("bench:execute", 1, 0, 100, 0),
      Ev("pipeline:Q1", 1, 0, 100, 1),
      Ev("bench:execute", 2, 0, 100, 0),
      Ev("pipeline:Q1", 2, 0, 50, 1),
  };
  auto is_window = [](const std::string& name) { return name == "bench:execute"; };
  EXPECT_DOUBLE_EQ(UnattributedFraction(events, is_window, IsLayer), 0.25);
}

TEST(Attribution, TraceOverhead) {
  EXPECT_NEAR(TraceOverheadFraction(1.1, 1.0), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(TraceOverheadFraction(1.0, 0.0), 0.0);
}

TEST(Attribution, EverySpanTheEnginesRecordHasALayer) {
  for (const char* name :
       {"decode_gop", "gop_decode", "decode_cached", "encode_output", "encode_gop",
        "plan_qp_schedule", "detect_stage", "cascade_detect", "semcache:populate",
        "semcache:probe", "vss_read_range", "vss_read", "vss_fetch",
        "materialize_input", "spill_roundtrip", "fused_pipeline", "persist_output",
        "batch:Q1", "pipeline:Q2(c)", "cascade:Q1", "server:Q1", "rpc:call"}) {
    EXPECT_NE(LayerOfSpan(name), "") << name;
  }
  EXPECT_EQ(LayerOfSpan("vcd:Q1"), "");
  EXPECT_EQ(LayerOfSpan("bench:execute"), "");
  EXPECT_EQ(LayerOfSpan("dist:execute_batch"), "");
}

TEST(Registry, ParsesPrometheusText) {
  Snapshot s = ParsePrometheusText(
      "# HELP vr_x help\n# TYPE vr_x counter\nvr_x 3\n"
      "vr_k{kernel=\"sad\"} 12\nvr_k{kernel=\"idct\"} 5\n"
      "vr_h_sum 0.25\nvr_h_count 4\n");
  EXPECT_DOUBLE_EQ(s["vr_x"], 3.0);
  EXPECT_DOUBLE_EQ(s["vr_k{kernel=\"sad\"}"], 12.0);
  EXPECT_DOUBLE_EQ(s["vr_h_sum"], 0.25);
  Snapshot before = {{"vr_k{kernel=\"sad\"}", 2.0}};
  EXPECT_DOUBLE_EQ(FamilyDelta(before, s, "vr_k"), 15.0);
  EXPECT_DOUBLE_EQ(Delta(before, s, "vr_missing"), 0.0);
}

TEST(Stats, MedianAndNearestRank) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(NearestRank(v, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(NearestRank(v, 0.50), 50.0);
  EXPECT_TRUE(std::isinf(NearestRank({1.0, std::numeric_limits<double>::infinity()}, 1.0)));
}

TEST(Stats, BatchMediansAndTheirSum) {
  BatchSeries series = {{"batch.q1", {1.0, 9.0, 2.0}}, {"pipeline.q1", {4.0, 3.0}}};
  EXPECT_EQ(BatchMedians(series), (std::vector<double>{2.0, 3.5}));
  EXPECT_DOUBLE_EQ(SumOfBatchMedians(series), 5.5);
  EXPECT_DOUBLE_EQ(SumOfBatchMedians({}), 0.0);
}

TEST(Tracing, EventsInAnUntracedWindowFailTheCheck) {
  vr::trace::SetEnabled(false);
  const size_t mark = vr::trace::EventCount();
  { vr::trace::Span span("untraced"); }
  EXPECT_TRUE(CheckNoEventsSince(mark).ok());
  vr::trace::SetEnabled(true);
  { vr::trace::Span span("traced"); }
  vr::trace::SetEnabled(false);
  EXPECT_FALSE(CheckNoEventsSince(mark).ok());
}

TEST(Usage, ThreadCpuSecondsSeesThisThreadWork) {
  const std::map<int, double> before = ThreadCpuSeconds(0);
  volatile double sink = 0.0;
  for (int i = 0; i < 20000000; ++i) sink = sink + i * 0.5;
  const std::map<int, double> after = ThreadCpuSeconds(getpid());
  double moved = 0.0;
  for (const auto& [tid, seconds] : after) {
    auto it = before.find(tid);
    moved += seconds - (it == before.end() ? 0.0 : it->second);
  }
  EXPECT_GT(moved, 0.0);
}

RunOptions TinyRun(const std::string& workload, const std::string& tag) {
  RunOptions options;
  options.workload = workload;
  options.seed = 7;
  options.seconds = 0.01;
  options.tiny = true;
  options.run_dir = (std::filesystem::temp_directory_path() /
                     ("vrbench-test-" + std::to_string(getpid()) + "-" + tag))
                        .string();
  return options;
}

TEST(Correctness, CleanRunPassesValidation) {
  RunOptions options = TinyRun("suite_cold", "clean");
  vr::StatusOr<RunResult> result = RunWorkload(options);
  std::filesystem::remove_all(options.run_dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->correct);
  EXPECT_GT(result->attempted, 0);
  EXPECT_EQ(result->failed, 0);
}

TEST(Correctness, CorruptedOutputFailsTheRun) {
  RunOptions options = TinyRun("suite_cold", "corrupt");
  std::atomic<bool> corrupted{false};
  // Replaces the first Q1 result with an all-black video of the same shape:
  // a well-formed stream whose pixels are wrong.
  options.output_hook = [&](const vr::queries::QueryInstance& instance,
                            vr::systems::QueryOutput& output) {
    if (instance.id != vr::queries::QueryId::kQ1 || output.video.FrameCount() == 0 ||
        corrupted.exchange(true)) {
      return;
    }
    vr::video::Video black;
    black.fps = output.video.fps;
    for (int f = 0; f < output.video.FrameCount(); ++f) {
      black.frames.emplace_back(output.video.width, output.video.height);
    }
    vr::StatusOr<vr::video::codec::EncodedVideo> encoded =
        vr::video::codec::Encode(black, vr::video::codec::EncoderConfig{});
    ASSERT_TRUE(encoded.ok());
    output.video = std::move(encoded).value();
  };
  vr::StatusOr<RunResult> result = RunWorkload(options);
  std::filesystem::remove_all(options.run_dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(corrupted.load());
  EXPECT_FALSE(result->correct);
  EXPECT_GT(result->failed, 0);
  EXPECT_GT(result->validation_failures, 0);
}

}  // namespace
}  // namespace vrbench
