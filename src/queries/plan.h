#ifndef VISUALROAD_QUERIES_PLAN_H_
#define VISUALROAD_QUERIES_PLAN_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "queries/params.h"
#include "queries/semantic_cache.h"

namespace visualroad::queries {

/// Static facts about a query's input stream that planning needs — all
/// available from container/bitstream metadata, never from decoded pixels.
struct StreamMeta {
  uint64_t identity = 0;  // StreamIdentity() of the bitstream.
  int frame_count = 0;
  int width = 0;
  int height = 0;
  double fps = 0.0;
  /// Number of closed GOPs (0 when unknown; only used for explain output).
  int gop_count = 0;
};

/// Observed behaviour of one cascade/filter stage, aggregated across
/// executions: how often the stage resolved the frames it saw, and what it
/// cost. "Resolved" means the frame needed no later (more expensive) stage.
class SelectivityTracker {
 public:
  struct StageStats {
    int64_t attempts = 0;
    int64_t resolved = 0;
    double seconds = 0.0;

    bool Measured() const { return attempts > 0; }
    double Selectivity() const {
      return attempts > 0 ? static_cast<double>(resolved) /
                                static_cast<double>(attempts)
                          : 0.0;
    }
    double CostPerAttemptUs() const {
      return attempts > 0 ? seconds * 1e6 / static_cast<double>(attempts) : 0.0;
    }
  };

  /// Folds one execution's observation into the stage's running totals.
  void Record(const std::string& stage, int64_t attempts, int64_t resolved,
              double seconds);

  StageStats Get(const std::string& stage) const;

  /// Drops all measurements (tests, and engine Quiesce between batches).
  void Clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, StageStats> stages_;
};

/// One planned stage, in execution order.
struct PlanStage {
  std::string name;
  bool enabled = true;
  /// Measured selectivity/cost backing the decision; zero when unmeasured.
  bool measured = false;
  double selectivity = 0.0;
  double cost_per_attempt_us = 0.0;
};

/// The plan for one query instance: which frames to fetch/decode (predicate
/// pushdown into the decoder and the storage layer), whether the semantic
/// cache already answers the inference part, and which cascade stages run.
struct QueryPlan {
  QueryId id = QueryId::kQ1;
  /// Input window after temporal pushdown: only the GOPs covering
  /// [first_frame, first_frame + frame_count) are fetched and decoded.
  int first_frame = 0;
  int frame_count = 0;
  /// Total frames in the stream (for explain output).
  int total_frames = 0;
  /// Spatial predicate pushed toward the decoder (Q1's crop rectangle;
  /// empty when the query has no ROI). The block codec decodes whole
  /// frames, so today this bounds the post-decode crop, not the entropy
  /// decode itself; the pushdown win is temporal (GOP/segment selection).
  RectI roi;
  /// True when the query's inference stage consults the semantic cache.
  bool semcache_enabled = false;
  /// True when the stream's materialized entry already exists, so the plan
  /// needs no decode at all for the inference stage (Q2(c): the whole query
  /// becomes a metadata lookup plus a render).
  bool semcache_warm = false;
  /// Inference/filter stages in the engine's execution order.
  std::vector<PlanStage> stages;
};

/// Planner inputs beyond the instance itself.
struct PlanContext {
  StreamMeta meta;
  /// Whether the executing engine pushes temporal predicates into the
  /// decoder at all (the eager batch engine decodes everything, so its
  /// explain output must not claim a trimmed window).
  bool temporal_pushdown = true;
  /// Semantic cache to probe (null = feature off).
  SemanticCache* cache = nullptr;
  /// Key the executing engine would use (ignored when cache is null).
  SemanticKey key;
  /// Measured stage behaviour (null = every stage stays enabled).
  const SelectivityTracker* tracker = nullptr;
  /// The executing engine's inference stages in the order it runs them;
  /// every stage except the last is a prefilter the planner may disable
  /// (below kMinUsefulSelectivity). The last stage is the anchor model and
  /// always runs. Empty for queries without an inference cascade.
  std::vector<std::string> stages;
};

/// A stage below this measured selectivity cannot pay for itself: the
/// planner disables it. The probe is non-binding — content can change — so
/// the tracker keeps accumulating and a later batch can re-enable the stage.
inline constexpr double kMinUsefulSelectivity = 0.02;
/// Measurements below this many attempts are noise; the stage stays enabled.
inline constexpr int64_t kMinMeasuredAttempts = 32;

/// Builds the plan for `instance`. Deterministic: the same instance, stream
/// metadata, cache state, and tracker totals produce the same plan.
QueryPlan PlanQuery(const QueryInstance& instance, const PlanContext& context);

/// Human-readable one-or-two-line plan description (`vcd --explain`), e.g.:
///   Q2(c) stream=0c3a… frames=[0,15)/15 semcache=warm([0,15)) decode=skipped
///   stages=[semcache]
std::string ExplainPlan(const QueryPlan& plan);

}  // namespace visualroad::queries

#endif  // VISUALROAD_QUERIES_PLAN_H_
