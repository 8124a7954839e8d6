#include "queries/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace visualroad::queries {

void SelectivityTracker::Record(const std::string& stage, int64_t attempts,
                                int64_t resolved, double seconds) {
  if (attempts <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  StageStats& stats = stages_[stage];
  stats.attempts += attempts;
  stats.resolved += resolved;
  stats.seconds += seconds;
}

SelectivityTracker::StageStats SelectivityTracker::Get(
    const std::string& stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = stages_.find(stage);
  return it == stages_.end() ? StageStats{} : it->second;
}

void SelectivityTracker::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  stages_.clear();
}

namespace {

/// Temporal pushdown for Q1: the same clamp every engine applies, computed
/// once here so planner and executor can never disagree about the window.
void ApplyTemporalPushdown(const QueryInstance& instance, const StreamMeta& meta,
                           QueryPlan& plan) {
  if (meta.frame_count <= 0 || meta.fps <= 0.0) return;
  int first = std::clamp(static_cast<int>(instance.q1_t1 * meta.fps), 0,
                         meta.frame_count - 1);
  int last = std::clamp(static_cast<int>(std::ceil(instance.q1_t2 * meta.fps)),
                        first + 1, meta.frame_count);
  plan.first_frame = first;
  plan.frame_count = last - first;
}

/// Fills plan.stages from the engine's stage list, in the engine's order,
/// and the tracker's measurements: a prefilter (every stage but the last)
/// whose measured selectivity cannot pay for itself is disabled outright.
/// Unmeasured stages stay enabled (the planner only acts on evidence).
void PlanStages(const PlanContext& context, QueryPlan& plan) {
  if (context.stages.empty()) return;
  for (size_t i = 0; i + 1 < context.stages.size(); ++i) {
    PlanStage stage;
    stage.name = context.stages[i];
    if (context.tracker != nullptr) {
      SelectivityTracker::StageStats stats = context.tracker->Get(stage.name);
      if (stats.Measured() && stats.attempts >= kMinMeasuredAttempts) {
        stage.measured = true;
        stage.selectivity = stats.Selectivity();
        stage.cost_per_attempt_us = stats.CostPerAttemptUs();
        stage.enabled = stage.selectivity >= kMinUsefulSelectivity;
      }
    }
    plan.stages.push_back(std::move(stage));
  }
  PlanStage anchor;
  anchor.name = context.stages.back();
  anchor.enabled = true;
  if (context.tracker != nullptr) {
    SelectivityTracker::StageStats stats = context.tracker->Get(anchor.name);
    if (stats.Measured()) {
      anchor.measured = true;
      anchor.selectivity = stats.Selectivity();
      anchor.cost_per_attempt_us = stats.CostPerAttemptUs();
    }
  }
  plan.stages.push_back(std::move(anchor));
}

}  // namespace

QueryPlan PlanQuery(const QueryInstance& instance, const PlanContext& context) {
  QueryPlan plan;
  plan.id = instance.id;
  plan.total_frames = context.meta.frame_count;
  plan.first_frame = 0;
  plan.frame_count = context.meta.frame_count;

  switch (instance.id) {
    case QueryId::kQ1:
      if (context.temporal_pushdown) {
        ApplyTemporalPushdown(instance, context.meta, plan);
      }
      plan.roi = instance.q1_rect;
      break;
    case QueryId::kQ2c:
    case QueryId::kQ7: {
      plan.semcache_enabled = context.cache != nullptr;
      if (plan.semcache_enabled) {
        // An entry that does not cover the stream is recomputed on use.
        std::shared_ptr<const SemanticEntry> entry = context.cache->Peek(context.key);
        plan.semcache_warm = entry != nullptr && entry->Covers(context.meta.frame_count);
      }
      if (plan.semcache_warm) {
        // The inference result is already materialized. Q2(c)'s output is a
        // pure function of the detections, so no input frame is fetched or
        // decoded at all; Q7 still decodes for its pixel-level union/mask.
        if (instance.id == QueryId::kQ2c) plan.frame_count = 0;
        PlanStage stage;
        stage.name = "semcache";
        stage.enabled = true;
        plan.stages.push_back(std::move(stage));
      } else {
        PlanStages(context, plan);
      }
      break;
    }
    default:
      PlanStages(context, plan);
      break;
  }
  return plan;
}

std::string ExplainPlan(const QueryPlan& plan) {
  char buffer[160];
  std::string out = QueryName(plan.id);
  std::snprintf(buffer, sizeof(buffer), " frames=[%d,%d)/%d", plan.first_frame,
                plan.first_frame + plan.frame_count, plan.total_frames);
  out += buffer;
  if (!plan.roi.Empty()) {
    std::snprintf(buffer, sizeof(buffer), " roi=[%d,%d,%d,%d]", plan.roi.x0,
                  plan.roi.y0, plan.roi.x1, plan.roi.y1);
    out += buffer;
  }
  if (plan.semcache_enabled) {
    out += plan.semcache_warm ? " semcache=warm" : " semcache=cold";
    if (plan.semcache_warm && plan.frame_count == 0) out += " decode=skipped";
  }
  if (!plan.stages.empty()) {
    out += " stages=[";
    bool first = true;
    std::string disabled;
    for (const PlanStage& stage : plan.stages) {
      if (!stage.enabled) {
        if (!disabled.empty()) disabled += ' ';
        std::snprintf(buffer, sizeof(buffer), "%s(sel=%.3f)",
                      stage.name.c_str(), stage.selectivity);
        disabled += buffer;
        continue;
      }
      if (!first) out += ' ';
      first = false;
      out += stage.name;
      if (stage.measured) {
        std::snprintf(buffer, sizeof(buffer), "(sel=%.3f,%.1fus)",
                      stage.selectivity, stage.cost_per_attempt_us);
        out += buffer;
      }
    }
    out += ']';
    if (!disabled.empty()) out += " disabled=[" + disabled + ']';
  }
  return out;
}

}  // namespace visualroad::queries
