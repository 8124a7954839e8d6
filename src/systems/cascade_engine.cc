// CascadeEngine: the NoScope-like comparison system.
//
// Architecture (see DESIGN.md): a highly specialised engine supporting only
// the two operations its design targets — temporal selection (Q1) and CNN
// object detection (Q2(c)). Its Q2(c) path is a model cascade: a cheap
// frame-difference detector skips inference on frames nearly identical to
// the last processed one, a small CNN handles most of the rest, and the full
// reference network runs only on frames whose cheap-model confidence is
// ambiguous. That is why it dominates Figure 5/6 on Q2(c) while supporting
// nothing else.
//
// The queries are written once in query_engine.cc; this file holds the
// cascade engine's hooks. Hook lines between "vr:<query>:begin/end" markers
// count toward that query in the Figure 7 lines-of-code bench.

#include "common/stopwatch.h"
#include "common/trace.h"
#include "systems/query_engine.h"
#include "video/metrics.h"

namespace visualroad::systems {

namespace {

using queries::QueryId;
using queries::QueryInstance;
using video::Frame;
using video::Video;

class CascadeEngine : public QueryEngine {
 public:
  // The cascade's output depends on the whole model stack, not just the
  // anchor network (the base detector, at 96), so the fingerprint carries a
  // stack variant tag: its entries never answer probes from the
  // single-detector engines.
  explicit CascadeEngine(const EngineOptions& options)
      : QueryEngine(options, {.name = "CascadeEngine",
                              .label = "cascade",
                              .map_span = "cascade_crop",
                              .detector_input_size = 96,
                              .model_variant = "cascade48+96"}),
        cheap_detector_(WithInputSize(options.detector, 48)) {}

  bool Supports(QueryId id) const override {
    return id == QueryId::kQ1 || id == QueryId::kQ2c;
  }

  void Quiesce() override {
    QueryEngine::Quiesce();
    tracker_.Clear();
  }

 private:
  // vr:Q2(c):begin
  /// The planner weighs the measured selectivity and cost of the three
  /// stages, and may disable a prefilter that cannot pay for itself — e.g.
  /// the difference detector on busy streets where no frame ever repeats, or
  /// the cheap model when nearly every frame escalates anyway.
  void Plan(queries::PlanContext& context, QueryId id) const override {
    context.tracker = &tracker_;
    if (id == QueryId::kQ2c) {
      context.stages = {"cascade.diff", "cascade.cheap", "cascade.full"};
    }
  }

  /// The planned model cascade over a decoded input, always in the order
  /// diff, cheap, full. Each stage's attempts, resolutions, and wall time
  /// feed the selectivity tracker, which the planner's decision to disable
  /// a stage is measured against.
  StatusOr<Detections> Detect(const QueryInstance& instance,
                              const sim::VideoAsset& asset, const Video& input,
                              Call& call) override {
    queries::QueryPlan plan = queries::PlanQuery(
        instance, PlanContextFor(instance.id, asset.container.video));
    bool diff_enabled = true;
    bool cheap_enabled = true;
    for (const queries::PlanStage& stage : plan.stages) {
      if (stage.name == "cascade.diff") diff_enabled = stage.enabled;
      if (stage.name == "cascade.cheap") cheap_enabled = stage.enabled;
    }

    Detections result;
    result.reserve(input.frames.size());
    std::vector<vision::Detection> last_detections;
    const Frame* last_processed = nullptr;
    static const sim::FrameGroundTruth kEmpty;
    int64_t diff_attempts = 0, diff_resolved = 0;
    int64_t cheap_attempts = 0, cheap_resolved = 0;
    int64_t full_attempts = 0;
    double diff_seconds = 0.0, cheap_seconds = 0.0, full_seconds = 0.0;

    trace::Span detect_span("cascade_detect");
    for (int f = 0; f < input.FrameCount(); ++f) {
      const Frame& frame = input.frames[static_cast<size_t>(f)];
      const sim::FrameGroundTruth& gt =
          static_cast<size_t>(f) < asset.ground_truth.size()
              ? asset.ground_truth[static_cast<size_t>(f)]
              : kEmpty;

      // Stage 1: difference detector. A frame close to the last processed
      // one reuses its detections outright.
      bool reuse = false;
      if (diff_enabled && last_processed != nullptr) {
        Stopwatch diff_watch;
        StatusOr<double> mse = video::LumaMse(frame, *last_processed);
        diff_seconds += diff_watch.ElapsedSeconds();
        ++diff_attempts;
        reuse = mse.ok() && *mse < 2.0;
      }
      std::vector<vision::Detection> detections;
      if (reuse) {
        ++diff_resolved;
        detections = last_detections;
        ++call.counted.cnn_frames_skipped;
      } else {
        // Stage 2: the cheap model. Ambiguous confidence escalates to the
        // full model (stage 3); with the cheap stage planned out, every
        // frame goes straight to the full model.
        bool ambiguous = !cheap_enabled;
        if (cheap_enabled) {
          Stopwatch cheap_watch;
          detections = cheap_detector_.Detect(frame, gt, f);
          cheap_seconds += cheap_watch.ElapsedSeconds();
          ++cheap_attempts;
          ++call.counted.cnn_frames_cheap;
          for (const vision::Detection& d : detections) {
            if (d.score > 0.35 && d.score < 0.75) ambiguous = true;
          }
          if (!ambiguous) ++cheap_resolved;
        }
        if (ambiguous) {
          Stopwatch full_watch;
          detections = detector_.Detect(frame, gt, f);
          full_seconds += full_watch.ElapsedSeconds();
          ++full_attempts;
          ++call.counted.cnn_frames_full;
        }
        last_processed = &frame;
        last_detections = detections;
      }
      result.push_back(std::move(detections));
    }
    tracker_.Record("cascade.diff", diff_attempts, diff_resolved, diff_seconds);
    tracker_.Record("cascade.cheap", cheap_attempts, cheap_resolved, cheap_seconds);
    tracker_.Record("cascade.full", full_attempts, full_attempts, full_seconds);
    return result;
  }
  // vr:Q2(c):end

  const vision::MiniYolo cheap_detector_;  // The cascade's small model.
  queries::SelectivityTracker tracker_;
};

}  // namespace

std::unique_ptr<Vdbms> MakeCascadeEngine(const EngineOptions& options) {
  return std::make_unique<CascadeEngine>(options);
}

}  // namespace visualroad::systems
