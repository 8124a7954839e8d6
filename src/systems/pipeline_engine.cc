// PipelineEngine: the LightDB-like comparison system.
//
// Architecture (see DESIGN.md): queries execute as fused per-frame pipelines
// — decode a frame, run every operator on it, feed it straight to the output
// encoder — so nothing is materialised beyond the operator state that a
// window genuinely requires. Decoded content flows through the shared GOP
// cache (keyed by bitstream identity and GOP start) and detections through a
// semantic cache (the injected one, else a private one), which is the
// mechanism behind the duplicate-corpus speedups of Table 9: repeated inputs
// skip the decoder and the CNN entirely. Temporal selection (Q1) is pushed
// into the decoder via keyframe-aligned range decoding that fetches only the
// covering GOPs. Two deliberate weak spots mirror the paper's findings: the
// mean filter recomputes its window per frame (no materialised running sums),
// and the captioning path is a scalar per-pixel renderer ("a CPU-only
// implementation of the captioning query").
//
// The queries are written once in query_engine.cc; this file holds the
// pipeline engine's hooks. Hook lines between "vr:<query>:begin/end" markers
// count toward that query in the Figure 7 lines-of-code bench.

#include "systems/query_engine.h"
#include "video/image_ops.h"
#include "vision/background.h"
#include "vision/overlay.h"

namespace visualroad::systems {

namespace {

using queries::QueryInstance;
using video::Frame;
using video::Video;

class PipelineEngine : public QueryEngine {
 public:
  explicit PipelineEngine(const EngineOptions& options)
      : QueryEngine(options, {.name = "PipelineEngine",
                              .label = "pipeline",
                              .map_span = "fused_pipeline",
                              // The fused fast path.
                              .detector_input_size = 96,
                              .private_semantic_cache = true}) {}

 private:
  // vr:Q2(d),Q7:begin
  /// The fused pipeline holds no materialised window sums, so the mean
  /// filter recomputes its window per frame (the paper's slow path).
  StatusOr<Video> MaskBackground(const Video& input,
                                 const QueryInstance& instance) override {
    return vision::MaskBackgroundNaive(input, instance.q2d_m, instance.q2d_epsilon);
  }
  // vr:Q2(d),Q7:end

  // vr:Q6(a):begin
  /// Consumes the VCD's encoded box-video input, which flows through the
  /// shared GOP cache like any other stream.
  StatusOr<Video> BoxVideo(const sim::VideoAsset& asset, const Video&, QueryOutput&,
                           Call& call) override {
    const video::container::MetadataTrack* track = asset.container.FindTrack("BOXV");
    if (track == nullptr) {
      return Status::FailedPrecondition("input has no offline box video");
    }
    VR_ASSIGN_OR_RETURN(video::container::Container boxes,
                        video::container::Demux(track->payload));
    return Decode(boxes.video, call);
  }
  // vr:Q6(a):end

  // vr:Q6(b):begin
  /// Scalar CPU captioning: each frame re-renders its overlay from the cue
  /// list and coalesces through a float RGB round-trip per pixel.
  StatusOr<Video> Caption(const Video& input, const video::WebVttDocument& captions,
                          Call& call) override {
    return Map(input, call, [&](const Frame& f, int i) {
      Frame overlay =
          vision::RenderCaptionFrame(f.width(), f.height(), captions, i / input.fps);
      Frame merged(f.width(), f.height());
      for (int y = 0; y < f.height(); ++y) {
        for (int x = 0; x < f.width(); ++x) {
          video::Yuv base{f.Y(x, y), f.U(x, y), f.V(x, y)};
          video::Yuv over{overlay.Y(x, y), overlay.U(x, y), overlay.V(x, y)};
          // Linear-light blend path: convert through RGB floats even for the
          // pass-through case.
          video::Rgb base_rgb = video::YuvToRgb(base);
          video::Rgb over_rgb = video::YuvToRgb(over);
          video::Yuv out = video::RgbToYuv(video::IsOmega(over) ? base_rgb : over_rgb);
          merged.SetPixel(x, y, out.y, out.u, out.v);
        }
      }
      return StatusOr<Frame>(std::move(merged));
    });
  }
  // vr:Q6(b):end
};

}  // namespace

std::unique_ptr<Vdbms> MakePipelineEngine(const EngineOptions& options) {
  return std::make_unique<PipelineEngine>(options);
}

}  // namespace visualroad::systems
