// BatchEngine: the Scanner-like comparison system.
//
// Architecture (see DESIGN.md): queries execute as a sequence of stages, and
// every stage eagerly materialises its full output before the next begins.
// Frames are dispatched to a worker pool one task per frame (kernel-dispatch
// overhead), inputs are always decoded in their entirety (no lazy temporal
// selection), and materialised tables are retained for the whole batch. When
// the retained set outgrows the memory budget the engine enters a pressure
// regime in which every stage round-trips its output through disk — the
// honest mechanism behind the paper's observation that Scanner "falls behind
// as the scale factor increases ... due to memory thrashing" (Section 6.2).
// The CNN path runs the detector at an enlarged input resolution, modelling
// the heavyweight Caffe execution path the paper calls out for Q2(c).
//
// The queries are written once in query_engine.cc; this file holds the batch
// engine's hooks. Hook lines between "vr:<query>:begin/end" markers count
// toward that query in the Figure 7 lines-of-code bench.

#include <atomic>
#include <cstdio>
#include <memory>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "systems/query_engine.h"
#include "video/image_ops.h"
#include "vision/background.h"
#include "vision/overlay.h"

namespace visualroad::systems {

namespace {

using queries::QueryInstance;
using video::Frame;
using video::Video;

class BatchEngine : public QueryEngine {
 public:
  explicit BatchEngine(const EngineOptions& options)
      : QueryEngine(options, {.name = "BatchEngine",
                              .label = "batch",
                              .map_span = "batch_stage",
                              // The heavyweight framework path.
                              .detector_input_size = 224}),
        pool_(options.threads, "engine_stage") {}

  void Quiesce() override {
    retained_bytes_ = 0;
    QueryEngine::Quiesce();
  }

 private:
  /// Full eager decode through the shared GOP cache. The materialised table
  /// is this engine's copy, hit or miss, so it joins the retained set.
  StatusOr<Video> Decode(const video::codec::EncodedVideo& encoded,
                         Call& call) override {
    TRACE_SPAN("materialize_input");
    VR_ASSIGN_OR_RETURN(Video decoded,
                        video::codec::CachedDecode(encoded, gop_cache_, &call.decode));
    Retain(decoded);
    return decoded;
  }

  // vr:Q1:begin
  /// No lazy temporal selection: the whole input is materialised and the
  /// window sliced out of it, so the plan must not claim a trimmed window.
  void Plan(queries::PlanContext& context, queries::QueryId id) const override {
    QueryEngine::Plan(context, id);
    context.temporal_pushdown = false;
  }

  StatusOr<Video> DecodeWindow(const sim::VideoAsset& asset, int first, int count,
                               Call& call) override {
    VR_ASSIGN_OR_RETURN(Video input, Acquire(asset, call));
    Video window;
    window.fps = input.fps;
    window.frames.assign(input.frames.begin() + first,
                         input.frames.begin() + first + count);
    return window;
  }
  // vr:Q1:end

  /// Grain 1 dispatches one task per frame: the kernel-dispatch overhead
  /// this architecture models. The status-returning executor keeps per-call
  /// completion state, so concurrent instances can share the pool.
  Status ForEachFrame(int frames, const std::function<Status(int)>& body) override {
    return pool_.ParallelForStatus(frames, body, /*grain=*/1);
  }

  /// Every stage materialises its output, which joins the retained set.
  StatusOr<Video> Map(const Video& input, Call& call, const FrameFn& fn) override {
    VR_ASSIGN_OR_RETURN(Video output, QueryEngine::Map(input, call, fn));
    Retain(output);
    VR_RETURN_IF_ERROR(Spill(output, call));
    return output;
  }

  /// In the pressure regime every stage's output is written to disk and read
  /// back (Scanner-style disk-backed tables). Each spill gets its own
  /// anonymous temporary file, removed on close, so concurrent instances,
  /// engines and processes never share one.
  Status Spill(Video& video, Call& call) override {
    if (retained_bytes_ <= options_.memory_budget_bytes || video.frames.empty()) {
      return Status::Ok();
    }
    TRACE_SPAN("spill_roundtrip");
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::tmpfile(), &std::fclose);
    if (file == nullptr) return Status::IoError("cannot create spill file");
    auto each_plane = [&](auto transfer, const char* error) {
      for (Frame& frame : video.frames) {
        for (std::vector<uint8_t>* plane :
             {&frame.y_plane(), &frame.u_plane(), &frame.v_plane()}) {
          if (transfer(plane->data(), plane->size()) != plane->size()) {
            return Status::IoError(error);
          }
        }
      }
      return Status::Ok();
    };
    VR_RETURN_IF_ERROR(each_plane(
        [&](uint8_t* data, size_t size) { return std::fwrite(data, 1, size, file.get()); },
        "short write to spill file"));
    if (std::fflush(file.get()) != 0 || std::fseek(file.get(), 0, SEEK_SET) != 0) {
      return Status::IoError("cannot rewind spill file");
    }
    VR_RETURN_IF_ERROR(each_plane(
        [&](uint8_t* data, size_t size) { return std::fread(data, 1, size, file.get()); },
        "short read from spill file"));
    ++call.counted.chunked_redecodes;
    return Status::Ok();
  }

  // vr:Q2(c),Q7,Q8:begin
  /// The detector's input table is retained like any other stage's.
  StatusOr<Detections> Detect(const QueryInstance& instance,
                              const sim::VideoAsset& asset, const Video& input,
                              Call& call) override {
    VR_ASSIGN_OR_RETURN(Detections detections,
                        QueryEngine::Detect(instance, asset, input, call));
    Retain(input);
    return detections;
  }
  // vr:Q2(c),Q7,Q8:end

  // vr:Q2(d),Q7:begin
  /// Materialised window sums: the batch architecture's natural (and fast)
  /// mean-filter implementation.
  StatusOr<Video> MaskBackground(const Video& input,
                                 const QueryInstance& instance) override {
    return vision::MaskBackgroundRunning(input, instance.q2d_m, instance.q2d_epsilon);
  }
  // vr:Q2(d),Q7:end

  // vr:Q4:begin
  /// Eager materialisation sizes the entire upsampled table up front, and
  /// tables are retained for the whole batch, so successive Q4 instances
  /// push the engine over its ceiling — the paper's Scanner deployment
  /// "quickly allocates all available memory and thereafter fails to make
  /// progress" on this query.
  Status AdmitUpsample(const QueryInstance& instance,
                       const video::codec::EncodedVideo& encoded) override {
    int64_t output_bytes = static_cast<int64_t>(encoded.FrameCount()) *
                           detail::FrameBytes(encoded.width * instance.q45_alpha,
                                              encoded.height * instance.q45_beta);
    if (retained_bytes_ + output_bytes > options_.memory_fail_bytes) {
      retained_bytes_ += output_bytes;  // The doomed allocation still counts.
      return Status::ResourceExhausted(
          "Q4 upsample table exceeds the engine memory ceiling");
    }
    return Status::Ok();
  }
  // vr:Q4:end

  // vr:Q6(a):begin
  /// Consumes the VCD's serialized box-sequence input format: parses the
  /// class-id/coordinate records and rasterises a box table to join.
  StatusOr<Video> BoxVideo(const sim::VideoAsset& asset, const Video& input,
                           QueryOutput& output, Call& call) override {
    const video::container::MetadataTrack* track = asset.container.FindTrack("BOXS");
    if (track == nullptr) {
      return Status::FailedPrecondition("input has no serialized box stream");
    }
    VR_ASSIGN_OR_RETURN(output.detections, vision::ParseDetections(track->payload));
    Video table;
    table.fps = input.fps;
    for (const std::vector<vision::Detection>& boxes : output.detections) {
      table.frames.push_back(
          vision::RenderDetectionFrame(input.Width(), input.Height(), boxes));
    }
    VR_RETURN_IF_ERROR(Spill(table, call));
    return table;
  }
  // vr:Q6(a):end

  // vr:Q6(b):begin
  /// Batch trick: caption overlays are pre-rendered once per distinct
  /// active-cue set and reused across every frame that set covers.
  StatusOr<Video> Caption(const Video& input, const video::WebVttDocument& captions,
                          Call& call) override {
    std::vector<Frame> overlays;
    std::vector<size_t> overlay_of(input.frames.size());
    std::vector<const video::WebVttCue*> last_active;
    for (int f = 0; f < input.FrameCount(); ++f) {
      double seconds = f / input.fps;
      std::vector<const video::WebVttCue*> active = captions.ActiveAt(seconds);
      if (overlays.empty() || active != last_active) {
        overlays.push_back(vision::RenderCaptionFrame(input.Width(), input.Height(),
                                                      captions, seconds));
        last_active = std::move(active);
      }
      overlay_of[static_cast<size_t>(f)] = overlays.size() - 1;
    }
    return Map(input, call, [&](const Frame& f, int i) {
      const Frame& overlay = overlays[overlay_of[static_cast<size_t>(i)]];
      Frame merged(f.width(), f.height());
      for (int y = 0; y < f.height(); ++y) {
        for (int x = 0; x < f.width(); ++x) {
          video::Yuv pixel = video::OmegaCoalesce(
              {f.Y(x, y), f.U(x, y), f.V(x, y)},
              {overlay.Y(x, y), overlay.U(x, y), overlay.V(x, y)});
          merged.SetPixel(x, y, pixel.y, pixel.u, pixel.v);
        }
      }
      return StatusOr<Frame>(std::move(merged));
    });
  }
  // vr:Q6(b):end

  /// Retained-table accounting drives the memory-pressure regime. It is
  /// cross-call state by design: tables are retained for the whole batch.
  void Retain(const Video& table) {
    retained_bytes_ += static_cast<int64_t>(table.FrameCount()) *
                       detail::FrameBytes(table.Width(), table.Height());
  }

  ThreadPool pool_;
  std::atomic<int64_t> retained_bytes_{0};
};

}  // namespace

std::unique_ptr<Vdbms> MakeBatchEngine(const EngineOptions& options) {
  return std::make_unique<BatchEngine>(options);
}

}  // namespace visualroad::systems
