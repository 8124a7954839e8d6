// The shared query bodies: each benchmark query written once, as a sequence
// of calls to the engine hooks declared in query_engine.h, plus the
// execution machinery the three engines share.
//
// Lines between "vr:<query>:begin/end" markers are counted by the Figure 7
// lines-of-code bench, together with each engine's marked hook lines.

#include "systems/query_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>

#include "common/metrics.h"
#include "common/trace.h"
#include "storage/vss.h"
#include "video/image_ops.h"
#include "vision/tiling.h"

namespace visualroad::systems {

using queries::QueryId;
using queries::QueryInstance;
using video::Frame;
using video::Video;

namespace {

/// Encoding of query outputs: a low QP keeps them near-lossless, so frame
/// validation has headroom over the 40 dB threshold.
constexpr int kOutputQp = 12;
constexpr video::codec::Profile kOutputProfile = video::codec::Profile::kH264Like;

/// The vr_engine_* counters, each fed by one EngineStats field.
struct PublishedCounter {
  const char* name;
  const char* help;
  int64_t EngineStats::*field;
};

constexpr PublishedCounter kPublished[] = {
    {"vr_engine_frames_decoded_total",
     "Frames an engine decoded (or pulled decoded from the GOP cache as a miss "
     "leader)",
     &EngineStats::frames_decoded},
    {"vr_engine_frames_encoded_total", "Result frames an engine encoded",
     &EngineStats::frames_encoded},
    {"vr_engine_cache_hits_total",
     "Engine-level cache hits (decoded GOPs and semantic-cache entries)",
     &EngineStats::cache_hits},
    {"vr_engine_cache_misses_total", "Engine-level cache misses",
     &EngineStats::cache_misses},
    {"vr_engine_chunked_redecodes_total",
     "Chunked re-decode passes forced by the materialisation budget",
     &EngineStats::chunked_redecodes},
    {"vr_engine_cnn_frames_full_total", "Frames sent through the full detector",
     &EngineStats::cnn_frames_full},
    {"vr_engine_cnn_frames_cheap_total",
     "Frames handled by a cheap filter (cascade engines)",
     &EngineStats::cnn_frames_cheap},
    {"vr_engine_cnn_frames_skipped_total", "Frames skipped entirely by a cascade",
     &EngineStats::cnn_frames_skipped},
};

metrics::Counter& EngineCounter(const char* name, const char* help,
                                const char* label) {
  return metrics::MetricsRegistry::Global().GetCounter(
      name, help, std::string("engine=\"") + label + "\"");
}

}  // namespace

QueryEngine::QueryEngine(const EngineOptions& options, const Traits& traits)
    : options_(options),
      traits_(traits),
      detector_options_(WithInputSize(options.detector, traits.detector_input_size)),
      detector_(detector_options_),
      gop_cache_(options.gop_cache != nullptr ? *options.gop_cache
                                              : video::codec::GopCache::Global()),
      model_fingerprint_(
          queries::ModelFingerprint(detector_options_, traits.model_variant)),
      semantic_cache_(options.semantic_cache),
      queries_published_(EngineCounter("vr_engine_queries_total",
                                       "Query instances an engine finished executing",
                                       traits.label)) {
  if (semantic_cache_ == nullptr && traits.private_semantic_cache) {
    private_semantic_cache_ = std::make_unique<queries::SemanticCache>();
    semantic_cache_ = private_semantic_cache_.get();
  }
  for (const PublishedCounter& counter : kPublished) {
    published_.push_back(&EngineCounter(counter.name, counter.help, traits.label));
  }
}

StatusOr<QueryOutput> QueryEngine::Execute(const QueryInstance& instance,
                                           const sim::Dataset& dataset,
                                           OutputMode mode,
                                           const std::string& output_dir,
                                           EngineStats* call_stats) {
  trace::Span span(std::string(traits_.label) + ":" + queries::QueryName(instance.id));
  Call call;
  StatusOr<QueryOutput> result =
      Supports(instance.id)
          ? Run(instance, dataset, mode, output_dir, call)
          : Status::Unimplemented(std::string(name()) + " does not support " +
                                  queries::QueryName(instance.id));
  EngineStats window = call.counted;
  window.frames_decoded += call.decode.frames_decoded.load();
  window.cache_hits += call.decode.hits.load();
  window.cache_misses += call.decode.misses.load();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.Add(window);
  }
  queries_published_.Increment();
  for (size_t i = 0; i < published_.size(); ++i) {
    published_[i]->Increment(static_cast<double>(window.*kPublished[i].field));
  }
  if (call_stats != nullptr) *call_stats = window;
  return result;
}

EngineStats QueryEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void QueryEngine::Quiesce() {
  gop_cache_.Clear();
  if (private_semantic_cache_ != nullptr) private_semantic_cache_->Clear();
}

std::string QueryEngine::Explain(const QueryInstance& instance,
                                 const sim::Dataset& dataset) {
  if (!Supports(instance.id)) return "";
  std::string out = std::string(name()) + ": ";
  if (instance.id == QueryId::kQ8) {
    // Q8 decodes every traffic stream and detects on each through the
    // semantic cache, as Q7 does on its one stream: one Q7 plan per stream.
    QueryInstance per_stream = instance;
    per_stream.id = QueryId::kQ7;
    std::vector<const sim::VideoAsset*> traffic = dataset.TrafficAssets();
    for (size_t a = 0; a < traffic.size(); ++a) {
      queries::QueryPlan plan = queries::PlanQuery(
          per_stream, PlanContextFor(QueryId::kQ7, traffic[a]->container.video));
      plan.id = QueryId::kQ8;
      out += (a > 0 ? "; " : "") + queries::ExplainPlan(plan);
    }
    return out;
  }
  StatusOr<const sim::VideoAsset*> asset = detail::InputAsset(instance, dataset);
  if (!asset.ok()) return "";
  return out + queries::ExplainPlan(queries::PlanQuery(
                   instance, PlanContextFor(instance.id, (*asset)->container.video)));
}

queries::PlanContext QueryEngine::PlanContextFor(
    QueryId id, const video::codec::EncodedVideo& meta) const {
  queries::PlanContext context;
  context.meta.identity = video::codec::StreamIdentity(meta);
  context.meta.frame_count = meta.FrameCount();
  context.meta.width = meta.width;
  context.meta.height = meta.height;
  context.meta.fps = meta.fps;
  context.cache = semantic_cache_;
  context.key = SemanticKeyFor(context.meta.identity);
  Plan(context, id);
  return context;
}

void QueryEngine::Plan(queries::PlanContext& context, QueryId id) const {
  if (id == QueryId::kQ2c || id == QueryId::kQ7) {
    context.stages = {traits_.model_variant +
                      std::to_string(detector_options_.input_size)};
  }
}

queries::SemanticKey QueryEngine::SemanticKeyFor(uint64_t stream) const {
  queries::SemanticKey key;
  key.stream = stream;
  key.model = model_fingerprint_;
  key.threshold = 0.0;  // Raw detector output is what gets materialized.
  return key;
}

// --- Default hooks ---

StatusOr<Video> QueryEngine::Decode(const video::codec::EncodedVideo& encoded,
                                    Call& call) {
  TRACE_SPAN("decode_cached");
  return video::codec::CachedDecode(encoded, gop_cache_, &call.decode);
}

StatusOr<Video> QueryEngine::DecodeWindow(const sim::VideoAsset& asset, int first,
                                          int count, Call& call) {
  // Lazy temporal selection: only the keyframe-aligned range that covers the
  // window is decoded, and with a storage service configured only its
  // covering GOP-aligned segments are fetched.
  if (options_.vss == nullptr) {
    return video::codec::CachedDecodeRange(asset.container.video, first, count,
                                           gop_cache_, &call.decode);
  }
  const std::string name = storage::CameraStreamName(asset.camera.camera_id);
  VR_ASSIGN_OR_RETURN(storage::RangeRead range,
                      options_.vss->ReadRange(name, first, count));
  return video::codec::CachedDecodeRange(*range.video, first - range.first_frame,
                                         count, gop_cache_, &call.decode);
}

Status QueryEngine::ForEachFrame(int frames, const std::function<Status(int)>& body) {
  for (int i = 0; i < frames; ++i) VR_RETURN_IF_ERROR(body(i));
  return Status::Ok();
}

StatusOr<Video> QueryEngine::Map(const Video& input, Call&, const FrameFn& fn) {
  trace::Span span(traits_.map_span);
  Video output;
  output.fps = input.fps;
  output.frames.resize(input.frames.size());
  VR_RETURN_IF_ERROR(ForEachFrame(input.FrameCount(), [&](int i) {
    VR_ASSIGN_OR_RETURN(output.frames[static_cast<size_t>(i)],
                        fn(input.frames[static_cast<size_t>(i)], i));
    return Status::Ok();
  }));
  return output;
}

Status QueryEngine::Spill(Video&, Call&) { return Status::Ok(); }

StatusOr<QueryEngine::Detections> QueryEngine::Detect(const QueryInstance&,
                                                      const sim::VideoAsset& asset,
                                                      const Video& input, Call& call) {
  TRACE_SPAN("detect_stage");
  static const sim::FrameGroundTruth kEmpty;
  Detections detections(input.frames.size());
  VR_RETURN_IF_ERROR(ForEachFrame(input.FrameCount(), [&](int i) {
    const size_t f = static_cast<size_t>(i);
    detections[f] = detector_.Detect(
        input.frames[f], f < asset.ground_truth.size() ? asset.ground_truth[f] : kEmpty, i);
    return Status::Ok();
  }));
  call.counted.cnn_frames_full += input.FrameCount();
  return detections;
}

StatusOr<Video> QueryEngine::MaskBackground(const Video&, const QueryInstance&) {
  return Status::Unimplemented("no background-mask strategy");
}

StatusOr<Video> QueryEngine::BoxVideo(const sim::VideoAsset&, const Video&,
                                      QueryOutput&, Call&) {
  return Status::Unimplemented("no box-join strategy");
}

StatusOr<Video> QueryEngine::Caption(const Video&, const video::WebVttDocument&,
                                     Call&) {
  return Status::Unimplemented("no captioning strategy");
}

Status QueryEngine::AdmitUpsample(const QueryInstance&,
                                  const video::codec::EncodedVideo&) {
  return Status::Ok();
}

// --- Shared paths ---

StatusOr<std::shared_ptr<const video::codec::EncodedVideo>> QueryEngine::ResolveInput(
    const sim::VideoAsset& asset) const {
  if (options_.vss == nullptr) {
    // The dataset outlives the engine call, so an empty deleter is sound.
    return std::shared_ptr<const video::codec::EncodedVideo>(
        &asset.container.video, [](const video::codec::EncodedVideo*) {});
  }
  return options_.vss->ReadVideo(storage::CameraStreamName(asset.camera.camera_id));
}

StatusOr<Video> QueryEngine::Acquire(const sim::VideoAsset& asset, Call& call) {
  VR_ASSIGN_OR_RETURN(std::shared_ptr<const video::codec::EncodedVideo> encoded,
                      ResolveInput(asset));
  return Decode(*encoded, call);
}

Status QueryEngine::Finish(const Video& result, const QueryInstance& instance,
                           OutputMode mode, const std::string& output_dir,
                           QueryOutput& output, Call& call) {
  // Streaming mode sends results "to the null device" (Section 6.4): the
  // output is still encoded — that work is part of the query — but the
  // bitstream is discarded instead of persisted. An empty result (e.g. a Q8
  // query for an unseen plate) still counts as produced in write mode; there
  // is simply nothing to encode or persist.
  output.produced = mode == OutputMode::kWrite;
  if (result.frames.empty()) return Status::Ok();
  video::codec::EncodedVideo encoded;
  {
    TRACE_SPAN("encode_output");
    video::codec::EncoderConfig config;
    config.profile = kOutputProfile;
    config.qp = kOutputQp;
    VR_ASSIGN_OR_RETURN(encoded, video::codec::ParallelEncode(result, config,
                                                              options_.codec_threads));
  }
  call.counted.frames_encoded += result.FrameCount();
  if (mode == OutputMode::kStreaming) return Status::Ok();
  output.video = std::move(encoded);
  if (output_dir.empty()) return Status::Ok();

  TRACE_SPAN("persist_output");
  std::error_code ec;
  std::filesystem::create_directories(output_dir, ec);
  std::string path = output_dir + "/" + name() + "_" + queries::QueryName(instance.id) +
                     "_" + std::to_string(instance.video_index) + ".vrmp";
  // Sanitise the parenthesised query names for the filesystem.
  for (char& c : path) {
    if (c == '(' || c == ')') c = '_';
  }
  video::container::Container container;
  container.video = output.video;
  VR_RETURN_IF_ERROR(video::container::WriteContainerFile(container, path));
  output.written_path = path;
  return Status::Ok();
}

StatusOr<QueryEngine::Detections> QueryEngine::CachedDetect(
    const QueryInstance& instance, const sim::VideoAsset& asset, const Video* decoded,
    Call& call) {
  VR_ASSIGN_OR_RETURN(std::shared_ptr<const video::codec::EncodedVideo> encoded,
                      ResolveInput(asset));
  auto compute = [&]() -> StatusOr<Detections> {
    if (decoded != nullptr) return Detect(instance, asset, *decoded, call);
    VR_ASSIGN_OR_RETURN(Video input, Decode(*encoded, call));
    return Detect(instance, asset, input, call);
  };
  if (semantic_cache_ == nullptr) return compute();
  // With a warm cache nothing is decoded and the detector never runs.
  const queries::SemanticKey key = SemanticKeyFor(video::codec::StreamIdentity(*encoded));
  auto fill = [&]() -> StatusOr<queries::SemanticEntry> {
    queries::SemanticEntry fresh;
    fresh.key = key;
    fresh.width = encoded->width;
    fresh.height = encoded->height;
    fresh.fps = encoded->fps;
    VR_ASSIGN_OR_RETURN(fresh.detections, compute());
    return fresh;
  };
  queries::SemanticCache::Outcome outcome;
  VR_ASSIGN_OR_RETURN(std::shared_ptr<const queries::SemanticEntry> entry,
                      semantic_cache_->GetOrCompute(key, fill, &outcome));
  if (entry->Covers(encoded->FrameCount())) {
    if (outcome == queries::SemanticCache::Outcome::kHit) ++call.counted.cache_hits;
    return entry->detections;
  }
  // A loaded or shipped entry whose frame count is not the stream's is
  // corrupt: replace it with a fresh computation rather than read past it.
  VR_ASSIGN_OR_RETURN(queries::SemanticEntry fresh, fill());
  Detections detections = fresh.detections;
  semantic_cache_->Insert(std::move(fresh));
  return detections;
}

StatusOr<queries::ReferenceResult> QueryEngine::Boxes(const QueryInstance& instance,
                                                      const sim::VideoAsset& asset,
                                                      const Video* decoded,
                                                      Call& call) {
  VR_ASSIGN_OR_RETURN(Detections detections,
                      CachedDetect(instance, asset, decoded, call));
  // The resolved input is byte-identical to the in-memory container, so the
  // container's geometry is the stream's.
  const video::codec::EncodedVideo& meta = asset.container.video;
  return queries::RenderBoxesFromDetections(meta.width, meta.height, meta.fps,
                                            detections, instance.object_class);
}

// vr:Q9,Q10:begin
StatusOr<Video> QueryEngine::Panorama(const sim::Dataset& dataset, int pano_group,
                                      Call& call) {
  VR_ASSIGN_OR_RETURN(queries::RigFaces faces,
                      queries::PanoramicFaces(dataset, pano_group));
  std::array<Video, 4> decoded;
  for (size_t f = 0; f < faces.size(); ++f) {
    VR_ASSIGN_OR_RETURN(decoded[f], Acquire(*faces[f], call));
  }
  return queries::StitchFaces(dataset.config, faces, decoded);
}
// vr:Q9,Q10:end

// --- The query bodies ---

StatusOr<QueryOutput> QueryEngine::Run(const QueryInstance& instance,
                                       const sim::Dataset& dataset, OutputMode mode,
                                       const std::string& output_dir, Call& call) {
  QueryOutput output;
  Video result;
  const sim::VideoAsset* asset = nullptr;
  if (instance.id < QueryId::kQ8) {  // Q8-Q10 read more than one stream.
    VR_ASSIGN_OR_RETURN(asset, detail::InputAsset(instance, dataset));
  }

  switch (instance.id) {
    case QueryId::kQ1: {
      // vr:Q1:begin
      const video::codec::EncodedVideo& meta = asset->container.video;
      int first = std::clamp(static_cast<int>(instance.q1_t1 * meta.fps), 0,
                             meta.FrameCount() - 1);
      int last = std::clamp(static_cast<int>(std::ceil(instance.q1_t2 * meta.fps)),
                            first + 1, meta.FrameCount());
      VR_ASSIGN_OR_RETURN(Video window, DecodeWindow(*asset, first, last - first, call));
      VR_ASSIGN_OR_RETURN(result, Map(window, call, [&](const Frame& f, int) {
                            return video::Crop(f, instance.q1_rect);
                          }));
      // vr:Q1:end
      break;
    }
    case QueryId::kQ2a: {
      // vr:Q2(a):begin
      VR_ASSIGN_OR_RETURN(Video input, Acquire(*asset, call));
      VR_ASSIGN_OR_RETURN(result, Map(input, call, [](const Frame& f, int) {
                            return StatusOr<Frame>(video::Grayscale(f));
                          }));
      // vr:Q2(a):end
      break;
    }
    case QueryId::kQ2b: {
      // vr:Q2(b):begin
      VR_ASSIGN_OR_RETURN(Video input, Acquire(*asset, call));
      VR_ASSIGN_OR_RETURN(result, Map(input, call, [&](const Frame& f, int) {
                            return video::GaussianBlur(f, instance.q2b_d);
                          }));
      // vr:Q2(b):end
      break;
    }
    case QueryId::kQ2c: {
      // vr:Q2(c):begin
      // The box video is a pure function of the detections, so with a warm
      // semantic cache this query never invokes the decoder at all.
      VR_ASSIGN_OR_RETURN(queries::ReferenceResult boxes,
                          Boxes(instance, *asset, /*decoded=*/nullptr, call));
      result = std::move(boxes.video);
      output.detections = std::move(boxes.detections);
      // vr:Q2(c):end
      break;
    }
    case QueryId::kQ2d: {
      // vr:Q2(d):begin
      VR_ASSIGN_OR_RETURN(Video input, Acquire(*asset, call));
      VR_ASSIGN_OR_RETURN(result, MaskBackground(input, instance));
      VR_RETURN_IF_ERROR(Spill(result, call));
      // vr:Q2(d):end
      break;
    }
    case QueryId::kQ3: {
      // vr:Q3:begin
      VR_ASSIGN_OR_RETURN(Video input, Acquire(*asset, call));
      VR_ASSIGN_OR_RETURN(result, vision::TiledReencode(input, instance.q3_dx,
                                                        instance.q3_dy,
                                                        instance.q3_bitrates,
                                                        kOutputProfile));
      VR_RETURN_IF_ERROR(Spill(result, call));
      // vr:Q3:end
      break;
    }
    case QueryId::kQ4: {
      // vr:Q4:begin
      VR_RETURN_IF_ERROR(AdmitUpsample(instance, asset->container.video));
      VR_ASSIGN_OR_RETURN(Video input, Acquire(*asset, call));
      VR_ASSIGN_OR_RETURN(result, Map(input, call, [&](const Frame& f, int) {
                            return video::BilinearResize(
                                f, f.width() * instance.q45_alpha,
                                f.height() * instance.q45_beta);
                          }));
      // vr:Q4:end
      break;
    }
    case QueryId::kQ5: {
      // vr:Q5:begin
      VR_ASSIGN_OR_RETURN(Video input, Acquire(*asset, call));
      VR_ASSIGN_OR_RETURN(result, Map(input, call, [&](const Frame& f, int) {
                            return video::Downsample(
                                f, std::max(1, f.width() / instance.q45_alpha),
                                std::max(1, f.height() / instance.q45_beta));
                          }));
      // vr:Q5:end
      break;
    }
    case QueryId::kQ6a: {
      // vr:Q6(a):begin
      VR_ASSIGN_OR_RETURN(Video input, Acquire(*asset, call));
      VR_ASSIGN_OR_RETURN(Video boxes, BoxVideo(*asset, input, output, call));
      VR_ASSIGN_OR_RETURN(result, queries::UnionBoxesQuery(input, boxes));
      VR_RETURN_IF_ERROR(Spill(result, call));
      // vr:Q6(a):end
      break;
    }
    case QueryId::kQ6b: {
      // vr:Q6(b):begin
      const video::container::MetadataTrack* track = asset->container.FindTrack("WVTT");
      if (track == nullptr) {
        return Status::FailedPrecondition("input has no caption track");
      }
      VR_ASSIGN_OR_RETURN(video::WebVttDocument captions,
                          video::ParseWebVtt(std::string(track->payload.begin(),
                                                         track->payload.end())));
      VR_ASSIGN_OR_RETURN(Video input, Acquire(*asset, call));
      VR_ASSIGN_OR_RETURN(result, Caption(input, captions, call));
      // vr:Q6(b):end
      break;
    }
    case QueryId::kQ7: {
      // vr:Q7:begin
      // The union and mask are pixel-level, so Q7 always decodes; a warm
      // semantic cache still skips the detector (the dominant cost).
      VR_ASSIGN_OR_RETURN(Video input, Acquire(*asset, call));
      VR_ASSIGN_OR_RETURN(queries::ReferenceResult boxes,
                          Boxes(instance, *asset, &input, call));
      VR_ASSIGN_OR_RETURN(Video merged, queries::UnionBoxesQuery(input, boxes.video));
      VR_RETURN_IF_ERROR(Spill(merged, call));
      VR_ASSIGN_OR_RETURN(result, MaskBackground(merged, instance));
      output.detections = std::move(boxes.detections);
      // vr:Q7:end
      break;
    }
    case QueryId::kQ8: {
      // vr:Q8:begin
      // The plate search reads pixels, so every traffic stream is decoded; a
      // semantic cache warmed by Q2(c) over the same streams skips the detector.
      std::vector<const sim::VideoAsset*> traffic = dataset.TrafficAssets();
      std::vector<Video> streams(traffic.size());
      std::vector<Detections> detections(traffic.size());
      for (size_t a = 0; a < traffic.size(); ++a) {
        VR_ASSIGN_OR_RETURN(streams[a], Acquire(*traffic[a], call));
        VR_ASSIGN_OR_RETURN(detections[a],
                            CachedDetect(instance, *traffic[a], &streams[a], call));
      }
      result = queries::TrackPlate(streams, detections, instance.q8_plate,
                                   dataset.config.fps, nullptr);
      // vr:Q8:end
      break;
    }
    case QueryId::kQ9: {
      // vr:Q9:begin
      VR_ASSIGN_OR_RETURN(result, Panorama(dataset, instance.pano_group, call));
      VR_RETURN_IF_ERROR(Spill(result, call));
      // vr:Q9:end
      break;
    }
    case QueryId::kQ10: {
      // vr:Q10:begin
      VR_ASSIGN_OR_RETURN(Video stitched, Panorama(dataset, instance.pano_group, call));
      VR_ASSIGN_OR_RETURN(result, queries::TileStreamQuery(
                                      stitched, instance.q10_bitrates,
                                      instance.q10_client_width,
                                      instance.q10_client_height,
                                      kOutputProfile));
      // vr:Q10:end
      break;
    }
    default:
      return Status::Unimplemented("unknown query");
  }
  VR_RETURN_IF_ERROR(Finish(result, instance, mode, output_dir, output, call));
  return output;
}

}  // namespace visualroad::systems
