#ifndef VISUALROAD_SYSTEMS_QUERY_ENGINE_H_
#define VISUALROAD_SYSTEMS_QUERY_ENGINE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "systems/vdbms.h"
#include "video/codec/gop_cache.h"

namespace visualroad::systems {

/// The half of the three comparison engines they share. Each benchmark query
/// is written once, in query_engine.cc, as a short sequence of calls to the
/// hooks below, and an engine is its hooks: how it acquires frames, runs a
/// per-frame map, spills and detects, plus the deliberate algorithm choices
/// the paper measures. This class owns, once, what the engines have in
/// common: Execute with its per-instance span, the per-call counters and
/// their fold into stats() and the vr_engine_* registry counters, result
/// encoding, the path that reads detections from the semantic cache or
/// computes them, and the plan context behind Explain.
class QueryEngine : public Vdbms {
 public:
  const char* name() const override { return traits_.name; }
  bool Supports(queries::QueryId) const override { return true; }
  /// Engine state is atomic, mutex-guarded or per-call, so the VCD may fan
  /// batch instances out to any of the engines concurrently.
  bool ConcurrentSafe() const override { return true; }
  StatusOr<QueryOutput> Execute(const queries::QueryInstance& instance,
                                const sim::Dataset& dataset, OutputMode mode,
                                const std::string& output_dir,
                                EngineStats* call_stats = nullptr) final;
  /// Q8 reads every traffic stream, so its explanation is one plan per
  /// traffic stream, in TrafficAssets() order, joined by "; ".
  std::string Explain(const queries::QueryInstance& instance,
                      const sim::Dataset& dataset) final;
  /// Clears the decoded-GOP cache and a private semantic cache.
  void Quiesce() override;
  EngineStats stats() const final;

 protected:
  using Detections = std::vector<std::vector<vision::Detection>>;
  using FrameFn =
      std::function<StatusOr<video::Frame>(const video::Frame&, int)>;

  /// Counters for exactly one Execute() call. The decode counters are atomic
  /// because the codec updates them from its own pool threads.
  struct Call {
    video::codec::GopCacheCounters decode;
    EngineStats counted;  // Everything the decode counters do not cover.
  };

  /// What distinguishes one engine's shared machinery from another's.
  struct Traits {
    const char* name;      // Vdbms::name().
    const char* label;     // Span prefix ("batch:Q1") and engine="..." label.
    const char* map_span;  // The span around one per-frame map.
    int detector_input_size;
    /// Fingerprint variant of the detections this engine materializes.
    const char* model_variant = "miniyolo";
    /// Keep a private semantic cache when EngineOptions names none.
    bool private_semantic_cache = false;
  };

  QueryEngine(const EngineOptions& options, const Traits& traits);

  static vision::DetectorOptions WithInputSize(vision::DetectorOptions options,
                                               int size) {
    options.input_size = size;
    return options;
  }

  // --- Hooks: how frames are acquired. ---

  /// Decodes a whole resolved input bitstream.
  virtual StatusOr<video::Video> Decode(const video::codec::EncodedVideo& encoded,
                                        Call& call);
  /// Frames [first, first + count) of `asset` (Q1). By default only the
  /// covering GOPs are fetched and decoded.
  virtual StatusOr<video::Video> DecodeWindow(const sim::VideoAsset& asset, int first,
                                              int count, Call& call);

  // --- Hooks: how a per-frame map runs, where spills happen. ---

  /// Runs `body` for every frame index; serial by default.
  virtual Status ForEachFrame(int frames, const std::function<Status(int)>& body);
  /// Applies `fn` to every frame of `input` through ForEachFrame.
  virtual StatusOr<video::Video> Map(const video::Video& input, Call& call,
                                     const FrameFn& fn);
  /// Called on each intermediate result an engine may spill; no-op by default.
  virtual Status Spill(video::Video& video, Call& call);

  // --- Hooks: how detection runs. ---

  /// Per-frame detections of `input`, unfiltered by object class (the form
  /// the semantic cache stores). By default the detector runs on every frame
  /// through ForEachFrame.
  virtual StatusOr<Detections> Detect(const queries::QueryInstance& instance,
                                      const sim::VideoAsset& asset,
                                      const video::Video& input, Call& call);

  // --- Hooks: the deliberate algorithm choices the paper measures. An
  // engine that does not support a query keeps the default, which Execute
  // never reaches. ---

  /// The Q2(d)/Q7 background mask: running window sums or a naive window.
  virtual StatusOr<video::Video> MaskBackground(const video::Video& input,
                                                const queries::QueryInstance& instance);
  /// The Q6(a) box video to join with `input`; may fill output.detections.
  virtual StatusOr<video::Video> BoxVideo(const sim::VideoAsset& asset,
                                          const video::Video& input,
                                          QueryOutput& output, Call& call);
  /// The Q6(b) captioned video.
  virtual StatusOr<video::Video> Caption(const video::Video& input,
                                         const video::WebVttDocument& captions,
                                         Call& call);
  /// Admission of a Q4 upsample of `encoded`; Ok by default.
  virtual Status AdmitUpsample(const queries::QueryInstance& instance,
                               const video::codec::EncodedVideo& encoded);
  /// Fills the engine's part of a plan: its inference stages for `id`, and
  /// whether it pushes temporal predicates into the decoder.
  virtual void Plan(queries::PlanContext& context, queries::QueryId id) const;

  /// Resolves and decodes the whole input stream of `asset`.
  StatusOr<video::Video> Acquire(const sim::VideoAsset& asset, Call& call);
  /// The plan context for `id` over the stream `meta`: stream facts, cache
  /// and key, then the engine's Plan().
  queries::PlanContext PlanContextFor(queries::QueryId id,
                                      const video::codec::EncodedVideo& meta) const;

  const EngineOptions options_;
  const Traits traits_;
  const vision::DetectorOptions detector_options_;
  const vision::MiniYolo detector_;
  video::codec::GopCache& gop_cache_;

 private:
  StatusOr<QueryOutput> Run(const queries::QueryInstance& instance,
                            const sim::Dataset& dataset, OutputMode mode,
                            const std::string& output_dir, Call& call);
  /// The input bitstream of `asset`: read from the storage service when one
  /// is configured (storage-backed offline mode), else a view of the
  /// in-memory container. Byte-identical either way.
  StatusOr<std::shared_ptr<const video::codec::EncodedVideo>> ResolveInput(
      const sim::VideoAsset& asset) const;
  /// Encodes `result` and, in write mode, keeps it in `output` and persists
  /// it as a container under `output_dir`.
  Status Finish(const video::Video& result, const queries::QueryInstance& instance,
                OutputMode mode, const std::string& output_dir, QueryOutput& output,
                Call& call);
  /// `asset`'s per-frame detections, unfiltered by object class: read from
  /// the semantic cache when it holds them, else computed by Detect (from
  /// `decoded` when the caller already holds the frames). Q2(c), Q7 and Q8
  /// share this step, so each fills the cache for the others.
  StatusOr<Detections> CachedDetect(const queries::QueryInstance& instance,
                                    const sim::VideoAsset& asset,
                                    const video::Video* decoded, Call& call);
  /// The class-filtered box video of `asset`'s CachedDetect detections.
  StatusOr<queries::ReferenceResult> Boxes(const queries::QueryInstance& instance,
                                           const sim::VideoAsset& asset,
                                           const video::Video* decoded, Call& call);
  /// Q9/Q10's panorama: each face of rig `pano_group` acquired, then stitched.
  StatusOr<video::Video> Panorama(const sim::Dataset& dataset, int pano_group,
                                  Call& call);
  queries::SemanticKey SemanticKeyFor(uint64_t stream) const;

  const std::string model_fingerprint_;
  std::unique_ptr<queries::SemanticCache> private_semantic_cache_;
  queries::SemanticCache* semantic_cache_;
  std::vector<metrics::Counter*> published_;  // Parallel to kPublished.
  metrics::Counter& queries_published_;
  mutable std::mutex stats_mutex_;
  EngineStats stats_;
};

}  // namespace visualroad::systems

#endif  // VISUALROAD_SYSTEMS_QUERY_ENGINE_H_
