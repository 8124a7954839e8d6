#ifndef VISUALROAD_SIMULATION_GENERATOR_H_
#define VISUALROAD_SIMULATION_GENERATOR_H_

#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "simulation/city.h"
#include "simulation/ground_truth.h"
#include "video/codec/codec.h"
#include "video/container/vrmp.h"

namespace visualroad::sim {

/// One generated input video: the camera that produced it, its encoded
/// container (with an embedded "GTRU" ground-truth track), and the parsed
/// per-frame ground truth.
struct VideoAsset {
  CameraPlacement camera;
  video::container::Container container;
  std::vector<FrameGroundTruth> ground_truth;
};

/// A complete generated dataset: the benchmark's input corpus.
struct Dataset {
  CityConfig config;
  std::vector<VideoAsset> assets;

  /// Traffic-camera assets only (the inputs to Q7/Q8).
  std::vector<const VideoAsset*> TrafficAssets() const;
  /// The four face assets of panoramic rig `group`, ordered by face.
  std::vector<const VideoAsset*> PanoramicGroup(int group) const;
  /// Number of panoramic rigs in the dataset.
  int PanoramicGroupCount() const;
};

/// VCG tuning knobs.
struct GeneratorOptions {
  /// Codec settings used to encode every camera's output.
  video::codec::EncoderConfig codec;
  /// Worker threads: tiles render and encode concurrently, one task per
  /// tile. Output is byte-identical to the serial path because every tile
  /// derives its own RNG substream and results are merged in tile order.
  int threads = 1;
};

/// Timing breakdown for the most recent generation (drives Figure 8).
struct GeneratorStats {
  double total_seconds = 0.0;
  int64_t frames_rendered = 0;
  int64_t bytes_encoded = 0;
  /// Workers that rendered tiles (1 = serial path).
  int workers = 1;
  /// Executor counters for the tile pool (zeroed on the serial path).
  PoolStats pool;
};

/// The Visual City Generator (Section 3.1): builds a Visual City from the
/// hyperparameters, executes the simulation, captures every camera, encodes
/// the videos, and attaches automatically computed ground truth.
class VisualCityGenerator {
 public:
  explicit VisualCityGenerator(const GeneratorOptions& options) : options_(options) {}

  /// Generates the full dataset for `config`.
  StatusOr<Dataset> Generate(const CityConfig& config);

  const GeneratorStats& last_stats() const { return stats_; }

 private:
  GeneratorOptions options_;
  GeneratorStats stats_;
};

}  // namespace visualroad::sim

#endif  // VISUALROAD_SIMULATION_GENERATOR_H_
