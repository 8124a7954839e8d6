#include "simulation/generator.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "video/color.h"

namespace visualroad::sim {

std::vector<const VideoAsset*> Dataset::TrafficAssets() const {
  std::vector<const VideoAsset*> result;
  for (const VideoAsset& asset : assets) {
    if (asset.camera.kind == CameraKind::kTraffic) result.push_back(&asset);
  }
  return result;
}

std::vector<const VideoAsset*> Dataset::PanoramicGroup(int group) const {
  std::vector<const VideoAsset*> result(4, nullptr);
  for (const VideoAsset& asset : assets) {
    if (asset.camera.kind == CameraKind::kPanoramicFace &&
        asset.camera.pano_group == group) {
      result[asset.camera.pano_face] = &asset;
    }
  }
  return result;
}

int Dataset::PanoramicGroupCount() const {
  int max_group = -1;
  for (const VideoAsset& asset : assets) {
    max_group = std::max(max_group, asset.camera.pano_group);
  }
  return max_group + 1;
}

namespace {

/// Renders and encodes every camera of one tile across the full duration.
/// Per-camera streaming encoders keep memory proportional to one frame.
metrics::Counter& FramesRenderedCounter() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global().GetCounter(
      "vr_generator_frames_rendered_total",
      "Camera frames the generator rendered and encoded");
  return counter;
}

metrics::Counter& TilesGeneratedCounter() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global().GetCounter(
      "vr_generator_tiles_total", "City tiles the generator completed");
  return counter;
}

Status GenerateTile(const CityConfig& config,
                    const video::codec::EncoderConfig& codec_config, Tile& tile,
                    const std::vector<const CameraPlacement*>& cameras,
                    std::vector<VideoAsset>& out, int64_t& frames_rendered) {
  TRACE_SPAN("generate_tile");
  struct PerCamera {
    const CameraPlacement* placement;
    Camera camera;
    video::codec::Encoder encoder;
    VideoAsset asset;
  };
  std::vector<PerCamera> streams;
  streams.reserve(cameras.size());
  for (const CameraPlacement* placement : cameras) {
    VR_ASSIGN_OR_RETURN(
        video::codec::Encoder encoder,
        video::codec::Encoder::Create(config.width, config.height, codec_config));
    PerCamera stream{placement, placement->MakeCamera(config.width, config.height),
                     std::move(encoder), VideoAsset{}};
    stream.asset.camera = *placement;
    stream.asset.container.video.profile = codec_config.profile;
    stream.asset.container.video.width = config.width;
    stream.asset.container.video.height = config.height;
    stream.asset.container.video.fps = config.fps;
    streams.push_back(std::move(stream));
  }

  int frame_count = config.FrameCount();
  double dt = 1.0 / config.fps;
  for (int f = 0; f < frame_count; ++f) {
    tile.Step(dt);
    for (PerCamera& stream : streams) {
      Framebuffer fb = RenderScene(tile, stream.camera, f, config.seed);
      video::Frame frame = video::RgbToFrame(fb.color);
      VR_ASSIGN_OR_RETURN(video::codec::EncodedFrame encoded,
                          stream.encoder.EncodeFrame(frame));
      stream.asset.container.video.frames.push_back(std::move(encoded));
      stream.asset.ground_truth.push_back(
          ExtractGroundTruth(tile, stream.camera, fb));
      ++frames_rendered;
    }
  }

  for (PerCamera& stream : streams) {
    stream.asset.container.tracks.push_back(video::container::MetadataTrack{
        "GTRU", SerializeGroundTruth(stream.asset.ground_truth)});
    out.push_back(std::move(stream.asset));
  }
  FramesRenderedCounter().Increment(
      static_cast<double>(frame_count) * static_cast<double>(streams.size()));
  TilesGeneratedCounter().Increment();
  return Status::Ok();
}

}  // namespace

StatusOr<Dataset> VisualCityGenerator::Generate(const CityConfig& config) {
  if (config.scale_factor < 1) {
    return Status::InvalidArgument("scale factor must be at least 1");
  }
  if (config.width <= 0 || config.height <= 0 || config.fps <= 0) {
    return Status::InvalidArgument("invalid resolution or frame rate");
  }
  if (config.fps < 15.0 || config.fps > 90.0) {
    return Status::InvalidArgument("frame rate must be in [15, 90] FPS");
  }

  Stopwatch stopwatch;
  VisualCity city = VisualCity::Build(config);

  Dataset dataset;
  dataset.config = config;

  // The tile loop runs across options_.threads workers. Tiles are
  // independent (each derives its own RNG substream) and results are merged
  // in tile order, so output is byte-identical at every worker count.
  int workers = std::max(1, options_.threads);
  stats_ = GeneratorStats{};
  stats_.workers = workers;

  int64_t frames_rendered = 0;
  if (workers <= 1 || config.scale_factor <= 1) {
    stats_.workers = 1;
    for (int t = 0; t < config.scale_factor; ++t) {
      VR_RETURN_IF_ERROR(GenerateTile(config, options_.codec, city.tiles()[t],
                                      city.CamerasOfTile(t), dataset.assets,
                                      frames_rendered));
    }
  } else {
    ThreadPool pool(workers, "generator");
    std::vector<std::vector<VideoAsset>> per_tile(config.scale_factor);
    std::vector<int64_t> per_tile_frames(config.scale_factor, 0);
    // Each task owns its own output slots, so no cross-task locking is
    // needed; grain 1 because one tile is already a coarse unit of work.
    Status status = pool.ParallelForStatus(
        config.scale_factor,
        [&](int t) {
          return GenerateTile(config, options_.codec, city.tiles()[t],
                              city.CamerasOfTile(t), per_tile[t],
                              per_tile_frames[t]);
        },
        /*grain=*/1);
    stats_.pool = pool.stats();
    VR_RETURN_IF_ERROR(status);
    for (int t = 0; t < config.scale_factor; ++t) {
      frames_rendered += per_tile_frames[t];
      for (VideoAsset& asset : per_tile[t]) {
        dataset.assets.push_back(std::move(asset));
      }
    }
  }

  stats_.total_seconds = stopwatch.ElapsedSeconds();
  stats_.frames_rendered = frames_rendered;
  stats_.bytes_encoded = 0;
  for (const VideoAsset& asset : dataset.assets) {
    stats_.bytes_encoded += asset.container.video.TotalBytes();
  }
  return dataset;
}

}  // namespace visualroad::sim
