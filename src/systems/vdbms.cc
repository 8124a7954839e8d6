#include "systems/vdbms.h"

namespace visualroad::systems::detail {

StatusOr<const sim::VideoAsset*> InputAsset(const queries::QueryInstance& instance,
                                            const sim::Dataset& dataset) {
  std::vector<const sim::VideoAsset*> traffic = dataset.TrafficAssets();
  if (instance.video_index < 0 ||
      static_cast<size_t>(instance.video_index) >= traffic.size()) {
    return Status::OutOfRange("query instance addresses a missing input video");
  }
  return traffic[static_cast<size_t>(instance.video_index)];
}

int64_t FrameBytes(int width, int height) {
  return static_cast<int64_t>(width) * height * 3 / 2;
}

int64_t InputFrameCount(const queries::QueryInstance& instance,
                        const sim::Dataset& dataset) {
  std::vector<const sim::VideoAsset*> traffic = dataset.TrafficAssets();
  if (instance.id == queries::QueryId::kQ8) {
    // Q8 scans every traffic stream for the plate.
    int64_t frames = 0;
    for (const sim::VideoAsset* asset : traffic) {
      frames += asset->container.video.FrameCount();
    }
    return frames;
  }
  if (instance.id == queries::QueryId::kQ9 || instance.id == queries::QueryId::kQ10) {
    int64_t frames = 0;
    for (const sim::VideoAsset* face : dataset.PanoramicGroup(instance.pano_group)) {
      if (face != nullptr) frames += face->container.video.FrameCount();
    }
    return frames;
  }
  if (instance.video_index < 0 ||
      static_cast<size_t>(instance.video_index) >= traffic.size()) {
    return 0;
  }
  return traffic[static_cast<size_t>(instance.video_index)]->container.video.FrameCount();
}

}  // namespace visualroad::systems::detail
