#include "driver/dataset_io.h"

#include <filesystem>
#include <fstream>

#include "common/serialize.h"
#include "simulation/ground_truth.h"
#include "video/codec/gop_cache.h"

namespace visualroad::driver {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kManifestMagic = 0x56524453;  // "VRDS".
// One camera record: 4 x I32, a U8 kind and 6 x F64.
constexpr size_t kCameraBytes = 65;

std::string AssetFileName(int index) {
  return "video_" + std::to_string(index) + ".vrmp";
}

void WriteCamera(ByteWriter& writer, const sim::CameraPlacement& camera) {
  writer.I32(camera.camera_id);
  writer.I32(camera.tile_index);
  writer.U8(static_cast<uint8_t>(camera.kind));
  writer.I32(camera.pano_group);
  writer.I32(camera.pano_face);
  writer.F64(camera.pose.position.x);
  writer.F64(camera.pose.position.y);
  writer.F64(camera.pose.position.z);
  writer.F64(camera.pose.yaw);
  writer.F64(camera.pose.pitch);
  writer.F64(camera.fov_deg);
}

sim::CameraPlacement ReadCamera(ByteCursor& cursor) {
  sim::CameraPlacement camera;
  camera.camera_id = cursor.I32();
  camera.tile_index = cursor.I32();
  camera.kind = static_cast<sim::CameraKind>(cursor.U8());
  camera.pano_group = cursor.I32();
  camera.pano_face = cursor.I32();
  camera.pose.position.x = cursor.F64();
  camera.pose.position.y = cursor.F64();
  camera.pose.position.z = cursor.F64();
  camera.pose.yaw = cursor.F64();
  camera.pose.pitch = cursor.F64();
  camera.fov_deg = cursor.F64();
  return camera;
}

/// Restores an asset's in-memory ground truth from its GTRU track.
Status RestoreGroundTruth(sim::VideoAsset& asset) {
  const video::container::MetadataTrack* track = asset.container.FindTrack("GTRU");
  if (track == nullptr) return Status::Ok();  // Annotation-free corpus.
  VR_ASSIGN_OR_RETURN(asset.ground_truth, sim::ParseGroundTruth(track->payload));
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> SerializeDatasetManifest(const sim::Dataset& dataset) {
  ByteWriter writer;
  writer.U32(kManifestMagic);
  const sim::CityConfig& config = dataset.config;
  writer.I32(config.scale_factor);
  writer.I32(config.width);
  writer.I32(config.height);
  writer.F64(config.duration_seconds);
  writer.F64(config.fps);
  writer.U64(config.seed);
  writer.I32(config.traffic_cameras_per_tile);
  writer.I32(config.panoramic_cameras_per_tile);
  writer.U32(static_cast<uint32_t>(dataset.assets.size()));
  for (const sim::VideoAsset& asset : dataset.assets) {
    WriteCamera(writer, asset.camera);
  }
  return writer.Take();
}

StatusOr<sim::Dataset> ParseDatasetManifest(const std::vector<uint8_t>& bytes) {
  ByteCursor cursor(bytes);
  if (cursor.U32() != kManifestMagic) {
    return Status::DataLoss("bad dataset manifest magic");
  }
  sim::Dataset dataset;
  dataset.config.scale_factor = cursor.I32();
  dataset.config.width = cursor.I32();
  dataset.config.height = cursor.I32();
  dataset.config.duration_seconds = cursor.F64();
  dataset.config.fps = cursor.F64();
  dataset.config.seed = cursor.U64();
  dataset.config.traffic_cameras_per_tile = cursor.I32();
  dataset.config.panoramic_cameras_per_tile = cursor.I32();
  const uint32_t asset_count = cursor.Count(kCameraBytes);
  if (!cursor.ok()) {
    return Status::DataLoss("dataset manifest asset count exceeds its size");
  }
  dataset.assets.resize(asset_count);
  for (uint32_t i = 0; i < asset_count; ++i) {
    dataset.assets[i].camera = ReadCamera(cursor);
  }
  if (!cursor.ok()) return Status::DataLoss("truncated dataset manifest");
  return dataset;
}

Status SaveDataset(const sim::Dataset& dataset, const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) return Status::IoError("cannot create dataset directory: " + directory);

  std::vector<uint8_t> manifest = SerializeDatasetManifest(dataset);
  {
    std::ofstream file(directory + "/dataset.vrds",
                       std::ios::binary | std::ios::trunc);
    if (!file) return Status::IoError("cannot write dataset manifest");
    file.write(reinterpret_cast<const char*>(manifest.data()),
               static_cast<std::streamsize>(manifest.size()));
  }
  for (size_t i = 0; i < dataset.assets.size(); ++i) {
    VR_RETURN_IF_ERROR(video::container::WriteContainerFile(
        dataset.assets[i].container,
        directory + "/" + AssetFileName(static_cast<int>(i))));
  }
  return Status::Ok();
}

StatusOr<sim::Dataset> LoadDataset(const std::string& directory) {
  std::ifstream file(directory + "/dataset.vrds", std::ios::binary | std::ios::ate);
  if (!file) return Status::NotFound("no dataset manifest in " + directory);
  std::streamsize size = file.tellg();
  file.seekg(0);
  std::vector<uint8_t> manifest(static_cast<size_t>(size));
  if (!file.read(reinterpret_cast<char*>(manifest.data()), size)) {
    return Status::IoError("manifest read failed");
  }
  VR_ASSIGN_OR_RETURN(sim::Dataset dataset, ParseDatasetManifest(manifest));
  for (size_t i = 0; i < dataset.assets.size(); ++i) {
    VR_ASSIGN_OR_RETURN(dataset.assets[i].container,
                        video::container::ReadContainerFile(
                            directory + "/" + AssetFileName(static_cast<int>(i))));
    VR_RETURN_IF_ERROR(RestoreGroundTruth(dataset.assets[i]));
  }
  return dataset;
}

Status SaveDatasetSharded(const sim::Dataset& dataset,
                          storage::ShardedStore& store) {
  VR_RETURN_IF_ERROR(store.Put("dataset.vrds", SerializeDatasetManifest(dataset)));
  for (size_t i = 0; i < dataset.assets.size(); ++i) {
    VR_RETURN_IF_ERROR(
        store.Put(AssetFileName(static_cast<int>(i)),
                  video::container::Mux(dataset.assets[i].container)));
  }
  return Status::Ok();
}

Status IngestDatasetVss(const sim::Dataset& dataset,
                        storage::VideoStorageService& vss) {
  for (const sim::VideoAsset& asset : dataset.assets) {
    const std::string name = storage::CameraStreamName(asset.camera.camera_id);
    if (vss.Contains(name)) {
      VR_ASSIGN_OR_RETURN(storage::CatalogEntry entry, vss.Describe(name));
      if (entry.identity == video::codec::StreamIdentity(asset.container.video)) {
        continue;
      }
    }
    VR_RETURN_IF_ERROR(vss.Ingest(name, asset.container.video));
  }
  return Status::Ok();
}

StatusOr<sim::Dataset> LoadDatasetSharded(const storage::ShardedStore& store) {
  VR_ASSIGN_OR_RETURN(std::vector<uint8_t> manifest, store.Get("dataset.vrds"));
  VR_ASSIGN_OR_RETURN(sim::Dataset dataset, ParseDatasetManifest(manifest));
  for (size_t i = 0; i < dataset.assets.size(); ++i) {
    VR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                        store.Get(AssetFileName(static_cast<int>(i))));
    VR_ASSIGN_OR_RETURN(dataset.assets[i].container,
                        video::container::Demux(bytes));
    VR_RETURN_IF_ERROR(RestoreGroundTruth(dataset.assets[i]));
  }
  return dataset;
}

}  // namespace visualroad::driver
