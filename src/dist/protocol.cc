#include "dist/protocol.h"

#include "common/serialize.h"
#include "video/container/vrmp.h"
#include "vision/overlay.h"

namespace visualroad::dist {
namespace {

// Smallest wire encodings of repeated items. A count field is checked against
// the bytes left divided by these before anything is allocated for it.
constexpr size_t kBitrateBytes = 8;          // One U64.
constexpr size_t kRangeItemBytes = 166;      // Index, empty bitrates and plate.
constexpr size_t kInstanceResultBytes = 95;  // Empty strings, no frames.

void WriteCityConfig(ByteWriter& writer, const sim::CityConfig& config) {
  writer.I32(config.scale_factor);
  writer.I32(config.width);
  writer.I32(config.height);
  writer.F64(config.duration_seconds);
  writer.F64(config.fps);
  writer.U64(config.seed);
  writer.I32(config.traffic_cameras_per_tile);
  writer.I32(config.panoramic_cameras_per_tile);
}

sim::CityConfig ReadCityConfig(ByteCursor& cursor) {
  sim::CityConfig config;
  config.scale_factor = cursor.I32();
  config.width = cursor.I32();
  config.height = cursor.I32();
  config.duration_seconds = cursor.F64();
  config.fps = cursor.F64();
  config.seed = cursor.U64();
  config.traffic_cameras_per_tile = cursor.I32();
  config.panoramic_cameras_per_tile = cursor.I32();
  return config;
}

void WriteEncoderConfig(ByteWriter& writer,
                        const video::codec::EncoderConfig& config) {
  writer.U8(static_cast<uint8_t>(config.profile));
  writer.I32(config.gop_length);
  writer.I32(config.qp);
  writer.U64(static_cast<uint64_t>(config.target_bitrate_bps));
  writer.I32(config.search_radius);
}

video::codec::EncoderConfig ReadEncoderConfig(ByteCursor& cursor) {
  video::codec::EncoderConfig config;
  config.profile = static_cast<video::codec::Profile>(cursor.U8());
  config.gop_length = cursor.I32();
  config.qp = cursor.I32();
  config.target_bitrate_bps = static_cast<int64_t>(cursor.U64());
  config.search_radius = cursor.I32();
  return config;
}

void WriteDetectorOptions(ByteWriter& writer,
                          const vision::DetectorOptions& options) {
  writer.U64(options.seed);
  writer.F64(options.base_recall);
  writer.F64(options.false_positives_per_frame);
  writer.F64(options.box_jitter);
  writer.F64(options.min_visible_fraction);
  writer.I32(options.min_box_pixels);
  writer.I32(options.input_size);
}

vision::DetectorOptions ReadDetectorOptions(ByteCursor& cursor) {
  vision::DetectorOptions options;
  options.seed = cursor.U64();
  options.base_recall = cursor.F64();
  options.false_positives_per_frame = cursor.F64();
  options.box_jitter = cursor.F64();
  options.min_visible_fraction = cursor.F64();
  options.min_box_pixels = cursor.I32();
  options.input_size = cursor.I32();
  return options;
}

void WriteQueryInstance(ByteWriter& writer,
                        const queries::QueryInstance& instance) {
  writer.U8(static_cast<uint8_t>(instance.id));
  writer.I32(instance.video_index);
  writer.I32(instance.q1_rect.x0);
  writer.I32(instance.q1_rect.y0);
  writer.I32(instance.q1_rect.x1);
  writer.I32(instance.q1_rect.y1);
  writer.F64(instance.q1_t1);
  writer.F64(instance.q1_t2);
  writer.I32(instance.q2b_d);
  writer.U8(static_cast<uint8_t>(instance.object_class));
  writer.I32(instance.q2d_m);
  writer.F64(instance.q2d_epsilon);
  writer.I32(instance.q3_dx);
  writer.I32(instance.q3_dy);
  writer.U32(static_cast<uint32_t>(instance.q3_bitrates.size()));
  for (int64_t bitrate : instance.q3_bitrates) {
    writer.U64(static_cast<uint64_t>(bitrate));
  }
  writer.I32(instance.q45_alpha);
  writer.I32(instance.q45_beta);
  writer.Str(instance.q8_plate);
  writer.I32(instance.pano_group);
  for (int64_t bitrate : instance.q10_bitrates) {
    writer.U64(static_cast<uint64_t>(bitrate));
  }
  writer.I32(instance.q10_client_width);
  writer.I32(instance.q10_client_height);
}

queries::QueryInstance ReadQueryInstance(ByteCursor& cursor) {
  queries::QueryInstance instance;
  instance.id = static_cast<queries::QueryId>(cursor.U8());
  instance.video_index = cursor.I32();
  instance.q1_rect.x0 = cursor.I32();
  instance.q1_rect.y0 = cursor.I32();
  instance.q1_rect.x1 = cursor.I32();
  instance.q1_rect.y1 = cursor.I32();
  instance.q1_t1 = cursor.F64();
  instance.q1_t2 = cursor.F64();
  instance.q2b_d = cursor.I32();
  instance.object_class = static_cast<sim::ObjectClass>(cursor.U8());
  instance.q2d_m = cursor.I32();
  instance.q2d_epsilon = cursor.F64();
  instance.q3_dx = cursor.I32();
  instance.q3_dy = cursor.I32();
  const uint32_t bitrates = cursor.Count(kBitrateBytes);
  instance.q3_bitrates.clear();
  for (uint32_t i = 0; i < bitrates && cursor.ok(); ++i) {
    instance.q3_bitrates.push_back(static_cast<int64_t>(cursor.U64()));
  }
  instance.q45_alpha = cursor.I32();
  instance.q45_beta = cursor.I32();
  instance.q8_plate = cursor.Str();
  instance.pano_group = cursor.I32();
  for (size_t i = 0; i < instance.q10_bitrates.size(); ++i) {
    instance.q10_bitrates[i] = static_cast<int64_t>(cursor.U64());
  }
  instance.q10_client_width = cursor.I32();
  instance.q10_client_height = cursor.I32();
  return instance;
}

void WriteEngineStats(ByteWriter& writer, const systems::EngineStats& stats) {
  writer.U64(static_cast<uint64_t>(stats.frames_decoded));
  writer.U64(static_cast<uint64_t>(stats.frames_encoded));
  writer.U64(static_cast<uint64_t>(stats.cache_hits));
  writer.U64(static_cast<uint64_t>(stats.cache_misses));
  writer.U64(static_cast<uint64_t>(stats.chunked_redecodes));
  writer.U64(static_cast<uint64_t>(stats.cnn_frames_full));
  writer.U64(static_cast<uint64_t>(stats.cnn_frames_cheap));
  writer.U64(static_cast<uint64_t>(stats.cnn_frames_skipped));
}

systems::EngineStats ReadEngineStats(ByteCursor& cursor) {
  systems::EngineStats stats;
  stats.frames_decoded = static_cast<int64_t>(cursor.U64());
  stats.frames_encoded = static_cast<int64_t>(cursor.U64());
  stats.cache_hits = static_cast<int64_t>(cursor.U64());
  stats.cache_misses = static_cast<int64_t>(cursor.U64());
  stats.chunked_redecodes = static_cast<int64_t>(cursor.U64());
  stats.cnn_frames_full = static_cast<int64_t>(cursor.U64());
  stats.cnn_frames_cheap = static_cast<int64_t>(cursor.U64());
  stats.cnn_frames_skipped = static_cast<int64_t>(cursor.U64());
  return stats;
}

}  // namespace

std::vector<uint8_t> EncodeWorkerSetup(const WorkerSetup& setup) {
  ByteWriter writer;
  WriteCityConfig(writer, setup.config);
  WriteEncoderConfig(writer, setup.codec);
  writer.Str(setup.engine);
  const systems::EngineOptions& options = setup.engine_options;
  writer.U64(static_cast<uint64_t>(options.memory_budget_bytes));
  writer.U64(static_cast<uint64_t>(options.memory_fail_bytes));
  writer.I32(options.threads);
  writer.I32(options.codec_threads);
  WriteDetectorOptions(writer, setup.detector);
  writer.Str(setup.store_root);
  writer.I32(setup.store_nodes);
  writer.I32(setup.store_replication);
  writer.U64(static_cast<uint64_t>(setup.store_block_size));
  return writer.Take();
}

StatusOr<WorkerSetup> DecodeWorkerSetup(const std::vector<uint8_t>& bytes) {
  ByteCursor cursor(bytes);
  WorkerSetup setup;
  setup.config = ReadCityConfig(cursor);
  setup.codec = ReadEncoderConfig(cursor);
  setup.engine = cursor.Str();
  systems::EngineOptions& options = setup.engine_options;
  options.memory_budget_bytes = static_cast<int64_t>(cursor.U64());
  options.memory_fail_bytes = static_cast<int64_t>(cursor.U64());
  options.threads = cursor.I32();
  options.codec_threads = cursor.I32();
  setup.detector = ReadDetectorOptions(cursor);
  setup.store_root = cursor.Str();
  setup.store_nodes = cursor.I32();
  setup.store_replication = cursor.I32();
  setup.store_block_size = static_cast<int64_t>(cursor.U64());
  if (!cursor.ok()) return Status::DataLoss("malformed worker setup payload");
  options.detector = setup.detector;
  return setup;
}

std::vector<uint8_t> EncodeExecuteRequest(const ExecuteRangeRequest& request) {
  ByteWriter writer;
  writer.U8(static_cast<uint8_t>(request.mode));
  writer.Str(request.output_dir);
  writer.U32(static_cast<uint32_t>(request.items.size()));
  for (const RangeItem& item : request.items) {
    writer.I32(item.index);
    WriteQueryInstance(writer, item.instance);
  }
  return writer.Take();
}

StatusOr<ExecuteRangeRequest> DecodeExecuteRequest(
    const std::vector<uint8_t>& bytes) {
  ByteCursor cursor(bytes);
  ExecuteRangeRequest request;
  request.mode = static_cast<systems::OutputMode>(cursor.U8());
  request.output_dir = cursor.Str();
  const uint32_t count = cursor.Count(kRangeItemBytes);
  for (uint32_t i = 0; i < count && cursor.ok(); ++i) {
    RangeItem item;
    item.index = cursor.I32();
    item.instance = ReadQueryInstance(cursor);
    request.items.push_back(std::move(item));
  }
  if (!cursor.ok() || request.items.size() != count) {
    return Status::DataLoss("malformed execute-range request payload");
  }
  return request;
}

std::vector<uint8_t> EncodeExecuteResponse(
    const std::vector<InstanceResult>& results) {
  ByteWriter writer;
  writer.U32(static_cast<uint32_t>(results.size()));
  for (const InstanceResult& result : results) {
    writer.I32(result.index);
    writer.U8(result.outcome);
    writer.U8(result.resource_exhausted ? 1 : 0);
    writer.Str(result.error);
    WriteEngineStats(writer, result.stats);
    writer.F64(result.exec_seconds);
    writer.U8(result.output.produced ? 1 : 0);
    // The encoded result video rides as a muxed VRMP container — the same
    // byte-exact round trip the on-disk format already guarantees.
    if (result.output.video.FrameCount() > 0) {
      video::container::Container container;
      container.video = result.output.video;
      std::vector<uint8_t> muxed = video::container::Mux(container);
      writer.Str(std::string(muxed.begin(), muxed.end()));
    } else {
      writer.Str(std::string());
    }
    vision::WriteDetections(writer, result.output.detections);
    writer.Str(result.output.written_path);
  }
  return writer.Take();
}

StatusOr<std::vector<InstanceResult>> DecodeExecuteResponse(
    const std::vector<uint8_t>& bytes) {
  ByteCursor cursor(bytes);
  const uint32_t count = cursor.Count(kInstanceResultBytes);
  if (!cursor.ok()) return Status::DataLoss("malformed execute-range response payload");
  std::vector<InstanceResult> results;
  results.reserve(count);
  for (uint32_t i = 0; i < count && cursor.ok(); ++i) {
    InstanceResult result;
    result.index = cursor.I32();
    result.outcome = cursor.U8();
    result.resource_exhausted = cursor.U8() != 0;
    result.error = cursor.Str();
    result.stats = ReadEngineStats(cursor);
    result.exec_seconds = cursor.F64();
    result.output.produced = cursor.U8() != 0;
    std::string muxed_str = cursor.Str();
    if (!cursor.ok()) {
      return Status::DataLoss("malformed execute-range response payload");
    }
    if (!muxed_str.empty()) {
      std::vector<uint8_t> muxed(muxed_str.begin(), muxed_str.end());
      VR_ASSIGN_OR_RETURN(video::container::Container container,
                          video::container::Demux(muxed));
      result.output.video = std::move(container.video);
    }
    VR_ASSIGN_OR_RETURN(result.output.detections, vision::ReadDetections(cursor));
    result.output.written_path = cursor.Str();
    results.push_back(std::move(result));
  }
  if (!cursor.ok() || results.size() != count) {
    return Status::DataLoss("malformed execute-range response payload");
  }
  return results;
}

std::vector<uint8_t> EncodeCacheEntries(
    const std::vector<std::shared_ptr<const queries::SemanticEntry>>& entries) {
  ByteWriter writer;
  writer.U32(static_cast<uint32_t>(entries.size()));
  for (const std::shared_ptr<const queries::SemanticEntry>& entry : entries) {
    queries::WriteSemanticEntry(writer, *entry);
  }
  return writer.Take();
}

StatusOr<std::vector<queries::SemanticEntry>> DecodeCacheEntries(
    const std::vector<uint8_t>& bytes) {
  ByteCursor cursor(bytes);
  const uint32_t count = cursor.Count(queries::kSemanticEntryMinBytes);
  if (!cursor.ok()) return Status::DataLoss("malformed cache-entries payload");
  std::vector<queries::SemanticEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    VR_ASSIGN_OR_RETURN(queries::SemanticEntry entry,
                        queries::ReadSemanticEntry(cursor));
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace visualroad::dist
