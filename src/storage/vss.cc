#include "storage/vss.h"

#include <utility>

#include "common/serialize.h"
#include "common/trace.h"
#include "video/codec/gop_cache.h"

namespace visualroad::storage {

namespace {

using video::codec::EncodedFrame;
using video::codec::EncodedVideo;

constexpr uint32_t kSegmentMagic = 0x31475356;  // "VSG1".
constexpr uint32_t kCatalogMagic = 0x32565256;  // "VRV2".
/// The catalog of the earlier tiered layout ("VRVS"). A store holding one
/// opens empty, so the next staging re-ingests every stream over it.
constexpr uint32_t kTieredCatalogMagic = 0x53565256;
constexpr char kCatalogObject[] = "vss/catalog.vrvc";

/// Registry instruments, resolved once per process (see the GOP cache's
/// CacheMetrics for the pattern). Gauges are updated by delta so several
/// service instances sum correctly.
struct VssMetrics {
  metrics::Counter& reads;
  metrics::Counter& range_reads;
  metrics::Counter& base_hits;
  metrics::Counter& resident_hits;
  metrics::Counter& segments_fetched;
  metrics::Counter& bytes_fetched;
  metrics::Counter& resident_evictions;
  metrics::Gauge& bytes_stored;
  metrics::Gauge& resident_bytes;

  static VssMetrics& Get() {
    static VssMetrics* instruments = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      return new VssMetrics{
          registry.GetCounter("vr_vss_reads_total",
                              "Whole-stream reads served by the VSS."),
          registry.GetCounter("vr_vss_range_reads_total",
                              "Frame-range reads served by the VSS."),
          registry.GetCounter("vr_vss_base_hits_total",
                              "Reads that fetched the ingested bitstream from "
                              "the store."),
          registry.GetCounter("vr_vss_resident_hits_total",
                              "Reads answered from the in-memory stream cache."),
          registry.GetCounter("vr_vss_segments_fetched_total",
                              "GOP-aligned segments fetched from the store."),
          registry.GetCounter("vr_vss_bytes_fetched_total",
                              "Segment payload bytes fetched from the store."),
          registry.GetCounter("vr_vss_resident_evictions_total",
                              "Resident streams evicted by the byte budget."),
          registry.GetGauge("vr_vss_bytes_stored",
                            "Bytes persisted across all stream objects."),
          registry.GetGauge("vr_vss_resident_bytes",
                            "Encoded bytes of streams held resident in memory."),
      };
    }();
    return *instruments;
  }
};

/// One stored segment: header (magic, first frame, frame metadata) followed
/// by the concatenated frame payloads.
std::vector<uint8_t> SerializeSegment(const EncodedVideo& stream, int first,
                                      int count) {
  ByteWriter header;
  header.U32(kSegmentMagic);
  header.U32(static_cast<uint32_t>(first));
  header.U32(static_cast<uint32_t>(count));
  for (int i = first; i < first + count; ++i) {
    const EncodedFrame& frame = stream.frames[static_cast<size_t>(i)];
    header.U8(frame.keyframe ? 1 : 0);
    header.U8(frame.qp);
    header.U32(static_cast<uint32_t>(frame.data.size()));
  }
  std::vector<uint8_t> out = header.Take();
  for (int i = first; i < first + count; ++i) {
    const EncodedFrame& frame = stream.frames[static_cast<size_t>(i)];
    out.insert(out.end(), frame.data.begin(), frame.data.end());
  }
  return out;
}

/// Parses one segment slice back into frames appended to `out`.
Status ParseSegment(const uint8_t* data, size_t size, const SegmentInfo& seg,
                    std::vector<EncodedFrame>& out) {
  ByteCursor cursor(data, size);
  if (cursor.U32() != kSegmentMagic) return Status::DataLoss("bad segment magic");
  int first = static_cast<int>(cursor.U32());
  // Each frame header is U8 keyframe + U8 qp + U32 size.
  int count = static_cast<int>(cursor.Count(6));
  if (!cursor.ok() || first != seg.first_frame || count != seg.frame_count) {
    return Status::DataLoss("segment header does not match the manifest");
  }
  std::vector<EncodedFrame> frames(static_cast<size_t>(count));
  std::vector<size_t> sizes(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    frames[static_cast<size_t>(i)].keyframe = cursor.U8() != 0;
    frames[static_cast<size_t>(i)].qp = cursor.U8();
    sizes[static_cast<size_t>(i)] = cursor.U32();
  }
  if (!cursor.ok()) return Status::DataLoss("truncated segment header");
  size_t pos = 12 + static_cast<size_t>(count) * 6;
  for (int i = 0; i < count; ++i) {
    if (pos + sizes[static_cast<size_t>(i)] > size) {
      return Status::DataLoss("truncated segment payload");
    }
    frames[static_cast<size_t>(i)].data.assign(data + pos,
                                               data + pos + sizes[static_cast<size_t>(i)]);
    pos += sizes[static_cast<size_t>(i)];
  }
  for (EncodedFrame& frame : frames) out.push_back(std::move(frame));
  return Status::Ok();
}

}  // namespace

std::string CameraStreamName(int camera_id) {
  return "camera_" + std::to_string(camera_id);
}

std::string StreamObjectName(const std::string& name) {
  return "vss/" + name + "/base.var";
}

int64_t CatalogEntry::Bytes() const {
  return segments.empty() ? 0 : segments.back().offset + segments.back().length;
}

VideoStorageService::VideoStorageService(const VssOptions& options)
    : options_(options),
      // A reader that waits on another reader's fetch is answered from
      // memory too, so it counts as a resident hit.
      resident_(options.resident_bytes,
                LruCacheMetrics{.hits = &VssMetrics::Get().resident_hits,
                                .coalesced = &VssMetrics::Get().resident_hits,
                                .evictions = &VssMetrics::Get().resident_evictions,
                                .bytes_in_use = &VssMetrics::Get().resident_bytes}) {}


std::string VideoStorageService::ResidentKey(const CatalogEntry& entry) {
  return entry.name + "/" + std::to_string(entry.identity);
}

StatusOr<std::unique_ptr<VideoStorageService>> VideoStorageService::Open(
    const VssOptions& options) {
  if (options.store == nullptr) {
    return Status::InvalidArgument("vss needs a backing store");
  }
  std::unique_ptr<VideoStorageService> service(new VideoStorageService(options));
  VR_RETURN_IF_ERROR(service->LoadCatalog());
  return service;
}

// --- Ingest --------------------------------------------------------------

Status VideoStorageService::Ingest(const std::string& name,
                                   const EncodedVideo& video) {
  TRACE_SPAN("vss_ingest");
  if (name.empty()) return Status::InvalidArgument("empty video name");
  if (video.FrameCount() == 0) return Status::InvalidArgument("empty video");
  if (video.width <= 0 || video.height <= 0) {
    return Status::InvalidArgument("video has no dimensions");
  }
  const std::vector<int> starts = video::codec::GopStarts(video);
  auto entry = std::make_shared<CatalogEntry>();
  entry->name = name;
  entry->profile = video.profile;
  entry->width = video.width;
  entry->height = video.height;
  entry->fps = video.fps;
  entry->frame_count = video.FrameCount();
  entry->identity = video::codec::StreamIdentity(video);
  {
    TRACE_SPAN("vss_persist");
    VR_ASSIGN_OR_RETURN(ShardedStore::Writer writer,
                        options_.store->OpenWriter(StreamObjectName(name)));
    int64_t offset = 0;
    for (size_t s = 0; s < starts.size(); ++s) {
      int first = starts[s];
      int end = s + 1 < starts.size() ? starts[s + 1] : video.FrameCount();
      std::vector<uint8_t> segment = SerializeSegment(video, first, end - first);
      VR_RETURN_IF_ERROR(writer.Append(segment));
      entry->segments.push_back(
          {offset, static_cast<int64_t>(segment.size()), first, end - first});
      offset += static_cast<int64_t>(segment.size());
    }
    VR_RETURN_IF_ERROR(writer.Close());
  }

  std::lock_guard lock(mutex_);
  int64_t stored = entry->Bytes();
  auto it = catalog_.find(name);
  if (it != catalog_.end()) stored -= it->second->Bytes();
  stats_.bytes_stored += stored;
  VssMetrics::Get().bytes_stored.Add(static_cast<double>(stored));
  catalog_[name] = std::move(entry);
  // The resident copy of the old content is stale.
  const std::string prefix = name + "/";
  resident_.EraseIf([&prefix](const std::string& key) {
    return key.compare(0, prefix.size(), prefix) == 0;
  });
  return SaveCatalogLocked();
}

// --- Read paths ----------------------------------------------------------

StatusOr<std::shared_ptr<const CatalogEntry>> VideoStorageService::FindLocked(
    const std::string& name) const {
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return Status::NotFound("no such video: " + name);
  return it->second;
}

StatusOr<EncodedVideo> VideoStorageService::FetchSegments(const CatalogEntry& entry,
                                                          size_t seg_first,
                                                          size_t seg_count) {
  TRACE_SPAN("vss_fetch");
  if (seg_count == 0 || seg_first + seg_count > entry.segments.size()) {
    return Status::InvalidArgument("segment span outside the stream");
  }
  const SegmentInfo& first = entry.segments[seg_first];
  const SegmentInfo& last = entry.segments[seg_first + seg_count - 1];
  int64_t begin = first.offset;
  int64_t length = last.offset + last.length - begin;
  VR_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      options_.store->Read(StreamObjectName(entry.name), begin, length));

  EncodedVideo out;
  out.profile = entry.profile;
  out.width = entry.width;
  out.height = entry.height;
  out.fps = entry.fps;
  for (size_t s = seg_first; s < seg_first + seg_count; ++s) {
    const SegmentInfo& seg = entry.segments[s];
    // Extents come from the catalog on disk; one outside the bytes read is
    // corrupt, not a place to read.
    if (seg.offset < begin || seg.length < 0 ||
        seg.offset - begin + seg.length > static_cast<int64_t>(bytes.size())) {
      return Status::DataLoss("segment outside the catalog's extent");
    }
    VR_RETURN_IF_ERROR(ParseSegment(bytes.data() + (seg.offset - begin),
                                    static_cast<size_t>(seg.length), seg,
                                    out.frames));
  }
  auto& metrics = VssMetrics::Get();
  metrics.base_hits.Increment();
  metrics.segments_fetched.Increment(static_cast<double>(seg_count));
  metrics.bytes_fetched.Increment(static_cast<double>(length));
  std::lock_guard lock(mutex_);
  ++stats_.base_hits;
  stats_.segments_fetched += static_cast<int64_t>(seg_count);
  stats_.bytes_fetched += length;
  return out;
}

StatusOr<std::shared_ptr<const EncodedVideo>> VideoStorageService::ReadVideo(
    const std::string& name) {
  TRACE_SPAN("vss_read");
  VssMetrics::Get().reads.Increment();
  std::shared_ptr<const CatalogEntry> entry;
  {
    std::lock_guard lock(mutex_);
    ++stats_.reads;
    VR_ASSIGN_OR_RETURN(entry, FindLocked(name));
  }
  return resident_.GetOrCompute(ResidentKey(*entry), [&] {
    return FetchSegments(*entry, 0, entry->segments.size());
  });
}

StatusOr<RangeRead> VideoStorageService::ReadRange(const std::string& name,
                                                   int first, int count) {
  TRACE_SPAN("vss_read_range");
  VssMetrics::Get().range_reads.Increment();
  std::shared_ptr<const CatalogEntry> entry;
  {
    std::lock_guard lock(mutex_);
    ++stats_.range_reads;
    VR_ASSIGN_OR_RETURN(entry, FindLocked(name));
  }
  if (count <= 0) return Status::InvalidArgument("empty frame range");
  if (first < 0 || first + count > entry->frame_count) {
    return Status::OutOfRange("frame range outside the stream");
  }
  const std::string key = ResidentKey(*entry);
  if (std::shared_ptr<const EncodedVideo> resident = resident_.Get(key)) {
    return RangeRead{std::move(resident), 0};
  }
  // Covering GOP-aligned segment span of [first, first + count).
  const std::vector<SegmentInfo>& segments = entry->segments;
  size_t seg_first = 0;
  while (seg_first + 1 < segments.size() &&
         segments[seg_first + 1].first_frame <= first) {
    ++seg_first;
  }
  size_t seg_end = seg_first;
  while (seg_end < segments.size() && segments[seg_end].first_frame < first + count) {
    ++seg_end;
  }
  if (seg_first == 0 && seg_end == segments.size()) {
    VR_ASSIGN_OR_RETURN(std::shared_ptr<const EncodedVideo> video,
                        resident_.GetOrCompute(key, [&] {
                          return FetchSegments(*entry, 0, segments.size());
                        }));
    return RangeRead{std::move(video), 0};
  }
  VR_ASSIGN_OR_RETURN(EncodedVideo video,
                      FetchSegments(*entry, seg_first, seg_end - seg_first));
  return RangeRead{std::make_shared<const EncodedVideo>(std::move(video)),
                   segments[seg_first].first_frame};
}

void VideoStorageService::DropResident() { resident_.Clear(); }

// --- Introspection -------------------------------------------------------

bool VideoStorageService::Contains(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return catalog_.count(name) > 0;
}

StatusOr<CatalogEntry> VideoStorageService::Describe(
    const std::string& name) const {
  std::lock_guard lock(mutex_);
  VR_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogEntry> entry, FindLocked(name));
  return *entry;
}

VssStats VideoStorageService::stats() const {
  const LruCacheStats resident = resident_.stats();
  std::lock_guard lock(mutex_);
  VssStats out = stats_;
  out.resident_hits = resident.hits + resident.coalesced;
  out.resident_evictions = resident.evictions;
  return out;
}

// --- Catalog persistence -------------------------------------------------

Status VideoStorageService::SaveCatalogLocked() {
  ByteWriter writer;
  writer.U32(kCatalogMagic);
  writer.U32(static_cast<uint32_t>(catalog_.size()));
  for (const auto& [name, entry] : catalog_) {
    writer.Str(name);
    writer.U8(static_cast<uint8_t>(entry->profile));
    writer.I32(entry->width);
    writer.I32(entry->height);
    writer.F64(entry->fps);
    writer.U32(static_cast<uint32_t>(entry->frame_count));
    writer.U64(entry->identity);
    writer.U32(static_cast<uint32_t>(entry->segments.size()));
    for (const SegmentInfo& segment : entry->segments) {
      writer.U64(static_cast<uint64_t>(segment.offset));
      writer.U64(static_cast<uint64_t>(segment.length));
      writer.U32(static_cast<uint32_t>(segment.first_frame));
      writer.U32(static_cast<uint32_t>(segment.frame_count));
    }
  }
  return options_.store->Put(kCatalogObject, writer.Take());
}

Status VideoStorageService::LoadCatalog() {
  StatusOr<std::vector<uint8_t>> bytes = options_.store->Get(kCatalogObject);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) return Status::Ok();
    return bytes.status();
  }
  // Smallest encodings: a video is an empty name, profile, width, height,
  // fps, frame count, identity and segment count; a segment is four fixed
  // fields.
  constexpr size_t kVideoBytes = 4 + 1 + 4 + 4 + 8 + 4 + 8 + 4;
  constexpr size_t kSegmentBytes = 8 + 8 + 4 + 4;
  ByteCursor cursor(*bytes);
  const uint32_t magic = cursor.U32();
  if (cursor.ok() && magic == kTieredCatalogMagic) return Status::Ok();
  if (magic != kCatalogMagic) return Status::DataLoss("bad vss catalog magic");
  const uint32_t video_count = cursor.Count(kVideoBytes);
  std::map<std::string, std::shared_ptr<const CatalogEntry>> catalog;
  int64_t bytes_stored = 0;
  for (uint32_t v = 0; v < video_count && cursor.ok(); ++v) {
    auto entry = std::make_shared<CatalogEntry>();
    entry->name = cursor.Str();
    entry->profile = static_cast<video::codec::Profile>(cursor.U8());
    entry->width = cursor.I32();
    entry->height = cursor.I32();
    entry->fps = cursor.F64();
    entry->frame_count = static_cast<int>(cursor.U32());
    entry->identity = cursor.U64();
    const uint32_t segment_count = cursor.Count(kSegmentBytes);
    for (uint32_t s = 0; s < segment_count && cursor.ok(); ++s) {
      SegmentInfo segment;
      segment.offset = static_cast<int64_t>(cursor.U64());
      segment.length = static_cast<int64_t>(cursor.U64());
      segment.first_frame = static_cast<int>(cursor.U32());
      segment.frame_count = static_cast<int>(cursor.U32());
      entry->segments.push_back(segment);
    }
    bytes_stored += entry->Bytes();
    catalog[entry->name] = std::move(entry);
  }
  if (!cursor.ok()) return Status::DataLoss("truncated vss catalog");
  std::lock_guard lock(mutex_);
  catalog_ = std::move(catalog);
  stats_.bytes_stored = bytes_stored;
  VssMetrics::Get().bytes_stored.Add(static_cast<double>(bytes_stored));
  return Status::Ok();
}

}  // namespace visualroad::storage
