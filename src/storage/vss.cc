#include "storage/vss.h"

#include <algorithm>
#include <utility>

#include "common/serialize.h"
#include "common/trace.h"
#include "video/codec/gop_cache.h"
#include "video/image_ops.h"

namespace visualroad::storage {

namespace {

using video::codec::EncodedFrame;
using video::codec::EncodedVideo;

constexpr uint32_t kSegmentMagic = 0x31475356;  // "VSG1".
constexpr uint32_t kCatalogMagic = 0x53565256;  // "VRVS".
constexpr char kCatalogObject[] = "vss/catalog.vrvc";

/// Registry instruments, resolved once per process (see the GOP cache's
/// CacheMetrics for the pattern). Gauges are updated by delta so several
/// service instances sum correctly.
struct VssMetrics {
  metrics::Counter& reads;
  metrics::Counter& range_reads;
  metrics::Counter& base_hits;
  metrics::Counter& variant_hits;
  metrics::Counter& resident_hits;
  metrics::Counter& transcodes;
  metrics::Counter& transcode_coalesced;
  metrics::Counter& variants_persisted;
  metrics::Counter& variants_evicted;
  metrics::Counter& variants_compacted;
  metrics::Counter& segments_fetched;
  metrics::Counter& bytes_fetched;
  metrics::Counter& resident_evictions;
  metrics::Counter& degraded_reads;
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
                              "Reads answered from the ingested bitstream."),
          registry.GetCounter(
              "vr_vss_variant_hits_total",
              "Reads answered from a persisted transcoded variant."),
          registry.GetCounter("vr_vss_resident_hits_total",
                              "Reads answered from the in-memory stream cache."),
          registry.GetCounter("vr_vss_transcodes_total",
                              "Transcode-on-read materializations."),
          registry.GetCounter(
              "vr_vss_transcode_coalesced_total",
              "Readers that waited on an in-flight materialization."),
          registry.GetCounter("vr_vss_variants_persisted_total",
                              "Transcode results persisted as new variants."),
          registry.GetCounter("vr_vss_variants_evicted_total",
                              "Cached variants evicted by the byte budget."),
          registry.GetCounter("vr_vss_variants_compacted_total",
                              "Dominated variants dropped by compaction."),
          registry.GetCounter("vr_vss_segments_fetched_total",
                              "GOP-aligned segments fetched from the store."),
          registry.GetCounter("vr_vss_bytes_fetched_total",
                              "Segment payload bytes fetched from the store."),
          registry.GetCounter("vr_vss_resident_evictions_total",
                              "Resident streams evicted by the byte budget."),
          registry.GetCounter(
              "vr_vss_degraded_reads_total",
              "Reads past the transcode deadline, served a better variant "
              "directly."),
          registry.GetGauge("vr_vss_bytes_stored",
                            "Bytes persisted across all variants, base included."),
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

VideoStorageService::VideoStorageService(const VssOptions& options)
    : options_(options),
      resident_(options.resident_bytes,
                LruCacheMetrics{.hits = &VssMetrics::Get().resident_hits,
                                .evictions = &VssMetrics::Get().resident_evictions,
                                .bytes_in_use = &VssMetrics::Get().resident_bytes}) {}

std::string VideoStorageService::ObjectName(const std::string& name,
                                            const VariantKey& key) {
  return "vss/" + name + "/" + VariantTag(key) + ".var";
}

StatusOr<std::unique_ptr<VideoStorageService>> VideoStorageService::Open(
    const VssOptions& options) {
  if (options.store == nullptr) {
    return Status::InvalidArgument("vss needs a backing store");
  }
  if (options.compaction_byte_slack < 1.0) {
    return Status::InvalidArgument("compaction_byte_slack must be >= 1");
  }
  std::unique_ptr<VideoStorageService> service(new VideoStorageService(options));
  VR_RETURN_IF_ERROR(service->LoadCatalog());
  return service;
}

// --- Ingest --------------------------------------------------------------

StatusOr<VariantInfo> VideoStorageService::WriteVariantObject(
    const std::string& name, const VariantKey& key, const EncodedVideo& stream,
    bool base) const {
  TRACE_SPAN("vss_persist");
  std::vector<int> starts = video::codec::GopStarts(stream);
  if (starts.empty() || starts.front() != 0) {
    return Status::InvalidArgument("stream must open with a keyframe");
  }
  VariantInfo info;
  info.key = key;
  info.base = base;
  VR_ASSIGN_OR_RETURN(ShardedStore::Writer writer,
                      options_.store->OpenWriter(ObjectName(name, key)));
  int64_t offset = 0;
  for (size_t s = 0; s < starts.size(); ++s) {
    int first = starts[s];
    int end = s + 1 < starts.size() ? starts[s + 1] : stream.FrameCount();
    std::vector<uint8_t> segment = SerializeSegment(stream, first, end - first);
    VR_RETURN_IF_ERROR(writer.Append(segment));
    info.segments.push_back(
        {offset, static_cast<int64_t>(segment.size()), first, end - first});
    offset += static_cast<int64_t>(segment.size());
  }
  VR_RETURN_IF_ERROR(writer.Close());
  info.bytes = offset;
  return info;
}

Status VideoStorageService::Ingest(const std::string& name,
                                   const EncodedVideo& video) {
  TRACE_SPAN("vss_ingest");
  if (name.empty()) return Status::InvalidArgument("empty video name");
  if (video.FrameCount() == 0) return Status::InvalidArgument("empty video");
  if (video.width <= 0 || video.height <= 0) {
    return Status::InvalidArgument("video has no dimensions");
  }
  VariantKey base_key{video.width, video.height, 0};
  VR_ASSIGN_OR_RETURN(VariantInfo base_info,
                      WriteVariantObject(name, base_key, video, /*base=*/true));

  std::vector<int> starts = video::codec::GopStarts(video);
  int gop_length =
      starts.size() > 1 ? starts[1] - starts[0] : video.FrameCount();

  std::lock_guard lock(mutex_);
  auto it = catalog_.find(name);
  if (it != catalog_.end()) {
    // Replacing a video drops its stale transcoded variants (the base
    // object was already replaced by the writer's install). A variant a
    // reader still has pinned is not deleted under it: the delete is
    // deferred to the last unpin, so the in-flight fetch stays readable.
    for (const auto& [key, variant] : it->second.variants) {
      stats_.bytes_stored -= variant.bytes;
      VssMetrics::Get().bytes_stored.Add(static_cast<double>(-variant.bytes));
      if (key == base_key) continue;
      auto pin = pins_.find({name, key});
      if (pin != pins_.end() && pin->second > 0) {
        deferred_deletes_.insert({name, key});
      } else {
        options_.store->Delete(ObjectName(name, key));
      }
    }
    catalog_.erase(it);
  }
  // The new ingest just overwrote the base object, so a delete deferred for
  // the same (name, base tier) would now destroy fresh data.
  deferred_deletes_.erase({name, base_key});
  // Resident copies of the old content are stale too.
  const std::string prefix = name + "/";
  resident_.EraseIf([&prefix](const std::string& key) {
    return key.compare(0, prefix.size(), prefix) == 0;
  });

  CatalogEntry entry;
  entry.name = name;
  entry.profile = video.profile;
  entry.fps = video.fps;
  entry.frame_count = video.FrameCount();
  entry.gop_length = gop_length;
  base_info.last_use = ++use_clock_;
  stats_.bytes_stored += base_info.bytes;
  VssMetrics::Get().bytes_stored.Add(static_cast<double>(base_info.bytes));
  entry.variants[base_key] = std::move(base_info);
  catalog_[name] = std::move(entry);
  return SaveCatalogLocked();
}

// --- Read paths ----------------------------------------------------------

StatusOr<EncodedVideo> VideoStorageService::FetchSegments(
    const CatalogEntry& props, const VariantInfo& variant, size_t seg_first,
    size_t seg_count, int64_t* bytes_fetched) const {
  TRACE_SPAN("vss_fetch");
  if (seg_count == 0 || seg_first + seg_count > variant.segments.size()) {
    return Status::InvalidArgument("segment span outside the variant");
  }
  const SegmentInfo& first = variant.segments[seg_first];
  const SegmentInfo& last = variant.segments[seg_first + seg_count - 1];
  int64_t begin = first.offset;
  int64_t length = last.offset + last.length - begin;
  VR_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      options_.store->Read(ObjectName(props.name, variant.key), begin, length));
  *bytes_fetched += length;

  EncodedVideo out;
  out.profile = props.profile;
  out.width = variant.key.width;
  out.height = variant.key.height;
  out.fps = props.fps;
  for (size_t s = seg_first; s < seg_first + seg_count; ++s) {
    const SegmentInfo& seg = variant.segments[s];
    VR_RETURN_IF_ERROR(ParseSegment(bytes.data() + (seg.offset - begin),
                                    static_cast<size_t>(seg.length), seg,
                                    out.frames));
  }
  return out;
}

StatusOr<EncodedVideo> VideoStorageService::Transcode(
    const EncodedVideo& source_video, const CatalogEntry& props,
    const VariantKey& tier) const {
  TRACE_SPAN("vss_transcode");
  VR_ASSIGN_OR_RETURN(
      video::Video decoded,
      video::codec::ParallelDecode(source_video));
  if (tier.width != source_video.width || tier.height != source_video.height) {
    for (video::Frame& frame : decoded.frames) {
      VR_ASSIGN_OR_RETURN(frame,
                          video::BilinearResize(frame, tier.width, tier.height));
    }
  }
  video::codec::EncoderConfig config;
  config.profile = props.profile;
  config.gop_length = props.gop_length > 0 ? props.gop_length : 15;
  config.qp = tier.qp;
  VR_ASSIGN_OR_RETURN(EncodedVideo out, video::codec::ParallelEncode(decoded, config));
  out.fps = props.fps;
  return out;
}

StatusOr<std::shared_ptr<const EncodedVideo>> VideoStorageService::AcquireStream(
    const std::string& name, const VariantKey& tier) {
  const auto read_start = std::chrono::steady_clock::now();
  std::unique_lock lock(mutex_);
  bool counted_wait = false;
  // Set when a leader's transcode blew the deadline: this reader gives up
  // on materializing `tier` and serves the chosen source variant directly.
  bool degrade_to_source = false;
  bool direct = false;
  VariantKey serving_key;
  VariantInfo source_copy;
  CatalogEntry props;
  std::shared_ptr<Flight> flight_state;
  std::pair<std::string, VariantKey> flight_key;
  for (;;) {
    auto it = catalog_.find(name);
    if (it == catalog_.end()) return Status::NotFound("no such video: " + name);
    CatalogEntry& entry = it->second;
    const VariantInfo* chosen = ChooseSource(entry, tier, CostModel{});
    if (chosen == nullptr) {
      return Status::NotFound("no variant of " + name + " can serve tier " +
                              VariantTag(tier));
    }
    direct = Serves(*chosen, tier) || degrade_to_source;
    serving_key = direct ? chosen->key : tier;
    if (std::shared_ptr<const EncodedVideo> resident =
            resident_.Get(name + "/" + VariantTag(serving_key))) {
      if (degrade_to_source) {
        ++stats_.degraded_reads;
        VssMetrics::Get().degraded_reads.Increment();
        fault::NoteDegraded();
      }
      return resident;
    }
    auto flight = std::make_pair(name, serving_key);
    auto fit = inflight_.find(flight);
    if (fit != inflight_.end()) {
      // Hold the flight state across the wait: the leader publishes its
      // outcome there, so a failed or degraded materialization is observed
      // instead of silently re-led.
      std::shared_ptr<Flight> state = fit->second;
      if (!direct && !counted_wait) {
        counted_wait = true;
        ++stats_.transcode_coalesced;
        VssMetrics::Get().transcode_coalesced.Increment();
      }
      inflight_cv_.wait(lock, [&state] { return state->done; });
      if (!state->status.ok()) return state->status;
      if (state->degraded) degrade_to_source = true;
      continue;  // Re-plan: the catalog may have changed while waiting.
    }
    flight_key = flight;
    flight_state = std::make_shared<Flight>();
    inflight_.emplace(flight_key, flight_state);
    VariantInfo& source = entry.variants.at(chosen->key);
    ++pins_[{name, source.key}];
    source.last_use = ++use_clock_;
    ++source.hits;
    source_copy = source;
    props.name = entry.name;
    props.profile = entry.profile;
    props.fps = entry.fps;
    props.frame_count = entry.frame_count;
    props.gop_length = entry.gop_length;
    break;
  }
  lock.unlock();

  // Leader: fetch (and transcode) outside the lock; waiters block on the
  // in-flight marker, so exactly one materialization runs per variant.
  // A transcode past the deadline degrades: the already-fetched source is
  // served as-is (a better variant than requested, never a worse one).
  int64_t fetched = 0;
  bool degraded = false;
  StatusOr<EncodedVideo> produced = [&]() -> StatusOr<EncodedVideo> {
    VR_ASSIGN_OR_RETURN(EncodedVideo source_video,
                        FetchSegments(props, source_copy, 0,
                                      source_copy.segments.size(), &fetched));
    if (direct) return source_video;
    if (options_.faults != nullptr) {
      options_.faults->MaybeDelay(fault::Site::kTranscodeStall);
    }
    if (options_.transcode_deadline.count() > 0 &&
        std::chrono::steady_clock::now() - read_start >
            options_.transcode_deadline) {
      degraded = true;
      return source_video;
    }
    return Transcode(source_video, props, tier);
  }();
  if (degraded) serving_key = source_copy.key;

  // Persist a fresh transcode before publishing so later (cold) readers
  // find it materialized.
  bool persist = produced.ok() && !direct && !degraded &&
                 options_.variant_cache_bytes > 0;
  StatusOr<VariantInfo> new_variant = VariantInfo{};
  if (persist) {
    new_variant = WriteVariantObject(name, tier, *produced, /*base=*/false);
  }

  lock.lock();
  UnpinLocked(name, source_copy.key);
  flight_state->done = true;
  flight_state->degraded = degraded;
  flight_state->status = produced.ok() ? Status::Ok() : produced.status();
  inflight_.erase(flight_key);
  if (!produced.ok()) {
    inflight_cv_.notify_all();
    return produced.status();
  }
  auto& metrics = VssMetrics::Get();
  stats_.segments_fetched += static_cast<int64_t>(source_copy.segments.size());
  stats_.bytes_fetched += fetched;
  metrics.segments_fetched.Increment(
      static_cast<double>(source_copy.segments.size()));
  metrics.bytes_fetched.Increment(static_cast<double>(fetched));
  if (direct || degraded) {
    if (source_copy.base) {
      ++stats_.base_hits;
      metrics.base_hits.Increment();
    } else {
      ++stats_.variant_hits;
      metrics.variant_hits.Increment();
    }
  } else {
    ++stats_.transcodes;
    metrics.transcodes.Increment();
  }
  if (degraded || degrade_to_source) {
    ++stats_.degraded_reads;
    metrics.degraded_reads.Increment();
    fault::NoteDegraded();
  }
  if (persist && new_variant.ok()) {
    auto cat = catalog_.find(name);
    if (cat != catalog_.end() && cat->second.variants.count(tier) == 0) {
      VariantInfo info = std::move(*new_variant);
      info.last_use = ++use_clock_;
      stats_.bytes_stored += info.bytes;
      metrics.bytes_stored.Add(static_cast<double>(info.bytes));
      cat->second.variants[tier] = std::move(info);
      ++stats_.variants_persisted;
      metrics.variants_persisted.Increment();
      // The persist overwrote the store object for (name, tier); a delete
      // deferred for the stale incarnation must not fire on the new one.
      deferred_deletes_.erase({name, tier});
      EvictVariantsLocked();
      // A failed catalog save is not a failed read: the record stays in
      // memory and rides along with the next successful save.
      Status save_status = SaveCatalogLocked();
      (void)save_status;
    } else {
      // The video was replaced while we transcoded; our object is stale.
      options_.store->Delete(ObjectName(name, tier));
    }
  }
  auto shared = std::make_shared<const EncodedVideo>(std::move(*produced));
  resident_.Put(name + "/" + VariantTag(serving_key), shared);
  inflight_cv_.notify_all();
  return shared;
}

StatusOr<std::shared_ptr<const EncodedVideo>> VideoStorageService::ReadVideo(
    const std::string& name, const VariantKey& tier) {
  TRACE_SPAN("vss_read");
  {
    std::lock_guard lock(mutex_);
    ++stats_.reads;
  }
  VssMetrics::Get().reads.Increment();
  return AcquireStream(name, tier);
}

StatusOr<RangeRead> VideoStorageService::ReadRange(const std::string& name,
                                                   const VariantKey& tier,
                                                   int first, int count) {
  TRACE_SPAN("vss_read_range");
  VssMetrics::Get().range_reads.Increment();
  std::unique_lock lock(mutex_);
  ++stats_.range_reads;
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return Status::NotFound("no such video: " + name);
  CatalogEntry& entry = it->second;
  if (count <= 0) return Status::InvalidArgument("empty frame range");
  if (first < 0 || first + count > entry.frame_count) {
    return Status::OutOfRange("frame range outside the stream");
  }
  const VariantInfo* chosen = ChooseSource(entry, tier, CostModel{});
  if (chosen != nullptr && Serves(*chosen, tier)) {
    if (std::shared_ptr<const EncodedVideo> resident =
            resident_.Get(name + "/" + VariantTag(chosen->key))) {
      return RangeRead{std::move(resident), 0};
    }
    // Covering GOP-aligned segment span of [first, first + count).
    const std::vector<SegmentInfo>& segments = chosen->segments;
    size_t seg_first = 0;
    while (seg_first + 1 < segments.size() &&
           segments[seg_first + 1].first_frame <= first) {
      ++seg_first;
    }
    size_t seg_end = seg_first;
    while (seg_end < segments.size() &&
           segments[seg_end].first_frame < first + count) {
      ++seg_end;
    }
    if (!(seg_first == 0 && seg_end == segments.size())) {
      VariantInfo& source = entry.variants.at(chosen->key);
      ++pins_[{name, source.key}];
      source.last_use = ++use_clock_;
      ++source.hits;
      VariantInfo source_copy = source;
      CatalogEntry props;
      props.name = entry.name;
      props.profile = entry.profile;
      props.fps = entry.fps;
      props.frame_count = entry.frame_count;
      props.gop_length = entry.gop_length;
      lock.unlock();

      int64_t fetched = 0;
      StatusOr<EncodedVideo> video = FetchSegments(
          props, source_copy, seg_first, seg_end - seg_first, &fetched);

      lock.lock();
      UnpinLocked(name, source_copy.key);
      if (!video.ok()) return video.status();
      auto& metrics = VssMetrics::Get();
      stats_.segments_fetched += static_cast<int64_t>(seg_end - seg_first);
      stats_.bytes_fetched += fetched;
      metrics.segments_fetched.Increment(static_cast<double>(seg_end - seg_first));
      metrics.bytes_fetched.Increment(static_cast<double>(fetched));
      if (source_copy.base) {
        ++stats_.base_hits;
        metrics.base_hits.Increment();
      } else {
        ++stats_.variant_hits;
        metrics.variant_hits.Increment();
      }
      return RangeRead{std::make_shared<const EncodedVideo>(std::move(*video)),
                       source_copy.segments[seg_first].first_frame};
    }
  }
  // Whole-stream span, or the tier is not materialized: acquire the full
  // stream (single-flight materialization) and serve the range from it.
  lock.unlock();
  VR_ASSIGN_OR_RETURN(std::shared_ptr<const EncodedVideo> video,
                      AcquireStream(name, tier));
  return RangeRead{std::move(video), 0};
}

// --- Maintenance ---------------------------------------------------------

StatusOr<int> VideoStorageService::Compact() {
  TRACE_SPAN("vss_compact");
  std::lock_guard lock(mutex_);
  std::set<std::pair<std::string, VariantKey>> pinned = PinnedLocked();
  int dropped = 0;
  for (auto& [name, entry] : catalog_) {
    for (const VariantKey& key :
         CompactionVictims(entry, options_.compaction_byte_slack)) {
      if (pinned.count({name, key})) continue;
      auto vit = entry.variants.find(key);
      if (vit == entry.variants.end()) continue;
      stats_.bytes_stored -= vit->second.bytes;
      VssMetrics::Get().bytes_stored.Add(static_cast<double>(-vit->second.bytes));
      options_.store->Delete(ObjectName(name, key));
      entry.variants.erase(vit);
      ++stats_.variants_compacted;
      VssMetrics::Get().variants_compacted.Increment();
      ++dropped;
    }
  }
  if (dropped > 0) VR_RETURN_IF_ERROR(SaveCatalogLocked());
  return dropped;
}

void VideoStorageService::EvictVariantsLocked() {
  std::vector<std::pair<std::string, VariantKey>> victims = EvictionVictims(
      catalog_, options_.variant_cache_bytes, PinnedLocked());
  for (const auto& [name, key] : victims) {
    auto it = catalog_.find(name);
    if (it == catalog_.end()) continue;
    auto vit = it->second.variants.find(key);
    if (vit == it->second.variants.end()) continue;
    stats_.bytes_stored -= vit->second.bytes;
    VssMetrics::Get().bytes_stored.Add(static_cast<double>(-vit->second.bytes));
    options_.store->Delete(ObjectName(name, key));
    it->second.variants.erase(vit);
    ++stats_.variants_evicted;
    VssMetrics::Get().variants_evicted.Increment();
  }
}

std::set<std::pair<std::string, VariantKey>> VideoStorageService::PinnedLocked()
    const {
  std::set<std::pair<std::string, VariantKey>> pinned;
  for (const auto& [id, count] : pins_) {
    if (count > 0) pinned.insert(id);
  }
  return pinned;
}

void VideoStorageService::UnpinLocked(const std::string& name,
                                      const VariantKey& key) {
  auto pin = pins_.find({name, key});
  if (pin == pins_.end()) return;
  if (--pin->second > 0) return;
  pins_.erase(pin);
  auto deferred = deferred_deletes_.find({name, key});
  if (deferred == deferred_deletes_.end()) return;
  deferred_deletes_.erase(deferred);
  // Execute the deferred delete only when nothing else now owns the object:
  // a re-persisted variant is back in the catalog, and a leader mid-flight
  // for this key is about to overwrite the object anyway.
  auto cat = catalog_.find(name);
  bool live = cat != catalog_.end() && cat->second.variants.count(key) > 0;
  if (!live && inflight_.count({name, key}) == 0) {
    options_.store->Delete(ObjectName(name, key));
  }
}

void VideoStorageService::DropResident() { resident_.Clear(); }

// --- Introspection -------------------------------------------------------

bool VideoStorageService::Contains(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return catalog_.count(name) > 0;
}

std::vector<std::string> VideoStorageService::List() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> names;
  names.reserve(catalog_.size());
  for (const auto& [name, entry] : catalog_) names.push_back(name);
  return names;
}

StatusOr<CatalogEntry> VideoStorageService::Describe(
    const std::string& name) const {
  std::lock_guard lock(mutex_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return Status::NotFound("no such video: " + name);
  return it->second;
}

StatusOr<VariantKey> VideoStorageService::BaseTier(
    const std::string& name) const {
  std::lock_guard lock(mutex_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return Status::NotFound("no such video: " + name);
  for (const auto& [key, variant] : it->second.variants) {
    if (variant.base) return key;
  }
  return Status::Internal("video has no base variant: " + name);
}

VssStats VideoStorageService::stats() const {
  const LruCacheStats resident = resident_.stats();
  std::lock_guard lock(mutex_);
  VssStats out = stats_;
  out.resident_hits = resident.hits;
  out.resident_evictions = resident.evictions;
  return out;
}

// --- Catalog persistence -------------------------------------------------

Status VideoStorageService::SaveCatalogLocked() {
  ByteWriter writer;
  writer.U32(kCatalogMagic);
  writer.U64(use_clock_);
  writer.U32(static_cast<uint32_t>(catalog_.size()));
  for (const auto& [name, entry] : catalog_) {
    writer.Str(name);
    writer.U8(static_cast<uint8_t>(entry.profile));
    writer.F64(entry.fps);
    writer.U32(static_cast<uint32_t>(entry.frame_count));
    writer.U32(static_cast<uint32_t>(entry.gop_length));
    writer.U32(static_cast<uint32_t>(entry.variants.size()));
    for (const auto& [key, variant] : entry.variants) {
      writer.I32(key.width);
      writer.I32(key.height);
      writer.I32(key.qp);
      writer.U8(variant.base ? 1 : 0);
      writer.U64(static_cast<uint64_t>(variant.bytes));
      writer.U64(variant.last_use);
      writer.U64(static_cast<uint64_t>(variant.hits));
      writer.U32(static_cast<uint32_t>(variant.segments.size()));
      for (const SegmentInfo& segment : variant.segments) {
        writer.U64(static_cast<uint64_t>(segment.offset));
        writer.U64(static_cast<uint64_t>(segment.length));
        writer.U32(static_cast<uint32_t>(segment.first_frame));
        writer.U32(static_cast<uint32_t>(segment.frame_count));
      }
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
  // Smallest encodings: a video is an empty name, profile, fps, frame count,
  // GOP length and variant count; a variant is its key, base flag, bytes,
  // last use, hits and segment count; a segment is four fixed fields.
  constexpr size_t kVideoBytes = 4 + 1 + 8 + 4 + 4 + 4;
  constexpr size_t kVariantBytes = 3 * 4 + 1 + 3 * 8 + 4;
  constexpr size_t kSegmentBytes = 8 + 8 + 4 + 4;
  ByteCursor cursor(*bytes);
  if (cursor.U32() != kCatalogMagic) return Status::DataLoss("bad vss catalog magic");
  use_clock_ = cursor.U64();
  const uint32_t video_count = cursor.Count(kVideoBytes);
  std::lock_guard lock(mutex_);
  catalog_.clear();
  for (uint32_t v = 0; v < video_count && cursor.ok(); ++v) {
    CatalogEntry entry;
    entry.name = cursor.Str();
    entry.profile = static_cast<video::codec::Profile>(cursor.U8());
    entry.fps = cursor.F64();
    entry.frame_count = static_cast<int>(cursor.U32());
    entry.gop_length = static_cast<int>(cursor.U32());
    const uint32_t variant_count = cursor.Count(kVariantBytes);
    for (uint32_t i = 0; i < variant_count && cursor.ok(); ++i) {
      VariantKey key;
      key.width = cursor.I32();
      key.height = cursor.I32();
      key.qp = cursor.I32();
      VariantInfo variant;
      variant.key = key;
      variant.base = cursor.U8() != 0;
      variant.bytes = static_cast<int64_t>(cursor.U64());
      variant.last_use = cursor.U64();
      variant.hits = static_cast<int64_t>(cursor.U64());
      const uint32_t segment_count = cursor.Count(kSegmentBytes);
      for (uint32_t s = 0; s < segment_count && cursor.ok(); ++s) {
        SegmentInfo segment;
        segment.offset = static_cast<int64_t>(cursor.U64());
        segment.length = static_cast<int64_t>(cursor.U64());
        segment.first_frame = static_cast<int>(cursor.U32());
        segment.frame_count = static_cast<int>(cursor.U32());
        variant.segments.push_back(segment);
      }
      stats_.bytes_stored += variant.bytes;
      entry.variants[key] = std::move(variant);
    }
    if (!cursor.ok()) break;
    catalog_[entry.name] = std::move(entry);
  }
  if (!cursor.ok()) return Status::DataLoss("truncated vss catalog");
  VssMetrics::Get().bytes_stored.Add(static_cast<double>(stats_.bytes_stored));
  return Status::Ok();
}

}  // namespace visualroad::storage
