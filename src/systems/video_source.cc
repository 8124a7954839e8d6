#include "systems/video_source.h"

#include <algorithm>
#include <thread>

#include "common/metrics.h"
#include "storage/vss.h"

namespace visualroad::systems {

VideoSource::VideoSource(const video::codec::EncodedVideo* stream, bool offline,
                         double rate_multiplier)
    : stream_(stream), offline_(offline), rate_multiplier_(rate_multiplier) {}

VideoSource VideoSource::Offline(const video::codec::EncodedVideo* stream) {
  return VideoSource(stream, /*offline=*/true, 0.0);
}

VideoSource VideoSource::Online(const video::codec::EncodedVideo* stream,
                                double rate_multiplier,
                                fault::FaultInjector* faults) {
  VideoSource source(stream, /*offline=*/false,
                     rate_multiplier > 0 ? rate_multiplier : 1.0);
  source.faults_ = faults;
  return source;
}

StatusOr<VideoSource> VideoSource::StorageOffline(
    storage::VideoStorageService* vss, const std::string& name,
    int readahead_frames) {
  if (vss == nullptr) {
    return Status::InvalidArgument("storage source needs a service");
  }
  VR_ASSIGN_OR_RETURN(storage::CatalogEntry entry, vss->Describe(name));
  VideoSource source(nullptr, /*offline=*/true, 0.0);
  source.vss_ = vss;
  source.name_ = name;
  source.readahead_frames_ = std::max(1, readahead_frames);
  source.frame_count_ = entry.frame_count;
  return source;
}

int VideoSource::FrameCount() const {
  return stream_ != nullptr ? stream_->FrameCount() : frame_count_;
}

Status VideoSource::FillWindow() {
  if (window_ != nullptr && position_ >= window_first_ &&
      position_ < window_first_ + window_->FrameCount()) {
    return Status::Ok();
  }
  int count = std::min(readahead_frames_, frame_count_ - position_);
  VR_ASSIGN_OR_RETURN(storage::RangeRead range,
                      vss_->ReadRange(name_, position_, count));
  window_ = std::move(range.video);
  window_first_ = range.first_frame;
  return Status::Ok();
}

StatusOr<const video::codec::EncodedFrame*> VideoSource::Next() {
  if (AtEnd()) return Status::OutOfRange("video source exhausted");
  if (!offline_) {
    if (!started_) {
      // Anchor pacing at the first read, not at construction.
      started_ = true;
      start_ = std::chrono::steady_clock::now();
    }
    // Throttle: frame i becomes available at start + i / (fps * multiplier).
    const double frame_seconds = 1.0 / (stream_->fps * rate_multiplier_);
    double seconds = position_ * frame_seconds;
    auto available_at =
        start_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(seconds));
    // Clamp catch-up after a stall: a consumer that fell more than a few
    // frame periods behind resumes at the camera's rate instead of
    // bursting through the whole backlog (a live feed cannot replay what
    // the consumer slept through). Small lag still catches up, so paced
    // jitter keeps counting against the reader as before.
    const auto max_catchup =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(4.0 * frame_seconds));
    const auto now = std::chrono::steady_clock::now();
    if (now > available_at + max_catchup) {
      start_ += now - (available_at + max_catchup);
      available_at = now - max_catchup;
    }
    std::this_thread::sleep_until(available_at);
    if (faults_ != nullptr) {
      faults_->MaybeDelay(fault::Site::kRtpJitter);
      if (faults_->ShouldInject(fault::Site::kRtpLoss) &&
          last_delivered_ != nullptr) {
        // The channel lost this frame: freeze-frame conceal by repeating
        // the last delivered one. The stream still advances. The registry
        // counter is shared with the depacketizer's concealment path.
        static metrics::Counter& concealed =
            metrics::MetricsRegistry::Global().GetCounter(
                "vr_rtp_frames_concealed_total",
                "Dropped frames replaced by a freeze-frame repeat");
        concealed.Increment();
        ++position_;
        ++frames_degraded_;
        fault::NoteDegraded();
        return last_delivered_;
      }
    }
  }
  if (vss_ != nullptr) {
    VR_RETURN_IF_ERROR(FillWindow());
    return &window_->frames[static_cast<size_t>(position_++ - window_first_)];
  }
  last_delivered_ = &stream_->frames[static_cast<size_t>(position_)];
  ++position_;
  return last_delivered_;
}

Status VideoSource::Seek(int frame_index) {
  if (!offline_) {
    return Status::FailedPrecondition("online sources are forward-only");
  }
  if (frame_index < 0 || frame_index > FrameCount()) {
    return Status::OutOfRange("seek outside the stream");
  }
  position_ = frame_index;
  // Reset position-dependent state: a window that no longer covers the new
  // position would serve frames of the wrong index.
  if (window_ != nullptr &&
      (position_ < window_first_ ||
       position_ >= window_first_ + window_->FrameCount())) {
    window_.reset();
    window_first_ = 0;
  }
  return Status::Ok();
}

}  // namespace visualroad::systems
