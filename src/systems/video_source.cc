#include "systems/video_source.h"

#include <thread>

#include "common/metrics.h"

namespace visualroad::systems {

VideoSource::VideoSource(const video::codec::EncodedVideo* stream,
                         double rate_multiplier, fault::FaultInjector* faults)
    : stream_(stream), rate_multiplier_(rate_multiplier), faults_(faults) {}

VideoSource VideoSource::Online(const video::codec::EncodedVideo* stream,
                                double rate_multiplier,
                                fault::FaultInjector* faults) {
  return VideoSource(stream, rate_multiplier > 0 ? rate_multiplier : 1.0,
                     faults);
}

StatusOr<const video::codec::EncodedFrame*> VideoSource::Next() {
  if (AtEnd()) return Status::OutOfRange("video source exhausted");
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
      // the last delivered one. The stream still advances.
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
  last_delivered_ = &stream_->frames[static_cast<size_t>(position_)];
  ++position_;
  return last_delivered_;
}

}  // namespace visualroad::systems
