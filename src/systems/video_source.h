#ifndef VISUALROAD_SYSTEMS_VIDEO_SOURCE_H_
#define VISUALROAD_SYSTEMS_VIDEO_SOURCE_H_

#include <chrono>

#include "common/fault.h"
#include "common/status.h"
#include "video/codec/codec.h"

namespace visualroad::systems {

/// How the VCD feeds an input video to a VDBMS in online mode (Section 3.2):
/// a forward-only iterator throttled to the camera's capture rate — reads
/// ahead of real time block, exactly as a named pipe would.
/// `rate_multiplier` scales simulated real time (1.0 = the camera's own
/// rate; larger = faster-than-real-time for tests). Offline inputs need no
/// source: engines read them from the dataset or the storage service.
class VideoSource {
 public:
  /// `faults` (optional, borrowed) injects channel behavior into the feed:
  /// kRtpLoss replaces a frame with a repeat of the last delivered one
  /// (freeze-frame, counted in frames_degraded()), kRtpJitter delays a
  /// delivery. Null means a clean channel.
  static VideoSource Online(const video::codec::EncodedVideo* stream,
                            double rate_multiplier = 1.0,
                            fault::FaultInjector* faults = nullptr);

  /// Next encoded frame in capture order; blocks until the frame's capture
  /// timestamp has elapsed. OutOfRange past the end. The returned frame
  /// points into the stream.
  StatusOr<const video::codec::EncodedFrame*> Next();

  bool AtEnd() const { return position_ >= FrameCount(); }
  int FrameCount() const { return stream_->FrameCount(); }
  /// Frames delivered as freeze-frame repeats because the channel lost the
  /// real one (always 0 without faults).
  int frames_degraded() const { return frames_degraded_; }

 private:
  VideoSource(const video::codec::EncodedVideo* stream, double rate_multiplier,
              fault::FaultInjector* faults);

  const video::codec::EncodedVideo* stream_;
  double rate_multiplier_;
  fault::FaultInjector* faults_;
  int position_ = 0;
  /// Pacing anchor, established at the first Next() call so a source
  /// constructed ahead of consumption does not release an instant backlog.
  /// After a stall longer than a few frame periods the anchor slides
  /// forward, capping catch-up (see Next()).
  bool started_ = false;
  std::chrono::steady_clock::time_point start_;
  const video::codec::EncodedFrame* last_delivered_ = nullptr;
  int frames_degraded_ = 0;
};

}  // namespace visualroad::systems

#endif  // VISUALROAD_SYSTEMS_VIDEO_SOURCE_H_
