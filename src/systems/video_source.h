#ifndef VISUALROAD_SYSTEMS_VIDEO_SOURCE_H_
#define VISUALROAD_SYSTEMS_VIDEO_SOURCE_H_

#include <chrono>
#include <memory>
#include <string>

#include "common/fault.h"
#include "common/status.h"
#include "video/codec/codec.h"

namespace visualroad::storage {
class VideoStorageService;
}  // namespace visualroad::storage

namespace visualroad::systems {

/// How the VCD exposes an input video to a VDBMS (Section 3.2).
///
/// Offline sources wrap a file with random access (`SeekSupported()` true);
/// online sources are forward-only iterators throttled to the camera's
/// capture rate — reads ahead of real time block, exactly as a named pipe or
/// RTP feed would. `rate_multiplier` scales simulated real time (1.0 = the
/// camera's own rate; larger = faster-than-real-time for tests). Storage
/// offline sources read from the storage service in GOP-aligned windows
/// instead of holding the whole file.
class VideoSource {
 public:
  static VideoSource Offline(const video::codec::EncodedVideo* stream);
  /// `faults` (optional, borrowed) injects channel behavior into the feed:
  /// kRtpLoss replaces a frame with a repeat of the last delivered one
  /// (freeze-frame, counted in frames_degraded()), kRtpJitter delays a
  /// delivery. Null means a clean channel.
  static VideoSource Online(const video::codec::EncodedVideo* stream,
                            double rate_multiplier = 1.0,
                            fault::FaultInjector* faults = nullptr);
  /// Storage-backed offline source for logical video `name`: frames are
  /// fetched on demand as GOP-aligned range reads of about
  /// `readahead_frames` frames, so a seek-and-read touches only the
  /// covering segments. `vss` is borrowed and must outlive the source.
  static StatusOr<VideoSource> StorageOffline(
      storage::VideoStorageService* vss, const std::string& name,
      int readahead_frames = 64);

  /// Next encoded frame in capture order; blocks in online mode until the
  /// frame's capture timestamp has elapsed. OutOfRange past the end. The
  /// returned frame stays valid until the next Next() or Seek() call.
  StatusOr<const video::codec::EncodedFrame*> Next();

  bool AtEnd() const { return position_ >= FrameCount(); }
  bool SeekSupported() const { return offline_; }

  /// Random access (offline only): repositions the iterator and resets all
  /// position-dependent state (a storage-backed source drops its fetched
  /// window when the target lies outside it).
  Status Seek(int frame_index);

  /// The whole backing bitstream; only valid for stream-backed sources
  /// (storage-backed sources never hold the whole file).
  const video::codec::EncodedVideo& stream() const { return *stream_; }
  int position() const { return position_; }
  int FrameCount() const;
  /// Frames delivered as freeze-frame repeats because the channel lost the
  /// real one (online mode with faults attached; always 0 otherwise).
  int frames_degraded() const { return frames_degraded_; }

 private:
  VideoSource(const video::codec::EncodedVideo* stream, bool offline,
              double rate_multiplier);

  /// Ensures the fetched window covers position_ (storage mode only).
  Status FillWindow();

  const video::codec::EncodedVideo* stream_;
  bool offline_;
  double rate_multiplier_;
  int position_ = 0;
  /// Online pacing anchor, established at the first Next() call so a source
  /// constructed ahead of consumption does not release an instant backlog.
  /// After a stall longer than a few frame periods the anchor slides
  /// forward, capping catch-up (see Next()).
  bool started_ = false;
  std::chrono::steady_clock::time_point start_;
  fault::FaultInjector* faults_ = nullptr;
  const video::codec::EncodedFrame* last_delivered_ = nullptr;
  int frames_degraded_ = 0;

  // Storage-backed mode.
  storage::VideoStorageService* vss_ = nullptr;
  std::string name_;
  int readahead_frames_ = 64;
  int frame_count_ = 0;
  std::shared_ptr<const video::codec::EncodedVideo> window_;
  int window_first_ = 0;
};

}  // namespace visualroad::systems

#endif  // VISUALROAD_SYSTEMS_VIDEO_SOURCE_H_
