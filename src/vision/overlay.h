#ifndef VISUALROAD_VISION_OVERLAY_H_
#define VISUALROAD_VISION_OVERLAY_H_

#include <vector>

#include "common/serialize.h"
#include "video/webvtt.h"
#include "vision/miniyolo.h"

namespace visualroad::vision {

/// Builds the Q2(c) output frame: each detection's rectangle filled with its
/// constant class colour, everything else the black sentinel omega.
video::Frame RenderDetectionFrame(int width, int height,
                                  const std::vector<Detection>& detections);

/// Renders the cues active at `seconds` into an omega-background frame sized
/// (width, height), honouring the line/position cue settings (Q6(b)).
video::Frame RenderCaptionFrame(int width, int height,
                                const video::WebVttDocument& captions,
                                double seconds);

/// The one byte layout of a per-frame detection list: a U32 frame count,
/// then per frame a U32 detection count and each detection's class, box,
/// score and entity id. The BOXS track, the ExecuteRange response and the
/// semantic-cache entry all write it.
void WriteDetections(ByteWriter& writer,
                     const std::vector<std::vector<Detection>>& per_frame);

/// Reads a list written by WriteDetections; DataLoss when a count exceeds
/// the bytes left or the bytes run out.
StatusOr<std::vector<std::vector<Detection>>> ReadDetections(ByteCursor& cursor);

/// Serialises detections for the VCD's "serialized sequence of bounding box
/// class identifiers and coordinates" Q6(a) input variant.
std::vector<uint8_t> SerializeDetections(
    const std::vector<std::vector<Detection>>& per_frame);

/// Parses a payload produced by SerializeDetections.
StatusOr<std::vector<std::vector<Detection>>> ParseDetections(
    const std::vector<uint8_t>& bytes);

}  // namespace visualroad::vision

#endif  // VISUALROAD_VISION_OVERLAY_H_
