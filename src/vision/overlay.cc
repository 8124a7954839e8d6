#include "vision/overlay.h"

#include <algorithm>

#include "common/serialize.h"
#include "vision/font.h"

namespace visualroad::vision {

video::Frame RenderDetectionFrame(int width, int height,
                                  const std::vector<Detection>& detections) {
  video::Frame frame(width, height);
  frame.Fill(video::kOmega.y, video::kOmega.u, video::kOmega.v);
  // Paint lowest-score first so the most confident detection wins overlaps
  // (matches Q2(c)'s min-class rule deterministically).
  std::vector<const Detection*> ordered;
  ordered.reserve(detections.size());
  for (const Detection& d : detections) ordered.push_back(&d);
  std::sort(ordered.begin(), ordered.end(),
            [](const Detection* a, const Detection* b) { return a->score < b->score; });
  for (const Detection* detection : ordered) {
    video::Yuv color = ClassColor(detection->object_class);
    RectI box = detection->box.Clamp(width, height);
    for (int y = box.y0; y < box.y1; ++y) {
      for (int x = box.x0; x < box.x1; ++x) {
        frame.SetPixel(x, y, color.y, color.u, color.v);
      }
    }
  }
  return frame;
}

video::Frame RenderCaptionFrame(int width, int height,
                                const video::WebVttDocument& captions,
                                double seconds) {
  video::Frame frame(width, height);
  frame.Fill(video::kOmega.y, video::kOmega.u, video::kOmega.v);
  const video::Yuv text_color{235, 128, 128};  // White.
  int scale = std::max(1, height / 180);
  for (const video::WebVttCue* cue : captions.ActiveAt(seconds)) {
    int text_w = TextWidth(cue->text, scale);
    int x = static_cast<int>(cue->position_percent / 100.0 * width) - text_w / 2;
    int y = static_cast<int>(cue->line_percent / 100.0 * height) -
            TextHeight(scale) / 2;
    DrawText(frame, cue->text, x, y, scale, text_color);
  }
  return frame;
}

void WriteDetections(ByteWriter& writer,
                     const std::vector<std::vector<Detection>>& per_frame) {
  writer.U32(static_cast<uint32_t>(per_frame.size()));
  for (const auto& detections : per_frame) {
    writer.U32(static_cast<uint32_t>(detections.size()));
    for (const Detection& d : detections) {
      writer.U8(static_cast<uint8_t>(d.object_class));
      writer.I32(d.box.x0);
      writer.I32(d.box.y0);
      writer.I32(d.box.x1);
      writer.I32(d.box.y1);
      writer.F64(d.score);
      writer.I32(d.entity_id);
    }
  }
}

StatusOr<std::vector<std::vector<Detection>>> ReadDetections(ByteCursor& cursor) {
  constexpr size_t kFrameBytes = 4;       // The frame's U32 count.
  constexpr size_t kDetectionBytes = 29;  // U8 + 4 x I32 + F64 + I32.
  const uint32_t frame_count = cursor.Count(kFrameBytes);
  if (!cursor.ok()) return Status::DataLoss("detection frame count exceeds the payload");
  std::vector<std::vector<Detection>> per_frame;
  per_frame.reserve(frame_count);
  for (uint32_t f = 0; f < frame_count; ++f) {
    const uint32_t count = cursor.Count(kDetectionBytes);
    if (!cursor.ok()) return Status::DataLoss("detection count exceeds the payload");
    std::vector<Detection> detections;
    detections.reserve(count);
    for (uint32_t i = 0; i < count && cursor.ok(); ++i) {
      Detection d;
      d.object_class = static_cast<sim::ObjectClass>(cursor.U8());
      d.box = {cursor.I32(), cursor.I32(), cursor.I32(), cursor.I32()};
      d.score = cursor.F64();
      d.entity_id = cursor.I32();
      detections.push_back(d);
    }
    per_frame.push_back(std::move(detections));
    if (!cursor.ok()) return Status::DataLoss("truncated detection payload");
  }
  return per_frame;
}

std::vector<uint8_t> SerializeDetections(
    const std::vector<std::vector<Detection>>& per_frame) {
  ByteWriter writer;
  WriteDetections(writer, per_frame);
  return writer.Take();
}

StatusOr<std::vector<std::vector<Detection>>> ParseDetections(
    const std::vector<uint8_t>& bytes) {
  ByteCursor cursor(bytes);
  return ReadDetections(cursor);
}

}  // namespace visualroad::vision
