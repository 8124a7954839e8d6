#include "simulation/ground_truth.h"

#include <algorithm>
#include <cmath>

#include "common/serialize.h"

namespace visualroad::sim {

namespace {

/// Projects a world-space cuboid to its screen-space bounding rectangle.
/// Returns an empty rect when fully behind the camera.
RectI ProjectCuboid(const Camera& camera, const Vec3& lo, const Vec3& hi) {
  double min_x = 1e18, min_y = 1e18, max_x = -1e18, max_y = -1e18;
  bool any = false;
  for (int corner = 0; corner < 8; ++corner) {
    Vec3 p{(corner & 1) ? hi.x : lo.x, (corner & 2) ? hi.y : lo.y,
           (corner & 4) ? hi.z : lo.z};
    auto projected = camera.Project(p);
    if (!projected.has_value()) continue;
    any = true;
    min_x = std::min(min_x, projected->x);
    max_x = std::max(max_x, projected->x);
    min_y = std::min(min_y, projected->y);
    max_y = std::max(max_y, projected->y);
  }
  if (!any) return {};
  RectI rect{static_cast<int>(std::floor(min_x)), static_cast<int>(std::floor(min_y)),
             static_cast<int>(std::ceil(max_x)), static_cast<int>(std::ceil(max_y))};
  return rect.Clamp(camera.intrinsics().width, camera.intrinsics().height);
}

/// Counts framebuffer pixels inside `rect` whose id matches.
int64_t CountIdPixels(const Framebuffer& fb, const RectI& rect, int32_t id) {
  int64_t count = 0;
  for (int y = rect.y0; y < rect.y1; ++y) {
    for (int x = rect.x0; x < rect.x1; ++x) {
      if (fb.ids[fb.Index(x, y)] == id) ++count;
    }
  }
  return count;
}

/// Fill factor: the share of a projected bounding rectangle a fully visible
/// object of this class typically covers (its silhouette is not a rectangle).
double FillFactor(ObjectClass cls) {
  return cls == ObjectClass::kVehicle ? 0.55 : 0.60;
}

}  // namespace

const GroundTruthBox* FrameGroundTruth::Find(int32_t entity_id) const {
  for (const GroundTruthBox& box : boxes) {
    if (box.entity_id == entity_id) return &box;
  }
  return nullptr;
}

FrameGroundTruth ExtractGroundTruth(const Tile& tile, const Camera& camera,
                                    const Framebuffer& fb) {
  FrameGroundTruth out;

  for (const Vehicle& vehicle : tile.vehicles()) {
    int32_t id = kVehicleIdBase + vehicle.id;
    double hl = vehicle.length / 2.0, hw = vehicle.width / 2.0;
    Vec2 p = vehicle.position;
    Vec3 lo, hi;
    if (vehicle.axis == Axis::kX) {
      lo = {p.x - hl, p.y - hw, 0.0};
      hi = {p.x + hl, p.y + hw, vehicle.height};
    } else {
      lo = {p.x - hw, p.y - hl, 0.0};
      hi = {p.x + hw, p.y + hl, vehicle.height};
    }
    RectI box = ProjectCuboid(camera, lo, hi);
    if (box.Empty()) continue;
    int64_t visible_pixels = CountIdPixels(fb, box, id);
    if (visible_pixels == 0) continue;

    GroundTruthBox gt;
    gt.entity_id = id;
    gt.object_class = ObjectClass::kVehicle;
    gt.box = box;
    gt.visible_fraction = std::min(
        1.0, static_cast<double>(visible_pixels) /
                 std::max<double>(1.0, static_cast<double>(box.Area()) *
                                           FillFactor(ObjectClass::kVehicle)));
    gt.plate = vehicle.plate;

    // Plate visibility: the front face must point toward the camera, the
    // projected plate must be tall enough to resolve glyphs, and its pixels
    // must belong to this vehicle (unoccluded).
    Vec2 fwd2 = vehicle.Forward();
    Vec3 forward{fwd2.x, fwd2.y, 0.0};
    Vec3 face_centre{p.x + fwd2.x * hl, p.y + fwd2.y * hl, kPlateMountHeight};
    Vec3 to_camera = camera.pose().position - face_centre;
    if (to_camera.Dot(forward) > 0.0) {
      Vec3 lateral{-fwd2.y, fwd2.x, 0.0};
      Vec3 plate_lo =
          face_centre - lateral * (kPlateWidth / 2.0) - Vec3{0, 0, kPlateHeight / 2.0};
      Vec3 plate_hi =
          face_centre + lateral * (kPlateWidth / 2.0) + Vec3{0, 0, kPlateHeight / 2.0};
      RectI plate_box = ProjectCuboid(camera, plate_lo, plate_hi);
      if (!plate_box.Empty() && plate_box.Height() >= kPlateMinPixelHeight &&
          plate_box.Width() >= kPlateMinPixelWidth) {
        int64_t plate_pixels = CountIdPixels(fb, plate_box, id);
        if (plate_pixels >=
            static_cast<int64_t>(0.5 * static_cast<double>(plate_box.Area()))) {
          gt.plate_box = plate_box;
          gt.plate_visible = true;
        }
      }
    }
    out.boxes.push_back(std::move(gt));
  }

  for (const Pedestrian& pedestrian : tile.pedestrians()) {
    int32_t id = kPedestrianIdBase + pedestrian.id;
    Vec2 p = pedestrian.position;
    double hw = pedestrian.width / 2.0;
    RectI box = ProjectCuboid(camera, {p.x - hw, p.y - hw, 0.0},
                              {p.x + hw, p.y + hw, pedestrian.height});
    if (box.Empty()) continue;
    int64_t visible_pixels = CountIdPixels(fb, box, id);
    if (visible_pixels == 0) continue;
    GroundTruthBox gt;
    gt.entity_id = id;
    gt.object_class = ObjectClass::kPedestrian;
    gt.box = box;
    gt.visible_fraction = std::min(
        1.0, static_cast<double>(visible_pixels) /
                 std::max<double>(1.0, static_cast<double>(box.Area()) *
                                           FillFactor(ObjectClass::kPedestrian)));
    out.boxes.push_back(std::move(gt));
  }
  return out;
}

std::vector<uint8_t> SerializeGroundTruth(const std::vector<FrameGroundTruth>& frames) {
  ByteWriter writer;
  writer.U32(static_cast<uint32_t>(frames.size()));
  for (const FrameGroundTruth& frame : frames) {
    writer.U32(static_cast<uint32_t>(frame.boxes.size()));
    for (const GroundTruthBox& box : frame.boxes) {
      writer.I32(box.entity_id);
      writer.U8(static_cast<uint8_t>(box.object_class));
      writer.I32(box.box.x0);
      writer.I32(box.box.y0);
      writer.I32(box.box.x1);
      writer.I32(box.box.y1);
      writer.F64(box.visible_fraction);
      writer.Str(box.plate);
      writer.I32(box.plate_box.x0);
      writer.I32(box.plate_box.y0);
      writer.I32(box.plate_box.x1);
      writer.I32(box.plate_box.y1);
      writer.U8(box.plate_visible ? 1 : 0);
    }
  }
  return writer.Take();
}

StatusOr<std::vector<FrameGroundTruth>> ParseGroundTruth(
    const std::vector<uint8_t>& bytes) {
  constexpr size_t kFrameBytes = 4;  // The frame's U32 box count.
  // I32 + U8 + 4 x I32 + F64 + an empty Str's U32 length + 4 x I32 + U8.
  constexpr size_t kBoxBytes = 50;
  ByteCursor cursor(bytes);
  const uint32_t frame_count = cursor.Count(kFrameBytes);
  if (!cursor.ok()) {
    return Status::DataLoss("ground-truth frame count exceeds the payload");
  }
  std::vector<FrameGroundTruth> frames;
  frames.reserve(frame_count);
  for (uint32_t f = 0; f < frame_count; ++f) {
    FrameGroundTruth frame;
    const uint32_t box_count = cursor.Count(kBoxBytes);
    if (!cursor.ok()) {
      return Status::DataLoss("ground-truth box count exceeds the payload");
    }
    frame.boxes.reserve(box_count);
    for (uint32_t b = 0; b < box_count && cursor.ok(); ++b) {
      GroundTruthBox box;
      box.entity_id = cursor.I32();
      box.object_class = static_cast<ObjectClass>(cursor.U8());
      box.box = {cursor.I32(), cursor.I32(), cursor.I32(), cursor.I32()};
      box.visible_fraction = cursor.F64();
      box.plate = cursor.Str();
      box.plate_box = {cursor.I32(), cursor.I32(), cursor.I32(), cursor.I32()};
      box.plate_visible = cursor.U8() != 0;
      frame.boxes.push_back(std::move(box));
    }
    frames.push_back(std::move(frame));
    if (!cursor.ok()) return Status::DataLoss("truncated ground-truth payload");
  }
  if (!cursor.ok()) return Status::DataLoss("truncated ground-truth payload");
  return frames;
}

}  // namespace visualroad::sim
