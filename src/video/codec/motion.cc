#include "video/codec/motion.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "video/kernels/kernels.h"

namespace visualroad::video::codec {

namespace {

int ClampCoord(int v, int limit) { return std::clamp(v, 0, limit - 1); }

/// SAD without call accounting; DiamondSearch batches its own count.
int64_t SadBoundedImpl(const Plane& cur, const Plane& ref, int bx, int by,
                       int size, int dx, int dy, int64_t bound) {
  bool inside = bx + dx >= 0 && by + dy >= 0 && bx + dx + size <= ref.width &&
                by + dy + size <= ref.height;
  if (inside) {
    return kernels::Kernels().sad_bounded(cur.Row(by) + bx, cur.width,
                                          ref.Row(by + dy) + bx + dx, ref.width,
                                          size, bound);
  }
  // Edge-clamped slow path: per-sample coordinate clamping resists a
  // contiguous-row kernel; blocks touching the frame border are a thin
  // minority, so this stays scalar.
  int64_t sad = 0;
  for (int y = 0; y < size; ++y) {
    const uint8_t* crow = cur.Row(by + y) + bx;
    const uint8_t* rrow = ref.Row(ClampCoord(by + dy + y, ref.height));
    for (int x = 0; x < size; ++x) {
      sad += std::abs(static_cast<int>(crow[x]) -
                      rrow[ClampCoord(bx + dx + x, ref.width)]);
    }
    if (sad >= bound) return sad;
  }
  return sad;
}

}  // namespace

int64_t BlockSadBounded(const Plane& cur, const Plane& ref, int bx, int by, int size,
                        int dx, int dy, int64_t bound) {
  kernels::CountKernelCalls(kernels::Kernel::kSad, 1);
  return SadBoundedImpl(cur, ref, bx, by, size, dx, dy, bound);
}

int64_t BlockSad(const Plane& cur, const Plane& ref, int bx, int by, int size, int dx,
                 int dy) {
  return BlockSadBounded(cur, ref, bx, by, size, dx, dy,
                         std::numeric_limits<int64_t>::max());
}

MotionVector DiamondSearch(const Plane& cur, const Plane& ref, int bx, int by,
                           int size, int search_radius, MotionVector predictor) {
  // Candidates only ever replace `best` on a strict improvement, so bounding
  // each SAD by the current best keeps every accept/reject decision — and so
  // the returned vector — identical to the unbounded search, while losing
  // candidates abandon the sum early. An accepted SAD never hit its bound,
  // so best.sad stays exact.
  uint64_t evaluations = 0;
  auto evaluate = [&](int dx, int dy, int64_t bound) -> int64_t {
    ++evaluations;
    return SadBoundedImpl(cur, ref, bx, by, size, dx, dy, bound);
  };

  MotionVector best{0, 0,
                    evaluate(0, 0, std::numeric_limits<int64_t>::max())};
  if (predictor.dx != 0 || predictor.dy != 0) {
    int64_t sad = evaluate(predictor.dx, predictor.dy, best.sad);
    if (sad < best.sad) best = {predictor.dx, predictor.dy, sad};
  }

  // Large diamond pattern, repeated until the centre wins or the radius is
  // exhausted; then one small-diamond refinement.
  static const int kLarge[8][2] = {{0, -2}, {1, -1}, {2, 0},  {1, 1},
                                   {0, 2},  {-1, 1}, {-2, 0}, {-1, -1}};
  static const int kSmall[4][2] = {{0, -1}, {1, 0}, {0, 1}, {-1, 0}};

  bool improved = true;
  while (improved) {
    improved = false;
    for (const auto& offset : kLarge) {
      int dx = best.dx + offset[0];
      int dy = best.dy + offset[1];
      if (std::abs(dx) > search_radius || std::abs(dy) > search_radius) continue;
      int64_t sad = evaluate(dx, dy, best.sad);
      if (sad < best.sad) {
        best = {dx, dy, sad};
        improved = true;
      }
    }
  }
  for (const auto& offset : kSmall) {
    int dx = best.dx + offset[0];
    int dy = best.dy + offset[1];
    if (std::abs(dx) > search_radius || std::abs(dy) > search_radius) continue;
    int64_t sad = evaluate(dx, dy, best.sad);
    if (sad < best.sad) best = {dx, dy, sad};
  }
  kernels::CountKernelCalls(kernels::Kernel::kSad, evaluations);
  return best;
}

void MotionCompensate(const Plane& ref, int bx, int by, int size, int dx, int dy,
                      uint8_t* out) {
  bool inside = bx + dx >= 0 && by + dy >= 0 && bx + dx + size <= ref.width &&
                by + dy + size <= ref.height;
  if (inside) {
    // The common fully-interior case is a straight row copy.
    for (int y = 0; y < size; ++y) {
      std::memcpy(out + static_cast<size_t>(y) * size,
                  ref.Row(by + dy + y) + bx + dx, static_cast<size_t>(size));
    }
    return;
  }
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      int rx = ClampCoord(bx + dx + x, ref.width);
      int ry = ClampCoord(by + dy + y, ref.height);
      out[y * size + x] = ref.At(rx, ry);
    }
  }
}

}  // namespace visualroad::video::codec
