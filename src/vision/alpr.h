#ifndef VISUALROAD_VISION_ALPR_H_
#define VISUALROAD_VISION_ALPR_H_

#include <string>

#include "common/geometry.h"
#include "common/status.h"
#include "video/frame.h"

namespace visualroad::vision {

/// Result of searching a region for a specific plate.
struct PlateSearchResult {
  bool found = false;
  double score = 0.0;  // Normalised cross-correlation in [-1, 1].
  RectI box;           // Best-matching window.
};

/// The normalised correlation at which FindPlate counts a plate as found.
inline constexpr double kPlateMatchThreshold = 0.80;

/// The OpenALPR substitute (see DESIGN.md): license plates are rasterised
/// into the scene with the library's built-in glyph font, and this
/// recogniser does genuine pixel-domain work against them.
///
/// Two operations are exposed:
///  - FindPlate: multi-scale sliding-window normalised cross-correlation of
///    a rendered template of a *known* plate string against a search region
///    (a matched filter, as ALPR systems use for watchlist search). This is
///    what Q8's recognition function L does.
///  - ReadPlate: best-effort OCR of an already-localised plate rectangle by
///    per-cell glyph correlation.
class PlateRecognizer {
 public:
  /// Searches `region` of `frame` for `plate`. The region is scanned at
  /// several template scales; a normalised correlation of at least
  /// kPlateMatchThreshold counts as found.
  PlateSearchResult FindPlate(const video::Frame& frame, const RectI& region,
                              const std::string& plate) const;

  /// Reads the six characters of the plate inside `plate_box`.
  StatusOr<std::string> ReadPlate(const video::Frame& frame,
                                  const RectI& plate_box) const;
};

/// Renders the canonical luma template for a plate string at the given size
/// (the same 38x9 cell layout the simulator paints onto vehicles).
std::vector<float> RenderPlateTemplate(const std::string& plate, int width,
                                       int height);

}  // namespace visualroad::vision

#endif  // VISUALROAD_VISION_ALPR_H_
